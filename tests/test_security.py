"""Threshold solvers, secure regions and distances against closed-form oracles."""

import hashlib
import inspect
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cvqkd.gaussian
import oracle
from conftest import SPEC_COPIES, fresh_python
from cvqkd import (
    ChannelParams,
    ConditionalVariances,
    CVQKDError,
    FibreModel,
    PrecisionError,
    ProtocolSpec,
    SweepConfig,
    entropy_g,
    key_rate_at,
    max_distance,
    max_excess_noise,
    security_region,
    threshold_transmission,
    tmsv,
)
from cvqkd.security import _law, _nudged, _secure_at_infinite_v

E = math.e

RR_HOM_HOM = ProtocolSpec.parse("rr-homA-homB-eb")
RR_BOB_HET = ProtocolSpec.parse("rr-homA-hetB-eb")
DR_HOM_HOM = ProtocolSpec.parse("dr-homA-homB-eb")
DR_COHERENT = ProtocolSpec.parse("dr-hetA-homB-pm")
IDS = sorted(p.id for p in ProtocolSpec.all())
# T log-uniform on [5e-324, 1]
LOG_UNIFORM_T = st.floats(-323.3, 0.0).map(lambda e: max(10.0**e, 5e-324))


class TestProtocolCondVariances:
    def test_finite_v_perfect_channel(self):
        cv = key_rate_at(RR_HOM_HOM, ChannelParams(1.0, 0.0), 2.0).variances
        assert cv.v_x_b_given_a == pytest.approx(0.5, abs=1e-12)

    def test_infinite_v_rr(self):
        cv = key_rate_at(RR_HOM_HOM, ChannelParams(0.5, 0.1), math.inf).variances
        assert cv.v_x_b_given_a == pytest.approx(1.0 - 0.5 + 0.05, abs=1e-15)  # 0.55

    def test_infinite_v_dr(self):
        cv = key_rate_at(DR_HOM_HOM, ChannelParams(0.5, 0.0), math.inf).variances
        assert cv.v_x_a_given_b == pytest.approx(1.0, abs=1e-15)  # (1-T)/T

    def test_finite_matches_infinite_at_large_v(self):
        # all four protocol families, 4x4 parameter grid, 1e-3 bits
        protocols = [RR_HOM_HOM, RR_BOB_HET, DR_HOM_HOM, DR_COHERENT]
        for protocol in protocols:
            for t in np.linspace(0.25, 1.0, 4):
                for xi in np.linspace(0.0, 0.3, 4):
                    ch = ChannelParams(float(t), float(xi))
                    k_inf = key_rate_at(protocol, ch).key_rate
                    if not math.isfinite(k_inf):
                        continue
                    k_fin = key_rate_at(protocol, ch, 1e6).key_rate
                    assert abs(k_fin - k_inf) < 1e-3

class TestKeyRateAt:
    def test_perfect_channel_tmsv2(self):
        got = key_rate_at(RR_HOM_HOM, ChannelParams(1.0, 0.0), 2.0).key_rate
        assert got == pytest.approx(math.log2(4.0 / E), abs=1e-12)

    def test_zero_at_threshold(self):
        got = key_rate_at(RR_HOM_HOM, ChannelParams(1.0 - 2.0 / E, 0.0)).key_rate
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_huge_noise_kills_key(self):
        for pid in ("rr-homA-homB-eb", "dr-hetA-homB-pm", "rr-homA-hetB-eb"):
            got = key_rate_at(ProtocolSpec.parse(pid), ChannelParams(0.9, 10.0)).key_rate
            assert got < 0.0

    def test_identity_channel_limit_diverges(self):
        assert key_rate_at(RR_HOM_HOM, ChannelParams(1.0, 0.0)).key_rate == math.inf

    @settings(max_examples=500, deadline=None)
    @given(
        protocol=st.sampled_from(ProtocolSpec.all()),
        t=st.one_of(st.sampled_from([5e-324, 1e-300, 1.0]), st.floats(5e-324, 1.0)),
        xi=st.one_of(st.sampled_from([0.0, 1e308, 1.7e308]), st.floats(0.0, 1.7e308)),
        v=st.one_of(st.sampled_from([1.0, 1e300, math.inf]), st.floats(1.0, math.inf)),
    )
    @example(protocol=DR_HOM_HOM, t=5e-324, xi=0.0, v=math.inf)  # V_{A|B} = w/T overflows
    @example(protocol=ProtocolSpec.parse("rr-hetA-homB-eb"), t=1.0, xi=1e308, v=math.inf)  # 2v - 1 does
    def test_rate_is_finite_or_the_identity_channel_or_a_typed_error(self, protocol, t, xi, v):
        # never -inf or NaN: +inf only where a homodyne-homodyne pair reads 0 on the identity channel
        try:
            rate = key_rate_at(protocol, ChannelParams(t, xi), v).key_rate
        except CVQKDError:
            return
        identity = (t, xi, v) == (1.0, 0.0, math.inf) and not (protocol._a_het or protocol._b_het)
        assert rate == math.inf if identity else math.isfinite(rate), (protocol.id, t, xi, v, rate)

    def test_monotone_in_noise_and_transmission(self):
        for protocol in (RR_HOM_HOM, RR_BOB_HET):
            rates = [
                key_rate_at(protocol, ChannelParams(0.8, float(xi))).key_rate
                for xi in np.linspace(0.0, 0.5, 8)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(rates, rates[1:]))
            rates_t = [
                key_rate_at(protocol, ChannelParams(float(t), 0.01)).key_rate
                for t in np.linspace(0.4, 0.999, 8)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(rates_t, rates_t[1:]))


VARIANCE_FIELDS = ("v_x_b_given_a", "v_p_b_given_a", "v_x_a_given_b", "v_p_a_given_b")


class TestClosedForm:
    @settings(max_examples=300, deadline=None)
    @given(
        protocol=st.sampled_from(ProtocolSpec.all()),
        log_v=st.floats(0.0, 5.0),
        t=st.floats(1e-3, 1.0),
        xi=st.floats(0.0, 0.5),
    )
    @example(protocol=RR_HOM_HOM, log_v=5.0, t=1.0, xi=0.0)  # w = 0: V_{B|A} = 1/V
    def test_matches_the_oracle(self, protocol, log_v, t, xi):
        # the Schur complements of the measured columns, every heterodyne port a mode
        # of its own, at 60 digits
        v = 10.0**log_v
        cv = key_rate_at(protocol, ChannelParams(t, xi), v).variances
        for name, want in zip(VARIANCE_FIELDS, oracle.conditional_variances(protocol, t, xi, v)):
            assert abs(getattr(cv, name) - want) <= 1e-14 * want, name

    def test_matches_the_oracle_at_large_v(self):
        rng = np.random.default_rng(6)
        for v in np.logspace(5.0, 10.0, 11).tolist():
            for protocol in ProtocolSpec.all():
                t, xi = float(rng.uniform(1e-3, 1.0)), float(rng.uniform(0.0, 0.5))
                cv = key_rate_at(protocol, ChannelParams(t, xi), v).variances
                for got, want in zip(cv[:4], oracle.conditional_variances(protocol, t, xi, v)):
                    assert abs(got - want) <= 1e-14 * want, (protocol.id, v, t, xi)

    def test_infinite_v_is_the_limit(self):
        for protocol in ProtocolSpec.all():
            ch = ChannelParams(0.3, 0.05)
            cv_inf = key_rate_at(protocol, ch, math.inf).variances
            cv_big = key_rate_at(protocol, ch, 1e300).variances
            for name in VARIANCE_FIELDS:
                assert getattr(cv_big, name) == pytest.approx(getattr(cv_inf, name), rel=1e-15)

    def test_key_rate_at_builds_no_covariance_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a covariance matrix was built")

        monkeypatch.setattr(cvqkd.gaussian.CovarianceMatrix, "__post_init__", refuse)
        for protocol in ProtocolSpec.all():
            for v in (1.0, 2.5, 1e4, 3e7, 1e10, math.inf):
                ch = ChannelParams(0.5, 0.01)
                assert math.isfinite(key_rate_at(protocol, ch, v).key_rate)
        with pytest.raises(AssertionError, match="covariance matrix was built"):
            tmsv(2.0)


class TestModulation:
    """The rate against the modulation V, through key_rate_at."""

    def test_rate_increases_with_v(self):
        ch = ChannelParams(0.5, 0.0)
        k10, k100, k_big = (key_rate_at(RR_HOM_HOM, ch, v).key_rate for v in (10.0, 100.0, 1e5))
        k_inf = key_rate_at(RR_HOM_HOM, ch).key_rate
        assert k10 < k100 < k_big < k_inf == pytest.approx(math.log2(4.0 / E), abs=1e-12)
        assert k_big == pytest.approx(math.log2(4.0 / E), abs=1e-3)

    def test_lossless_channel_at_v_two(self):
        assert key_rate_at(RR_HOM_HOM, ChannelParams(1.0, 0.0), 2.0).key_rate == pytest.approx(
            math.log2(4.0 / E), abs=1e-12
        )

    def test_no_positive_key_at_any_v(self):
        ch = ChannelParams(0.1, 0.5)
        for v in np.geomspace(1.0, 50.0, 16).tolist() + [math.inf]:
            assert key_rate_at(RR_HOM_HOM, ch, v).key_rate <= 0.0, v

    def test_dr_hom_hom_is_flat_where_w_is_t(self):
        # at T = 0.5, xi = 0, w = 1 - T = T, so V_{A|B} = (w + T u)/(T + w u) = 1 at every V
        ch = ChannelParams(0.5, 0.0)
        rates = [key_rate_at(DR_HOM_HOM, ch, v).key_rate for v in (1.0, 7.0, 1e6, math.inf)]
        assert rates == [rates[0]] * 4

    @pytest.mark.parametrize("pid", IDS)
    @settings(max_examples=12, deadline=None)
    @given(t=st.floats(1e-3, 1.0), xi=st.floats(0.0, 0.5), log_v_max=st.floats(0.0, 6.0))
    def test_an_end_of_the_range_is_the_best_v(self, pid, t, xi, log_v_max):
        # the rate is monotone in V, so one end of [1, v_max] is at least every interior value
        protocol, ch, v_max = ProtocolSpec.parse(pid), ChannelParams(t, xi), 10.0**log_v_max
        best = max(key_rate_at(protocol, ch, v).key_rate for v in (1.0, v_max))
        for v in np.geomspace(1.0, v_max, 64).tolist():
            assert best >= key_rate_at(protocol, ch, v).key_rate - 1e-12, v


class TestThresholdTransmission:
    def test_rr_hom_hom_loss_threshold(self):
        got = threshold_transmission(RR_HOM_HOM, 0.0)
        assert got == pytest.approx(1.0 - 2.0 / E, rel=1e-15, abs=0.0)

    def test_dr_coherent_threshold(self):
        got = threshold_transmission(DR_COHERENT, 0.0)
        assert got == pytest.approx(E / 4.0, rel=1e-15, abs=0.0)

    def test_dr_hom_hom_threshold(self):
        got = threshold_transmission(DR_HOM_HOM, 0.0)
        assert got == pytest.approx(E / (E + 2.0), rel=1e-15, abs=0.0)

    def test_rr_bob_het_threshold(self):
        got = threshold_transmission(RR_BOB_HET, 0.0)
        assert got == pytest.approx(2.0 - 4.0 / E, rel=1e-15, abs=0.0)

    def test_threshold_ordering_at_low_noise(self):
        for xi in (0.0, 0.005, 0.01):
            ts = [
                threshold_transmission(p, xi)
                for p in (RR_HOM_HOM, RR_BOB_HET, DR_HOM_HOM, DR_COHERENT)
            ]
            assert ts[0] < ts[1] < ts[2] < ts[3]

    def test_never_secure_protocols(self):
        for pid in ("rr-hetA-homB-eb", "dr-homA-hetB-eb", "dr-hetA-hetB-eb", "rr-hetA-hetB-eb"):
            assert threshold_transmission(ProtocolSpec.parse(pid), 0.0) is None

    def test_too_much_noise_is_no_security(self):
        assert threshold_transmission(RR_HOM_HOM, 0.8) is None  # > 2/e at T = 1

    @pytest.mark.parametrize("xi", [1.0, 1.0 + 2.0 / E, 4.0 / E, 1e300])
    def test_zero_or_negative_denominator_is_no_security(self, xi):
        # 1 - xi vanishes for the RR laws at xi = 1, and 1 + c - xi for the
        # DR laws at xi = 1 + 2/e (hom-hom) and 4/e (Alice heterodynes)
        for protocol in ProtocolSpec.all():
            assert threshold_transmission(protocol, xi) is None


class TestSecurityRegion:
    def test_xi_max_at_full_transmission(self):
        assert max_excess_noise(RR_HOM_HOM, 1.0) == pytest.approx(2.0 / E, abs=1e-6)

    def test_no_security_below_threshold(self):
        assert max_excess_noise(DR_COHERENT, 0.5) is None  # T < e/4

    def test_boundary_point_gives_zero(self):
        got = max_excess_noise(DR_COHERENT, E / 4.0)
        assert got is not None and got == pytest.approx(0.0, abs=1e-6)

    def test_xi_max_nondecreasing_in_t(self):
        cfg = SweepConfig(t_min=0.1, t_max=1.0, steps=30)
        for protocol in (RR_HOM_HOM, RR_BOB_HET, DR_HOM_HOM, DR_COHERENT):
            xis = [xi for _, xi in security_region(protocol, cfg)]
            seen = [x for x in xis if x is not None]
            assert all(b >= a - 1e-8 for a, b in zip(seen, seen[1:]))
            # None rows only at the low-T end
            first = next(i for i, x in enumerate(xis) if x is not None)
            assert all(x is not None for x in xis[first:])

    def test_curve_crossing_dr_hom_hom_vs_rr_bob_het(self):
        # equate the closed forms: 2T/e = 4/e - 1  =>  T = 2 - e/2
        t_cross = 2.0 - E / 2.0
        xi_cross = oracle.xi_max(DR_HOM_HOM, t_cross)
        assert abs(xi_cross - oracle.xi_max(RR_BOB_HET, t_cross)) <= 1e-12
        lo, hi = 0.60, 0.70  # both curves exist here (dr hom-hom needs T > e/(e+2))

        def gap(t):
            return max_excess_noise(DR_HOM_HOM, t) - max_excess_noise(RR_BOB_HET, t)

        assert gap(lo) * gap(hi) < 0.0
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if gap(lo) * gap(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        assert (lo + hi) / 2.0 == pytest.approx(t_cross, abs=1e-6)

    def test_one_step_grid_and_exact_ends(self):
        assert SweepConfig(0.5, 1.0, 1).t_values() == [0.5]
        # (0.1, 1.0, 10) is verify-ur's default grid; t_min + i (t_max - t_min) / 9
        # ends it at 0.9999999999999999
        for t_min, steps in ((0.1, 10), (0.01, 100), (0.3, 8)):
            ts = SweepConfig(t_min, 1.0, steps).t_values()
            assert (ts[0], ts[-1]) == (t_min, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(t_min=LOG_UNIFORM_T, t_max=st.just(1.0) | LOG_UNIFORM_T, steps=st.integers(1, 5000))
    @example(t_min=5e-324, t_max=1e-323, steps=5)  # the step rounds to 0: numpy scales i / 4
    @example(t_min=0.1, t_max=1.0, steps=10)  # verify-ur's default grid
    def test_grid_is_numpys_linspace(self, t_min, t_max, steps):
        if steps > 1:
            t_min, t_max = min(t_min, t_max), max(t_min, t_max)
            assume(t_min < t_max)
        ts = SweepConfig(t_min, t_max, steps).t_values()
        assert ts == np.linspace(t_min, t_max, steps).tolist()
        assert all(type(t) is float for t in ts)
        # float32 ends give the float64 grid of their values, where numpy 2's
        # linspace would keep float32
        lo, hi = float(np.float32(t_min)), float(np.float32(t_max))
        if lo > 0.0 and hi > 0.0 and (steps == 1 or lo < hi):
            ends32 = SweepConfig(np.float32(t_min), np.float32(t_max), steps).t_values()
            assert ends32 == SweepConfig(lo, hi, steps).t_values()


class TestMaxDistance:
    def test_rr_hom_hom_at_reported_noise(self):
        got = max_distance(RR_HOM_HOM, 0.002)
        oracle = -50.0 * math.log10((1.0 - 2.0 / E) / 0.998)
        assert oracle == pytest.approx(28.8565, abs=1e-3)
        assert got == pytest.approx(oracle, abs=1e-4)

    def test_rr_hom_hom_zero_noise(self):
        got = max_distance(RR_HOM_HOM, 0.0)
        assert got == pytest.approx(-50.0 * math.log10(1.0 - 2.0 / E), abs=1e-4)
        assert got == pytest.approx(28.8999801, abs=1e-3)

    def test_dr_coherent_zero_noise(self):
        got = max_distance(DR_COHERENT, 0.0)
        assert got == pytest.approx(-50.0 * math.log10(E / 4.0), abs=1e-4)
        assert got == pytest.approx(8.3883, abs=1e-3)

    def test_custom_attenuation(self):
        half = max_distance(RR_HOM_HOM, 0.0, FibreModel(0.4))
        assert half == pytest.approx(max_distance(RR_HOM_HOM, 0.0) / 2.0, abs=1e-9)

    def test_no_security_propagates(self):
        assert max_distance(ProtocolSpec.parse("rr-hetA-homB-eb"), 0.0) is None

    def test_distance_of_valid_transmissions(self):
        assert FibreModel().distance_km(0.1) == pytest.approx(50.0, rel=1e-15)
        assert math.copysign(1.0, FibreModel().distance_km(1.0)) == 1.0  # "0", not "-0"


class TestLastSecurePoint:
    """T* and xi_max are secure, and a step of 2e-9 past either is not."""

    TOL = 1e-9

    @pytest.mark.parametrize("pid", IDS)
    @settings(max_examples=10, deadline=None)
    @given(xi=st.floats(0.0, 0.5))
    @example(xi=1e-200)  # k(1) squares xi: rr-homA-homB-eb's product underflowed
    def test_threshold_transmission_is_last_secure(self, pid, xi):
        protocol = ProtocolSpec.parse(pid)

        def k(t):
            return key_rate_at(protocol, ChannelParams(t, xi)).key_rate

        t = threshold_transmission(protocol, xi)
        if t is None:
            assert k(1.0) < 0.0
            return
        assert k(t) >= 0.0
        assert k(t - 2.0 * self.TOL) < 0.0

    @pytest.mark.parametrize("pid", IDS)
    @settings(max_examples=10, deadline=None)
    @given(t=st.floats(1e-6, 1.0))
    def test_max_excess_noise_is_last_secure(self, pid, t):
        protocol = ProtocolSpec.parse(pid)

        def k(xi):
            return key_rate_at(protocol, ChannelParams(t, xi)).key_rate

        xi = max_excess_noise(protocol, t)
        if xi is None:
            assert k(0.0) < 0.0
            return
        assert k(xi) >= 0.0
        assert k(xi + 2.0 * self.TOL) < 0.0

    def test_nudge_stops_at_its_end_and_on_nan(self):
        def never_secure(x):
            seen.append(x)
            assert len(seen) <= 4, "the nudge did not stop"
            return False

        for x, toward, steps in ((math.nan, 0.0, 1), (1.0, 1.0, 1), (math.nextafter(0.0, 1.0), 0.0, 2)):
            seen = []
            assert _nudged(never_secure, x, toward) is None
            assert len(seen) == steps
        assert _nudged(lambda x: x >= 1.0, 1.0 - 2.0**-52, 1.0) == 1.0


class TestNumpyScalarInputs:
    def test_point_solvers_solve_numpy_scalars_as_floats(self):
        # left a float32, xi would keep the nudge's arithmetic in float32, where its
        # float64 ulp steps change nothing; a fresh interpreter's timeout bounds a hang
        proc = fresh_python(
            "-c",
            "import numpy as np\n"
            "from cvqkd import ProtocolSpec, max_distance, max_excess_noise, threshold_transmission\n"
            "for p in ProtocolSpec.all():\n"
            "    for solve in (threshold_transmission, max_distance, max_excess_noise):\n"
            "        for x in (0.002, 0.0237, 0.3, 0.5, 0.9, 1.0):\n"
            "            for scalar in (np.float64(x), np.float32(x)):\n"
            "                got, want = solve(p, scalar), solve(p, float(scalar))\n"
            "                assert got == want and type(got) is type(want), (p.id, scalar, got)\n"
            "            assert solve(p, np.float64(x)) == solve(p, x)\n",
        )
        assert (proc.returncode, proc.stderr) == (0, "")


class TestClosedFormLaws:
    """Thresholds and xi_max against the oracle's 60-digit laws, and the laws against key_rate_at."""

    XIS = (0.0, 0.002, 0.0237, 0.05, 0.1, 0.2, 0.3)

    @staticmethod
    def assert_close(got, want):
        assert abs(got - want) <= 1e-14 * abs(want) + 1e-15, (got, want)

    def test_threshold_transmission_matches_the_oracle(self):
        for protocol in ProtocolSpec.all():
            for xi in self.XIS:
                got, want = threshold_transmission(protocol, xi), oracle.threshold_transmission(protocol, xi)
                if want is None:
                    assert got is None, (protocol.id, xi)
                else:
                    self.assert_close(got, want)

    @pytest.mark.parametrize(
        "config",
        [SweepConfig(0.01, 1.0, 200), SweepConfig(0.2, 0.9999, 157), SweepConfig(0.05, 1.0, 40)],
        ids=["default", "fine", "coarse"],
    )
    def test_xi_max_matches_the_oracle(self, config):
        for protocol in ProtocolSpec.all():
            for t, got in security_region(protocol, config):
                want = oracle.xi_max(protocol, t)
                if want is None:
                    assert got is None, (protocol.id, t)
                else:
                    self.assert_close(got, want)

    def test_laws_are_the_private_table(self):
        # the four laws of the module docstring, by id without the flavor; None elsewhere
        docstring = {
            "dr-homA-homB": (2.0 / E, 1), "rr-homA-homB": (2.0 / E, 0),
            "rr-homA-hetB": (4.0 / E - 1.0, 0), "dr-hetA-homB": (4.0 / E - 1.0, 1),
        }
        for protocol, copy_of in itertools.product(ProtocolSpec.all(), SPEC_COPIES.values()):
            law, want = _law(copy_of(protocol)), oracle.law(protocol)
            assert law == docstring.get(protocol.id[:-3]), protocol.id
            assert (law is None) is (want is None)
            if law is not None:
                assert law[0] == pytest.approx(float(want[0]), rel=1e-15)
                assert law[1] == want[1]

    @settings(max_examples=400, deadline=None)
    @given(
        protocol=st.sampled_from(ProtocolSpec.all()),
        t=st.floats(1e-6, 1.0),
        xi=st.floats(0.0, 2.0),
        snap=st.none() | st.floats(-1e-9, 1e-9),
    )
    @example(protocol=RR_BOB_HET, t=0.5284822353142306, xi=0.0, snap=None)  # margin -1.1e-16, secure
    def test_law_sign_is_the_sign_of_key_rate_at(self, protocol, t, xi, snap):
        law = _law(protocol)
        if law is None:
            assert key_rate_at(protocol, ChannelParams(t, xi)).key_rate < 0.0
            return
        c, k = law
        if snap is not None:  # move xi to within 1e-9 of the law's xi_max(t)
            xi = max(0.0, (c * t**k - (1.0 - t)) / t + snap)
        secure = key_rate_at(protocol, ChannelParams(t, xi)).key_rate >= 0.0
        margin = c * t**k - (1.0 - t + t * xi)
        if abs(margin) > 1e-12:
            assert (margin > 0.0) is secure


class TestBatchedSolver:
    """The array security test is the sign of ``key_rate_at``, and a region row is a one-point grid.

    ``max_excess_noise`` solves a one-point grid of the array solve that
    ``security_region`` runs on the whole grid, so each region row is its value.
    """

    # sha256 of the repr of solver output, taken with the closed-form laws
    REGION_SHA256 = "a4db3be3f80cd2fdad47d27a11e6062ffbd623eaf7dec9ec990eb2873e6eb306"
    DISTANCE_SHA256 = "2336786b5fc80826ff39b40b8e8083081ce4ab9ad9c917d0e4845e69ad5a0e63"

    @settings(max_examples=400, deadline=None)
    @given(
        protocol=st.sampled_from(ProtocolSpec.all()),
        t=st.floats(5e-324, 1.0),
        xi=st.floats(0.0, 1e300),
    )
    @example(protocol=RR_HOM_HOM, t=1.0, xi=1e-200)  # the product underflows
    @example(protocol=DR_HOM_HOM, t=1.0, xi=1e-200)
    @example(protocol=RR_HOM_HOM, t=1.0, xi=1e-160)  # v v = 1e-320 is subnormal: sqrt inexact
    @example(protocol=DR_HOM_HOM, t=1.0, xi=1e-160)
    @example(protocol=RR_HOM_HOM, t=1.0, xi=0.0)  # identity channel: rate inf
    @example(protocol=DR_HOM_HOM, t=1.0, xi=0.0)
    @example(protocol=RR_BOB_HET, t=1.0, xi=0.0)
    @example(protocol=DR_COHERENT, t=5e-324, xi=0.0)  # w / T overflows
    @example(protocol=RR_HOM_HOM, t=0.5, xi=1e300)  # the product overflows
    def test_security_test_is_the_sign_of_key_rate_at(self, protocol, t, xi):
        # where key_rate_at raises, its variance overflows, and the sign test reads insecure
        try:
            want = key_rate_at(protocol, ChannelParams(t, xi)).key_rate >= 0.0
        except PrecisionError:
            want = False
        with np.errstate(over="ignore"):
            assert bool(_secure_at_infinite_v(protocol, t, xi)) is want
            batch = _secure_at_infinite_v(protocol, np.array([t, t]), np.array([xi, xi]))
        assert batch.tolist() == [want, want]

    @pytest.mark.parametrize(
        "config",
        [
            SweepConfig(t_min=1e-6, t_max=1.0, steps=57),
            SweepConfig(t_min=0.0523, t_max=0.9999, steps=33),
        ],
    )
    def test_region_rows_are_one_point_grids(self, config):
        for protocol in ProtocolSpec.all():
            assert security_region(protocol, config) == [
                (t, max_excess_noise(protocol, t))
                for t in config.t_values()
            ]

    def test_region_is_pinned(self):
        config = SweepConfig(t_min=0.01, t_max=1.0, steps=200)
        rows = [security_region(p, config) for p in ProtocolSpec.all()]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.REGION_SHA256

    def test_distances_are_pinned(self):
        km = [[max_distance(p, xi) for xi in (0.0, 0.002, 0.0237)] for p in ProtocolSpec.all()]
        assert hashlib.sha256(repr(km).encode()).hexdigest() == self.DISTANCE_SHA256

    def test_overflowing_transmission_is_quiet_and_insecure(self):
        # at T = 5e-324 the array form of w / T would overflow to inf; the solve
        # divides only rows at T > 1/4 and tests the rest with a NaN xi, so
        # numpy raises no warning (which the test configuration makes an error)
        config = SweepConfig(t_min=5e-324, t_max=1.0, steps=5)
        for protocol in ProtocolSpec.all():
            rows = security_region(protocol, config)
            assert rows[0] == (5e-324, None)
            assert rows == [(t, max_excess_noise(protocol, t)) for t, _ in rows]

    def test_identity_channel_limit_has_zero_variances(self):
        # all four vanish; key_rate gives the +inf rate (TestKeyRateAt) and the CLI prints zeros
        res = key_rate_at(RR_HOM_HOM, ChannelParams(1.0, 0.0), math.inf)
        assert res.variances == ConditionalVariances(0.0, 0.0, 0.0, 0.0)
        assert (res.key_rate, res.steering_ab, res.steering_ba) == (math.inf, 0.0, 0.0)


def test_all_is_exactly_the_exported_names():
    # every public name the package binds, bar its submodules, and nothing else
    namespace = {}
    exec("from cvqkd import *", namespace)
    del namespace["__builtins__"]
    public = {
        name
        for name, value in vars(cvqkd).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(namespace) == sorted(cvqkd.__all__) == sorted(public)
    assert all(namespace[name] is getattr(cvqkd, name) for name in cvqkd.__all__)
    for removed in (
        "reduced_state", "condition_on_homodyne", "measured_conditional_vn_entropy", "split_with_vacuum",
        "thermal", "UnphysicalStateError",
    ):
        assert not hasattr(cvqkd, removed)


def test_entropy_kernel_diverges_at_infinity():
    assert entropy_g(math.inf) == math.inf
