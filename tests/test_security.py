"""Threshold solvers, secure regions and distances against closed-form oracles."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvqkd import (
    ChannelParams,
    DomainError,
    FibreModel,
    ProtocolSpec,
    SweepConfig,
    empirical_entropy,
    key_rate_at,
    max_distance,
    max_excess_noise,
    optimize_modulation,
    protocol_cond_variances,
    security_region,
    thermal,
    threshold_transmission,
)
from cvqkd.security import (
    T_BISECT_FLOOR,
    XI_BISECT_CEILING,
    _last_secure,
    _secure_at_infinite_v,
)

E = math.e

RR_HOM_HOM = ProtocolSpec.parse("rr-homA-homB-eb")
RR_BOB_HET = ProtocolSpec.parse("rr-homA-hetB-eb")
DR_HOM_HOM = ProtocolSpec.parse("dr-homA-homB-eb")
DR_COHERENT = ProtocolSpec.parse("dr-hetA-homB-pm")


# Closed-form oracles, derived by setting the large-V rate to zero by hand:
#   rr hom-hom:  1 - T + T xi          = 2/e
#   rr Bob-het:  (2 - T + T xi)/2      = 2/e
#   dr hom-hom:  (1 - T + T xi)/T      = 2/e
#   dr coherent: ((1 - T + T xi)/T + 1)/2 = 2/e


def t_star_oracle(protocol, xi):
    if protocol is RR_HOM_HOM:
        return (1.0 - 2.0 / E) / (1.0 - xi)
    if protocol is RR_BOB_HET:
        return (2.0 - 4.0 / E) / (1.0 - xi)
    if protocol is DR_HOM_HOM:
        return 1.0 / (1.0 + 2.0 / E - xi)
    if protocol is DR_COHERENT:
        return 1.0 / (4.0 / E - xi)
    raise AssertionError(protocol)


def xi_max_oracle(protocol, t):
    if protocol is RR_HOM_HOM:
        return (2.0 / E - 1.0 + t) / t
    if protocol is RR_BOB_HET:
        return (4.0 / E - 2.0 + t) / t
    if protocol is DR_HOM_HOM:
        return 2.0 / E - (1.0 - t) / t
    if protocol is DR_COHERENT:
        return (4.0 / E - 1.0) - (1.0 - t) / t
    raise AssertionError(protocol)


class TestProtocolCondVariances:
    def test_finite_v_perfect_channel(self):
        cv = protocol_cond_variances(RR_HOM_HOM, ChannelParams(1.0, 0.0), 2.0)
        assert cv.v_x_b_given_a == pytest.approx(0.5, abs=1e-12)

    def test_infinite_v_rr(self):
        cv = protocol_cond_variances(RR_HOM_HOM, ChannelParams(0.5, 0.1), math.inf)
        assert cv.v_x_b_given_a == pytest.approx(1.0 - 0.5 + 0.05, abs=1e-15)  # 0.55

    def test_infinite_v_dr(self):
        cv = protocol_cond_variances(DR_HOM_HOM, ChannelParams(0.5, 0.0), math.inf)
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

    def test_rejects_v_below_one(self):
        with pytest.raises(DomainError):
            protocol_cond_variances(RR_HOM_HOM, ChannelParams(0.5, 0.0), 0.5)


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


class TestOptimizeModulation:
    def test_rate_increases_with_v_max(self):
        ch = ChannelParams(0.5, 0.0)
        _, k10 = optimize_modulation(RR_HOM_HOM, ch, 10.0)
        _, k100 = optimize_modulation(RR_HOM_HOM, ch, 100.0)
        _, k_big = optimize_modulation(RR_HOM_HOM, ch, 1e5)
        assert k10 < k100 < k_big < math.log2(4.0 / E)
        assert k_big == pytest.approx(math.log2(4.0 / E), abs=1e-3)

    def test_monotone_case_hits_boundary(self):
        v_star, k_star = optimize_modulation(RR_HOM_HOM, ChannelParams(1.0, 0.0), 2.0)
        assert v_star == 2.0
        assert k_star == pytest.approx(math.log2(4.0 / E), abs=1e-12)

    def test_no_positive_key_still_returns_argmax(self):
        v_star, k_star = optimize_modulation(RR_HOM_HOM, ChannelParams(0.1, 0.5), 50.0)
        assert k_star <= 0.0
        assert 1.0 <= v_star <= 50.0


class TestThresholdTransmission:
    def test_rr_hom_hom_loss_threshold(self):
        got = threshold_transmission(RR_HOM_HOM, 0.0)
        assert got == pytest.approx(1.0 - 2.0 / E, abs=1e-6)

    def test_dr_coherent_threshold(self):
        got = threshold_transmission(DR_COHERENT, 0.0)
        assert got == pytest.approx(E / 4.0, abs=1e-6)

    def test_dr_hom_hom_threshold(self):
        got = threshold_transmission(DR_HOM_HOM, 0.0)
        assert got == pytest.approx(E / (E + 2.0), abs=1e-6)

    def test_rr_bob_het_threshold(self):
        got = threshold_transmission(RR_BOB_HET, 0.0)
        assert got == pytest.approx(2.0 - 4.0 / E, abs=1e-6)

    def test_matches_oracle_across_noise(self):
        for protocol in (RR_HOM_HOM, RR_BOB_HET, DR_HOM_HOM, DR_COHERENT):
            for xi in (0.0, 0.05, 0.1, 0.2):
                oracle = t_star_oracle(protocol, xi)
                if oracle > 1.0:
                    assert threshold_transmission(protocol, xi) is None
                else:
                    assert threshold_transmission(protocol, xi) == pytest.approx(
                        oracle, abs=1e-6
                    )

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


class TestSecurityRegion:
    def test_xi_max_at_full_transmission(self):
        assert max_excess_noise(RR_HOM_HOM, 1.0) == pytest.approx(2.0 / E, abs=1e-6)

    def test_agrees_with_closed_forms(self):
        cfg = SweepConfig(t_min=0.05, t_max=1.0, steps=40)
        for protocol in (RR_HOM_HOM, RR_BOB_HET, DR_HOM_HOM, DR_COHERENT):
            for t, xi in security_region(protocol, cfg):
                oracle = xi_max_oracle(protocol, t)
                if oracle < 0.0:
                    assert xi is None
                else:
                    assert xi == pytest.approx(oracle, abs=1e-6)

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
        xi_cross = xi_max_oracle(DR_HOM_HOM, t_cross)
        assert xi_cross == pytest.approx(xi_max_oracle(RR_BOB_HET, t_cross), abs=1e-12)
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

    def test_sweep_config_validation(self):
        with pytest.raises(DomainError):
            SweepConfig(t_min=0.5, t_max=0.5, steps=10)
        with pytest.raises(DomainError):
            SweepConfig(t_min=0.1, t_max=1.0, steps=1)


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

    def test_fibre_model_validation(self):
        with pytest.raises(DomainError):
            FibreModel(0.0)


class TestRootFinderProperties:
    """Both solvers return the last secure point of their bracket, to 2 tol."""

    TOL = 1e-9

    @settings(max_examples=80, deadline=None)
    @given(protocol=st.sampled_from(ProtocolSpec.all()), xi=st.floats(0.0, 0.5))
    @example(protocol=RR_HOM_HOM, xi=1e-200)  # k(1) squares xi: the product underflows
    def test_threshold_transmission_is_last_secure(self, protocol, xi):
        def k(t):
            return key_rate_at(protocol, ChannelParams(t, xi)).key_rate

        t = threshold_transmission(protocol, xi, self.TOL)
        if t is None:
            assert k(1.0) < 0.0
            return
        assert k(t) >= 0.0
        assert t == T_BISECT_FLOOR or k(t - 2.0 * self.TOL) < 0.0

    @settings(max_examples=80, deadline=None)
    @given(protocol=st.sampled_from(ProtocolSpec.all()), t=st.floats(1e-6, 1.0))
    def test_max_excess_noise_is_last_secure(self, protocol, t):
        def k(xi):
            return key_rate_at(protocol, ChannelParams(t, xi)).key_rate

        xi = max_excess_noise(protocol, t, self.TOL)
        if xi is None:
            assert k(0.0) < 0.0
            return
        assert k(xi) >= 0.0
        assert xi == XI_BISECT_CEILING or k(xi + 2.0 * self.TOL) < 0.0


class TestBatchedSolver:
    """The array security test and batched bisection reproduce the scalar solvers bit for bit."""

    # sha256 of the repr of solver output, taken with the scalar key_rate_at
    # bisection that the batched solver replaced
    REGION_SHA256 = "5a5dd1af83e5ba329fd1f66d1f8673ba36dd38d6f103b634bf40b35e6b6adb6e"
    DISTANCE_SHA256 = "cbba1a951cac4e34f500efb933c49dec093102710105217bf28f366cec3c4601"

    @settings(max_examples=400, deadline=None)
    @given(
        protocol=st.sampled_from(ProtocolSpec.all()),
        t=st.floats(5e-324, 1.0),
        xi=st.floats(0.0, 1e300),
    )
    @example(protocol=RR_HOM_HOM, t=1.0, xi=1e-200)  # the product underflows
    @example(protocol=DR_HOM_HOM, t=1.0, xi=1e-200)
    @example(protocol=RR_HOM_HOM, t=1.0, xi=0.0)  # identity channel: rate inf
    @example(protocol=DR_HOM_HOM, t=1.0, xi=0.0)
    @example(protocol=RR_BOB_HET, t=1.0, xi=0.0)
    @example(protocol=DR_COHERENT, t=5e-324, xi=0.0)  # w / T overflows
    @example(protocol=RR_HOM_HOM, t=0.5, xi=1e300)  # the product overflows
    def test_security_test_is_the_sign_of_key_rate_at(self, protocol, t, xi):
        want = key_rate_at(protocol, ChannelParams(t, xi)).key_rate >= 0.0
        with np.errstate(over="ignore"):
            assert bool(_secure_at_infinite_v(protocol, t, xi)) is want
            batch = _secure_at_infinite_v(protocol, np.array([t, t]), np.array([xi, xi]))
        assert batch.tolist() == [want, want]

    @pytest.mark.parametrize(
        "config",
        [
            SweepConfig(t_min=1e-6, t_max=1.0, steps=57, tolerance=1e-12),
            SweepConfig(t_min=0.0523, t_max=0.9999, steps=33, tolerance=3e-7),
        ],
    )
    def test_region_equals_one_bracket_per_point(self, config):
        for protocol in ProtocolSpec.all():
            assert security_region(protocol, config) == [
                (t, max_excess_noise(protocol, t, config.tolerance))
                for t in config.t_values().tolist()
            ]

    def test_each_bracket_stops_on_its_own(self):
        # near one ulp the rounded midpoints leave brackets of unequal width,
        # so they close after different numbers of halvings
        cuts = np.linspace(0.11, 0.69, 101)
        for ends, below in (((0.1, 0.7), True), ((0.7, 0.1), False)):
            test = (lambda x, c: x <= c) if below else (lambda x, c: x >= c)
            batched = _last_secure(lambda x: test(x, cuts), *ends, 1.5e-16)
            assert None not in batched
            assert batched == [
                _last_secure(lambda x: test(x, c), *ends, 1.5e-16) for c in cuts.tolist()
            ]

    def test_region_is_pinned(self):
        config = SweepConfig(t_min=0.01, t_max=1.0, steps=200)
        rows = [security_region(p, config) for p in ProtocolSpec.all()]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.REGION_SHA256

    def test_distances_are_pinned(self):
        km = [[max_distance(p, xi) for xi in (0.0, 0.002, 0.0237)] for p in ProtocolSpec.all()]
        assert hashlib.sha256(repr(km).encode()).hexdigest() == self.DISTANCE_SHA256

    def test_overflowing_transmission_is_quiet_and_insecure(self):
        # at T = 5e-324 the array form of w / T overflows to inf; the solve
        # silences numpy's warning (which the test configuration makes an error)
        config = SweepConfig(t_min=5e-324, t_max=1.0, steps=5)
        for protocol in ProtocolSpec.all():
            rows = security_region(protocol, config)
            assert rows[0] == (5e-324, None)
            assert rows == [(t, max_excess_noise(protocol, t)) for t, _ in rows]

    def test_identity_channel_limit_still_raises_for_variances(self):
        with pytest.raises(DomainError, match="vanish"):
            protocol_cond_variances(RR_HOM_HOM, ChannelParams(1.0, 0.0), math.inf)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: ChannelParams(x, 0.0),
        lambda x: ChannelParams(0.5, x),
        lambda x: SweepConfig(t_min=x, t_max=1.0, steps=10),
        lambda x: SweepConfig(t_min=0.1, t_max=x, steps=10),
        lambda x: SweepConfig(t_min=0.1, t_max=1.0, steps=10, tolerance=x),
        lambda x: FibreModel(x),
        lambda x: threshold_transmission(RR_HOM_HOM, x),
        lambda x: max_excess_noise(RR_HOM_HOM, x),
        thermal,
        lambda x: empirical_entropy(np.linspace(-1.0, 1.0, 2000), x),
    ],
    ids=[
        "channel-T",
        "channel-xi",
        "sweep-t_min",
        "sweep-t_max",
        "sweep-tolerance",
        "fibre-attenuation",
        "threshold-xi",
        "max-noise-T",
        "thermal-v",
        "entropy-bin-width",
    ],
)
def test_non_finite_parameters_raise_domain_error(make, bad):
    with pytest.raises(DomainError):
        make(bad)
