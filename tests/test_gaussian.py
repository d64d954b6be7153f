"""Two-mode states (V, T, xi): construction, channel, conditioning, spectra and entropies against the oracle."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import (
    COPY_ROUTES,
    P_A,
    P_B,
    X_A,
    X_B,
    channelled_state,
    joint_entropy,
    random_channelled_states,
)
from cvqkd import (
    ChannelParams,
    CovarianceMatrix,
    DomainError,
    ModeQuadrature,
    ProtocolSpec,
    Quadrature,
    Reconciliation,
    apply_channel,
    conditional_variance,
    devetak_winter_oracle,
    entropy_g,
    symplectic_eigenvalues,
    tmsv,
    vacuum,
    verify_ur_bipartite,
    verify_ur_tripartite,
)
from cvqkd.errors import CVQKDError, PrecisionError

EPS = np.finfo(float).eps
# the oracle bound of the UR slack, both DW ceilings and S(AB) on V in [1, 1e12], T in
# [1e-4, 1] and xi in [0, 1]: each is a sum of entropies of up to about 40 bits, each
# rounded to a few eps; 3,000 random states read at most 2.2e-14 bits
ENTROPY_BITS = 1e-13
RR_HOM_HOM = ProtocolSpec.parse("rr-homA-homB-eb")


class TestConstruction:
    def test_tmsv_zero_squeezing_is_two_vacua(self):
        cm = tmsv(1.0)
        assert (cm.a, cm.b) == (1.0, 1.0)
        assert conditional_variance(cm, X_B, X_A) == cm.b  # uncorrelated

    def test_tmsv_off_diagonal_is_sqrt_v2_minus_1(self):
        cm = tmsv(2.0)
        c = math.sqrt(2.0**2 - 1.0)  # sqrt(3)
        assert cm == (2.0, 1.0, 0.0)
        assert (cm.a, cm.b) == (2.0, 2.0)
        # the Schur complement b - c^2/a that the correlation block leaves
        assert conditional_variance(cm, X_B, X_A) == pytest.approx(cm.b - c * c / cm.a, abs=1e-15)

    def test_tmsv_squeezing_parameter_round_trip(self):
        # V = cosh(2s) with s = 0.15 recovers s through arccosh(V)/2
        v = math.cosh(0.3)
        assert v == pytest.approx(1.04534, abs=1e-5)
        assert math.acosh(tmsv(v).a) / 2.0 == pytest.approx(0.15, abs=1e-12)

    def test_tmsv_is_pure_for_any_variance(self):
        # ab - c^2 = V w + T = 1 exactly at T = 1, xi = 0, at every float V. From about
        # 8.5e6 the stored c = sqrt(v^2 - 1) of the entry route was off by about eps * v,
        # more than its purity gate: 348 of 608 sampled states in [1e7, 1e8) raised, and
        # 67982204.66 read as singular. Each is pure now
        below_the_rounding_limit = np.logspace(6.0, math.log10(9.49e7), 4000).tolist() + [
            3e7, 7e7, 10170285.935037531, 67982204.65969986,
        ]
        for v in [1.5, 7.0, 50.0, 1e8, 1e300, sys.float_info.max, *ORACLE_V, *below_the_rounding_limit]:
            assert symplectic_eigenvalues(tmsv(v)) == [1.0, 1.0], v
            assert joint_entropy(tmsv(v)) == 0.0, v

    def test_entries_are_stored_as_floats(self):
        cm = CovarianceMatrix(np.float32(1.5), 1, np.float64(0.5))
        assert [type(x) for x in (*cm, cm.a, cm.b, cm._det, *cm._nus)] == [float] * 8
        assert cm == (1.5, 1.0, 0.5) and (cm.a, cm.b) == (1.5, 2.0)

class TestChannel:
    def test_identity_channel_leaves_state_unchanged(self):
        cm = tmsv(3.0)
        out = apply_channel(cm, ChannelParams(1.0, 0.0), mode=1)
        assert (out, out.a, out.b, out._det) == (cm, cm.a, cm.b, cm._det)

    def test_vacuum_picks_up_t_xi(self):
        out = apply_channel(vacuum(), ChannelParams(0.3, 0.05), mode=1)
        assert out.b == pytest.approx(1.0 + 0.3 * 0.05, abs=1e-15)  # 1.015
        assert out.a == 1.0 and conditional_variance(out, X_B, X_A) == out.b  # uncorrelated

    def test_tmsv_through_channel(self):
        out = apply_channel(tmsv(2.0), ChannelParams(0.5, 0.1), mode=1)
        assert out.b == pytest.approx(0.5 * 2.0 + 0.5 + 0.05, abs=1e-15)  # 1.55
        assert out.a == 2.0  # Alice's arm untouched

    def test_channel_composition(self):
        # T' = T1 T2 and xi' = xi1 + xi2 / T1: the same blocks as one channel
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.uniform(1.0, 20.0)
            t1, t2 = rng.uniform(0.1, 1.0, size=2)
            xi1, xi2 = rng.uniform(0.0, 0.5, size=2)
            for (a, b), combined in (
                ((0.0, 0.0), ChannelParams(t1 * t2, 0.0)),
                ((xi1, xi2), ChannelParams(t1 * t2, xi1 + xi2 / t1)),
            ):
                once = apply_channel(
                    apply_channel(tmsv(v), ChannelParams(t1, a), 1), ChannelParams(t2, b), 1
                )
                direct = apply_channel(tmsv(v), combined, 1)
                for got, want in zip((once.a, once.b, once._det), (direct.a, direct.b, direct._det)):
                    assert abs(got - want) < 1e-10

class TestConditioning:
    def test_tmsv_conditioning_by_hand(self):
        # Schur complement: V_{xB|xA} = 2 - 3/2 = 0.5, and p_B keeps its variance given x_A
        assert conditional_variance(tmsv(2.0), X_B, X_A) == pytest.approx(0.5, abs=1e-12)
        assert conditional_variance(tmsv(2.0), P_B, X_A) == 2.0

    def test_large_v_limit(self):
        # V - (V^2-1)/V = 1/V -> 0
        for v in (10.0, 100.0, 1000.0):
            assert conditional_variance(tmsv(v), X_B, X_A) == 1.0 / v  # det / a, det = 1

    def test_conditional_variance_uncorrelated(self):
        assert conditional_variance(vacuum(2), X_B, X_A) == pytest.approx(1.0, abs=0)

    def test_conditional_variance_after_channel(self):
        # 1.55 - (sqrt(0.5)*sqrt(3))^2 / 2 = 1.55 - 0.75 = 0.8
        cm = channelled_state(2.0, 0.5, 0.1)
        assert conditional_variance(cm, X_B, X_A) == pytest.approx(0.8, abs=1e-12)

    def test_target_equals_given_rejected(self):
        with pytest.raises(DomainError):
            conditional_variance(tmsv(2.0), X_A, X_A)

    def test_schur_complements_match_the_oracle(self):
        # both directions of the correlated pairs, and the uncorrelated ones, at 60 digits
        for v, t, xi, cm in random_channelled_states(50, seed=11):
            x_ba, p_ba, x_ab, p_ab = map(float, oracle.conditional_variances(RR_HOM_HOM, t, xi, v))
            _, b, _ = map(float, oracle.blocks(v, t, xi))
            for target, given, want in (
                (X_B, X_A, x_ba), (P_B, P_A, p_ba), (X_A, X_B, x_ab), (P_A, P_B, p_ab), (P_B, X_A, b),
            ):
                assert abs(conditional_variance(cm, target, given) - want) <= 4.0 * EPS * want


class TestPhysicalityPreservation:
    def test_operations_keep_states_physical(self):
        # a channel on Bob's arm, then a homodyne of either quadrature of either mode: the
        # other mode, conditioned or not, is diag(x, p) with nu = sqrt(x p) >= 1
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = float(rng.uniform(1.0, 50.0))
            t = float(rng.uniform(1e-3, 1.0))
            xi = float(rng.uniform(0.0, 0.5))
            cm = apply_channel(tmsv(v), ChannelParams(t, xi), 1)  # validates
            mq = ModeQuadrature(int(rng.integers(0, 2)), Quadrature.X if rng.integers(2) else Quadrature.P)
            other = [ModeQuadrature(1 - mq.mode, q) for q in Quadrature]
            conditioned = [conditional_variance(cm, q, mq) for q in other]
            for x, p in (conditioned, [cm.variance(q) for q in other]):
                assert math.sqrt(x * p) >= 1.0 - 1e-9


class TestSpectraAndEntropy:
    def test_vacuum_spectrum(self):
        assert symplectic_eigenvalues(vacuum()) == symplectic_eigenvalues(vacuum(2)) == [1.0, 1.0]

    def test_thermal_spectrum(self):
        # a vacuum on A beside a thermal mode of variance 1 + T xi = 4.5 on B
        assert symplectic_eigenvalues(CovarianceMatrix(1.0, 0.5, 7.0)) == pytest.approx([1.0, 4.5], abs=1e-12)

    def test_pure_states_have_zero_entropy(self):
        assert joint_entropy(tmsv(5.0)) == 0.0
        assert joint_entropy(vacuum(2)) == 0.0

    def test_thermal_entropy_nu_3(self):
        # a thermal mode beside a vacuum: g(3) + g(1) = 2*log2(2) - 1*log2(1) = 2 bits
        assert joint_entropy(CovarianceMatrix(1.0, 1.0, 2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_reduced_tmsv_entropy(self):
        # g(2) = 1.5*log2(1.5) + 0.5
        expected = 1.5 * math.log2(1.5) + 0.5
        assert expected == pytest.approx(1.3774437510817343, abs=1e-12)
        # the reduced state of either arm is a I with a = 2: nu = 2
        assert entropy_g(tmsv(2.0).a) == pytest.approx(expected, abs=1e-12)
        assert float(oracle.g(2.0)) == pytest.approx(expected, abs=1e-15)

    def test_g_matches_the_oracle(self):
        # the two-term form up log2 up - dn log2 dn cancelled to 2.2e-8 at nu = 1e7
        for nu in [1.0 + 1e-12, 1.5, 2.0] + np.logspace(0.5, 9.0, 35).tolist():
            assert abs(entropy_g(nu) - float(oracle.g(nu))) <= 1e-13, nu

    def test_g_properties(self):
        assert entropy_g(1.0) == 0.0
        grid = np.linspace(1.0, 60.0, 200)
        vals = [entropy_g(float(nu)) for nu in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestFloatRange:
    """The float range: a state whose b, ab - c^2 or nu+ overflows raises PrecisionError.

    Every other (V, T, xi) in the domain is a state, up to V = 1.8e308.
    """

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CovarianceMatrix(1e308, 1.0, 1e308),
            lambda: CovarianceMatrix(2.0**1023, 0.5, 4.0),
            lambda: apply_channel(apply_channel(vacuum(), ChannelParams(1.0, 1e308), 1), ChannelParams(1.0, 1e308), 1),
            lambda: CovarianceMatrix(2.0**1000, 1.0, 2.0**30),
            lambda: CovarianceMatrix(1e160, 0.5, 1e160),
            lambda: apply_channel(tmsv(1e160), ChannelParams(0.5, 1e160), mode=1),
        ],
        ids=["diag-1e308", "diag-2^1023", "thermal", "diag-2^510", "diag-1e160", "channel-xi-1e160"],
    )
    def test_state_that_overflows_raises_precision_error(self, make):
        with pytest.raises(PrecisionError, match="overflows"):
            make()

    def test_largest_entry_below_the_limit_validates(self):
        v = sys.float_info.max
        assert tmsv(v).a == v
        for cm in (tmsv(v), CovarianceMatrix(v, 0.5), CovarianceMatrix(1.0, 1.0, v), CovarianceMatrix(2.0, 0.5, 1e160)):
            assert all(math.isfinite(nu) for nu in symplectic_eigenvalues(cm)), cm
            assert math.isfinite(verify_ur_tripartite(cm)), cm

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["channel", "two-channels", "record"]),
        logs=st.lists(st.floats(0.0, 300.0), min_size=3, max_size=3),
        fraction=st.floats(0.0, 1.0),
    )
    @example(kind="channel", logs=[math.log10(2.0) * 37.5, math.log10(2.0), 160.0], fraction=0.5)
    @example(kind="record", logs=[300.0, 300.0, 300.0], fraction=0.0)
    def test_entries_up_to_1e300_give_finite_values_or_typed_errors(self, kind, logs, fraction):
        # V, 1/T and xi log-uniform up to 1e300: every spectrum, entropy, UR slack and DW
        # ceiling is finite or raises a CVQKDError; NaN and inf once came out silently
        x, y, z = (10.0**u for u in logs)
        try:
            if kind == "record":
                cm = CovarianceMatrix(x, 1.0 / y, z)
            else:
                cm = channelled_state(x, 1.0 / y, z - 1.0)
                if kind == "two-channels":
                    cm = apply_channel(cm, ChannelParams(fraction or 1.0, z), mode=1)
        except CVQKDError:
            return
        calls = [lambda: symplectic_eigenvalues(cm), lambda: [joint_entropy(cm)]]
        calls += [lambda: [verify_ur_bipartite(cm)], lambda: [verify_ur_tripartite(cm)]]
        calls += [lambda d=d: [devetak_winter_oracle(cm, d)] for d in Reconciliation]
        for call in calls:
            try:
                values = call()
            except CVQKDError:
                continue
            assert all(math.isfinite(value) for value in values), (kind, logs, fraction, values)


ORACLE_V = np.logspace(0.0, 12.0, 49).tolist()  # four points a decade over [1, 1e12]
ORACLE_T = [1e-4, 0.1, 0.5, 0.9, 1.0]
ORACLE_XI = [0.0, 1e-8, 1e-4, 0.01, 0.5, 1.0]
# the spectrum's relative error bound, in every decade of V: nu+ is a hypot and a sum of
# nonnegative terms, nu- one division, each of operands within an eps or so
SPECTRUM_ERROR = 4.0 * EPS


def _relative_spectrum_error(v, t, xi):
    got = symplectic_eigenvalues(CovarianceMatrix(v, t, xi))
    return max(float(abs(x - r) / r) for x, r in zip(got, oracle.spectrum(v, t, xi)))


class TestClosedFormSpectrum:
    def test_routes(self):
        # one route: every way to a state stores the same spectrum, bit for bit
        for v, t, xi in ((30.0, 0.4, 0.1), (3.0, 0.2, 0.0), (1.0, 1.0, 0.0), (7e7, 1.0, 0.0)):
            cm = CovarianceMatrix(v, t, xi)
            routes = [apply_channel(tmsv(v), ChannelParams(t, xi), 1), cm._replace()]
            routes += [copy(cm) for copy in COPY_ROUTES.values()]
            if (t, xi) == (1.0, 0.0):
                routes += [tmsv(v), CovarianceMatrix(v)] + ([vacuum()] if v == 1.0 else [])
            for other in routes:
                assert (other, other._det, other._nus) == (cm, cm._det, cm._nus)

    def test_against_the_oracle(self):
        # the largest relative error in each decade 10^d <= V < 10^(d+1) (V = 1e12 joins d = 11)
        worst = [0.0] * 12
        for v in ORACLE_V:
            for t in ORACLE_T:
                for xi in ORACLE_XI:
                    err = _relative_spectrum_error(v, t, xi)
                    decade = min(int(math.log10(v)), 11)
                    worst[decade] = max(worst[decade], err)
                    assert err <= SPECTRUM_ERROR, (v, t, xi, err)
        assert max(worst) > SPECTRUM_ERROR / 8.0, worst  # the bound is tight

    @settings(max_examples=300, deadline=None)
    @given(log_v=st.floats(0.0, 12.0), t=st.floats(1e-4, 1.0), xi=st.floats(0.0, 1.0))
    def test_matches_exact_spectrum_on_random_states(self, log_v, t, xi):
        assert _relative_spectrum_error(10.0**log_v, t, xi) <= SPECTRUM_ERROR

def _assert_entropies_match_the_oracle(cm):
    # S(AB), both UR slacks and both DW ceilings within ENTROPY_BITS of 60 digits
    v, t, xi = cm
    slack = float(oracle.ur_slack(v, t, xi))
    for ur in (verify_ur_bipartite, verify_ur_tripartite):
        assert abs(ur(cm) - slack) <= ENTROPY_BITS, (ur, cm, ur(cm), slack)
    for direction in Reconciliation:
        want = float(oracle.dw_ceiling(v, t, xi, direction is Reconciliation.RR))
        assert abs(devetak_winter_oracle(cm, direction) - want) <= ENTROPY_BITS, (direction, cm)
    assert abs(joint_entropy(cm) - float(oracle.joint_entropy(v, t, xi))) <= ENTROPY_BITS, cm


# channel states on which the stored-entry route was off: its purity gate snapped
# nu- = 1.061 to 1 at the first (0.199 bits of slack) and nu- = 1 + 4.5e-6 at the second
MATRIX_ROUTE_FAILURES = [(6.16e7, 0.631, 0.0357), (7495.0, 0.0404, 1.08e-4)]


class TestScalarEntropies:
    @settings(max_examples=300, deadline=None)
    @given(
        v=st.one_of(st.sampled_from([1.0, 1e5, 6.3e6, 1e7, 1e12]), st.floats(0.0, 12.0).map(lambda u: 10.0**u)),
        t=st.one_of(st.sampled_from([1e-4, 1.0]), st.floats(1e-4, 1.0)),
        xi=st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(-12.0, 0.0).map(lambda u: 10.0**u)),
    )
    @example(v=MATRIX_ROUTE_FAILURES[0][0], t=MATRIX_ROUTE_FAILURES[0][1], xi=MATRIX_ROUTE_FAILURES[0][2])
    @example(v=MATRIX_ROUTE_FAILURES[1][0], t=MATRIX_ROUTE_FAILURES[1][1], xi=MATRIX_ROUTE_FAILURES[1][2])
    @example(v=6.3e6, t=1.0, xi=0.0)  # both nu were stored as 1.0, yet the slack was 0.022 bits off
    def test_channel_states(self, v, t, xi):
        _assert_entropies_match_the_oracle(channelled_state(v, t, xi))

    @settings(max_examples=100, deadline=None)
    @given(
        v=st.floats(0.0, 12.0).map(lambda u: 10.0**u),
        channels=st.lists(st.tuples(st.floats(1e-2, 1.0), st.floats(0.0, 0.5)), min_size=2, max_size=2),
    )
    def test_states_with_a_channel_on_both_arms(self, v, channels):
        # a second channel on Bob's arm composes to the state (V, T1 T2, xi1 + xi2 / T1)
        (t_b, xi_b), (t_a, xi_a) = channels
        cm = channelled_state(v, t_b, xi_b)
        twice = apply_channel(cm, ChannelParams(t_a, xi_a), mode=1)
        assert twice == (v, t_b * t_a, xi_b + xi_a / t_b)
        _assert_entropies_match_the_oracle(twice)

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=3))
    @example(entries=[math.nan, 1.0, 0.0])
    @example(entries=[math.inf, 1.0, 0.0])
    @example(entries=[2.0**1023, 1.0, 2.0**1023])
    @example(entries=[-1.0, 1.0, 0.0])
    @example(entries=[1.0, 0.0, 0.0])
    @example(entries=[0.5, 0.5, 0.0])
    @example(entries=[1.0 + 1e-10, 1.0, 1e-300])
    @example(entries=[3.0, 1.0, 12.0])
    def test_any_entries_give_a_nonnegative_entropy_or_raise(self, entries):
        # never NaN: a state is built, with finite nonnegative entropies, or a CVQKDError
        try:
            cm = CovarianceMatrix(*entries)
        except CVQKDError:
            return
        for got in (joint_entropy(cm), *(entropy_g(nu) for nu in symplectic_eigenvalues(cm))):
            assert isinstance(got, float) and 0.0 <= got < math.inf, (entries, got)


def _assert_positive_diagonal(cm):
    # conditional_variance, the UR slack and the DW ceiling divide by a
    # quadrature variance without testing its sign
    assert cm.a > 0.0 and cm.b > 0.0 and cm._det > 0.0, cm


class TestPositiveDiagonal:
    """Every quadrature variance, and ab - c^2, of a validated CovarianceMatrix is positive."""

    @settings(max_examples=200, deadline=None)
    @given(
        v=st.one_of(st.sampled_from([1.0, 8.5e6, 6.8e7, 9e7, 1e300]), st.floats(1.0, 1e12)),
        t=st.one_of(st.sampled_from([5e-324, 1e-3, 1.0]), st.floats(1e-3, 1.0)),
        xi=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    )
    def test_epr_and_channel_states(self, v, t, xi):
        _assert_positive_diagonal(tmsv(v))
        _assert_positive_diagonal(apply_channel(tmsv(v), ChannelParams(t, xi), mode=1))

    @settings(max_examples=300, deadline=None)
    @given(log_v=st.floats(0.0, 12.0), loss=st.floats(0.0, 1e-6), xi=st.floats(0.0, 1e-6))
    @example(log_v=0.0, loss=0.0, xi=0.0)  # the vacuum
    @example(log_v=12.0, loss=0.0, xi=0.0)  # a pure state: both conditioned modes pure
    def test_one_mode_states_near_unit_determinant(self, log_v, loss, xi):
        # the conditioned one-mode states the entropies take, B given x_A and A given x_B,
        # near purity: nu = sqrt(b det / a) and sqrt(a det / b) stay >= 1 to rounding,
        # so no entropy is negative, and their variances det/a and det/b are positive
        cm = CovarianceMatrix(10.0**log_v, 1.0 - loss, xi)
        for given, other in ((cm.a, cm.b), (cm.b, cm.a)):
            nu = math.sqrt(other) * math.sqrt(cm._det / given)
            assert cm._det / given > 0.0 and nu >= 1.0 - 4.0 * EPS, (cm, nu)
            assert entropy_g(nu) >= 0.0
