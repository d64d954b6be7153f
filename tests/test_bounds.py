"""Entropy kernels, key-rate formulas, steering, UR slack and the DW oracle."""

import math

import numpy as np
import pytest

from conftest import (
    P_A,
    X_A,
    channelled_state,
    full_mode_cv,
    random_channelled_states,
)
from cvqkd import (
    ConditionalVariances,
    DomainError,
    Measurement,
    ModeQuadrature,
    OneSidedDI,
    ProtocolSpec,
    Quadrature,
    Reconciliation,
    SteeringDirection,
    TagMismatchError,
    UnphysicalInferenceError,
    VarianceKind,
    classify_1sdi,
    conditional_variance,
    devetak_winter_oracle,
    gaussian_shannon_entropy,
    infer_full_mode_variance,
    key_rate,
    measured_conditional_vn_entropy,
    split_with_vacuum,
    steering_parameter,
    tmsv,
    vacuum,
    verify_ur_bipartite,
    verify_ur_tripartite,
)

RR_HOM_HOM = ProtocolSpec.parse("rr-homA-homB-eb")
DR_HOM_HOM = ProtocolSpec.parse("dr-homA-homB-eb")
DR_COHERENT = ProtocolSpec.parse("dr-hetA-homB-pm")


def hom_hom_cv(vx_ba, vp_ba, vx_ab=None, vp_ab=None):
    return ConditionalVariances(
        v_x_b_given_a=vx_ba,
        v_p_b_given_a=vp_ba,
        v_x_a_given_b=vx_ab if vx_ab is not None else vx_ba,
        v_p_a_given_b=vp_ab if vp_ab is not None else vp_ba,
    )


class TestShannonEntropy:
    def test_unit_variance(self):
        assert gaussian_shannon_entropy(1.0) == pytest.approx(
            0.5 * math.log2(2.0 * math.pi * math.e), abs=1e-15
        )

    def test_zero_at_unit_argument(self):
        assert gaussian_shannon_entropy(1.0 / (2.0 * math.pi * math.e)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_scaling_adds_one_bit(self):
        assert gaussian_shannon_entropy(4.0) - gaussian_shannon_entropy(1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            gaussian_shannon_entropy(0.0)


class TestProtocolSpec:
    def test_sixteen_distinct_ids(self):
        ids = [p.id for p in ProtocolSpec.all()]
        assert len(ids) == 16
        assert len(set(ids)) == 16

    def test_parse_round_trip(self):
        for p in ProtocolSpec.all():
            assert ProtocolSpec.parse(p.id) == p

    def test_parse_rejects_unknown(self):
        for bad in ("bogus", "rr-homA-homB", "xx-homA-homB-eb", "rr-homB-homA-eb"):
            with pytest.raises(DomainError):
                ProtocolSpec.parse(bad)


class TestKeyRate:
    def test_uncorrelated_vacuum_rate(self):
        res = key_rate(RR_HOM_HOM, hom_hom_cv(1.0, 1.0))
        assert res.key_rate == pytest.approx(math.log2(2.0 / math.e), abs=1e-12)
        assert not res.positive

    def test_perfect_channel_tmsv2_rate(self):
        res = key_rate(RR_HOM_HOM, hom_hom_cv(0.5, 0.5))
        assert res.key_rate == pytest.approx(math.log2(4.0 / math.e), abs=1e-12)
        assert res.positive

    def test_coherent_dr_equivalent_form(self):
        # Eq-10 shape: halves (v+1)/2 reproduce log2(4/(e*sqrt((v+1)(v+1))))
        # with full-mode variances heading to 0, the rate approaches log2(4/e)
        for v_full in (1e-9, 1e-12):
            cv = ConditionalVariances(
                v_x_b_given_a=1.0,
                v_p_b_given_a=1.0,
                v_x_a_given_b=(v_full + 1.0) / 2.0,
                v_p_a_given_b=(v_full + 1.0) / 2.0,
                kind_b_given_a=VarianceKind.CONDITIONER_HALF,
                kind_a_given_b=VarianceKind.TARGET_HALF,
            )
            res = key_rate(DR_COHERENT, cv)
            assert res.key_rate == pytest.approx(math.log2(4.0 / math.e), abs=1e-8)

    @pytest.mark.parametrize("v", [1e-200, 1e200])
    def test_product_out_of_double_range_gives_finite_rate(self, v):
        # v * v under- or overflows a double; the rate itself is near +-660 bits
        res = key_rate(RR_HOM_HOM, hom_hom_cv(v, v))
        assert res.key_rate == pytest.approx(math.log2(2.0 / math.e) - math.log2(v), rel=1e-12)

    def test_zero_rate_at_steering_threshold(self):
        boundary = (2.0 / math.e) ** 2
        res = key_rate(RR_HOM_HOM, hom_hom_cv(math.sqrt(boundary), math.sqrt(boundary)))
        assert res.key_rate == pytest.approx(0.0, abs=1e-12)

    def test_monotone_decreasing_in_each_variance(self):
        base = key_rate(RR_HOM_HOM, hom_hom_cv(0.5, 0.5)).key_rate
        assert key_rate(RR_HOM_HOM, hom_hom_cv(0.6, 0.5)).key_rate < base
        assert key_rate(RR_HOM_HOM, hom_hom_cv(0.5, 0.6)).key_rate < base
        assert key_rate(DR_HOM_HOM, hom_hom_cv(0.5, 0.5, 0.7, 0.5)).key_rate < base
        assert key_rate(DR_HOM_HOM, hom_hom_cv(0.5, 0.5, 0.5, 0.7)).key_rate < base

    def test_tag_mismatch_rejected(self):
        with pytest.raises(TagMismatchError):
            key_rate(DR_COHERENT, hom_hom_cv(0.5, 0.5))

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(DomainError):
            hom_hom_cv(0.0, 0.5)


class TestEqTenEquivalence:
    def test_half_form_equals_full_form(self):
        # log2(2/(e sqrt(V_{xA1|xB} V_{pA2|pB}))) ==
        # log2(4/(e sqrt((V_{xA|xB}+1)(V_{pA|pB}+1)))) when halves come from the splitter
        for v, t, xi, cm in random_channelled_states(40, seed=21):
            split = split_with_vacuum(cm, 0)  # A1=0, B=1, A2=2
            half_x = conditional_variance(
                split, ModeQuadrature(0, Quadrature.X), ModeQuadrature(1, Quadrature.X)
            )
            half_p = conditional_variance(
                split, ModeQuadrature(2, Quadrature.P), ModeQuadrature(1, Quadrature.P)
            )
            full_x = conditional_variance(cm, X_A, ModeQuadrature(1, Quadrature.X))
            full_p = conditional_variance(cm, P_A, ModeQuadrature(1, Quadrature.P))
            lhs = math.log2(2.0 / (math.e * math.sqrt(half_x * half_p)))
            rhs = math.log2(4.0 / (math.e * math.sqrt((full_x + 1.0) * (full_p + 1.0))))
            assert abs(lhs - rhs) < 1e-10


class TestSteering:
    def test_vacuum_boundary(self):
        assert steering_parameter(
            full_mode_cv(vacuum(2)), SteeringDirection.ALICE_STEERS_BOB
        ) == pytest.approx(1.0, abs=0)

    def test_tmsv_perfect_channel(self):
        assert steering_parameter(
            full_mode_cv(tmsv(2.0)), SteeringDirection.ALICE_STEERS_BOB
        ) == pytest.approx(0.25, abs=1e-12)

    def test_loss_threshold_limit(self):
        # V -> inf at T = 1 - 2/e, xi = 0: V_{xB|xA} -> 1 - T = 2/e, product (2/e)^2
        t = 1.0 - 2.0 / math.e
        limit = 1.0 - t
        cv = hom_hom_cv(limit, limit)
        assert steering_parameter(cv, SteeringDirection.ALICE_STEERS_BOB) == pytest.approx(
            (2.0 / math.e) ** 2, rel=1e-14
        )

    def test_requires_full_mode_tags(self):
        cv = ConditionalVariances(
            v_x_b_given_a=1.0,
            v_p_b_given_a=1.0,
            v_x_a_given_b=1.0,
            v_p_a_given_b=1.0,
            kind_b_given_a=VarianceKind.CONDITIONER_HALF,
            kind_a_given_b=VarianceKind.TARGET_HALF,
        )
        with pytest.raises(TagMismatchError):
            steering_parameter(cv, SteeringDirection.ALICE_STEERS_BOB)

    def test_key_positivity_matches_steering(self):
        for v, t, xi, cm in random_channelled_states(100, seed=22):
            res = key_rate(RR_HOM_HOM, full_mode_cv(cm))
            steer = steering_parameter(full_mode_cv(cm), SteeringDirection.ALICE_STEERS_BOB)
            assert res.positive == (steer < (2.0 / math.e) ** 2)
            assert res.steering_ab == pytest.approx(steer, abs=0)


class TestClassification:
    def test_coherent_pm_dr_independent_of_bob(self):
        assert classify_1sdi(ProtocolSpec.parse("dr-hetA-homB-pm")) is OneSidedDI.INDEPENDENT_OF_BOB

    def test_rr_eb_bob_het_independent_of_alice(self):
        assert (
            classify_1sdi(ProtocolSpec.parse("rr-homA-hetB-eb")) is OneSidedDI.INDEPENDENT_OF_ALICE
        )

    def test_rr_pm_not_1sdi(self):
        assert classify_1sdi(ProtocolSpec.parse("rr-homA-homB-pm")) is OneSidedDI.NOT_1SDI

    def test_exactly_six_of_sixteen(self):
        marks = [classify_1sdi(p) for p in ProtocolSpec.all()]
        assert sum(m is OneSidedDI.INDEPENDENT_OF_BOB for m in marks) == 4
        assert sum(m is OneSidedDI.INDEPENDENT_OF_ALICE for m in marks) == 2

    def test_dr_independent_of_bob_iff_bob_homodynes(self):
        for p in ProtocolSpec.all():
            if p.reconciliation is Reconciliation.DR:
                expected = (
                    OneSidedDI.INDEPENDENT_OF_BOB
                    if p.bob_measurement is Measurement.HOM
                    else OneSidedDI.NOT_1SDI
                )
                assert classify_1sdi(p) is expected


class TestInference:
    def test_vacuum_fixed_point(self):
        assert infer_full_mode_variance(1.0) == 1.0

    def test_direct_values(self):
        assert infer_full_mode_variance(0.9) == pytest.approx(0.8, abs=1e-15)
        assert infer_full_mode_variance(0.75) == pytest.approx(0.5, abs=1e-15)

    def test_round_trip_with_splitter(self):
        # tmsv(2), perfect channel: V_{xB|xA} = 0.5, half (0.5+1)/2 = 0.75
        split = split_with_vacuum(tmsv(2.0), 0)
        half = conditional_variance(
            split, ModeQuadrature(0, Quadrature.X), ModeQuadrature(1, Quadrature.X)
        )
        assert infer_full_mode_variance(half) == pytest.approx(
            conditional_variance(tmsv(2.0), X_A, ModeQuadrature(1, Quadrature.X)), abs=1e-12
        )

    def test_rejects_below_half(self):
        with pytest.raises(UnphysicalInferenceError):
            infer_full_mode_variance(0.49)


class TestMeasuredConditionalEntropy:
    def test_product_of_vacua(self):
        got = measured_conditional_vn_entropy(vacuum(2), X_A, side=1)
        assert got == pytest.approx(0.5 * math.log2(2.0 * math.pi * math.e), abs=1e-12)

    def test_tmsv_two(self):
        # H(x_A) = 0.5*log2(4 pi e); conditioned B is pure diag(0.5, 2); S(B) = g(2)
        expected = 0.5 * math.log2(4.0 * math.pi * math.e) - (1.5 * math.log2(1.5) + 0.5)
        got = measured_conditional_vn_entropy(tmsv(2.0), X_A, side=1)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_phase_symmetry(self):
        for v, t, xi, cm in random_channelled_states(20, seed=23):
            s_x = measured_conditional_vn_entropy(cm, X_A, side=1)
            s_p = measured_conditional_vn_entropy(cm, P_A, side=1)
            assert abs(s_x - s_p) < 1e-10


class TestUncertaintyRelations:
    def test_vacuum_bipartite_slack(self):
        # log2(2 pi e) - log2(4 pi) = log2(e/2)
        assert verify_ur_bipartite(vacuum(2)) == pytest.approx(
            math.log2(math.e / 2.0), abs=1e-9
        )

    def test_tmsv_sweep_nonnegative(self):
        for v in np.linspace(1.0, 100.0, 25):
            assert verify_ur_bipartite(tmsv(float(v))) >= -1e-9

    def test_channel_case_nonnegative(self):
        assert verify_ur_bipartite(channelled_state(2.0, 0.5, 0.1)) >= -1e-9
        assert verify_ur_tripartite(channelled_state(2.0, 0.5, 0.05)) >= -1e-9

    def test_pure_state_tripartite_reduces_to_bipartite(self):
        for v in (1.0, 2.0, 10.0):
            cm = tmsv(v)
            assert verify_ur_tripartite(cm) == pytest.approx(verify_ur_bipartite(cm), abs=1e-9)

    def test_slack_continuous_on_grid(self):
        # neighbouring grid points never jump: no discontinuities observed
        ts = np.linspace(0.1, 1.0, 10)
        xis = np.linspace(0.0, 0.5, 10)
        slack = np.array(
            [[verify_ur_tripartite(channelled_state(5.0, float(t), float(x))) for x in xis] for t in ts]
        )
        assert np.all(np.isfinite(slack))
        assert np.max(np.abs(np.diff(slack, axis=0))) < 0.2
        assert np.max(np.abs(np.diff(slack, axis=1))) < 0.2


class TestDevetakWinter:
    def test_pure_tmsv_rr_gives_one_bit(self):
        # chi = 0 for a pure state; I = 0.5*log2(2/0.5) = 1
        got = devetak_winter_oracle(tmsv(2.0), Reconciliation.RR)
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_entropic_bound_is_more_pessimistic(self):
        cm = tmsv(2.0)
        dw = devetak_winter_oracle(cm, Reconciliation.RR)
        entropic = key_rate(RR_HOM_HOM, full_mode_cv(cm)).key_rate
        assert entropic == pytest.approx(math.log2(4.0 / math.e), abs=1e-12)
        assert dw >= entropic

    def test_noisy_channel_dominance(self):
        cm = channelled_state(20.0, 0.5, 0.01)
        for direction, protocol in ((Reconciliation.RR, RR_HOM_HOM), (Reconciliation.DR, DR_HOM_HOM)):
            dw = devetak_winter_oracle(cm, direction)
            entropic = key_rate(protocol, full_mode_cv(cm)).key_rate
            assert dw >= entropic - 1e-9


class TestSqueezingThresholdConventions:
    """Which convention reproduces the positivity threshold quoted as s ~ 0.15.

    The rate turns positive when the conditional variance drops below
    2/e. With the optimal-gain conditional variance V_{A|B} =
    1/cosh(2s) computed by this package that happens at
    s = arccosh(e/2)/2 ~ 0.4120 (3.6 dB); the unit-gain two-mode
    difference variance var((x_A - x_B)/sqrt(2)) = exp(-2s) instead
    crosses 2/e at s = (1 - ln 2)/2 ~ 0.1534, i.e. about 1.3 dB, which
    is the number usually quoted. The optimal-gain convention is the
    one implemented everywhere here.
    """

    @staticmethod
    def _crossing(f, lo, hi):
        # f decreasing; find f(s) = 2/e by bisection
        target = 2.0 / math.e
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if f(mid) > target:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    def test_optimal_gain_threshold(self):
        def v_cond(s):
            cm = tmsv(math.cosh(2.0 * s))
            return conditional_variance(cm, X_A, ModeQuadrature(1, Quadrature.X))

        s_star = self._crossing(v_cond, 0.05, 1.0)
        assert s_star == pytest.approx(0.5 * math.acosh(math.e / 2.0), abs=1e-9)
        assert s_star == pytest.approx(0.4120022696882728, abs=1e-9)

    def test_unit_gain_threshold_matches_quoted_number(self):
        def v_diff(s):
            m = tmsv(math.cosh(2.0 * s)).matrix
            # var((x_A - x_B)/sqrt(2)) from raw second moments
            return (m[0, 0] + m[2, 2] - 2.0 * m[0, 2]) / 2.0

        s_star = self._crossing(v_diff, 0.05, 1.0)
        assert s_star == pytest.approx((1.0 - math.log(2.0)) / 2.0, abs=1e-9)
        assert s_star == pytest.approx(0.15342640972002736, abs=1e-9)

    def test_key_positivity_at_optimal_gain_threshold(self):
        s_star = 0.5 * math.acosh(math.e / 2.0)
        above = full_mode_cv(tmsv(math.cosh(2.0 * (s_star + 1e-3))))
        below = full_mode_cv(tmsv(math.cosh(2.0 * (s_star - 1e-3))))
        assert key_rate(RR_HOM_HOM, above).positive
        assert not key_rate(RR_HOM_HOM, below).positive
