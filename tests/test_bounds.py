"""Entropy kernels, key-rate formulas, steering, UR slack and the DW oracle."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from conftest import (
    P_A,
    SPEC_COPIES,
    X_A,
    channelled_state,
    full_mode_cv,
    joint_entropy,
    random_channelled_states,
)
from cvqkd import (
    ChannelParams,
    ConditionalVariances,
    DomainError,
    Flavor,
    Measurement,
    ModeQuadrature,
    OneSidedDI,
    PrecisionError,
    ProtocolSpec,
    Quadrature,
    Reconciliation,
    TagMismatchError,
    VarianceKind,
    apply_channel,
    classify_1sdi,
    conditional_variance,
    devetak_winter_oracle,
    gaussian_shannon_entropy,
    infer_full_mode_variance,
    key_rate,
    key_rate_at,
    tmsv,
    vacuum,
    verify_ur_bipartite,
    verify_ur_tripartite,
    von_neumann_entropy,
)
from cvqkd import bounds, gaussian

# the bound within which the UR slack and DW ceilings meet the 60-digit oracle (test_gaussian)
ENTROPY_BITS = 1e-13

RR_HOM_HOM = ProtocolSpec.parse("rr-homA-homB-eb")
IDS = sorted(p.id for p in ProtocolSpec.all())
DR_HOM_HOM = ProtocolSpec.parse("dr-homA-homB-eb")
DR_COHERENT = ProtocolSpec.parse("dr-hetA-homB-pm")
HOM_HOM = [
    p for p in ProtocolSpec.all()
    if p.alice_measurement is Measurement.HOM and p.bob_measurement is Measurement.HOM
]


def hom_hom_cv(vx_ba, vp_ba, vx_ab=None, vp_ab=None):
    return ConditionalVariances(
        v_x_b_given_a=vx_ba,
        v_p_b_given_a=vp_ba,
        v_x_a_given_b=vx_ab if vx_ab is not None else vx_ba,
        v_p_a_given_b=vp_ab if vp_ab is not None else vp_ba,
    )


def reference_kinds(p):
    """(A|B, B|A) kinds by who heterodynes: a target or conditioner is a half where its party does."""
    a_het = p.alice_measurement is Measurement.HET
    b_het = p.bob_measurement is Measurement.HET
    if a_het and b_het:
        return VarianceKind.BOTH_HALF, VarianceKind.BOTH_HALF
    if a_het:
        return VarianceKind.TARGET_HALF, VarianceKind.CONDITIONER_HALF
    if b_het:
        return VarianceKind.CONDITIONER_HALF, VarianceKind.TARGET_HALF
    return VarianceKind.FULL, VarianceKind.FULL


def reference_1sdi(p):
    """DR with Bob homodyning is independent of Bob; RR-EB with Alice homodyning of Alice."""
    if p.reconciliation is Reconciliation.DR and p.bob_measurement is Measurement.HOM:
        return OneSidedDI.INDEPENDENT_OF_BOB
    if (
        p.reconciliation is Reconciliation.RR
        and p.flavor is Flavor.EB
        and p.alice_measurement is Measurement.HOM
    ):
        return OneSidedDI.INDEPENDENT_OF_ALICE
    return OneSidedDI.NOT_1SDI


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

    @pytest.mark.parametrize("v", [1e-300, 0.5, 3.0, 1e300, 1e308, 1.7e308])
    def test_matches_the_oracle_up_to_the_float_max(self, v):
        # 2 pi e v overflowed from about 1.05e307, and the entropy read inf for 514 bits
        assert abs(gaussian_shannon_entropy(v) - float(oracle.shannon_entropy(v))) <= 1e-13


class TestProtocolSpec:
    def test_sixteen_distinct_ids(self):
        ids = [p.id for p in ProtocolSpec.all()]
        assert len(ids) == 16
        assert len(set(ids)) == 16

    def test_parse_round_trip(self):
        for p in ProtocolSpec.all():
            assert ProtocolSpec.parse(p.id) == p

    @pytest.mark.parametrize("copy_of", SPEC_COPIES.values(), ids=list(SPEC_COPIES))
    def test_stored_facts_follow_the_rules(self, copy_of):
        for p in ProtocolSpec.all():
            q = copy_of(p)
            a_het = p.alice_measurement is Measurement.HET
            b_het = p.bob_measurement is Measurement.HET
            assert q == p and hash(q) == hash(p)
            assert (q._a_het, q._b_het, q._dr) == (a_het, b_het, p.reconciliation is Reconciliation.DR)
            assert q._kinds == reference_kinds(p), p.id
            assert q._one_sided_di is classify_1sdi(q) is reference_1sdi(p), p.id

    def test_facts_are_not_fields(self):
        p = ProtocolSpec.parse("dr-hetA-homB-pm")
        assert p._fields == (
            "reconciliation", "alice_measurement", "bob_measurement", "flavor"
        )
        assert len(p) == 4 and tuple(p) == (
            Reconciliation.DR, Measurement.HET, Measurement.HOM, Flavor.PM
        )
        assert repr(p) == (
            "ProtocolSpec(reconciliation=<Reconciliation.DR: 'dr'>, "
            "alice_measurement=<Measurement.HET: 'het'>, "
            "bob_measurement=<Measurement.HOM: 'hom'>, flavor=<Flavor.PM: 'pm'>)"
        )

    def test_all_returns_the_parsed_specs(self):
        specs = ProtocolSpec.all()
        assert all(ProtocolSpec.parse(p.id) is p for p in specs)
        assert specs is not ProtocolSpec.all()  # a new list each call

    @settings(max_examples=300, deadline=None)
    @given(
        text=st.one_of(
            st.sampled_from(IDS),
            st.text(alphabet="-ABabdehmoprt ", max_size=18),
            st.sampled_from(IDS).flatmap(
                lambda i: st.integers(0, len(i)).map(lambda k: i[:k] + i[k + 1 :])
            ),
            st.sampled_from(IDS).map(str.upper),
            st.sampled_from(IDS).map(lambda i: f" {i}"),
        )
    )
    @example(text="bogus")
    @example(text="rr-homA-homB")
    @example(text="xx-homA-homB-eb")
    @example(text="rr-homB-homA-eb")
    def test_a_string_parses_iff_it_is_one_of_the_16_ids(self, text):
        try:
            spec = ProtocolSpec.parse(text)
        except DomainError as exc:
            assert text not in IDS
            assert str(exc) == f"unknown protocol id {text!r}"
        else:
            assert text in IDS and spec.id == text


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

    def test_conditioner_half_of_one_half_is_the_infinite_rate(self):
        # 2 * 0.5 - 1 = 0 is a zero factor, the +inf rate key_rate_at gives at the identity channel
        half = ConditionalVariances(0.5, 0.5, 0.5, 0.5, VarianceKind.BOTH_HALF, VarianceKind.BOTH_HALF)
        res = key_rate(ProtocolSpec.parse("rr-hetA-hetB-eb"), half)
        assert res.key_rate == math.inf
        assert res.positive

    def test_zero_factor_beside_an_infinite_one_is_undefined(self):
        cv = ConditionalVariances(
            math.inf, 0.5, 0.5, 0.5, VarianceKind.BOTH_HALF, VarianceKind.BOTH_HALF
        )
        with pytest.raises(DomainError, match="undefined"):
            key_rate(ProtocolSpec.parse("rr-hetA-hetB-eb"), cv)

    @pytest.mark.parametrize(
        "pid, cv",
        [
            ("rr-homA-homB-eb", ConditionalVariances(math.inf, math.inf, 1.0, 1.0)),
            ("rr-hetA-homB-eb", ConditionalVariances(
                1e308, 1e308, 1e308, 1e308, VarianceKind.CONDITIONER_HALF, VarianceKind.TARGET_HALF
            )),
        ],
        ids=["given-inf", "half-lifted-to-inf"],
    )
    def test_an_infinite_factor_raises_precision_error(self, pid, cv):
        # each read -inf: log2 of a given inf, or of the conditioner's half 1e308 lifted to inf
        with pytest.raises(PrecisionError, match=f"^key rate of {pid} overflows at variances"):
            key_rate(ProtocolSpec.parse(pid), cv)

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

    @pytest.mark.parametrize("pid", [p.id for p in HOM_HOM])
    def test_identity_channel_is_key_rate_on_zero_variances(self, pid):
        # key_rate_at on T = 1, xi = 0, V -> inf is key_rate on four zeros, field for field
        protocol = ProtocolSpec.parse(pid)
        got = key_rate_at(protocol, ChannelParams(1.0, 0.0))
        assert got == key_rate(protocol, ConditionalVariances(0.0, 0.0, 0.0, 0.0))
        assert got.key_rate == math.inf and got.positive
        assert (got.steering_ab, got.steering_ba) == (0.0, 0.0)

    @pytest.mark.parametrize("zero_x", [True, False])
    def test_lone_zero_factor_is_the_infinite_rate(self, zero_x):
        # a zero x or a zero p in the pair the rate reads, the other factor and pair positive
        pair = (0.0, 0.7) if zero_x else (0.7, 0.0)
        rr = key_rate(RR_HOM_HOM, ConditionalVariances(*pair, 0.6, 0.8))
        dr = key_rate(DR_HOM_HOM, ConditionalVariances(0.6, 0.8, *pair))
        for res in (rr, dr):
            assert res.key_rate == math.inf and res.positive

    @pytest.mark.parametrize("pair", [(0.0, math.inf), (math.inf, 0.0)])
    def test_zero_beside_inf_is_undefined_in_both_directions(self, pair):
        with pytest.raises(DomainError, match="undefined for variances inf and 0"):
            key_rate(RR_HOM_HOM, ConditionalVariances(*pair, 0.6, 0.8))
        with pytest.raises(DomainError, match="undefined for variances inf and 0"):
            key_rate(DR_HOM_HOM, ConditionalVariances(0.6, 0.8, *pair))


class TestEqTenEquivalence:
    def test_half_form_equals_full_form(self):
        # log2(2/(e sqrt(V_{xA1|xB} V_{pA2|pB}))) ==
        # log2(4/(e sqrt((V_{xA|xB}+1)(V_{pA|pB}+1)))) when halves come from the splitter
        for v, t, xi, cm in random_channelled_states(40, seed=21):
            # x_A1 given x_B and p_A2 given p_B, A1 and A2 Alice's beamsplitter ports
            half_x, half_p = map(float, oracle.conditional_variances(DR_COHERENT, t, xi, v)[2:])
            full_x = conditional_variance(cm, X_A, ModeQuadrature(1, Quadrature.X))
            full_p = conditional_variance(cm, P_A, ModeQuadrature(1, Quadrature.P))
            lhs = math.log2(2.0 / (math.e * math.sqrt(half_x * half_p)))
            rhs = math.log2(4.0 / (math.e * math.sqrt((full_x + 1.0) * (full_p + 1.0))))
            assert abs(lhs - rhs) < 1e-10


class TestSteering:
    def test_vacuum_boundary(self):
        assert key_rate(RR_HOM_HOM, full_mode_cv(vacuum(2))).steering_ab == pytest.approx(1.0, abs=0)

    def test_tmsv_perfect_channel(self):
        assert key_rate(RR_HOM_HOM, full_mode_cv(tmsv(2.0))).steering_ab == pytest.approx(
            0.25, abs=1e-12
        )

    def test_loss_threshold_limit(self):
        # V -> inf at T = 1 - 2/e, xi = 0: V_{xB|xA} -> 1 - T = 2/e, product (2/e)^2
        t = 1.0 - 2.0 / math.e
        limit = 1.0 - t
        cv = hom_hom_cv(limit, limit)
        assert key_rate(RR_HOM_HOM, cv).steering_ab == pytest.approx((2.0 / math.e) ** 2, rel=1e-14)

    def test_key_positivity_matches_steering(self):
        # the steering products E_ab = V_{xB|xA} V_{pB|pA} and E_ba = V_{xA|xB} V_{pA|pB},
        # bit for bit, and a positive key exactly where the product read is below (2/e)^2
        for v, t, xi, cm in random_channelled_states(100, seed=22):
            cv = full_mode_cv(cm)
            rr, dr = key_rate(RR_HOM_HOM, cv), key_rate(DR_HOM_HOM, cv)
            assert rr.steering_ab == cv.v_x_b_given_a * cv.v_p_b_given_a
            assert dr.steering_ba == cv.v_x_a_given_b * cv.v_p_a_given_b
            assert rr.positive == (rr.steering_ab < (2.0 / math.e) ** 2)
            assert dr.positive == (dr.steering_ba < (2.0 / math.e) ** 2)


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
        half = float(oracle.conditional_variances(DR_COHERENT, 1.0, 0.0, 2.0)[2])  # x_A1 given x_B
        assert infer_full_mode_variance(half) == pytest.approx(
            conditional_variance(tmsv(2.0), X_A, ModeQuadrature(1, Quadrature.X)), abs=1e-12
        )

class TestMeasuredConditionalEntropy:
    """S(x_A|B) = H(x_A) + S(B|x_A) - S(B), the oracle's term of the bipartite UR slack."""

    def test_product_of_vacua(self):
        got = float(oracle.conditional_entropy(1.0, 1.0, 0.0))
        assert got == pytest.approx(0.5 * math.log2(2.0 * math.pi * math.e), abs=1e-12)

    def test_tmsv_two(self):
        # H(x_A) = 0.5*log2(4 pi e); conditioned B is pure diag(0.5, 2); S(B) = g(2)
        expected = 0.5 * math.log2(4.0 * math.pi * math.e) - (1.5 * math.log2(1.5) + 0.5)
        assert float(oracle.conditional_entropy(2.0, 1.0, 0.0)) == pytest.approx(expected, abs=1e-12)


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

    def test_bipartite_slack_is_the_tripartite_slack_on_mixed_states(self):
        # the purification duality: both functions return one value, within ENTROPY_BITS
        # of the 60-digit tripartite assembly S(x_A|B) + S(p_A|E) - log2(4 pi), which
        # equals the bipartite one S(x_A|B) + S(p_A|B) - log2(4 pi) - S(A|B); half the
        # states went through a second channel
        states = [cm for *_, cm in random_channelled_states(150, seed=59)]
        rng = np.random.default_rng(61)
        states += [
            apply_channel(cm, ChannelParams(float(rng.uniform(1e-3, 1.0)), float(rng.uniform(0.0, 0.5))), 1)
            for *_, cm in random_channelled_states(150, seed=61)
        ]
        for cm in states:
            bipartite = oracle.ur_slack_bipartite(*cm)
            assert abs(bipartite - oracle.ur_slack(*cm)) < 1e-50
            got = verify_ur_bipartite(cm)
            assert got == verify_ur_tripartite(cm)
            assert abs(got - float(bipartite)) <= ENTROPY_BITS, cm

    def test_each_state_sums_its_joint_entropy_once(self, monkeypatch):
        # S(AB) is summed when the state is validated: reading it calls no kernel, the slack
        # works in r = g - log2(e nu/2) and calls none, and both DW ceilings call it only for
        # their one-mode states (10 calls once)
        cm = channelled_state(20.0, 0.5, 0.05)
        kernel, calls = gaussian.entropy_g, []
        for module in (gaussian, bounds):
            monkeypatch.setattr(module, "entropy_g", lambda nu: calls.append(nu) or kernel(nu))
        assert von_neumann_entropy(cm) == joint_entropy(cm) > 0.0
        assert calls == []
        verify_ur_tripartite(cm)
        assert calls == []
        for direction in Reconciliation:
            devetak_winter_oracle(cm, direction)
        assert len(calls) == 2, calls

    @settings(max_examples=500, deadline=None)
    @given(v=st.floats(0.0, 12.0).map(lambda u: 10.0**u), xi=st.floats(0.0, 1.0))
    @example(v=7e7, xi=0.0)  # the oracle reads 4.9e-17
    @example(v=2.47e11, xi=0.53)  # the oracle reads 1.6e-23
    @example(v=1e12, xi=1e-6)
    @example(v=9.504e11, xi=1.1e-24)
    @example(v=1e12, xi=5e-324)
    def test_slack_at_full_transmission_is_nonnegative(self, v, xi):
        # where T = 1 the slack is O(1/V^2) beside entropies of about log2(V) bits
        assert verify_ur_tripartite(channelled_state(v, 1.0, xi)) >= 0.0

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
            cm = tmsv(math.cosh(2.0 * s))
            # var((x_A - x_B)/sqrt(2)) from raw second moments
            return (cm.a + cm.b - 2.0 * cm.c) / 2.0

        s_star = self._crossing(v_diff, 0.05, 1.0)
        assert s_star == pytest.approx((1.0 - math.log(2.0)) / 2.0, abs=1e-9)
        assert s_star == pytest.approx(0.15342640972002736, abs=1e-9)

    def test_key_positivity_at_optimal_gain_threshold(self):
        s_star = 0.5 * math.acosh(math.e / 2.0)
        above = full_mode_cv(tmsv(math.cosh(2.0 * (s_star + 1e-3))))
        below = full_mode_cv(tmsv(math.cosh(2.0 * (s_star - 1e-3))))
        assert key_rate(RR_HOM_HOM, above).positive
        assert not key_rate(RR_HOM_HOM, below).positive
