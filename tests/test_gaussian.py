"""Covariance-matrix core: construction, channel, beamsplitter reference, conditioning."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cvqkd
from conftest import (
    P_A,
    P_B,
    X_A,
    X_B,
    as_array,
    channelled_state,
    condition_on_homodyne,
    dw_reference,
    joint_entropy,
    one_mode_entropy,
    random_channelled_states,
    reduced_state,
    row,
    schur_variance,
    split_with_vacuum,
    ur_slack_reference,
)
from cvqkd import (
    ChannelParams,
    CovarianceMatrix,
    DomainError,
    ModeQuadrature,
    Quadrature,
    Reconciliation,
    UnphysicalStateError,
    apply_channel,
    conditional_variance,
    devetak_winter_oracle,
    entropy_g,
    symplectic_eigenvalues,
    tmsv,
    vacuum,
    verify_ur_bipartite,
    verify_ur_tripartite,
    von_neumann_entropy,
)
from cvqkd.errors import CVQKDError, PrecisionError
from cvqkd.gaussian import (
    NU_TOLERANCE,
    _closed_form_spectrum,
    _one_mode_entropy,
)


class TestConstruction:
    def test_tmsv_zero_squeezing_is_two_vacua(self):
        assert np.allclose(as_array(tmsv(1.0)), np.eye(4), atol=0)

    def test_tmsv_off_diagonal_is_sqrt_v2_minus_1(self):
        cm = tmsv(2.0)
        c = math.sqrt(2.0**2 - 1.0)  # sqrt(3)
        assert (cm.a, cm.b, cm.c) == (2.0, 2.0, c)
        m = as_array(cm)
        assert m[0, 2] == pytest.approx(c, abs=1e-15)
        assert m[1, 3] == pytest.approx(-c, abs=1e-15)
        assert m[0, 0] == m[2, 2] == 2.0

    def test_tmsv_squeezing_parameter_round_trip(self):
        # V = cosh(2s) with s = 0.15 recovers s through arccosh(V)/2
        v = math.cosh(0.3)
        assert v == pytest.approx(1.04534, abs=1e-5)
        assert math.acosh(as_array(tmsv(v))[0, 0]) / 2.0 == pytest.approx(0.15, abs=1e-12)

    def test_tmsv_is_pure_for_any_variance(self):
        for v in (1.0, 1.5, 7.0, 50.0):
            assert symplectic_eigenvalues(tmsv(v)) == [1.0, 1.0]

    def test_tmsv_rejects_v_beyond_float_precision(self):
        # at 1e8, v^2 - 1 rounds to v^2 and the spectrum came out [2.98, 2.98]
        assert symplectic_eigenvalues(tmsv(1e7)) == [1.0, 1.0]
        for v in (9.4917469e7, 1e8, 1e12, math.inf):
            with pytest.raises(PrecisionError, match="too large"):
                tmsv(v)

    def test_tmsv_below_the_rounding_limit_is_pure_or_raises(self):
        # from about 8.5e6 the stored c = sqrt(v^2 - 1) is off by about eps * v, more than
        # the purity gate; such states once came out as [1.0114, 1.0114] or as unphysical
        raised = 0
        for v in np.logspace(6.0, math.log10(9.49e7), 4000).tolist():
            try:
                assert symplectic_eigenvalues(tmsv(v)) == [1.0, 1.0]
            except PrecisionError:
                raised += 1
        assert 0 < raised < 4000
        for v in (3e7, 10170285.935037531):
            with pytest.raises(PrecisionError, match="too large"):
                tmsv(v)

    def test_precision_error_is_exported(self):
        assert issubclass(cvqkd.PrecisionError, cvqkd.CVQKDError)
        with pytest.raises(cvqkd.PrecisionError):
            cvqkd.tmsv(1e8)

    def test_tmsv_rejects_v_below_one(self):
        with pytest.raises(DomainError):
            tmsv(0.999)
        with pytest.raises(DomainError):
            tmsv(math.nan)

    @pytest.mark.parametrize("make, message", [(lambda: vacuum(0), "need two modes, got 0")], ids=["vacuum-no-modes"])
    def test_rejects_shapes_without_whole_modes(self, make, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize("make, message", [(lambda: vacuum(3), "need two modes, got 3")], ids=["vacuum-three-modes"])
    def test_rejects_states_outside_the_family(self, make, message):
        # every state is the two-mode record (a, b, c); the vacuum has two modes only
        with pytest.raises(DomainError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize(
        "entries, message",
        [
            (("2", 1.0, 0.0), "covariance matrix entry a must be a real number, got '2'"),
            ((1.0, True, 0.0), "covariance matrix entry b must be a real number, got True"),
            ((1.0, 1.0, [0.5]), r"covariance matrix entry c must be a real number, got \[0.5\]"),
            ((math.inf, 1.0, 0.0), "covariance matrix entries must be finite, got max |m| = inf"),
            ((1.0, -math.inf, 0.0), "covariance matrix entries must be finite, got max |m| = inf"),
            ((math.nan, 1.0, 0.0), "covariance matrix entries must be finite, got max |m| = nan"),
            ((1.0, 2.0, math.nan), "covariance matrix entries must be finite, got max |m| = nan"),
            ((math.inf, 1.0, math.nan), "covariance matrix entries must be finite, got max |m| = nan"),
        ],
        ids=["str", "bool", "list", "inf", "minus-inf", "nan-first", "nan-last", "inf-and-nan"],
    )
    def test_rejects_entries_that_are_not_finite_reals(self, entries, message):
        # a NaN after a finite entry is one that max() alone would drop
        with pytest.raises(DomainError, match="^" + message.replace("|", r"\|") + "$"):
            CovarianceMatrix(*entries)

    def test_entries_are_stored_as_floats(self):
        cm = CovarianceMatrix(np.float32(1.5), 2, np.float64(0.5))
        assert [type(x) for x in (cm.a, cm.b, cm.c)] == [float] * 3
        assert (cm.a, cm.b, cm.c) == (1.5, 2.0, 0.5)

    def test_rejects_unphysical_thermal(self):
        with pytest.raises(UnphysicalStateError):
            CovarianceMatrix(0.5, 0.5, 0.0)

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(UnphysicalStateError):
            CovarianceMatrix(2.0, -1.0, 0.0)

    def test_channel_params_domain(self):
        with pytest.raises(DomainError):
            ChannelParams(0.0, 0.0)
        with pytest.raises(DomainError):
            ChannelParams(1.2, 0.0)
        with pytest.raises(DomainError):
            ChannelParams(0.5, -0.1)


class TestChannel:
    def test_identity_channel_leaves_state_unchanged(self):
        cm = tmsv(3.0)
        out = apply_channel(cm, ChannelParams(1.0, 0.0), mode=1)
        assert np.allclose(as_array(out), as_array(cm), atol=0)

    def test_vacuum_picks_up_t_xi(self):
        out = apply_channel(vacuum(), ChannelParams(0.3, 0.05), mode=0)
        assert as_array(out)[0, 0] == pytest.approx(1.0 + 0.3 * 0.05, abs=1e-15)  # 1.015

    def test_tmsv_through_channel(self):
        out = as_array(apply_channel(tmsv(2.0), ChannelParams(0.5, 0.1), mode=1))
        assert out[2, 2] == pytest.approx(0.5 * 2.0 + 0.5 + 0.05, abs=1e-15)  # 1.55
        assert out[0, 2] == pytest.approx(math.sqrt(0.5) * math.sqrt(3.0), abs=1e-15)
        assert out[0, 0] == 2.0  # Alice's arm untouched

    def test_channel_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.uniform(1.0, 20.0)
            t1, t2 = rng.uniform(0.1, 1.0, size=2)
            once = apply_channel(
                apply_channel(tmsv(v), ChannelParams(t1, 0.0), 1), ChannelParams(t2, 0.0), 1
            )
            combined = apply_channel(tmsv(v), ChannelParams(t1 * t2, 0.0), 1)
            assert np.max(np.abs(as_array(once) - as_array(combined))) < 1e-10

    def test_mode_out_of_range(self):
        with pytest.raises(DomainError):
            apply_channel(tmsv(2.0), ChannelParams(0.5, 0.0), mode=2)

    @staticmethod
    def ix_oracle(cm, ch, mode):
        """The earlier apply_channel on a stored array, symmetrised as that array was.

        Cross terms are scaled through two np.ix_ grids.
        """
        t = ch.transmission
        m = as_array(cm).copy()
        sl = slice(2 * mode, 2 * mode + 2)
        rest = np.ones(2 * cm.n_modes, dtype=bool)
        rest[sl] = False
        m[sl, sl] = t * m[sl, sl] + ((1.0 - t) + t * ch.excess_noise) * np.eye(2)
        m[np.ix_([2 * mode, 2 * mode + 1], np.flatnonzero(rest))] *= math.sqrt(t)
        m[np.ix_(np.flatnonzero(rest), [2 * mode, 2 * mode + 1])] *= math.sqrt(t)
        return (m + m.T) / 2.0

    def test_matches_ix_oracle_exactly(self):
        # family states, a channel on either arm, then a second channel on either arm,
        # every fourth with float32 parameters; the array matches bit for bit, and
        # variance and covariance read its entries
        rng = np.random.default_rng(20261018)
        quadratures = [ModeQuadrature(m, q) for m in (0, 1) for q in Quadrature]
        for i in range(600):
            v = float(10.0 ** rng.uniform(0.0, 6.0))
            first = ChannelParams(float(rng.uniform(1e-3, 1.0)), float(rng.uniform(0.0, 0.5)))
            cm = apply_channel(tmsv(v), first, int(rng.integers(2)))
            kind = np.float32 if i % 4 == 0 else float
            ch = ChannelParams(kind(rng.uniform(1e-6, 1.0)), kind(rng.uniform(0.0, 0.5)))
            mode = int(rng.integers(2))
            out = apply_channel(cm, ch, mode)
            want = self.ix_oracle(cm, ch, mode)
            assert as_array(out).tobytes() == want.tobytes()
            for p in quadratures:
                assert repr(out.variance(p)) == repr(float(want[row(p), row(p)]))
                for q in quadratures:
                    assert repr(out.covariance(p, q)) == repr(float(want[row(p), row(q)])), (p, q)


class TestBeamsplitter:
    """The split-state reference that the heterodyne variances and records are checked against."""

    def test_vacuum_invariant(self):
        out = split_with_vacuum(np.eye(2), 0)
        assert np.allclose(out, np.eye(4), atol=1e-15)

    def test_single_mode_split(self):
        out = split_with_vacuum(np.diag([3.0, 3.0]), 0)  # a thermal mode
        assert out[0, 0] == pytest.approx(2.0, abs=1e-15)  # (3+1)/2
        assert out[2, 2] == pytest.approx(2.0, abs=1e-15)
        assert out[0, 2] == pytest.approx(1.0, abs=1e-15)  # (3-1)/2

    def test_third_party_correlation_scaling(self):
        out = split_with_vacuum(as_array(tmsv(2.0)), 0)  # modes A1, B, A2
        expected = math.sqrt(3.0) / math.sqrt(2.0)  # 1.224745
        assert out[0, 2] == pytest.approx(expected, abs=1e-15)

    def test_heterodyne_half_law(self):
        # V_{xA1|q} = (V_{xA|q} + 1)/2 for any third-party quadrature q
        for v, t, xi in [(2.0, 1.0, 0.0), (8.0, 0.4, 0.1), (30.0, 0.7, 0.3)]:
            cm = channelled_state(v, t, xi)
            split = split_with_vacuum(as_array(cm), 0)  # A1=0, B=1, A2=2
            for quad in (Quadrature.X, Quadrature.P):
                q_full = ModeQuadrature(1, quad)
                full = conditional_variance(cm, ModeQuadrature(0, quad), q_full)
                half = schur_variance(split, row(ModeQuadrature(0, quad)), row(q_full))
                assert abs(half - (full + 1.0) / 2.0) < 1e-10


class TestConditioning:
    def test_product_state_unchanged(self):
        cm = vacuum(2)
        rest, v_meas = condition_on_homodyne(cm, X_A)
        assert v_meas == 1.0
        assert np.allclose(rest, np.eye(2), atol=0)

    def test_tmsv_conditioning_by_hand(self):
        # Schur complement: V_{xB|xA} = 2 - 3/2 = 0.5, p untouched
        rest, v_meas = condition_on_homodyne(tmsv(2.0), X_A)
        assert v_meas == 2.0
        assert rest[0, 0] == pytest.approx(2.0 - 3.0 / 2.0, abs=1e-12)
        assert rest[1, 1] == pytest.approx(2.0, abs=1e-12)

    def test_large_v_limit(self):
        # V - (V^2-1)/V = 1/V -> 0
        for v in (10.0, 100.0, 1000.0):
            rest, _ = condition_on_homodyne(tmsv(v), X_A)
            assert rest[0, 0] == pytest.approx(1.0 / v, rel=1e-9)

    def test_single_mode_rejected(self):
        # every state has two modes, so no one-mode state is built to condition
        with pytest.raises(DomainError, match="^need two modes, got 1$"):
            vacuum(1)

    def test_conditional_variance_uncorrelated(self):
        assert conditional_variance(vacuum(2), X_B, X_A) == pytest.approx(1.0, abs=0)

    def test_conditional_variance_tmsv(self):
        assert conditional_variance(tmsv(2.0), X_B, X_A) == pytest.approx(0.5, abs=1e-12)

    def test_conditional_variance_after_channel(self):
        # 1.55 - (sqrt(0.5)*sqrt(3))^2 / 2 = 1.55 - 0.75 = 0.8
        cm = channelled_state(2.0, 0.5, 0.1)
        assert conditional_variance(cm, X_B, X_A) == pytest.approx(0.8, abs=1e-12)

    def test_target_equals_given_rejected(self):
        with pytest.raises(DomainError):
            conditional_variance(tmsv(2.0), X_A, X_A)

    def test_schur_consistency(self):
        # conditional_variance matches the diagonal of condition_on_homodyne
        for v, t, xi, cm in random_channelled_states(50, seed=11):
            rest, _ = condition_on_homodyne(cm, X_A)
            assert abs(conditional_variance(cm, X_B, X_A) - rest[0, 0]) < 1e-10
            assert abs(conditional_variance(cm, P_B, X_A) - rest[1, 1]) < 1e-10

    def test_x_p_symmetry(self):
        for v, t, xi, cm in random_channelled_states(50, seed=12):
            assert conditional_variance(cm, X_B, X_A) == pytest.approx(
                conditional_variance(cm, P_B, P_A), abs=1e-10
            )
            assert conditional_variance(cm, X_A, X_B) == pytest.approx(
                conditional_variance(cm, P_A, P_B), abs=1e-10
            )


class TestPhysicalityPreservation:
    def test_operations_keep_states_physical(self):
        # a channel on either arm, then a homodyne of either quadrature of either mode
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = float(rng.uniform(1.0, 50.0))
            t = float(rng.uniform(1e-3, 1.0))
            xi = float(rng.uniform(0.0, 0.5))
            cm = apply_channel(tmsv(v), ChannelParams(t, xi), int(rng.integers(0, 2)))  # validates
            mq = ModeQuadrature(int(rng.integers(0, 2)), Quadrature.X if rng.integers(2) else Quadrature.P)
            rest, _ = condition_on_homodyne(cm, mq)
            for block in (rest, reduced_state(cm, [1 - mq.mode])):  # diagonal: nu = sqrt(det)
                assert block[0, 1] == 0.0 and math.sqrt(block[0, 0] * block[1, 1]) >= 1.0 - 1e-9


class TestSpectraAndEntropy:
    def test_vacuum_spectrum(self):
        assert symplectic_eigenvalues(vacuum()) == symplectic_eigenvalues(vacuum(2)) == [1.0, 1.0]

    def test_thermal_spectrum(self):
        assert symplectic_eigenvalues(CovarianceMatrix(4.5, 4.5, 0.0)) == pytest.approx([4.5, 4.5], abs=1e-12)

    def test_pure_states_have_zero_entropy(self):
        assert von_neumann_entropy(tmsv(5.0)) == 0.0
        assert von_neumann_entropy(vacuum(2)) == 0.0

    def test_stored_entropy_is_the_sum_over_the_spectrum(self):
        # S(AB), stored at validation, bit for bit the sum the reference takes on each read
        states = [cm for *_, cm in random_channelled_states(200, seed=67)]
        states += [apply_channel(cm, ChannelParams(0.3, 0.2), mode=0) for cm in states[:100]]
        for cm in states + [tmsv(5.0), vacuum(), CovarianceMatrix(3.0, 1.0, 0.0)]:
            assert von_neumann_entropy(cm) == joint_entropy(cm), as_array(cm).tolist()

    def test_thermal_entropy_nu_3(self):
        # a thermal mode beside a vacuum: g(3) + g(1) = 2*log2(2) - 1*log2(1) = 2 bits
        assert von_neumann_entropy(CovarianceMatrix(3.0, 1.0, 0.0)) == pytest.approx(2.0, abs=1e-12)

    def test_reduced_tmsv_entropy(self):
        # g(2) = 1.5*log2(1.5) + 0.5
        expected = 1.5 * math.log2(1.5) + 0.5
        assert expected == pytest.approx(1.3774437510817343, abs=1e-12)
        got = one_mode_entropy(reduced_state(tmsv(2.0), [0]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_g_matches_mpmath(self):
        # the two-term form up log2 up - dn log2 dn cancelled to 2.2e-8 at nu = 1e7
        with mpmath.workdps(60):
            for nu in [1.0 + 1e-12, 1.5, 2.0] + np.logspace(0.5, 9.0, 35).tolist():
                up, dn = (mpmath.mpf(nu) + 1) / 2, (mpmath.mpf(nu) - 1) / 2
                want = up * mpmath.log(up, 2) - dn * mpmath.log(dn, 2)
                assert abs(entropy_g(nu) - float(want)) <= 1e-13, nu

    def test_g_properties(self):
        assert entropy_g(1.0) == 0.0
        grid = np.linspace(1.0, 60.0, 200)
        vals = [entropy_g(float(nu)) for nu in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestReducedState:
    def test_reduce_keeps_block(self):
        cm = channelled_state(4.0, 0.6, 0.2)
        sub = reduced_state(cm, [1])
        assert np.array_equal(sub, as_array(cm)[2:, 2:])


@pytest.mark.parametrize(
    "call",
    [
        lambda cm: cm.variance(ModeQuadrature(-1, Quadrature.X)),
        lambda cm: cm.variance(ModeQuadrature(2, Quadrature.P)),
        lambda cm: cm.covariance(X_A, ModeQuadrature(-1, Quadrature.P)),
        lambda cm: cm.covariance(ModeQuadrature(2, Quadrature.X), X_B),
        lambda cm: conditional_variance(cm, X_B, ModeQuadrature(-2, Quadrature.X)),
        lambda cm: conditional_variance(cm, ModeQuadrature(2, Quadrature.X), X_A),
    ],
    ids=[
        "variance-mode-1",
        "variance-mode2",
        "covariance-mode-1",
        "covariance-mode2",
        "conditional-given-mode-2",
        "conditional-target-mode2",
    ],
)
def test_mode_out_of_range_raises_domain_error(call):
    # a negative mode once indexed from the end (mode -1 read mode 1's
    # variance) and a mode past the last raised an untyped IndexError; the
    # ModeQuadrature in each call now rejects its mode when it is built
    cm = channelled_state(5.0, 0.7, 0.1)
    with pytest.raises(DomainError, match="out of range"):
        call(cm)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: vacuum(1.5), "mode count must be an integer, got 1.5"),
        (lambda: apply_channel(tmsv(2.0), ChannelParams(0.5), 1.0), "mode must be an integer, got 1.0"),
    ],
    ids=["vacuum", "apply-channel"],
)
def test_non_integer_mode_raises_domain_error(call, message):
    # numpy raised an untyped TypeError or IndexError for these
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


def test_numpy_integer_mode_is_the_int_mode():
    assert vacuum(np.int32(2)).n_modes == 2


class TestSymmetrisationLimit:
    """The entry limit 2^510, below which the closed-form spectra cannot overflow.

    It was 2^1023, where (m + m.T) / 2 overflowed; between the two the
    spectrum of a thermal 1e160 read inf and a channel state's [1, inf].
    """

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CovarianceMatrix(1e308, 1e308, 0.0),
            lambda: CovarianceMatrix(2.0**1023, 1.0, 0.0),
            lambda: CovarianceMatrix(1.7e308, 1.7e308, 0.0),
            lambda: CovarianceMatrix(2.0**510, 1.0, 0.0),
            lambda: CovarianceMatrix(1e160, 1e160, 0.0),
            lambda: apply_channel(tmsv(2.0), ChannelParams(0.5, 1e160), mode=1),
        ],
        ids=["diag-1e308", "diag-2^1023", "thermal", "diag-2^510", "diag-1e160", "channel-xi-1e160"],
    )
    def test_entry_that_overflows_raises_precision_error(self, make):
        with pytest.raises(PrecisionError, match=r"reaches 2\^510: spectra overflow"):
            make()

    def test_largest_entry_below_the_limit_validates(self):
        v = math.nextafter(2.0**510, 0.0)
        assert as_array(CovarianceMatrix(v, v, 0.0))[0, 0] == v
        for entries in ((v, v, 0.0), (v, 1.0, 0.0), (v, v, math.nextafter(v, 0.0))):
            assert all(math.isfinite(nu) for nu in symplectic_eigenvalues(CovarianceMatrix(*entries)))

    # blocks on which ref - c^2/other rounds to 0, a DW division by zero once
    SINGULAR_DW = (3.956619672210185e108, 6.568557558880241e132, 5.097968620490957e120)

    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(["channel", "both-arms", "blocks"]),
        logs=st.lists(st.floats(0.0, 300.0), min_size=3, max_size=3),
        fraction=st.floats(0.0, 1.0),
    )
    @example(kind="channel", logs=[37.5 * math.log10(2.0), math.log10(2.0), 160.0], fraction=0.5)
    @example(
        kind="blocks",
        logs=[math.log10(SINGULAR_DW[0]), math.log10(SINGULAR_DW[1]), 0.0],
        fraction=SINGULAR_DW[2] / (math.sqrt(SINGULAR_DW[0]) * math.sqrt(SINGULAR_DW[1])),
    )
    def test_entries_up_to_1e300_give_finite_values_or_typed_errors(self, kind, logs, fraction):
        # entries log-uniform up to 1e300: every spectrum, entropy, UR slack and DW
        # ceiling is finite or raises a CVQKDError; NaN and inf once came out silently
        x, y, z = (10.0**u for u in logs)
        try:
            if kind in ("channel", "both-arms"):  # V to 1e8, T down to 1e-300, xi to 1e300
                cm = channelled_state(10.0 ** (logs[0] / 37.5), 1.0 / y, z - 1.0)
                if kind == "both-arms":
                    cm = apply_channel(cm, ChannelParams(fraction or 1.0, z), mode=0)
            else:
                cm = CovarianceMatrix(x, y, fraction * math.sqrt(x) * math.sqrt(y))
        except CVQKDError:
            return
        calls = [lambda: symplectic_eigenvalues(cm), lambda: [von_neumann_entropy(cm)]]
        calls += [lambda: [verify_ur_bipartite(cm)], lambda: [verify_ur_tripartite(cm)]]
        calls += [lambda d=d: [devetak_winter_oracle(cm, d)] for d in Reconciliation]
        for call in calls:
            try:
                values = call()
            except CVQKDError:
                continue
            assert all(math.isfinite(value) for value in values), (kind, logs, fraction, values)


def _exact_det(rows):
    """Determinant by Laplace expansion; exact when the entries are Fractions."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _exact_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def mpmath_spectrum(m):
    """Ascending spectrum of the stored two-mode matrix to 50 digits.

    The invariants (det Sigma and Delta = det A + det B + 2 det C) are exact
    rationals of the stored doubles, so the only roundings are the 50-digit
    square roots and one division.
    """
    q = [[Fraction(x) for x in row] for row in m.tolist()]
    to_mp = lambda f: mpmath.mpf(f.numerator) / f.denominator
    with mpmath.workdps(50):
        det = _exact_det(q)
        block_det = lambda i, j: q[i][j] * q[i + 1][j + 1] - q[i][j + 1] * q[i + 1][j]
        delta = block_det(0, 0) + block_det(2, 2) + 2 * block_det(0, 2)
        hi2 = (to_mp(delta) + mpmath.sqrt(to_mp(delta * delta - 4 * det))) / 2
        return [mpmath.sqrt(to_mp(det) / hi2), mpmath.sqrt(hi2)]


ORACLE_V = np.logspace(0.0, 7.0, 29).tolist()  # four points a decade over [1, 1e7]
ORACLE_T = [1e-3, 0.1, 0.5, 0.9, 1.0]
ORACLE_XI = [0.0, 1e-8, 1e-4, 0.01, 0.5]


# the closed form's relative error bound in decade d of V, as symplectic_eigenvalues
# states it: decade d holds V in [10^d, 10^(d+1)), and V = 1e7 joins d = 6
DECADE_ERROR = [np.finfo(float).eps * 10.0 ** (d + 1) / 2.0 for d in range(7)]


class TestClosedFormSpectrum:
    def test_routes(self):
        # one route: the closed form takes every family state, the sign of c aside,
        # and declines only a quadrature block that is not positive definite
        for cm in (tmsv(30.0), channelled_state(30.0, 0.4, 0.1), apply_channel(tmsv(3.0), ChannelParams(0.2), 0)):
            assert _closed_form_spectrum(cm.a, cm.b, cm.c) == _closed_form_spectrum(cm.a, cm.b, -cm.c) is not None
        assert _closed_form_spectrum(3.0, 1.0, 0.0) == (1.0, 3.0)
        for declined in ((2.0, 2.0, 2.0), (-1.0, 2.0, 0.0), (2.0, 0.0, 0.0), (1.0, 4.0, 2.5)):
            assert _closed_form_spectrum(*declined) is None

    def test_against_mpmath_oracle(self):
        states = [(v, tmsv(v)) for v in ORACLE_V] + [
            (v, channelled_state(v, t, xi)) for v in ORACLE_V for t in ORACLE_T for xi in ORACLE_XI
        ]
        worst = [0.0] * len(DECADE_ERROR)
        for v, cm in states:
            m = as_array(cm)
            ref = mpmath_spectrum(m)
            closed = _closed_form_spectrum(cm.a, cm.b, cm.c)
            err = max(float(abs(x - r) / r) for x, r in zip(closed, ref))
            decade = min(int(math.log10(v)), 6)
            worst[decade] = max(worst[decade], err)
            assert err <= DECADE_ERROR[decade], (v, m.tolist())
        assert worst[0] > 0.0 and worst[-1] > DECADE_ERROR[-1] / 10.0, worst  # the bounds are tight

    def test_tmsv_is_exactly_pure_up_to_1e7(self):
        for v in ORACLE_V:
            assert symplectic_eigenvalues(tmsv(v)) == [1.0, 1.0], v

    @settings(max_examples=300, deadline=None)
    @given(
        nu=st.lists(st.one_of(st.just(1.0), st.floats(1.001, 20.0)), min_size=2, max_size=2),
        squeeze=st.floats(-1.0, 1.0),
    )
    def test_matches_exact_spectrum_on_random_states(self, nu, squeeze):
        # thermal states under two-mode squeezing (block form); values of nu either
        # exactly 1 or well above the snap
        nu1, nu2 = nu
        ch, sh = math.cosh(squeeze), math.sinh(squeeze)
        a = nu1 * ch * ch + nu2 * sh * sh
        b = nu1 * sh * sh + nu2 * ch * ch
        c = (nu1 + nu2) * ch * sh
        assert symplectic_eigenvalues(CovarianceMatrix(a, b, c)) == pytest.approx(sorted(nu), rel=1e-9)

    @pytest.mark.parametrize(
        "entries",
        [
            (0.5, 0.5, 0.0),
            (2.0, -1.0, 0.0),
            (3.0, 1.0, 1.2),  # nu+ = 2.6 and nu- = 0.6
        ],
        ids=["sub-vacuum", "indefinite", "block-form-nu-minus-below-one"],
    )
    def test_unphysical_inputs_still_raise(self, entries):
        with pytest.raises(UnphysicalStateError):
            CovarianceMatrix(*entries)


def _mpmath_smallest_eigenvalue(a, b, c):
    """Smallest eigenvalue of the quadrature block [[a, c], [c, b]] of the stored doubles, 50 digits."""
    with mpmath.workdps(50):
        a, b, c = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c)
        return (a + b) / 2 - mpmath.sqrt(((a - b) / 2) ** 2 + c * c)


def _declined_matrices(seed, n):
    """Seeded block entries (a, b, c) near ab = c^2, a < 0 and either sign of c included."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a = float(10.0 ** rng.uniform(-4.0, 8.0)) * (1.0 if rng.random() < 0.8 else -1.0)
        b = float(10.0 ** rng.uniform(-4.0, 8.0))
        c = math.sqrt(abs(a * b)) * (1.0 + float(rng.uniform(-1e-9, 1e-9)))
        out.append((a, b, -c if rng.random() < 0.5 else c))
    v = 67982204.65969986  # TestEighFloor's tmsv whose stored ab - c^2 rounds to 0
    out.append((v, v, math.sqrt(v * v - 1.0)))
    out.append((2.0, 2.0, 2.0))  # TestEighFloor's singular matrix
    v = 7e7  # tmsv(7e7)'s stored entries
    out.append((v, v, math.sqrt(v * v - 1.0)))
    return out


def test_declined_matrices_raise_by_the_sign_of_their_smallest_eigenvalue():
    # where the closed form declines, UnphysicalStateError when the 50-digit smallest
    # eigenvalue lies below -tol and PrecisionError (rounding floor) otherwise
    classes = []
    for a, b, c in _declined_matrices(20261019, 4000):
        if _closed_form_spectrum(a, b, c) is not None:
            continue
        tol = NU_TOLERANCE * max(1.0, abs(a), abs(b), abs(c))
        want = UnphysicalStateError if _mpmath_smallest_eigenvalue(a, b, c) < -tol else PrecisionError
        with pytest.raises(CVQKDError) as raised:
            CovarianceMatrix(a, b, c)
        assert raised.type is want, ((a, b, c), raised.value)
        classes.append(want)
    assert classes.count(PrecisionError) >= 100 and classes.count(UnphysicalStateError) >= 100
    assert classes[-3:] == [PrecisionError] * 3
    with pytest.raises(PrecisionError, match="too large: the stored state is not pure"):
        tmsv(7e7)


@pytest.mark.parametrize(
    "mode, quadrature",
    [(0, "x"), (1, "p"), (0, 1), (0.5, Quadrature.X), (1.0, Quadrature.P), ("0", Quadrature.X),
     (True, Quadrature.X)],
    ids=["str-x", "str-p", "int-quadrature", "half-mode", "float-mode", "str-mode", "bool-mode"],
)
def test_mode_quadrature_rejects_untyped_fields(mode, quadrature):
    # a quadrature other than Quadrature.X once read p, so (0, "x") read p_A,
    # a non-integer mode reached numpy's untyped IndexError, and True read mode 1
    with pytest.raises(DomainError):
        ModeQuadrature(mode, quadrature)


def test_mode_quadrature_accepts_numpy_integer_modes():
    cm = channelled_state(5.0, 0.7, 0.1)
    assert cm.variance(ModeQuadrature(np.int64(1), Quadrature.P)) == cm.variance(P_B)


class TestEighFloor:
    """Singular matrices that an eigh route once floored to spurious spectra."""

    def test_singular_matrix_raises_precision_error(self):
        # c = v: the closed form declines the singular matrix, whose smallest
        # eigenvalue 0 was once floored to a spurious nu ~ 6e-8
        with pytest.raises(PrecisionError, match="below its rounding floor"):
            CovarianceMatrix(2.0, 2.0, 2.0)

    def test_tmsv_whose_stored_matrix_is_singular_keeps_its_message(self):
        # ab - c^2 rounds to 0 here; a floored eigh route once read the pure
        # state's spectrum as [2.026, 2.026]
        v = 67982204.65969986
        c = math.sqrt(v * v - 1.0)
        assert _closed_form_spectrum(v, v, c) is None
        with pytest.raises(PrecisionError, match="rounding floor"):
            CovarianceMatrix(v, v, c)
        with pytest.raises(PrecisionError, match="too large: the stored state is not pure"):
            tmsv(v)


def _entropy_or_error(f, errors=CVQKDError):
    # a value's repr, or CVQKDError where f raises one of errors
    try:
        return repr(f())
    except errors:
        return CVQKDError


def _assert_bounds_match_the_reference_assembly(cm):
    # the UR slack and both DW ceilings, read from the blocks (a, b, c), against their
    # assembly from the conftest references, bit for bit; where a reference
    # raises, a division by a conditional variance rounded to 0 included, the public
    # function raises a CVQKDError
    reference_errors = (CVQKDError, ZeroDivisionError)
    want = _entropy_or_error(lambda: ur_slack_reference(cm), reference_errors)
    for ur in (verify_ur_bipartite, verify_ur_tripartite):
        assert _entropy_or_error(lambda: ur(cm)) == want, (ur, as_array(cm).tolist())
    for direction in Reconciliation:
        got = _entropy_or_error(lambda: devetak_winter_oracle(cm, direction))
        assert got == _entropy_or_error(lambda: dw_reference(cm, direction), reference_errors), (
            direction, as_array(cm).tolist()
        )


class TestScalarEntropies:
    @settings(max_examples=150, deadline=None)
    @given(
        v=st.one_of(st.sampled_from([1.0, 1e5, 1e7, 3e7]), st.floats(1.0, 3e7)),
        t=st.one_of(st.sampled_from([1e-3, 1.0]), st.floats(1e-3, 1.0)),
        xi=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    )
    def test_channel_states(self, v, t, xi):
        try:
            cm = channelled_state(v, t, xi)
        except PrecisionError:  # tmsv past its precision limit
            assume(False)
        _assert_bounds_match_the_reference_assembly(cm)

    @settings(max_examples=150, deadline=None)
    @given(
        v=st.one_of(st.sampled_from([1.0, 1e5, 1e7, 3e7]), st.floats(1.0, 3e7)),
        channels=st.lists(
            st.tuples(
                st.one_of(st.sampled_from([1e-3, 1.0]), st.floats(1e-3, 1.0)),
                st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
            ),
            min_size=2,
            max_size=2,
        ),
    )
    def test_states_with_a_channel_on_both_arms(self, v, channels):
        (t_b, xi_b), (t_a, xi_a) = channels
        try:
            cm = apply_channel(channelled_state(v, t_b, xi_b), ChannelParams(t_a, xi_a), mode=0)
        except PrecisionError:  # tmsv past its precision limit
            assume(False)
        _assert_bounds_match_the_reference_assembly(cm)

    @settings(max_examples=300, deadline=None)
    @given(entries=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=2, max_size=2))
    @example(entries=[math.nan, 1.0])
    @example(entries=[math.inf, 1.0])  # a tolerance of inf would snap nu = inf to 0 bits
    @example(entries=[2.0**1023, 2.0**1023])
    @example(entries=[-1.0, 1.0])
    @example(entries=[1.0, 0.0])  # singular
    @example(entries=[0.5, 0.5])  # nu = 0.5 < 1: the gate raises
    @example(entries=[1.0 - 1e-10, 1.0])  # snapped to purity
    @example(entries=[3.0, 12.0])  # nu = 6
    def test_any_entries_give_a_nonnegative_entropy_or_raise(self, entries):
        # never NaN; symmetric in x and p bit for bit, and g(sqrt(xp)) to 50 digits
        # wherever nu stands clear of the snap to 1, whose tolerance scales with the
        # largest entry (ROADMAP item 2: it reads diag(1, 1e18), nu = 1e9, as pure)
        x, p = entries
        try:
            got = _one_mode_entropy(x, p)
        except CVQKDError:
            return
        assert isinstance(got, float) and got >= 0.0, got
        assert repr(got) == repr(_one_mode_entropy(p, x))
        with mpmath.workdps(50):
            nu = mpmath.sqrt(mpmath.mpf(x) * mpmath.mpf(p))
            if nu > 1 + 1e-6 + 2 * NU_TOLERANCE * max(1.0, abs(x), abs(p)):
                up, dn = (nu + 1) / 2, (nu - 1) / 2
                want = float(mpmath.log(up, 2) + dn * mpmath.log1p(1 / dn) / mpmath.log(2))
                assert abs(got - want) <= 1e-12 * max(1.0, want), (x, p, got, want)


def _assert_positive_diagonal(cm):
    # conditional_variance, the UR slack, the DW ceiling and the
    # condition_on_homodyne reference divide by a quadrature variance without
    # testing its sign
    assert cm.a > 0.0 and cm.b > 0.0, cm


class TestPositiveDiagonal:
    """Every quadrature variance of a validated CovarianceMatrix is positive."""

    @settings(max_examples=200, deadline=None)
    @given(
        nu=st.lists(st.one_of(st.just(1.0), st.floats(1.0, 1e3)), min_size=2, max_size=2),
        squeeze=st.floats(-8.0, 8.0),
    )
    def test_symplectic_maps_of_thermal_states(self, nu, squeeze):
        # two-mode squeezing of two thermal modes, in block form
        ch, sh = math.cosh(squeeze), math.sinh(squeeze)
        s = np.block([[ch * np.eye(2), sh * np.diag([1.0, -1.0])], [sh * np.diag([1.0, -1.0]), ch * np.eye(2)]])
        m = s @ np.diag([nu[0], nu[0], nu[1], nu[1]]) @ s.T
        try:
            cm = CovarianceMatrix(m[0, 0], m[2, 2], m[0, 2])
        except (UnphysicalStateError, PrecisionError):  # rounding of entries up to e^16 * 1e3
            return
        _assert_positive_diagonal(cm)

    @settings(max_examples=200, deadline=None)
    @given(
        v=st.one_of(st.sampled_from([1.0, 8.5e6, 6.8e7, 9e7]), st.floats(1.0, 9e7)),
        t=st.one_of(st.sampled_from([1e-3, 1.0]), st.floats(1e-3, 1.0)),
        xi=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    )
    def test_epr_and_channel_states(self, v, t, xi):
        try:
            epr = tmsv(v)
        except PrecisionError:  # tmsv past its precision limit
            assume(False)
        _assert_positive_diagonal(epr)
        try:
            cm = apply_channel(epr, ChannelParams(t, xi), mode=1)
        except (UnphysicalStateError, PrecisionError):
            assume(False)
        _assert_positive_diagonal(cm)

    @settings(max_examples=300, deadline=None)
    @given(
        log_a=st.floats(-8.0, 8.0),
        excess=st.floats(-1e-6, 1e-6),
        sign=st.sampled_from([1.0, -1.0]),
    )
    @example(log_a=0.0, excess=0.0, sign=-1.0)  # -I: det 1, both variances -1
    @example(log_a=0.0, excess=0.0, sign=1.0)  # the vacuum
    def test_one_mode_states_near_unit_determinant(self, log_a, excess, sign):
        # the one-mode route the entropies take: ad = 1 + excess, so nu is near 1 and
        # the gate decides; it returns an entropy only for positive variances
        a = sign * 10.0**log_a
        d = (1.0 + excess) / a
        try:
            _one_mode_entropy(a, d)
        except (UnphysicalStateError, PrecisionError):
            return
        assert a > 0.0 and d > 0.0, (a, d)
