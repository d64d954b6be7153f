"""Two-mode states (V, T, xi): construction, channel, beamsplitter reference, conditioning, entropies."""

import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cvqkd
import oracle
from conftest import (
    COPY_ROUTES,
    P_A,
    P_B,
    X_A,
    X_B,
    as_array,
    channelled_state,
    condition_on_homodyne,
    joint_entropy,
    random_channelled_states,
    reduced_state,
    row,
    schur_variance,
    split_with_vacuum,
)
from cvqkd import (
    ChannelParams,
    CovarianceMatrix,
    DomainError,
    ModeQuadrature,
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
    von_neumann_entropy,
)
from cvqkd.errors import CVQKDError, PrecisionError

EPS = np.finfo(float).eps
# the oracle bound of the UR slack, both DW ceilings and S(AB) on V in [1, 1e12], T in
# [1e-4, 1] and xi in [0, 1]: each is a sum of entropies of up to about 40 bits, each
# rounded to a few eps; 3,000 random states read at most 2.2e-14 bits
ENTROPY_BITS = 1e-13


class TestConstruction:
    def test_tmsv_zero_squeezing_is_two_vacua(self):
        assert np.allclose(as_array(tmsv(1.0)), np.eye(4), atol=0)

    def test_tmsv_off_diagonal_is_sqrt_v2_minus_1(self):
        cm = tmsv(2.0)
        c = math.sqrt(2.0**2 - 1.0)  # sqrt(3)
        assert cm == (2.0, 1.0, 0.0)
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
        # ab - c^2 = V w + T = 1 exactly at T = 1, xi = 0, at every float V
        for v in (1.0, 1.5, 7.0, 50.0, 1e8, 1e300, sys.float_info.max):
            assert symplectic_eigenvalues(tmsv(v)) == [1.0, 1.0]
            assert von_neumann_entropy(tmsv(v)) == 0.0

    def test_tmsv_rejects_v_beyond_float_precision(self):
        # an int past the float range, and inf, which no state has; at 1e8 the
        # stored-entry route once read the spectrum [2.98, 2.98], and raised from 9.49e7
        assert symplectic_eigenvalues(tmsv(1e8)) == [1.0, 1.0]
        with pytest.raises(PrecisionError, match="beyond the float range"):
            tmsv(10**400)
        with pytest.raises(DomainError, match="^EPR variance must be finite and >= 1, got inf$"):
            tmsv(math.inf)

    def test_tmsv_below_the_rounding_limit_is_pure_or_raises(self):
        # from about 8.5e6 the stored c = sqrt(v^2 - 1) of the entry route was off by
        # about eps * v, more than its purity gate: 348 of 608 sampled states in
        # [1e7, 1e8) raised, and 67982204.66 read as singular. Each is pure now
        for v in np.logspace(6.0, math.log10(9.49e7), 4000).tolist() + [
            3e7, 7e7, 10170285.935037531, 67982204.65969986,
        ]:
            assert symplectic_eigenvalues(tmsv(v)) == [1.0, 1.0], v

    def test_precision_error_is_exported(self):
        assert issubclass(cvqkd.PrecisionError, cvqkd.CVQKDError)
        with pytest.raises(cvqkd.PrecisionError):
            cvqkd.tmsv(10**400)

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
        # every state is the two-mode record (V, T, xi); the vacuum has two modes only
        with pytest.raises(DomainError, match=f"^{message}$"):
            make()

    @pytest.mark.parametrize(
        "entries, message",
        [
            (("2", 1.0, 0.0), "EPR variance must be a real number, got '2'"),
            ((1.0, True, 0.0), "transmission must be a real number, got True"),
            ((1.0, 1.0, [0.5]), "excess noise must be a real number, got [0.5]"),
            ((math.inf, 1.0, 0.0), "EPR variance must be finite and >= 1, got inf"),
            ((-math.inf, 1.0, 0.0), "EPR variance must be finite and >= 1, got -inf"),
            ((math.nan, 1.0, 0.0), "EPR variance must be finite and >= 1, got nan"),
            ((2.0, 1.0, math.nan), "excess noise must be finite and >= 0, got nan"),
            ((2.0, math.inf, math.nan), "transmission must lie in (0, 1], got inf"),
        ],
        ids=["str", "bool", "list", "inf", "minus-inf", "nan-first", "nan-last", "inf-and-nan"],
    )
    def test_rejects_entries_that_are_not_finite_reals(self, entries, message):
        # V first, then the channel as ChannelParams checks it: T before xi
        with pytest.raises(DomainError, match="^" + re.escape(message) + "$"):
            CovarianceMatrix(*entries)

    def test_entries_are_stored_as_floats(self):
        cm = CovarianceMatrix(np.float32(1.5), 1, np.float64(0.5))
        assert [type(x) for x in (*cm, cm.a, cm.b, cm.c)] == [float] * 6
        assert cm == (1.5, 1.0, 0.5) and (cm.a, cm.b) == (1.5, 2.0)

    def test_rejects_unphysical_thermal(self):
        # a sub-vacuum modulation, or a negative excess noise, would put nu- below 1
        with pytest.raises(DomainError, match="EPR variance must be finite and >= 1, got 0.5"):
            CovarianceMatrix(0.5)
        with pytest.raises(DomainError, match="excess noise must be finite and >= 0"):
            CovarianceMatrix(3.0, 1.0, -0.1)

    def test_rejects_indefinite_matrix(self):
        # a transmission outside (0, 1] would make the blocks indefinite or not a channel
        for t in (-1.0, 0.0, 1.2):
            with pytest.raises(DomainError, match="transmission must lie in"):
                CovarianceMatrix(2.0, t)

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
        out = apply_channel(vacuum(), ChannelParams(0.3, 0.05), mode=1)
        assert as_array(out)[2, 2] == pytest.approx(1.0 + 0.3 * 0.05, abs=1e-15)  # 1.015
        assert as_array(out)[0, 0] == 1.0

    def test_tmsv_through_channel(self):
        out = as_array(apply_channel(tmsv(2.0), ChannelParams(0.5, 0.1), mode=1))
        assert out[2, 2] == pytest.approx(0.5 * 2.0 + 0.5 + 0.05, abs=1e-15)  # 1.55
        assert out[0, 2] == pytest.approx(math.sqrt(0.5) * math.sqrt(3.0), abs=1e-15)
        assert out[0, 0] == 2.0  # Alice's arm untouched

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
                assert np.max(np.abs(as_array(once) - as_array(direct))) < 1e-10

    def test_mode_out_of_range(self):
        with pytest.raises(DomainError, match="out of range"):
            apply_channel(tmsv(2.0), ChannelParams(0.5, 0.0), mode=2)
        with pytest.raises(DomainError, match="^mode 0 on Alice's arm: channels act on Bob's arm"):
            apply_channel(tmsv(2.0), ChannelParams(0.5, 0.0), mode=0)

    @staticmethod
    def ix_oracle(cm, ch):
        """A channel on Bob's arm applied to the stored array, symmetrised as an array route did.

        Cross terms are scaled through two np.ix_ grids.
        """
        t = ch.transmission
        m = as_array(cm).copy()
        sl = slice(2, 4)
        m[sl, sl] = t * m[sl, sl] + ((1.0 - t) + t * ch.excess_noise) * np.eye(2)
        m[np.ix_([2, 3], [0, 1])] *= math.sqrt(t)
        m[np.ix_([0, 1], [2, 3])] *= math.sqrt(t)
        return (m + m.T) / 2.0

    def test_matches_ix_oracle_exactly(self):
        # EPR states through a channel, every fourth with float32 parameters; the array
        # matches bit for bit, and variance and covariance read its entries
        rng = np.random.default_rng(20261018)
        quadratures = [ModeQuadrature(m, q) for m in (0, 1) for q in Quadrature]
        for i in range(600):
            v = float(10.0 ** rng.uniform(0.0, 6.0))
            kind = np.float32 if i % 4 == 0 else float
            ch = ChannelParams(kind(rng.uniform(1e-6, 1.0)), kind(rng.uniform(0.0, 0.5)))
            out = apply_channel(tmsv(v), ch, 1)
            want = self.ix_oracle(tmsv(v), ch)
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
            assert conditional_variance(tmsv(v), X_B, X_A) == 1.0 / v  # det / a, det = 1

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
        # a channel on Bob's arm, then a homodyne of either quadrature of either mode
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = float(rng.uniform(1.0, 50.0))
            t = float(rng.uniform(1e-3, 1.0))
            xi = float(rng.uniform(0.0, 0.5))
            cm = apply_channel(tmsv(v), ChannelParams(t, xi), 1)  # validates
            mq = ModeQuadrature(int(rng.integers(0, 2)), Quadrature.X if rng.integers(2) else Quadrature.P)
            rest, _ = condition_on_homodyne(cm, mq)
            for block in (rest, reduced_state(cm, [1 - mq.mode])):  # diagonal: nu = sqrt(det)
                assert block[0, 1] == 0.0 and math.sqrt(block[0, 0] * block[1, 1]) >= 1.0 - 1e-9


class TestSpectraAndEntropy:
    def test_vacuum_spectrum(self):
        assert symplectic_eigenvalues(vacuum()) == symplectic_eigenvalues(vacuum(2)) == [1.0, 1.0]

    def test_thermal_spectrum(self):
        # a vacuum on A beside a thermal mode of variance 1 + T xi = 4.5 on B
        assert symplectic_eigenvalues(CovarianceMatrix(1.0, 0.5, 7.0)) == pytest.approx([1.0, 4.5], abs=1e-12)

    def test_pure_states_have_zero_entropy(self):
        assert von_neumann_entropy(tmsv(5.0)) == 0.0
        assert von_neumann_entropy(vacuum(2)) == 0.0

    def test_stored_entropy_is_the_sum_over_the_spectrum(self):
        # S(AB), stored at validation, bit for bit the sum the reference takes on each read
        states = [cm for *_, cm in random_channelled_states(200, seed=67)]
        states += [apply_channel(cm, ChannelParams(0.3, 0.2), mode=1) for cm in states[:100]]
        for cm in states + [tmsv(5.0), vacuum(), CovarianceMatrix(1.0, 1.0, 2.0)]:
            assert von_neumann_entropy(cm) == joint_entropy(cm), cm

    def test_thermal_entropy_nu_3(self):
        # a thermal mode beside a vacuum: g(3) + g(1) = 2*log2(2) - 1*log2(1) = 2 bits
        assert von_neumann_entropy(CovarianceMatrix(1.0, 1.0, 2.0)) == pytest.approx(2.0, abs=1e-12)

    def test_reduced_tmsv_entropy(self):
        # g(2) = 1.5*log2(1.5) + 0.5
        expected = 1.5 * math.log2(1.5) + 0.5
        assert expected == pytest.approx(1.3774437510817343, abs=1e-12)
        got = entropy_g(math.sqrt(np.linalg.det(reduced_state(tmsv(2.0), [0]))))
        assert got == pytest.approx(expected, abs=1e-12)
        assert float(oracle.g(2.0)) == pytest.approx(expected, abs=1e-15)

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
    assert apply_channel(tmsv(2.0), ChannelParams(0.5), np.int64(1)) == (2.0, 0.5, 0.0)


class TestSymmetrisationLimit:
    """The float range: a state whose b, ab - c^2 or nu+ overflows raises PrecisionError.

    The entry-record route refused every entry from 2^510 (about 3.4e153)
    on; from (V, T, xi) only an overflow of what the state derives raises.
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
    def test_entry_that_overflows_raises_precision_error(self, make):
        with pytest.raises(PrecisionError, match="overflows"):
            make()

    def test_largest_entry_below_the_limit_validates(self):
        v = sys.float_info.max
        assert as_array(tmsv(v))[0, 0] == v
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
        calls = [lambda: symplectic_eigenvalues(cm), lambda: [von_neumann_entropy(cm)]]
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
        # one route: every way to a state stores the same spectrum and entropy, bit for bit
        for v, t, xi in ((30.0, 0.4, 0.1), (3.0, 0.2, 0.0), (1.0, 1.0, 0.0), (7e7, 1.0, 0.0)):
            cm = CovarianceMatrix(v, t, xi)
            routes = [apply_channel(tmsv(v), ChannelParams(t, xi), 1), cm._replace()]
            routes += [copy(cm) for copy in COPY_ROUTES.values()]
            if (t, xi) == (1.0, 0.0):
                routes += [tmsv(v), CovarianceMatrix(v)] + ([vacuum()] if v == 1.0 else [])
            for other in routes:
                assert (other, other._nus, other._s_ab) == (cm, cm._nus, cm._s_ab)

    def test_against_mpmath_oracle(self):
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

    def test_tmsv_is_exactly_pure_up_to_1e7(self):
        for v in ORACLE_V:
            assert symplectic_eigenvalues(tmsv(v)) == [1.0, 1.0], v

    @settings(max_examples=300, deadline=None)
    @given(log_v=st.floats(0.0, 12.0), t=st.floats(1e-4, 1.0), xi=st.floats(0.0, 1.0))
    def test_matches_exact_spectrum_on_random_states(self, log_v, t, xi):
        assert _relative_spectrum_error(10.0**log_v, t, xi) <= SPECTRUM_ERROR

    @pytest.mark.parametrize(
        "entries",
        [
            (0.5, 1.0, 0.0),
            (2.0, -1.0, 0.0),
            (3.0, 1.0, -0.1),  # w = -0.1 < 0: nu- = 1 - 0.3 / nu+ would fall below 1
        ],
        ids=["sub-vacuum", "indefinite", "block-form-nu-minus-below-one"],
    )
    def test_unphysical_inputs_still_raise(self, entries):
        with pytest.raises(DomainError):
            CovarianceMatrix(*entries)


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


def _assert_entropies_match_the_oracle(cm):
    # S(AB), both UR slacks and both DW ceilings within ENTROPY_BITS of 60 digits
    v, t, xi = cm
    slack = float(oracle.ur_slack(v, t, xi))
    for ur in (verify_ur_bipartite, verify_ur_tripartite):
        assert abs(ur(cm) - slack) <= ENTROPY_BITS, (ur, cm, ur(cm), slack)
    for direction in Reconciliation:
        want = float(oracle.dw_ceiling(v, t, xi, direction is Reconciliation.RR))
        assert abs(devetak_winter_oracle(cm, direction) - want) <= ENTROPY_BITS, (direction, cm)
    assert abs(von_neumann_entropy(cm) - float(oracle.joint_entropy(v, t, xi))) <= ENTROPY_BITS, cm


# channel states on which the stored-entry route was off: its purity gate snapped
# nu- = 1.061 to 1 at the first (0.199 bits of slack) and nu- = 1 + 4.5e-6 at the second
MATRIX_ROUTE_FAILURES = [(6.16e7, 0.631, 0.0357), (7495.0, 0.0404, 1.08e-4)]


@pytest.mark.parametrize("state", MATRIX_ROUTE_FAILURES, ids=["6.16e7", "7495"])
def test_cells_the_stored_entry_route_got_wrong(state):
    _assert_entropies_match_the_oracle(CovarianceMatrix(*state))


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
        # no state of the family has a channel on Alice's arm: apply_channel refuses one,
        # and a second channel on Bob's arm composes to the state (V, T1 T2, xi1 + xi2 / T1)
        (t_b, xi_b), (t_a, xi_a) = channels
        cm = channelled_state(v, t_b, xi_b)
        with pytest.raises(DomainError, match="on Alice's arm"):
            apply_channel(cm, ChannelParams(t_a, xi_a), mode=0)
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
        for got in (von_neumann_entropy(cm), *(entropy_g(nu) for nu in symplectic_eigenvalues(cm))):
            assert isinstance(got, float) and 0.0 <= got < math.inf, (entries, got)


def _assert_positive_diagonal(cm):
    # conditional_variance, the UR slack, the DW ceiling and the
    # condition_on_homodyne reference divide by a quadrature variance without
    # testing its sign
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
