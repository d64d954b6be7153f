"""Covariance-matrix core: construction, channel, beamsplitter, conditioning."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P_A, P_B, X_A, X_B, channelled_state, random_channelled_states
from cvqkd import (
    ChannelParams,
    CovarianceMatrix,
    DegenerateConditioningError,
    DomainError,
    ModeQuadrature,
    Quadrature,
    UnphysicalStateError,
    apply_channel,
    condition_on_homodyne,
    conditional_variance,
    entropy_g,
    reduced_state,
    split_with_vacuum,
    symplectic_eigenvalues,
    thermal,
    tmsv,
    vacuum,
    von_neumann_entropy,
)
from cvqkd.gaussian import NU_TOLERANCE, _closed_form_spectrum, _eigh_spectrum


class TestConstruction:
    def test_tmsv_zero_squeezing_is_two_vacua(self):
        assert np.allclose(tmsv(1.0).matrix, np.eye(4), atol=0)

    def test_tmsv_off_diagonal_is_sqrt_v2_minus_1(self):
        cm = tmsv(2.0)
        c = math.sqrt(2.0**2 - 1.0)  # sqrt(3)
        assert cm.matrix[0, 2] == pytest.approx(c, abs=1e-15)
        assert cm.matrix[1, 3] == pytest.approx(-c, abs=1e-15)
        assert cm.matrix[0, 0] == cm.matrix[2, 2] == 2.0

    def test_tmsv_squeezing_parameter_round_trip(self):
        # V = cosh(2s) with s = 0.15 recovers s through arccosh(V)/2
        v = math.cosh(0.3)
        assert v == pytest.approx(1.04534, abs=1e-5)
        assert math.acosh(tmsv(v).matrix[0, 0]) / 2.0 == pytest.approx(0.15, abs=1e-12)

    def test_tmsv_is_pure_for_any_variance(self):
        for v in (1.0, 1.5, 7.0, 50.0):
            assert symplectic_eigenvalues(tmsv(v)) == [1.0, 1.0]

    def test_tmsv_rejects_v_below_one(self):
        with pytest.raises(DomainError):
            tmsv(0.999)
        with pytest.raises(DomainError):
            tmsv(math.nan)

    def test_rejects_asymmetric_matrix(self):
        m = np.eye(2)
        m[0, 1] = 1e-6
        with pytest.raises(DomainError):
            CovarianceMatrix(m)

    def test_rejects_unphysical_thermal(self):
        with pytest.raises(UnphysicalStateError):
            CovarianceMatrix(np.diag([0.5, 0.5]))

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(UnphysicalStateError):
            CovarianceMatrix(np.diag([2.0, -1.0]))

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
        assert np.allclose(out.matrix, cm.matrix, atol=0)

    def test_vacuum_picks_up_t_xi(self):
        out = apply_channel(vacuum(1), ChannelParams(0.3, 0.05), mode=0)
        assert out.matrix[0, 0] == pytest.approx(1.0 + 0.3 * 0.05, abs=1e-15)  # 1.015

    def test_tmsv_through_channel(self):
        out = apply_channel(tmsv(2.0), ChannelParams(0.5, 0.1), mode=1)
        assert out.matrix[2, 2] == pytest.approx(0.5 * 2.0 + 0.5 + 0.05, abs=1e-15)  # 1.55
        assert out.matrix[0, 2] == pytest.approx(math.sqrt(0.5) * math.sqrt(3.0), abs=1e-15)
        assert out.matrix[0, 0] == 2.0  # Alice's arm untouched

    def test_channel_composition(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.uniform(1.0, 20.0)
            t1, t2 = rng.uniform(0.1, 1.0, size=2)
            once = apply_channel(
                apply_channel(tmsv(v), ChannelParams(t1, 0.0), 1), ChannelParams(t2, 0.0), 1
            )
            combined = apply_channel(tmsv(v), ChannelParams(t1 * t2, 0.0), 1)
            assert np.max(np.abs(once.matrix - combined.matrix)) < 1e-10

    def test_mode_out_of_range(self):
        with pytest.raises(DomainError):
            apply_channel(tmsv(2.0), ChannelParams(0.5, 0.0), mode=2)

    @staticmethod
    def ix_oracle(cm, ch, mode):
        """The earlier apply_channel: cross terms scaled through two np.ix_ grids."""
        t = ch.transmission
        m = cm.matrix.copy()
        sl = slice(2 * mode, 2 * mode + 2)
        rest = np.ones(2 * cm.n_modes, dtype=bool)
        rest[sl] = False
        m[sl, sl] = t * m[sl, sl] + ((1.0 - t) + t * ch.excess_noise) * np.eye(2)
        m[np.ix_([2 * mode, 2 * mode + 1], np.flatnonzero(rest))] *= math.sqrt(t)
        m[np.ix_(np.flatnonzero(rest), [2 * mode, 2 * mode + 1])] *= math.sqrt(t)
        return CovarianceMatrix(m)

    def test_matches_ix_oracle_exactly(self):
        rng = np.random.default_rng(20261018)
        for i in range(600):
            v = float(10.0 ** rng.uniform(0.0, 6.0))
            cm = apply_channel(tmsv(v), ChannelParams(float(rng.uniform(1e-3, 1.0)), 0.0), 1)
            if i % 2:  # three modes, as the heterodyne protocols build them
                cm = split_with_vacuum(cm, int(rng.integers(2)))
            ch = ChannelParams(float(rng.uniform(1e-6, 1.0)), float(rng.uniform(0.0, 0.5)))
            mode = int(rng.integers(cm.n_modes))
            got = apply_channel(cm, ch, mode).matrix
            assert np.array_equal(got, self.ix_oracle(cm, ch, mode).matrix)


class TestBeamsplitter:
    def test_vacuum_invariant(self):
        out = split_with_vacuum(vacuum(1), 0)
        assert np.allclose(out.matrix, np.eye(4), atol=1e-15)

    def test_single_mode_split(self):
        out = split_with_vacuum(thermal(3.0), 0)
        assert out.matrix[0, 0] == pytest.approx(2.0, abs=1e-15)  # (3+1)/2
        assert out.matrix[2, 2] == pytest.approx(2.0, abs=1e-15)
        assert out.matrix[0, 2] == pytest.approx(1.0, abs=1e-15)  # (3-1)/2

    def test_third_party_correlation_scaling(self):
        out = split_with_vacuum(tmsv(2.0), 0)  # modes A1, B, A2
        expected = math.sqrt(3.0) / math.sqrt(2.0)  # 1.224745
        assert out.matrix[0, 2] == pytest.approx(expected, abs=1e-15)

    def test_heterodyne_half_law(self):
        # V_{xA1|q} = (V_{xA|q} + 1)/2 for any third-party quadrature q
        for v, t, xi in [(2.0, 1.0, 0.0), (8.0, 0.4, 0.1), (30.0, 0.7, 0.3)]:
            cm = channelled_state(v, t, xi)
            split = split_with_vacuum(cm, 0)  # A1=0, B=1, A2=2
            for quad in (Quadrature.X, Quadrature.P):
                q_full = ModeQuadrature(1, quad)
                full = conditional_variance(cm, ModeQuadrature(0, quad), q_full)
                half = conditional_variance(split, ModeQuadrature(0, quad), q_full)
                assert abs(half - (full + 1.0) / 2.0) < 1e-10


class TestConditioning:
    def test_product_state_unchanged(self):
        cm = vacuum(2)
        rest, v_meas = condition_on_homodyne(cm, X_A)
        assert v_meas == 1.0
        assert np.allclose(rest.matrix, np.eye(2), atol=0)

    def test_tmsv_conditioning_by_hand(self):
        # Schur complement: V_{xB|xA} = 2 - 3/2 = 0.5, p untouched
        rest, v_meas = condition_on_homodyne(tmsv(2.0), X_A)
        assert v_meas == 2.0
        assert rest.matrix[0, 0] == pytest.approx(2.0 - 3.0 / 2.0, abs=1e-12)
        assert rest.matrix[1, 1] == pytest.approx(2.0, abs=1e-12)

    def test_large_v_limit(self):
        # V - (V^2-1)/V = 1/V -> 0
        for v in (10.0, 100.0, 1000.0):
            rest, _ = condition_on_homodyne(tmsv(v), X_A)
            assert rest.matrix[0, 0] == pytest.approx(1.0 / v, rel=1e-9)

    def test_single_mode_rejected(self):
        with pytest.raises(DomainError):
            condition_on_homodyne(vacuum(1), X_A)

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
            assert abs(conditional_variance(cm, X_B, X_A) - rest.matrix[0, 0]) < 1e-10
            assert abs(conditional_variance(cm, P_B, X_A) - rest.matrix[1, 1]) < 1e-10

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
        rng = np.random.default_rng(13)
        for _ in range(100):
            v = float(rng.uniform(1.0, 50.0))
            t = float(rng.uniform(1e-3, 1.0))
            xi = float(rng.uniform(0.0, 0.5))
            cm = channelled_state(v, t, xi)  # construction validates
            split = split_with_vacuum(cm, int(rng.integers(0, 2)))
            mq = ModeQuadrature(int(rng.integers(0, 3)), Quadrature.X)
            rest, _ = condition_on_homodyne(split, mq)
            assert min(symplectic_eigenvalues(rest)) >= 1.0 - 1e-9


class TestSpectraAndEntropy:
    def test_vacuum_spectrum(self):
        assert symplectic_eigenvalues(vacuum(3)) == [1.0, 1.0, 1.0]

    def test_thermal_spectrum(self):
        assert symplectic_eigenvalues(thermal(4.5)) == pytest.approx([4.5], abs=1e-12)

    def test_pure_states_have_zero_entropy(self):
        assert von_neumann_entropy(tmsv(5.0)) == 0.0
        assert von_neumann_entropy(vacuum(2)) == 0.0

    def test_thermal_entropy_nu_3(self):
        # g(3) = 2*log2(2) - 1*log2(1) = 2 bits
        assert von_neumann_entropy(thermal(3.0)) == pytest.approx(2.0, abs=1e-12)

    def test_reduced_tmsv_entropy(self):
        # g(2) = 1.5*log2(1.5) + 0.5
        expected = 1.5 * math.log2(1.5) + 0.5
        assert expected == pytest.approx(1.3774437510817343, abs=1e-12)
        got = von_neumann_entropy(reduced_state(tmsv(2.0), [0]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_g_properties(self):
        assert entropy_g(1.0) == 0.0
        grid = np.linspace(1.0, 60.0, 200)
        vals = [entropy_g(float(nu)) for nu in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestReducedState:
    def test_reduce_keeps_block(self):
        cm = channelled_state(4.0, 0.6, 0.2)
        sub = reduced_state(cm, [1])
        assert np.allclose(sub.matrix, cm.matrix[2:, 2:], atol=0)

    def test_reduce_bad_mode(self):
        with pytest.raises(DomainError):
            reduced_state(tmsv(2.0), [2])


def _exact_det(rows):
    """Determinant by Laplace expansion; exact when the entries are Fractions."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * rows[0][j] * _exact_det([r[:j] + r[j + 1 :] for r in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def mpmath_spectrum(m, mp):
    """Ascending spectrum of the stored one- or two-mode matrix to 50 digits.

    The invariants (det Sigma and Delta = det A + det B + 2 det C) are exact
    rationals of the stored doubles, so the only roundings are the 50-digit
    square roots and one division.
    """
    q = [[Fraction(x) for x in row] for row in m.tolist()]
    to_mp = lambda f: mp.mpf(f.numerator) / f.denominator
    with mp.workdps(50):
        det = _exact_det(q)
        if len(q) == 2:
            return [mp.sqrt(to_mp(det))]
        block_det = lambda i, j: q[i][j] * q[i + 1][j + 1] - q[i][j + 1] * q[i + 1][j]
        delta = block_det(0, 0) + block_det(2, 2) + 2 * block_det(0, 2)
        hi2 = (to_mp(delta) + mp.sqrt(to_mp(delta * delta - 4 * det))) / 2
        return [mp.sqrt(to_mp(det) / hi2), mp.sqrt(hi2)]


def _tol(m):
    return NU_TOLERANCE * max(1.0, float(np.max(np.abs(m))))


def _old_route(m):
    """The eigh/SVD route with the same snap and gate as the validation."""
    tol = _tol(m)
    nus = _eigh_spectrum(m, tol)
    assert min(nus) >= 1.0 - tol
    return [1.0 if nu < 1.0 + tol else nu for nu in nus]


ORACLE_V = np.logspace(0.0, 7.0, 29).tolist()  # four points a decade over [1, 1e7]
ORACLE_T = [1e-3, 0.1, 0.5, 0.9, 1.0]
ORACLE_XI = [0.0, 1e-8, 1e-4, 0.01, 0.5]


class TestClosedFormSpectrum:
    def test_routes(self):
        assert _closed_form_spectrum(tmsv(30.0).matrix) is not None
        assert _closed_form_spectrum(channelled_state(30.0, 0.4, 0.1).matrix) is not None
        assert _closed_form_spectrum(thermal(3.0).matrix) == (3.0,)
        three_mode = split_with_vacuum(tmsv(3.0), 0).matrix
        assert _closed_form_spectrum(three_mode) is None
        conditioned, _ = condition_on_homodyne(split_with_vacuum(tmsv(3.0), 0), X_A)
        assert _closed_form_spectrum(conditioned.matrix) is None  # two modes, not block form

    def test_against_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        states = [(v, tmsv(v)) for v in ORACLE_V] + [
            (v, channelled_state(v, t, xi)) for v in ORACLE_V for t in ORACLE_T for xi in ORACLE_XI
        ]
        worst_closed, worst_eigh = {}, {}
        for v, cm in states:
            m = cm.matrix
            ref = mpmath_spectrum(m, mp)
            closed = _closed_form_spectrum(m)
            assert closed is not None
            eigh = _eigh_spectrum(m, _tol(m))
            err_closed = max(float(abs(x - r) / r) for x, r in zip(closed, ref))
            err_eigh = max(float(abs(x - r) / r) for x, r in zip(eigh, ref))
            if v <= 1e5:
                assert err_closed <= 1e-9, (v, m.tolist())
            decade = min(int(math.log10(v)), 6)  # V = 1e7 joins the last decade
            worst_closed[decade] = max(worst_closed.get(decade, 0.0), err_closed)
            worst_eigh[decade] = max(worst_eigh.get(decade, 0.0), err_eigh)
        assert sorted(worst_closed) == list(range(7))
        for decade in worst_closed:
            assert worst_closed[decade] <= worst_eigh[decade], decade

    def test_tmsv_is_exactly_pure_up_to_1e7(self):
        for v in ORACLE_V:
            assert symplectic_eigenvalues(tmsv(v)) == [1.0, 1.0], v

    @settings(max_examples=300, deadline=None)
    @given(
        nu=st.lists(st.one_of(st.just(1.0), st.floats(1.001, 20.0)), min_size=2, max_size=2),
        squeeze=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2),
        angles=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=10, max_size=10),
        block_form=st.booleans(),
    )
    def test_matches_old_route_on_random_states(self, nu, squeeze, angles, block_form):
        # thermal states under random symplectic maps; values of nu either exactly 1 or
        # well above the snap tolerance, so both routes snap the same values
        nu1, nu2 = nu
        if block_form:  # two-mode squeezing keeps A = a I, B = b I, C = diag(c, -c)
            ch, sh = math.cosh(squeeze[0]), math.sinh(squeeze[0])
            a = nu1 * ch * ch + nu2 * sh * sh
            b = nu1 * sh * sh + nu2 * ch * ch
            c = (nu1 + nu2) * ch * sh
            two_mode = np.array([[a, 0, c, 0], [0, a, 0, -c], [c, 0, b, 0], [0, -c, 0, b]])
        else:
            r1, r2 = squeeze
            squeezer = np.diag([math.exp(-r1), math.exp(r1), math.exp(-r2), math.exp(r2)])
            s = _passive(angles[:5]) @ squeezer @ _passive(angles[5:])
            two_mode = s @ np.diag([nu1, nu1, nu2, nu2]) @ s.T
        one_mode = nu1 * _rotation(angles[0]) @ np.diag(
            [math.exp(-2.0 * squeeze[1]), math.exp(2.0 * squeeze[1])]
        ) @ _rotation(angles[0]).T
        for m, exact in ((one_mode, [nu1]), (two_mode, sorted(nu))):
            cm = CovarianceMatrix(m)
            assert symplectic_eigenvalues(cm) == pytest.approx(_old_route(cm.matrix), rel=1e-9)
            assert symplectic_eigenvalues(cm) == pytest.approx(exact, rel=1e-9)

    @pytest.mark.parametrize(
        "m",
        [
            np.diag([0.5, 0.5]),
            np.diag([2.0, -1.0]),
            # block form, nu+ = 2.6 and nu- = 0.6
            np.array([[3.0, 0, 1.2, 0], [0, 3.0, 0, -1.2], [1.2, 0, 1.0, 0], [0, -1.2, 0, 1.0]]),
        ],
        ids=["sub-vacuum", "indefinite", "block-form-nu-minus-below-one"],
    )
    def test_unphysical_inputs_still_raise(self, m):
        with pytest.raises(UnphysicalStateError):
            CovarianceMatrix(m)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]])


def _passive(angles):
    """Phase shifts, a beamsplitter of angle angles[0], phase shifts: orthogonal and symplectic."""
    def phases(a, b):
        out = np.zeros((4, 4))
        out[:2, :2], out[2:, 2:] = _rotation(a), _rotation(b)
        return out

    c, s = math.cos(angles[0]), math.sin(angles[0])
    splitter = np.block([[c * np.eye(2), s * np.eye(2)], [-s * np.eye(2), c * np.eye(2)]])
    return phases(angles[1], angles[2]) @ splitter @ phases(angles[3], angles[4])
