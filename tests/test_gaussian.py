"""Covariance-matrix core: construction, channel, beamsplitter, conditioning."""

import math

import numpy as np
import pytest

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
