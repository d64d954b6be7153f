"""Sampling determinism, estimator consistency and entropy estimation."""

import io
import math

import numpy as np
import pytest

from cvqkd import (
    ChannelParams,
    DomainError,
    InsufficientDataError,
    ProtocolSpec,
    empirical_entropy,
    estimate_conditional_variance,
    key_rate_at,
    sample_quadratures,
    simulate_protocol_run,
)

RR_HOM_HOM = ProtocolSpec.parse("rr-homA-homB-eb")
DR_COHERENT = ProtocolSpec.parse("dr-hetA-homB-pm")
PERFECT = ChannelParams(1.0, 0.0)


def record_equal(a, b):
    for name in ("x_a", "p_a", "x_b", "p_b"):
        if not np.array_equal(a.column(name), b.column(name), equal_nan=True):
            return False
    return True


class TestSampling:
    def test_single_row_deterministic(self):
        r1 = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 1, seed=99)
        r2 = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 1, seed=99)
        assert r1.n == 1
        assert record_equal(r1, r2)
        assert np.array_equal(r1.basis_a, r2.basis_a)

    def test_seed_changes_record(self):
        r1 = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 100, seed=1)
        r2 = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 100, seed=2)
        assert not record_equal(r1, r2)

    def test_sample_covariance_matches_state(self):
        # tmsv(2), T=1: cov of sifted (x_a, x_b) is [[2, sqrt(3)], [sqrt(3), 2]]
        n = 10**6
        rec = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, n, seed=5)
        mask = np.isfinite(rec.x_a) & np.isfinite(rec.x_b)
        m = int(mask.sum())
        cov = np.cov(rec.x_a[mask], rec.x_b[mask], ddof=1)
        c = math.sqrt(3.0)
        for got, want, spread in [
            (cov[0, 0], 2.0, 2.0 * math.sqrt(2.0 / m)),
            (cov[1, 1], 2.0, 2.0 * math.sqrt(2.0 / m)),
            (cov[0, 1], c, math.sqrt((2.0 * 2.0 + c * c) / m)),
        ]:
            assert abs(got - want) < 5.0 * spread

    def test_basis_match_fraction_is_half(self):
        n = 10**5
        rec = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, n, seed=8)
        frac = float(np.mean(rec.basis_a == rec.basis_b))
        assert abs(frac - 0.5) < 5.0 * math.sqrt(0.25 / n)

    def test_heterodyne_party_records_both_halves(self):
        rec = sample_quadratures(DR_COHERENT, PERFECT, 2.0, 500, seed=3)
        assert rec.basis_a is None
        assert np.all(np.isfinite(rec.x_a)) and np.all(np.isfinite(rec.p_a))
        # homodyne Bob has exactly one finite cell per symbol
        assert np.all(np.isfinite(rec.x_b) ^ np.isfinite(rec.p_b))

    def test_whole_block_prefix_is_independent_of_length(self):
        # a partial last block draws its basis coins after its own rows, so
        # only whole blocks are shared between records of different lengths
        n = 3 * 65536 + 17  # several blocks plus a ragged tail
        m = 65536 + 5  # one whole block plus part of the next
        long = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, n, seed=4)
        short = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, m, seed=4)
        k = 65536
        for name in ("x_a", "p_a", "x_b", "p_b"):
            assert np.array_equal(long.column(name)[:k], short.column(name)[:k], equal_nan=True)
        assert np.array_equal(long.basis_a[:k], short.basis_a[:k])
        assert np.array_equal(long.basis_b[:k], short.basis_b[:k])

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 0, seed=1)
        with pytest.raises(DomainError):
            sample_quadratures(RR_HOM_HOM, PERFECT, math.inf, 10, seed=1)


class TestConditionalVarianceEstimate:
    def test_perfect_channel(self):
        rec = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 10**6, seed=10)
        est = estimate_conditional_variance(rec, "x_b", "x_a")
        assert abs(est.value - 0.5) < 5.0 * est.std_error

    def test_noisy_channel(self):
        rec = sample_quadratures(RR_HOM_HOM, ChannelParams(0.5, 0.1), 2.0, 10**6, seed=10)
        est = estimate_conditional_variance(rec, "x_b", "x_a")
        assert abs(est.value - 0.8) < 5.0 * est.std_error

    def test_independent_data_returns_target_variance(self):
        # tmsv(1) is two uncorrelated vacua: zero regression slope
        rec = sample_quadratures(RR_HOM_HOM, PERFECT, 1.0, 10**5, seed=11)
        est = estimate_conditional_variance(rec, "x_b", "x_a")
        assert abs(est.value - 1.0) < 5.0 * est.std_error

    def test_insufficient_data(self):
        rec = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 1, seed=12)
        with pytest.raises(InsufficientDataError):
            estimate_conditional_variance(rec, "x_b", "x_a")

    def test_std_error_shrinks_like_sqrt_n(self):
        rec_small = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 4 * 10**3, seed=13)
        rec_large = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 4 * 10**5, seed=13)
        se_small = estimate_conditional_variance(rec_small, "x_b", "x_a").std_error
        se_large = estimate_conditional_variance(rec_large, "x_b", "x_a").std_error
        assert se_large < se_small / 5.0  # 100x samples -> ~10x smaller

    def test_unknown_column(self):
        rec = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 10, seed=1)
        with pytest.raises(DomainError):
            estimate_conditional_variance(rec, "x_c", "x_a")


class TestEmpiricalEntropy:
    def test_gaussian_unit_variance(self):
        rng = np.random.Generator(np.random.Philox(100))
        h = empirical_entropy(rng.standard_normal(10**6), 0.01)
        assert h == pytest.approx(0.5 * math.log2(2.0 * math.pi * math.e), abs=0.02)

    def test_uniform_below_gaussian_by_known_gap(self):
        # entropy gap 0.5*log2(pi*e/6) ~ 0.2546 at matched variance
        rng = np.random.Generator(np.random.Philox(101))
        h_g = empirical_entropy(rng.standard_normal(10**6), 0.01)
        h_u = empirical_entropy(rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), 10**6), 0.01)
        assert h_u == pytest.approx(math.log2(2.0 * math.sqrt(3.0)), abs=0.02)
        assert h_g - h_u == pytest.approx(0.5 * math.log2(math.pi * math.e / 6.0), abs=0.02)

    def test_scaling_adds_one_bit(self):
        rng = np.random.Generator(np.random.Philox(102))
        x = rng.standard_normal(10**6)
        assert empirical_entropy(2.0 * x, 0.01) - empirical_entropy(x, 0.01) == pytest.approx(
            1.0, abs=0.02
        )

    def test_gaussian_extremality_across_shapes(self):
        # uniform and Laplace (inverse-CDF) at matched variance stay below Gaussian
        rng = np.random.Generator(np.random.Philox(103))
        n = 10**6
        gauss = rng.standard_normal(n)
        unif = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), n)
        u = rng.uniform(-0.5, 0.5, n)
        laplace = -np.sign(u) * np.log1p(-2.0 * np.abs(u)) / math.sqrt(2.0)
        h_g = empirical_entropy(gauss, 0.01)
        assert h_g > empirical_entropy(unif, 0.01)
        assert h_g > empirical_entropy(laplace, 0.01)

    def test_input_validation(self):
        rng = np.random.Generator(np.random.Philox(104))
        with pytest.raises(DomainError):
            empirical_entropy(rng.standard_normal(2000), 0.0)
        with pytest.raises(InsufficientDataError):
            empirical_entropy(rng.standard_normal(10), 0.01)


class TestSimulateProtocolRun:
    def test_rr_hom_hom_converges_to_analytic(self):
        sim = simulate_protocol_run(RR_HOM_HOM, PERFECT, 2.0, 10**6, seed=42)
        assert abs(sim.key_rate.value - math.log2(4.0 / math.e)) < 0.01
        assert abs(sim.key_rate.value - math.log2(4.0 / math.e)) < 3.0 * sim.key_rate.std_error

    def test_coherent_dr_matches_analytic(self):
        ch = ChannelParams(0.9, 0.0)
        sim = simulate_protocol_run(DR_COHERENT, ch, 10.0, 10**6, seed=3)
        analytic = key_rate_at(DR_COHERENT, ch, 10.0).key_rate
        assert abs(sim.key_rate.value - analytic) < 3.0 * sim.key_rate.std_error

    def test_small_sample_is_wide_but_consistent(self):
        sim = simulate_protocol_run(RR_HOM_HOM, PERFECT, 2.0, 100, seed=7)
        assert sim.key_rate.std_error > 0.1
        assert abs(sim.key_rate.value - math.log2(4.0 / math.e)) < 5.0 * sim.key_rate.std_error

    def test_record_is_the_sampled_record(self):
        ch = ChannelParams(0.7, 0.05)
        sim = simulate_protocol_run(RR_HOM_HOM, ch, 3.0, 70_000, seed=6)
        rec = sample_quadratures(RR_HOM_HOM, ch, 3.0, 70_000, seed=6)
        assert record_equal(sim.record, rec)
        assert np.array_equal(sim.record.basis_a, rec.basis_a)
        assert np.array_equal(sim.record.basis_b, rec.basis_b)

    def test_result_carries_protocol_metadata(self):
        sim = simulate_protocol_run(RR_HOM_HOM, PERFECT, 2.0, 2000, seed=1)
        assert sim.result.protocol is RR_HOM_HOM
        assert set(sim.variances) == {
            "v_x_b_given_a",
            "v_p_b_given_a",
            "v_x_a_given_b",
            "v_p_a_given_b",
        }


class TestCsvExport:
    def test_layout_and_empty_cells(self):
        rec = sample_quadratures(DR_COHERENT, PERFECT, 2.0, 4, seed=1)
        buf = io.StringIO()
        rec.write_csv(buf)
        lines = buf.getvalue().split("\n")
        assert lines[0] == "index,basis_a,basis_b,x_a,p_a,x_b,p_b"
        assert len(lines) == 6 and lines[-1] == ""  # header + 4 rows + trailing LF
        for i, line in enumerate(lines[1:5]):
            cells = line.split(",")
            assert cells[0] == str(i)
            assert cells[1] == ""  # Alice heterodynes: no basis
            assert cells[2] in ("x", "p")
            assert cells[3] != "" and cells[4] != ""  # both halves recorded
            # Bob's unmeasured quadrature is the empty cell
            assert (cells[5] == "") == (cells[2] == "p")
            assert (cells[6] == "") == (cells[2] == "x")

    def test_values_round_trip(self):
        rec = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 50, seed=2)
        buf = io.StringIO()
        rec.write_csv(buf)
        rows = buf.getvalue().strip().split("\n")[1:]
        for i, row in enumerate(rows):
            cells = row.split(",")
            for name, cell in zip(("x_a", "p_a", "x_b", "p_b"), cells[3:]):
                value = rec.column(name)[i]
                if cell == "":
                    assert math.isnan(value)
                else:
                    assert float(cell) == pytest.approx(value, rel=1e-8)

    def test_rng_stream_recorded(self):
        rec = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 10, seed=1)
        assert "Philox" in rec.rng_stream
