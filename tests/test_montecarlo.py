"""Sampling determinism, estimator consistency and entropy estimation."""

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from cvqkd import (
    ChannelParams,
    DomainError,
    InsufficientDataError,
    Measurement,
    ProtocolSpec,
    UnphysicalInferenceError,
    empirical_entropy,
    estimate_conditional_variance,
    estimate_key_rate,
    key_rate_at,
    sample_quadratures,
)
from cvqkd.montecarlo import _CSV_CHUNK_ROWS, COLUMNS, MAX_SAMPLE_ROWS, MAX_SAMPLED_V, _factor

RR_HOM_HOM = ProtocolSpec.parse("rr-homA-homB-eb")
DR_COHERENT = ProtocolSpec.parse("dr-hetA-homB-pm")
PERFECT = ChannelParams(1.0, 0.0)
# one protocol per record layout, keyed by who heterodynes
CSV_LAYOUTS = {
    (p.alice_measurement, p.bob_measurement): p
    for p in map(ProtocolSpec.parse, ("rr-homA-homB-eb", "rr-hetA-homB-eb",
                                      "rr-homA-hetB-eb", "rr-hetA-hetB-eb"))
}


def oracle_csv(record):
    """The row-by-row export that write_csv replaced: the reference for its bytes."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "basis_a", "basis_b", "x_a", "p_a", "x_b", "p_b"])
    basis_char = {0: "x", 1: "p"}
    for i in range(record.n):
        row = [
            str(i),
            basis_char[int(record.basis_a[i])] if record.basis_a is not None else "",
            basis_char[int(record.basis_b[i])] if record.basis_b is not None else "",
        ]
        for name in ("x_a", "p_a", "x_b", "p_b"):
            value = record.column(name)[i]
            row.append(f"{value:.9g}" if math.isfinite(value) else "")
        writer.writerow(row)
    return buf.getvalue()


def csv_text(record):
    buf = io.StringIO()
    record.write_csv(buf)
    return buf.getvalue()


def holding(protocol, values):
    """A record of len(values) rows whose four columns are rotations of values."""
    rec = sample_quadratures(protocol, PERFECT, 2.0, len(values), seed=1)
    columns = {name: np.roll(values, k) for k, name in enumerate(("x_a", "p_a", "x_b", "p_b"))}
    return rec._replace(**columns)


def near_ties():
    """Values at and next to the formatter's hard cases, both signs.

    Ninth-digit rounding ties (d + 0.5) 10^(e - 8), some exact in binary;
    powers of ten; and 9.9999999995 10^k, which rounds up to the next one.
    """
    rng = np.random.default_rng(0)
    values = [(d + 0.5) * 10.0 ** (e - 8) for e in range(-5, 9) for d in rng.integers(10**8, 10**9, 16)]
    for k in range(1, 5):  # j / 2^(k+1) = (d + 0.5) 10^-k exactly when 5^k j = 2d + 1
        j = (10**9 // 5**k) | 1
        values += [(j + 2 * i) / 2 ** (k + 1) for i in range(8)]
    values += [m * 10.0**k for k in range(-6, 10) for m in (1.0, 9.9999999995)]
    values = np.array(values)
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([values, -values])


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

    def test_samples_every_protocol_without_lapack(self, monkeypatch):
        # the factor is written from (V, T, xi), and heterodyne halves come from
        # vacuum normals, so no protocol reaches a numerical factorisation
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.cholesky was called")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        for protocol in ProtocolSpec.all():
            rec = sample_quadratures(protocol, ChannelParams(0.7, 0.05), 3.0, 10, seed=1)
            assert rec.n == 10

    @pytest.mark.parametrize("xi", [0.0, 1e-12])
    def test_near_limit_states_sample(self, xi):
        # 16 of these 200 seeded V raised PrecisionError when the factor was
        # taken from the covariance matrix: its pivot b - c^2/a = 1/V rounded to 0
        # or below; from (V, T, xi) every one samples
        rng = np.random.default_rng(24)
        for v in 10.0 ** rng.uniform(math.log10(5.9e7), math.log10(9.49e7), 200):
            rec = sample_quadratures(RR_HOM_HOM, ChannelParams(1.0, xi), float(v), 4, seed=0)
            assert rec.n == 4 and np.isfinite(rec.x_b).sum() + np.isfinite(rec.p_b).sum() == 4

    def test_a_record_at_the_modulation_cap_stores_it(self):
        # the value above the cap raises PrecisionError (tests/test_contract.py)
        assert sample_quadratures(RR_HOM_HOM, PERFECT, MAX_SAMPLED_V, 4, seed=0).modulation == 1e12

    def test_row_budget_is_checked_before_allocating(self):
        # in a child process whose address space is capped, so that a missing
        # check fails fast instead of taking the host's memory; tracemalloc sees
        # numpy's allocations, and a refusal up front allocates no column
        script = textwrap.dedent(f"""
            import resource, tracemalloc
            resource.setrlimit(resource.RLIMIT_AS, ({1 << 30}, {1 << 30}))
            import cvqkd
            args = (cvqkd.ProtocolSpec.parse("rr-homA-homB-eb"), cvqkd.ChannelParams(1.0), 2.0)
            cvqkd.sample_quadratures(*args, 10, 0)  # numpy's own import and caches
            tracemalloc.start()
            try:
                cvqkd.sample_quadratures(*args, {MAX_SAMPLE_ROWS + 1}, 0)
            except MemoryError:
                print(tracemalloc.get_traced_memory()[1])
        """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 10_000

    @pytest.mark.parametrize("protocol", ["rr-hetA-homB-eb", "rr-homA-hetB-eb", "rr-hetA-hetB-eb"])
    def test_second_moments_match_the_split_state(self, protocol):
        # every pair of columns measured together, against the state in which
        # each heterodyning party's beamsplitter ports are modes of their own
        protocol = ProtocolSpec.parse(protocol)
        rec = sample_quadratures(protocol, ChannelParams(0.7, 0.05), 3.0, 10**6, seed=21)
        state = oracle.measured_moments(protocol, 0.7, 0.05, 3.0)
        pairs = 0
        for i, a in enumerate(COLUMNS):
            for j, b in enumerate(COLUMNS[i:], i):
                both = np.isfinite(rec.column(a)) & np.isfinite(rec.column(b))
                m = int(both.sum())
                if m == 0:  # x and p of one homodyning party
                    continue
                va, vb, c = (float(state[k, n]) for k, n in ((i, i), (j, j), (i, j)))
                got = float(np.mean(rec.column(a)[both] * rec.column(b)[both]))
                assert abs(got - c) < 5.0 * math.sqrt((va * vb + c * c) / m), (a, b, got, c)
                pairs += 1
        homodyning = (protocol.alice_measurement, protocol.bob_measurement).count(Measurement.HOM)
        assert pairs == 10 - homodyning

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

class TestFactor:
    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, math.log10(MAX_SAMPLED_V)),
        st.floats(1e-6, 1.0) | st.just(1.0),
        st.floats(0.0, 0.5) | st.just(0.0),
    )
    def test_factor_reproduces_the_state(self, log_v, t, xi):
        # sqrt(V), l = sqrt(T (V^2 - 1)/V) and d = sqrt(1 - T + T xi + T/V), each
        # against the oracle's Cholesky factor; over 20,000 seeded states, a quarter of
        # them at T = 1, xi = 0, the worst were 1.1e-16, 2.22e-16 and 1.92e-16 (relative)
        v = 10.0**log_v
        factor = _factor(ChannelParams(t, xi), v)
        s, ell, d = (float(factor[i, j]) for i, j in ((0, 0), (2, 0), (2, 2)))
        assert factor.tolist() == [[s, 0, 0, 0], [0, s, 0, 0], [ell, 0, d, 0], [0, -ell, 0, d]]
        for got, want in zip((s, ell, d), oracle.factor(v, t, xi)):
            assert abs(got - want) <= 2.0**-52 * want, (got, want)


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

    def test_two_sifted_pairs_are_too_few(self):
        # a line through two points leaves no residual, so the estimate would be 0 up to rounding
        het_het = ProtocolSpec.parse("rr-hetA-hetB-eb")
        rec = sample_quadratures(het_het, PERFECT, 2.0, 2, seed=12)
        assert np.isfinite(rec.x_a).sum() == np.isfinite(rec.x_b).sum() == 2
        with pytest.raises(InsufficientDataError, match=r"only 2 sifted pairs for x_b\|x_a"):
            estimate_conditional_variance(rec, "x_b", "x_a")
        rec = sample_quadratures(het_het, PERFECT, 2.0, 3, seed=12)
        assert estimate_conditional_variance(rec, "x_b", "x_a").n == 3

    @pytest.mark.parametrize("n", [5, 10, 40])
    def test_small_sample_estimate_is_unbiased(self, n):
        # the residual over n - 2 degrees of freedom is the analytic value times
        # chi^2_(n-2) / (n - 2), so the mean ratio of 1,000 records has sd
        # sqrt(2 / (n - 2) / 1000); over n - 1 it read 0.754, 0.876 and 0.974
        het_het = ProtocolSpec.parse("rr-hetA-hetB-eb")
        ch = ChannelParams(0.9, 0.01)
        analytic = key_rate_at(het_het, ch, 5.0).variances.v_x_b_given_a
        ratios = [
            estimate_conditional_variance(sample_quadratures(het_het, ch, 5.0, n, seed), "x_b", "x_a").value
            / analytic
            for seed in range(1000)
        ]
        assert abs(np.mean(ratios) - 1.0) < 3.0 * math.sqrt(2.0 / (n - 2) / 1000)

    def test_std_error_shrinks_like_sqrt_n(self):
        rec_small = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 4 * 10**3, seed=13)
        rec_large = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 4 * 10**5, seed=13)
        se_small = estimate_conditional_variance(rec_small, "x_b", "x_a").std_error
        se_large = estimate_conditional_variance(rec_large, "x_b", "x_a").std_error
        assert se_large < se_small / 5.0  # 100x samples -> ~10x smaller

class TestCalibration:
    def test_large_v_conditional_variances_are_unbiased(self):
        # T = 1, xi = 0, where V_{B|A} = 1/V is smallest against the columns' V;
        # with the factor and the np.cov estimate taken from the covariance matrix
        # the ratio read 0.87 at V = 5e6 and 8.05 at 9e7, and V above about 9.49e7
        # raised. Band: each of the 120 ratios within 5 standard errors
        # sqrt(2/(m - 2)) of 1, and their mean pull within 4/sqrt(120)
        rng = np.random.default_rng(31)
        pulls = []
        for seed, log_v in enumerate(rng.uniform(0.0, math.log10(MAX_SAMPLED_V), 60)):
            v = 10.0**log_v
            rec = sample_quadratures(RR_HOM_HOM, PERFECT, v, 8000, seed)
            analytic = key_rate_at(RR_HOM_HOM, PERFECT, v).variances
            for q in "xp":
                est = estimate_conditional_variance(rec, f"{q}_b", f"{q}_a")
                ratio = est.value / getattr(analytic, f"v_{q}_b_given_a")
                pulls.append((ratio - 1.0) / math.sqrt(2.0 / (est.n - 2)))
        assert max(map(abs, pulls)) < 5.0, pulls
        assert abs(np.mean(pulls)) < 4.0 / math.sqrt(len(pulls))

    @pytest.mark.parametrize("v", [5.0, MAX_SAMPLED_V])
    @pytest.mark.parametrize(
        "protocol",
        ["rr-homA-homB-eb", "dr-homA-homB-eb", "rr-homA-hetB-eb", "dr-homA-hetB-eb",
         "rr-hetA-homB-eb", "dr-hetA-hetB-eb"],
    )
    def test_key_rate_pull_is_calibrated(self, protocol, v):
        # both directions and every layout, lifted (2v - 1) halves and plain ones:
        # 200 seeded records of 2,000 rows; the pull's mean has sd 0.07 and a
        # small-n bias up to about +0.1, and its sd has sd 0.05. Measured: means
        # -0.05 to +0.11 and sds 0.92 to 1.06 over the 12 cases
        protocol = ProtocolSpec.parse(protocol)
        ch = ChannelParams(0.6, 0.02)
        analytic = key_rate_at(protocol, ch, v).key_rate
        pulls = []
        for seed in range(200):
            rate = estimate_key_rate(sample_quadratures(protocol, ch, v, 2000, seed)).key_rate
            pulls.append((rate.value - analytic) / rate.std_error)
        assert abs(np.mean(pulls)) < 0.35
        assert 0.75 < np.std(pulls, ddof=1) < 1.25


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

class TestSimulateProtocolRun:
    def test_rr_hom_hom_converges_to_analytic(self):
        sim = estimate_key_rate(sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 10**6, seed=42))
        assert abs(sim.key_rate.value - math.log2(4.0 / math.e)) < 0.01
        assert abs(sim.key_rate.value - math.log2(4.0 / math.e)) < 3.0 * sim.key_rate.std_error

    def test_coherent_dr_matches_analytic(self):
        ch = ChannelParams(0.9, 0.0)
        sim = estimate_key_rate(sample_quadratures(DR_COHERENT, ch, 10.0, 10**6, seed=3))
        analytic = key_rate_at(DR_COHERENT, ch, 10.0).key_rate
        assert abs(sim.key_rate.value - analytic) < 3.0 * sim.key_rate.std_error

    def test_small_sample_is_wide_but_consistent(self):
        sim = estimate_key_rate(sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 100, seed=7))
        assert sim.key_rate.std_error > 0.1
        assert abs(sim.key_rate.value - math.log2(4.0 / math.e)) < 5.0 * sim.key_rate.std_error

    @pytest.mark.parametrize("protocol_id", ["rr-homA-homB-eb", "rr-hetA-hetB-eb"])
    def test_variances_are_the_single_estimates(self, protocol_id):
        # one fit per sifted pair serves both directions, bit for bit
        rec = sample_quadratures(ProtocolSpec.parse(protocol_id), ChannelParams(0.7, 0.02), 5.0, 5000, seed=4)
        variances = estimate_key_rate(rec).variances
        for name, estimate in variances.items():
            target, given = f"{name[2]}_{name[4]}", f"{name[2]}_{name[-1]}"
            assert estimate == estimate_conditional_variance(rec, target, given), name

    def test_zero_residual_is_rejected_before_the_rate(self):
        # x_b equals x_a on the sifted pairs, so x_b|x_a is exactly 0.0: the analytic
        # V -> inf limit, which an estimate never is (its rate error would divide by 0)
        rec = sample_quadratures(RR_HOM_HOM, ChannelParams(0.9, 0.01), 5.0, 6, seed=1)
        x = np.array([-1.0, 0.0, 1.0, math.nan, math.nan, math.nan])
        p_a = np.array([math.nan, math.nan, math.nan, -1.0, 0.0, 1.0])
        p_b = np.array([math.nan, math.nan, math.nan, 1.0, 0.0, 0.0])
        rec = rec._replace(x_a=x, x_b=x.copy(), p_a=p_a, p_b=p_b)
        assert estimate_conditional_variance(rec, "x_b", "x_a").value == 0.0
        with pytest.raises(DomainError, match=r"^v_x_b_given_a must be positive, got 0\.0$"):
            estimate_key_rate(rec)

    def test_half_of_one_half_is_rejected_before_the_error(self):
        # p_b|p_a is exactly 0.5, which Alice's heterodyne lifts to 0: the rate's
        # error propagation would divide by it
        het_hom = ProtocolSpec.parse("rr-hetA-homB-eb")
        rec = sample_quadratures(het_hom, ChannelParams(0.9, 0.01), 5.0, 8, seed=1)
        nan = [math.nan] * 4
        rec = rec._replace(
            basis_b=np.array([0] * 4 + [1] * 4, dtype=np.uint8),
            x_a=np.array([-1.0, 0.0, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0]),
            p_a=np.array([0.0, 0.0, 0.0, 0.0, -1.0, -1.0, 1.0, 1.0]),
            x_b=np.array([1.0, 0.0, 2.0, 1.0, *nan]),
            p_b=np.array([*nan, -0.5, -1.5, 0.5, 1.5]),
        )
        assert estimate_conditional_variance(rec, "p_b", "p_a").value == 0.5
        with pytest.raises(
            UnphysicalInferenceError, match=r"^inferred variance 2\*0\.5 - 1 would be nonpositive$"
        ):
            estimate_key_rate(rec)

    def test_constant_given_column_is_rejected(self):
        het_het = ProtocolSpec.parse("rr-hetA-hetB-eb")
        rec = sample_quadratures(het_het, ChannelParams(0.9, 0.01), 5.0, 8, seed=1)
        rec = rec._replace(x_a=np.ones(8))
        with pytest.raises(DomainError, match=r"^x_a is constant over the 8 sifted pairs of x_b\|x_a$"):
            estimate_key_rate(rec)

    def test_variances_are_keyed_by_name(self):
        sim = estimate_key_rate(sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 2000, seed=1))
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

    @pytest.mark.parametrize("protocol", CSV_LAYOUTS.values(), ids=lambda p: p.id)
    def test_matches_row_by_row_oracle(self, protocol):
        ch = ChannelParams(0.7, 0.05)
        for n in (1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1, 65_537):
            rec = sample_quadratures(protocol, ch, 3.0, n, seed=n)
            assert csv_text(rec) == oracle_csv(rec), n

    @pytest.mark.parametrize("protocol", ProtocolSpec.all(), ids=lambda p: p.id)
    def test_csv_depends_only_on_who_heterodynes(self, protocol):
        # what lets the oracle run once per layout cover all 16 protocols
        ch = ChannelParams(0.7, 0.05)
        rep = CSV_LAYOUTS[protocol.alice_measurement, protocol.bob_measurement]
        csv = lambda p: csv_text(sample_quadratures(p, ch, 3.0, 1000, seed=5))
        assert csv(protocol) == csv(rep)

    @pytest.mark.parametrize("protocol", [RR_HOM_HOM, ProtocolSpec.parse("rr-hetA-hetB-eb")])
    def test_extreme_values_match_oracle(self, protocol):
        values = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.2345678912345e20,
                  -1.2345678912345e20, math.inf, -math.inf, math.nan, 1.0, -2.5, 1e16]
        n = len(values)
        rec = sample_quadratures(protocol, PERFECT, 2.0, n, seed=1)
        columns = {name: np.roll(values, k) for k, name in enumerate(("x_a", "p_a", "x_b", "p_b"))}
        rec = rec._replace(**columns)
        text = csv_text(rec)
        assert text == oracle_csv(rec)
        first = text.split("\n")[1].split(",")
        assert first[3:] == ["-0", "1e+16", "-2.5", "1"]
        assert "nan" not in text and "inf" not in text

    @pytest.mark.parametrize("protocol", [RR_HOM_HOM, ProtocolSpec.parse("rr-hetA-hetB-eb")])
    def test_near_ties_match_oracle(self, protocol):
        rec = holding(protocol, near_ties())
        assert csv_text(rec) == oracle_csv(rec)

    @settings(max_examples=150, deadline=None)
    @given(
        protocol=st.sampled_from([RR_HOM_HOM, ProtocolSpec.parse("rr-hetA-hetB-eb")]),
        values=st.lists(st.floats(), min_size=1, max_size=48),
    )
    def test_any_float_matches_oracle(self, protocol, values):
        # st.floats() covers subnormals, +-0, nan and +-inf
        rec = holding(protocol, np.array(values, dtype=float))
        assert csv_text(rec) == oracle_csv(rec)

    @pytest.mark.parametrize(
        "protocol, digest",
        [
            ("rr-homA-homB-eb", "aed3cdd9a759eb74e657086607937fbd1a1229b44c664a30cbccbec96e28ae12"),
            ("rr-hetA-hetB-eb", "148cc27f7bdf322937c69764d90f5302947489ea9986f2344d30fbd9c2f79e83"),
        ],
    )
    def test_bytes_are_pinned(self, protocol, digest):
        # digests of the row-by-row export, so the oracle and write_csv cannot drift together
        ch = ChannelParams(0.7, 0.05)
        rec = sample_quadratures(ProtocolSpec.parse(protocol), ch, 3.0, 100_000, seed=11)
        assert hashlib.sha256(csv_text(rec).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n", [100_001, 1_000_001])
    def test_index_column_past_five_digits(self, n):
        # constant cells keep this fast; only the index column varies
        het_het = ProtocolSpec.parse("rr-hetA-hetB-eb")
        rec = sample_quadratures(het_het, PERFECT, 2.0, 1, seed=1)
        cells = np.full(n, 1.5)
        rec = rec._replace(n=n, x_a=cells, p_a=cells, x_b=cells, p_b=cells)
        lines = io.StringIO(csv_text(rec))
        assert next(lines) == "index,basis_a,basis_b,x_a,p_a,x_b,p_b\n"
        for i, line in enumerate(lines):
            assert line == f"{i},,,1.5,1.5,1.5,1.5\n", i
        assert i == n - 1

    def test_export_streams_in_bounded_writes(self):
        class WriteSizes:
            def __init__(self):
                self.sizes = []

            def write(self, text):
                self.sizes.append(len(text))

        het_het = ProtocolSpec.parse("rr-hetA-hetB-eb")
        rec = sample_quadratures(het_het, PERFECT, 2.0, 100_000, seed=3)
        stream = WriteSizes()
        rec.write_csv(stream)
        assert sum(stream.sizes) == len(csv_text(rec))
        assert max(stream.sizes) <= 1 << 20

    def test_rng_stream_recorded(self):
        rec = sample_quadratures(RR_HOM_HOM, PERFECT, 2.0, 10, seed=1)
        assert "Philox" in rec.rng_stream
