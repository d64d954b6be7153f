"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a ``criterion N: PASS`` line with the measured values
once its assertions hold; run with ``pytest -s tests/test_acceptance.py``
to see them. Timed criteria assert their runtime budget too.
"""

import math
import time

import numpy as np
import pytest

from conftest import full_mode_cv
from cvqkd import (
    ChannelParams,
    OneSidedDI,
    ProtocolSpec,
    Reconciliation,
    SweepConfig,
    classify_1sdi,
    devetak_winter_oracle,
    empirical_entropy,
    estimate_conditional_variance,
    estimate_key_rate,
    key_rate,
    key_rate_at,
    max_distance,
    sample_quadratures,
    security_region,
    threshold_transmission,
    verify_ur_bipartite,
    verify_ur_tripartite,
    vacuum,
)

E = math.e
RR_HOM_HOM = ProtocolSpec.parse("rr-homA-homB-eb")
RR_BOB_HET = ProtocolSpec.parse("rr-homA-hetB-eb")
DR_HOM_HOM = ProtocolSpec.parse("dr-homA-homB-eb")
DR_COHERENT = ProtocolSpec.parse("dr-hetA-homB-pm")


def report(n, detail):
    print(f"criterion {n}: PASS  ({detail})")


def test_criterion_1_rr_hom_hom_loss_threshold():
    start = time.perf_counter()
    t_star = threshold_transmission(RR_HOM_HOM, 0.0)
    elapsed = time.perf_counter() - start
    expected = 1.0 - 2.0 / E  # 73.58% loss
    assert t_star == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert elapsed < 1.0
    report(1, f"T* = {t_star:.9f}, err = {abs(t_star - expected):.2e}, {elapsed:.3f} s")


def test_criterion_2_coherent_dr_threshold():
    start = time.perf_counter()
    t_star = threshold_transmission(DR_COHERENT, 0.0)
    elapsed = time.perf_counter() - start
    expected = E / 4.0  # 32.04% loss
    assert t_star == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert elapsed < 1.0
    report(2, f"T* = {t_star:.9f}, err = {abs(t_star - expected):.2e}, {elapsed:.3f} s")


def test_criterion_3_dr_hom_hom_threshold():
    start = time.perf_counter()
    t_star = threshold_transmission(DR_HOM_HOM, 0.0)
    elapsed = time.perf_counter() - start
    expected = E / (E + 2.0)  # 42.39% loss
    assert t_star == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert elapsed < 1.0
    report(3, f"T* = {t_star:.9f}, err = {abs(t_star - expected):.2e}, {elapsed:.3f} s")


def test_criterion_4_fibre_distance():
    start = time.perf_counter()
    km = max_distance(RR_HOM_HOM, 0.002)
    elapsed = time.perf_counter() - start
    assert km == pytest.approx(28.855, abs=0.01)
    assert elapsed < 1.0
    report(4, f"d = {km:.4f} km, {elapsed:.3f} s")


def test_criterion_5_steering_equivalence():
    threshold = (2.0 / E) ** 2  # 0.541341
    mismatches = 0
    for t in np.linspace(0.02, 1.0, 50):
        for xi in np.linspace(0.0, 1.0, 50):
            res = key_rate_at(RR_HOM_HOM, ChannelParams(float(t), float(xi)))
            if (res.key_rate > 0.0) != (res.steering_ab < threshold):
                mismatches += 1
    assert mismatches == 0
    report(5, f"2500 grid points, 0 mismatches against E < {threshold:.6f}")


def test_criterion_6_table_reproduction():
    marks = {p.id: classify_1sdi(p) for p in ProtocolSpec.all()}
    expected_b = {
        "dr-homA-homB-pm", "dr-homA-homB-eb", "dr-hetA-homB-pm", "dr-hetA-homB-eb",
    }
    expected_a = {"rr-homA-homB-eb", "rr-homA-hetB-eb"}
    got_b = {pid for pid, m in marks.items() if m is OneSidedDI.INDEPENDENT_OF_BOB}
    got_a = {pid for pid, m in marks.items() if m is OneSidedDI.INDEPENDENT_OF_ALICE}
    assert got_b == expected_b
    assert got_a == expected_a
    assert len(got_a) + len(got_b) == 6
    report(6, "6 of 16 protocols 1sDI, 4 independent-of-Bob (DR), 2 independent-of-Alice (RR EB)")


def test_criterion_7_entropic_ur_slack(acceptance_sweep):
    start = time.perf_counter()
    vac_slack = verify_ur_bipartite(vacuum(2))
    assert vac_slack == pytest.approx(math.log2(E / 2.0), abs=1e-9)
    min_bi = min_tri = math.inf
    for v, t, xi, cm in acceptance_sweep:
        min_bi = min(min_bi, verify_ur_bipartite(cm))
        min_tri = min(min_tri, verify_ur_tripartite(cm))
    elapsed = time.perf_counter() - start
    assert min_bi >= -1e-9
    assert min_tri >= -1e-9
    assert elapsed < 30.0
    report(
        7,
        f"vacuum slack = {vac_slack:.9f}, min bipartite = {min_bi:.3e}, "
        f"min tripartite = {min_tri:.3e} over 10^4 states, {elapsed:.1f} s",
    )


def test_criterion_8_devetak_winter_dominance(acceptance_sweep):
    start = time.perf_counter()
    worst = math.inf
    violations = 0
    for v, t, xi, cm in acceptance_sweep:
        cv = full_mode_cv(cm)
        for direction, protocol in (
            (Reconciliation.RR, RR_HOM_HOM),
            (Reconciliation.DR, DR_HOM_HOM),
        ):
            gap = devetak_winter_oracle(cm, direction) - key_rate(protocol, cv).key_rate
            worst = min(worst, gap)
            if gap < -1e-9:
                violations += 1
    elapsed = time.perf_counter() - start
    assert violations == 0
    report(
        8,
        f"DW - entropic >= {worst:.6f} on 10^4 states x both directions, "
        f"0 violations, {elapsed:.1f} s",
    )


def test_criterion_9_secure_region_curves():
    start = time.perf_counter()
    grid = SweepConfig(t_min=0.05, t_max=1.0, steps=200)
    oracles = {
        RR_HOM_HOM: lambda t: (2.0 / E - 1.0 + t) / t,
        RR_BOB_HET: lambda t: (4.0 / E - 2.0 + t) / t,
        DR_HOM_HOM: lambda t: 2.0 / E - (1.0 - t) / t,
        DR_COHERENT: lambda t: (4.0 / E - 1.0) - (1.0 - t) / t,
    }
    worst = 0.0
    for protocol, oracle in oracles.items():
        for t, xi in security_region(protocol, grid):
            want = oracle(t)
            if want < 0.0:
                assert xi is None
            else:
                assert xi == pytest.approx(want, abs=1e-6)
                worst = max(worst, abs(xi - want))
    # crossing of the DR hom-hom and RR Bob-het curves
    def gap(t):
        return oracles[DR_HOM_HOM](t) - oracles[RR_BOB_HET](t)

    lo, hi = 0.6, 0.7
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if gap(lo) * gap(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    t_cross = (lo + hi) / 2.0
    xi_cross = oracles[DR_HOM_HOM](t_cross)
    elapsed = time.perf_counter() - start
    assert t_cross == pytest.approx(2.0 - E / 2.0, abs=1e-4)
    assert xi_cross == pytest.approx(0.1750, abs=1e-3)
    assert elapsed < 10.0
    report(
        9,
        f"4 curves x 200 points within {worst:.2e} of closed forms; "
        f"crossing at T = {t_cross:.6f}, xi = {xi_cross:.6f}, {elapsed:.1f} s",
    )


def test_criterion_10_monte_carlo_validation():
    start = time.perf_counter()
    target = math.log2(4.0 / E)  # 0.557305
    record = sample_quadratures(RR_HOM_HOM, ChannelParams(1.0, 0.0), 2.0, 10**6, seed=20240901)
    sim = estimate_key_rate(record)
    pull = abs(sim.key_rate.value - target) / sim.key_rate.std_error
    assert pull < 3.0

    hits = 0
    for seed in range(100):
        rec = sample_quadratures(RR_HOM_HOM, ChannelParams(1.0, 0.0), 2.0, 10**4, seed=seed)
        est = estimate_conditional_variance(rec, "x_b", "x_a")
        if abs(est.value - 0.5) < 5.0 * est.std_error:
            hits += 1
    elapsed = time.perf_counter() - start
    assert hits >= 99
    assert elapsed < 60.0
    report(
        10,
        f"K = {sim.key_rate.value:.6f} +- {sim.key_rate.std_error:.6f} "
        f"({pull:.2f} sigma from {target:.6f}); variance within 5 sigma in "
        f"{hits}/100 seeds, {elapsed:.1f} s",
    )


def test_criterion_11_gaussian_extremality():
    start = time.perf_counter()
    n = 10**6
    rng = np.random.Generator(np.random.Philox(20240901))
    h_gauss = empirical_entropy(rng.standard_normal(n), 0.01)
    h_unif = empirical_entropy(rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), n), 0.01)
    gap = h_gauss - h_unif
    elapsed = time.perf_counter() - start
    assert gap == pytest.approx(0.2546, abs=0.02)
    assert elapsed < 30.0
    report(11, f"entropy gap = {gap:.4f} bits (expected 0.2546 +- 0.02), {elapsed:.1f} s")
