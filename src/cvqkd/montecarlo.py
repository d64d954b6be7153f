"""Seeded sampling of quadrature records and empirical key-rate estimates.

Gaussian states admit exact classical sampling: outcomes are drawn from
the multivariate normal defined by the post-channel covariance matrix
via its lower-triangular Cholesky factor. Records are drawn block by
block, in order; each block of 65536 rows has its own generator derived
from (seed, block index), so every whole block of a record is
independent of the total length. A shorter last block draws its basis
coins after its own rows, so its contents depend on its length.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    ConditionalVariances,
    KeyRateResult,
    Measurement,
    ProtocolSpec,
    Reconciliation,
    expected_kinds,
    key_rate,
)
from .errors import DomainError, InsufficientDataError
from .gaussian import ChannelParams
from .security import build_protocol_state

BLOCK_SIZE = 1 << 16
RNG_STREAM = f"numpy.random.Philox(4x64-10), numpy {np.__version__}"

CSV_HEADER = ["index", "basis_a", "basis_b", "x_a", "p_a", "x_b", "p_b"]
COLUMNS = ("x_a", "p_a", "x_b", "p_b")


@dataclass(frozen=True)
class MeasurementRecord:
    """Per-symbol measurement outcomes in SNU; NaN marks an unmeasured cell.

    For a homodyning party the basis array holds 0 (x) or 1 (p) per
    symbol and exactly one of the party's columns is finite; a
    heterodyning party has no basis array and both columns filled (the
    two beamsplitter halves).
    """

    protocol: ProtocolSpec
    channel: ChannelParams
    modulation: float
    n: int
    seed: int
    rng_stream: str
    basis_a: np.ndarray | None
    basis_b: np.ndarray | None
    x_a: np.ndarray
    p_a: np.ndarray
    x_b: np.ndarray
    p_b: np.ndarray

    def column(self, name: str) -> np.ndarray:
        if name not in COLUMNS:
            raise DomainError(f"unknown record column {name!r}; expected one of {COLUMNS}")
        return getattr(self, name)

    def write_csv(self, stream) -> None:
        """Record export: index,basis_a,basis_b,x_a,p_a,x_b,p_b with empty unmeasured cells."""
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        basis_char = {0: "x", 1: "p"}
        for i in range(self.n):
            row = [
                str(i),
                basis_char[int(self.basis_a[i])] if self.basis_a is not None else "",
                basis_char[int(self.basis_b[i])] if self.basis_b is not None else "",
            ]
            for name in COLUMNS:
                value = self.column(name)[i]
                row.append(f"{value:.9g}" if math.isfinite(value) else "")
            writer.writerow(row)


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    std_error: float
    n: int


def _block_seed(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(block,))))


def sample_quadratures(
    protocol: ProtocolSpec, ch: ChannelParams, v: float, n: int, seed: int
) -> MeasurementRecord:
    """Draw n joint symbols from the protocol's post-channel Gaussian state.

    Homodyning parties flip a fair, seeded basis coin per symbol and the
    unmeasured quadrature is blanked; heterodyning parties record both
    halves every symbol. Identical (parameters, seed) reproduce the
    record bit for bit.
    """
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    st = build_protocol_state(protocol, ch, v)
    chol = np.linalg.cholesky(st.cm.matrix)
    dim = 2 * st.cm.n_modes
    col_index = {
        "x_a": 2 * st.alice_x_mode,
        "p_a": 2 * st.alice_p_mode + 1,
        "x_b": 2 * st.bob_x_mode,
        "p_b": 2 * st.bob_p_mode + 1,
    }
    alice_hom = protocol.alice_measurement is Measurement.HOM
    bob_hom = protocol.bob_measurement is Measurement.HOM

    def one_block(block: int) -> tuple:
        start = block * BLOCK_SIZE
        m = min(BLOCK_SIZE, n - start)
        rng = _block_seed(seed, block)
        # draw order is fixed: quadratures, then Alice's coins, then Bob's
        y = rng.standard_normal((m, dim)) @ chol.T
        out = {name: y[:, idx].copy() for name, idx in col_index.items()}
        ba = rng.integers(0, 2, size=m, dtype=np.uint8) if alice_hom else None
        bb = rng.integers(0, 2, size=m, dtype=np.uint8) if bob_hom else None
        if ba is not None:
            out["x_a"][ba == 1] = np.nan
            out["p_a"][ba == 0] = np.nan
        if bb is not None:
            out["x_b"][bb == 1] = np.nan
            out["p_b"][bb == 0] = np.nan
        return out, ba, bb

    pieces = [one_block(b) for b in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE)]

    def cat(arrays):
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    columns = {name: cat([p[0][name] for p in pieces]) for name in COLUMNS}
    return MeasurementRecord(
        protocol=protocol,
        channel=ch,
        modulation=v,
        n=n,
        seed=seed,
        rng_stream=RNG_STREAM,
        basis_a=cat([p[1] for p in pieces]) if alice_hom else None,
        basis_b=cat([p[2] for p in pieces]) if bob_hom else None,
        **columns,
    )


def estimate_conditional_variance(
    record: MeasurementRecord, target: str, given: str
) -> EstimateWithError:
    """Residual variance of the least-squares fit of one column on another.

    Sifting keeps the symbols where both columns were measured. The
    optimal-gain estimator matches the analytic conditional variance;
    the standard error uses the asymptotic chi-square width
    sqrt(2/(n-1)) * value.
    """
    t = record.column(target)
    g = record.column(given)
    mask = np.isfinite(t) & np.isfinite(g)
    m = int(mask.sum())
    if m < 2:
        raise InsufficientDataError(f"only {m} sifted pairs for {target}|{given}")
    cov = np.cov(t[mask], g[mask], ddof=1)
    value = float(cov[0, 0] - cov[0, 1] ** 2 / cov[1, 1])
    return EstimateWithError(value=value, std_error=math.sqrt(2.0 / (m - 1)) * value, n=m)


def empirical_entropy(samples: np.ndarray, bin_width: float) -> float:
    """Histogram estimate of differential entropy in bits.

    Bins of the given width span +-8 standard deviations; the estimate
    is -sum p log2 p + log2(bin_width).
    """
    if bin_width <= 0.0:
        raise DomainError(f"bin width must be positive, got {bin_width}")
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1000:
        raise InsufficientDataError(f"entropy estimate needs >= 1000 samples, got {samples.size}")
    spread = 8.0 * math.sqrt(float(np.var(samples)))
    if spread <= 0.0:
        raise DomainError("samples are constant; differential entropy diverges")
    edges = np.arange(-spread, spread + bin_width, bin_width)
    counts, _ = np.histogram(samples, bins=edges)
    p = counts[counts > 0] / samples.size
    return float(-(p * np.log2(p)).sum() + math.log2(bin_width))


@dataclass(frozen=True)
class SimulatedKeyRate:
    """Empirical key-rate evaluation with propagated statistical error."""

    result: KeyRateResult
    key_rate: EstimateWithError
    variances: dict[str, EstimateWithError]
    record: MeasurementRecord


def simulate_protocol_run(
    protocol: ProtocolSpec, ch: ChannelParams, v: float, n: int, seed: int
) -> SimulatedKeyRate:
    """Estimate the protocol's conditional variances from a sampled record
    and push them through the key-rate formula.

    The propagated standard error combines the per-variance errors
    through the log-derivative of the rate, doubling the weight of a
    slot that enters through the 2v - 1 inference.
    """
    record = sample_quadratures(protocol, ch, v, n, seed)
    estimates = {
        "v_x_b_given_a": estimate_conditional_variance(record, "x_b", "x_a"),
        "v_p_b_given_a": estimate_conditional_variance(record, "p_b", "p_a"),
        "v_x_a_given_b": estimate_conditional_variance(record, "x_a", "x_b"),
        "v_p_a_given_b": estimate_conditional_variance(record, "p_a", "p_b"),
    }
    kind_ab, kind_ba = expected_kinds(protocol)
    cv = ConditionalVariances(
        v_x_b_given_a=estimates["v_x_b_given_a"].value,
        v_p_b_given_a=estimates["v_p_b_given_a"].value,
        v_x_a_given_b=estimates["v_x_a_given_b"].value,
        v_p_a_given_b=estimates["v_p_a_given_b"].value,
        kind_b_given_a=kind_ba,
        kind_a_given_b=kind_ab,
    )
    result = key_rate(protocol, cv)
    if protocol.reconciliation is Reconciliation.RR:
        x_est, p_est, kind = estimates["v_x_b_given_a"], estimates["v_p_b_given_a"], kind_ba
    else:
        x_est, p_est, kind = estimates["v_x_a_given_b"], estimates["v_p_a_given_b"], kind_ab
    # K = const - (log2 vx)/2 - (log2 vp_eff)/2 with vp_eff = 2 vp - 1 where inferred
    dx = x_est.std_error / (2.0 * math.log(2.0) * x_est.value)
    if kind.conditioner_is_half:
        vp_eff = 2.0 * p_est.value - 1.0
        dp = p_est.std_error / (math.log(2.0) * vp_eff)
    else:
        dp = p_est.std_error / (2.0 * math.log(2.0) * p_est.value)
    sigma = math.hypot(dx, dp)
    return SimulatedKeyRate(
        result=result,
        key_rate=EstimateWithError(result.key_rate, sigma, min(x_est.n, p_est.n)),
        variances=estimates,
        record=record,
    )
