"""Seeded sampling of quadrature records and empirical key-rate estimates.

``sample_quadratures`` makes a ``MeasurementRecord``, its ``write_csv``
exports it, and ``estimate_key_rate(record)`` estimates its protocol's
key rate from it; a record too short to estimate from can still be written.

Gaussian states admit exact classical sampling: one linear map of
standard normals, the Cholesky factor of the two-mode post-channel state
written in closed form from its entries (a, b, c), draws all four
columns, and a heterodyning party's beamsplitter halves mix in vacuum
normals of their own; no LAPACK call is made. Records are drawn block by
block, in order; each block of 65536 rows has its own generator derived
from (seed, block index), so every whole block of a record is
independent of the total length. A shorter last block draws its basis
coins after its own rows, so its contents depend on its length.

``RNG_STREAM`` names the generator and the numpy version a record was
drawn with; numpy loads on first array use, and reading ``RNG_STREAM``
loads it too.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bounds import ProtocolSpec, _tagged, infer_full_mode_variance, key_rate
from .errors import (
    DomainError,
    InsufficientDataError,
    PrecisionError,
    UnphysicalInferenceError,
    _Deferred,
    _integer,
    _real,
    _record,
)
from .gaussian import ChannelParams, CovarianceMatrix, apply_channel, tmsv

np = _Deferred("numpy")

BLOCK_SIZE = 1 << 16

CSV_HEADER = ["index", "basis_a", "basis_b", "x_a", "p_a", "x_b", "p_b"]
COLUMNS = ("x_a", "p_a", "x_b", "p_b")
MAX_ENTROPY_BINS = 10**7  # empirical_entropy's histogram: 80 MB of edges
_CSV_CHUNK_ROWS = 2048


def _rng_stream() -> str:
    return f"numpy.random.Philox(4x64-10), numpy {np.__version__}"


def __getattr__(name: str):
    # RNG_STREAM names numpy's version, so each read builds it and the first loads numpy
    if name == "RNG_STREAM":
        return _rng_stream()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Vectorised "%.9g" for the quadrature cells. A cell is built in a 24-byte slot
#     , - 0 . 0 0 0 D0 .D1 .D2 .D3 .D4 .D5 .D6 .D7 .D8
# from three 8-byte words: a lead word ending in the leading digit D0 and
# two group words ".a.b.c.d" for D1-D4 and D5-D8. A keep mask per (decimal
# exponent e in -4..7, trailing zeros, sign) selects the bytes of the
# cell's "%.9g" text; the last mask keeps only the comma, an empty cell.
_EMPTY_CELL = 216


# the formatter's arrays: pow10, 10.0 ** k for k = 0..13; letters, the basis
# letters "x" and "p" as bytes; lead, the uint64 lead word per leading digit;
# groups, the uint64 ".a.b.c.d" per 4-digit group; trailing, the trailing zeros
# per 4-digit group, 4 for 0000; masks, the (217, 3) uint64 keep masks
_Tables = namedtuple("_Tables", "pow10 letters lead groups trailing masks")


def _tables() -> _Tables:
    """The formatter's tables: 0.2 MB, built in about 0.2 ms.

    They are built once per export and dropped after it: kept for the
    process's life, they raised the peak RSS of repeated in-process exports
    by about 3 MB through heap fragmentation.
    """
    lead = np.tile(np.frombuffer(b",-0.0000", np.uint8), (10, 1))
    lead[:, 7] += np.arange(10, dtype=np.uint8)
    # the four digits of the groups 0000..9999, one broadcast axis each
    digits = [np.arange(10).reshape((10,) + (1,) * k) for k in (3, 2, 1, 0)]
    numerals = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j, digit in enumerate(digits):
        numerals[..., j] = 48 + digit
    numerals = numerals.reshape(10_000, 4)
    a, b, c, d = (digit == 0 for digit in digits)
    groups = np.full((10_000, 8), ord("."), np.uint8)
    groups[:, 1::2] = numerals
    e = np.arange(-4, 8)[:, None, None, None]
    zeros = np.arange(9)[:, None, None]
    negative = np.arange(2)[:, None]
    p = np.arange(24)
    last = np.maximum(e, 8 - zeros)  # the last digit shown; D0..D_e are integer digits
    masks = (
        (p == 0)
        | (negative == 1) & (p == 1)
        | (e < 0) & (p >= 2) & (p < 3 - e)  # "0." and -e - 1 zeros
        | (e >= 0) & (last > e) & (p == 8 + 2 * e)  # the point after D_e
        | (p >= 7) & (p % 2 == 1) & (p <= 7 + 2 * last)  # D0..D_last
    )
    return _Tables(
        pow10=10.0 ** np.arange(14),
        letters=np.frombuffer(b"xp", np.uint8),
        lead=lead.view(np.uint64).ravel(),
        groups=groups.view(np.uint64).ravel(),
        trailing=(d * (1 + c * (1 + b * (1 + a)))).ravel(),
        masks=np.vstack([masks.reshape(_EMPTY_CELL, 24), p == 0]).view(np.uint64),
    )


def _format_cells(x: np.ndarray, tables: _Tables, text: np.ndarray, keep: np.ndarray) -> None:
    """Fill the slot words and keep masks, shape x.shape + (3,), of "," + "%.9g" % x.

    Non-finite values keep only the comma, an empty cell.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e8)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    # y is within half an ulp (< 1e-7) of |x| 10^(8-e); where log10 put a
    # value next to a power of ten in the wrong decade, y leaves [1e8, 1e9)
    y = a * tables.pow10[8 - e]
    z = y + 0.5  # exact in this range
    d = np.floor(z)
    fast &= (y >= 1e8) & (d < 1e9) & (np.abs(z - d - 0.5) <= 0.5 - 1e-6)
    d = np.where(fast, d, 1e8).astype(np.intp)
    high = d // 10_000
    low = d - 10_000 * high
    leading = high // 10_000
    high -= 10_000 * leading
    text[..., 0] = tables.lead[leading]
    text[..., 1] = tables.groups[high]
    text[..., 2] = tables.groups[low]
    zeros = tables.trailing[low] + (low == 0) * tables.trailing[high]
    row = np.where(fast, 18 * e + 2 * zeros + (x < 0) + 72, _EMPTY_CELL)
    tables.masks.take(row, axis=0, out=keep, mode="clip")
    slow = ~fast
    slow &= np.isfinite(x)
    for i in zip(*np.nonzero(slow)):
        cell = (",%.9g" % x[i]).encode()
        text[i] = np.frombuffer(cell.ljust(24), np.uint64)
        keep[i] = (np.arange(24) < len(cell)).view(np.uint64)


class MeasurementRecord(
    _record(
        "MeasurementRecord",
        "protocol channel modulation n seed rng_stream basis_a basis_b x_a p_a x_b p_b",
    )
):
    """Per-symbol measurement outcomes in SNU; NaN marks an unmeasured cell.

    For a homodyning party the basis array holds 0 (x) or 1 (p) per
    symbol and exactly one of the party's columns is finite; a
    heterodyning party has no basis array and both columns filled (the
    two beamsplitter halves).
    """

    def column(self, name: str) -> np.ndarray:
        if name not in COLUMNS:
            raise DomainError(f"unknown record column {name!r}; expected one of {COLUMNS}")
        return getattr(self, name)

    def write_csv(self, stream) -> None:
        """Record export: index,basis_a,basis_b,x_a,p_a,x_b,p_b, one row per symbol.

        Basis cells hold "x" or "p" for a homodyning party and are empty
        for a heterodyning one; quadratures carry 9 significant digits,
        byte for byte Python's "%.9g", and unmeasured (non-finite) cells
        are empty. Lines end in LF.

        Rows are built as numpy byte arrays and written in chunks of
        _CSV_CHUNK_ROWS = 2,048 rows, so memory does not grow with the
        record length. The index i takes one byte per digit of the widest
        index, i // 10^k % 10 for digit k, kept from its leading digit on
        (the units digit always). A quadrature with
        1e-4 <= |x| < 1e8 takes its nine digits from the exactly rounded
        integer round(|x| 10^(8-e)), e its decimal exponent, and its layout
        from a table of keep masks.
        Python's "%.9g" formats the rest: zeros, magnitudes outside that
        range, values that round up to the next power of ten, and values
        whose scaled product lies within 1e-6 of a rounding tie.
        """
        stream.write(",".join(CSV_HEADER))  # each row follows its own line break
        tables = _tables()
        bases = (self.basis_a, self.basis_b)
        width = len(str(self.n - 1))  # digits of the widest index
        place = 10 ** np.arange(width - 1, -1, -1)[:, None]  # a column: rows on the fast axis
        # a row's head: LF, the index digits, then a comma and any basis
        # letter per party, padded to whole 8-byte words
        bases_at = 1 + width
        head = -(-(bases_at + 2 + sum(b is not None for b in bases)) // 8)
        for start in range(0, self.n, _CSV_CHUNK_ROWS):
            stop = min(start + _CSV_CHUNK_ROWS, self.n)
            text = np.empty((stop - start, head + 12), np.uint64)
            keep = np.zeros((stop - start, head + 12), np.uint64)
            text8, keep8 = text.view(np.uint8), keep.view(bool)
            text8[:, 0] = ord("\n")
            keep8[:, 0] = True
            i = np.arange(start, stop)
            text8[:, 1:bases_at] = (48 + i // place % 10).T
            keep8[:, 1:bases_at] = ((i >= place) | (place == 1)).T  # no leading zeros
            col = bases_at
            for b in bases:
                text8[:, col] = ord(",")
                col += 1
                if b is not None:
                    text8[:, col] = tables.letters[b[start:stop]]
                    col += 1
            keep8[:, bases_at:col] = True
            values = np.stack([getattr(self, name)[start:stop] for name in COLUMNS], axis=1)
            cells = (stop - start, len(COLUMNS), 3)
            _format_cells(values, tables, text[:, head:].reshape(cells), keep[:, head:].reshape(cells))
            stream.write(np.compress(keep8.ravel(), text8.ravel()).tobytes().decode("ascii"))
        stream.write("\n")


class EstimateWithError(_record("EstimateWithError", "value std_error n")):
    """An estimate, its standard error and the number of sifted symbols it was formed from."""


def _block_seed(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(block,))))


def _cholesky(cm: CovarianceMatrix) -> np.ndarray:
    """The state's lower Cholesky factor in closed form, as ``sample_quadratures`` states it."""
    s = math.sqrt(cm.a)
    ell = cm.c * (1.0 / s)  # LAPACK's reciprocal pivot; c / s differs in the last bit
    pivot = cm.b - ell * ell
    if not pivot > 0.0:
        raise PrecisionError(f"cannot sample the state: its Cholesky pivot {pivot} is not positive")
    d = math.sqrt(pivot)
    return np.array([[s, 0, 0, 0], [0, s, 0, 0], [ell, 0, d, 0], [0, -ell, 0, d]], dtype=float)


def sample_quadratures(
    protocol: ProtocolSpec, ch: ChannelParams, v: float, n: int, seed: int
) -> MeasurementRecord:
    """Draw n joint symbols from the protocol's post-channel Gaussian state.

    Homodyning parties flip a fair, seeded basis coin per symbol and the
    unmeasured quadrature is blanked; heterodyning parties record both
    halves every symbol: heterodyne is a balanced beamsplitter with
    vacuum and a homodyne on each port (Weedbrook et al., Rev. Mod. Phys.
    84, 621, 2012). A block of m rows is ``standard_normal((m, 4 + 2h)) @
    mix.T``, h the number of heterodyning parties. ``mix`` starts as the
    lower Cholesky factor of the state (a, b, c) in the ordering
    (x_a, p_a, x_b, p_b), written in closed form with s = sqrt(a),
    l = c * (1/s) and d = sqrt(b - l^2): its rows are [s, 0, 0, 0],
    [0, s, 0, 0], [l, 0, d, 0] and [0, -l, 0, d]. That is LAPACK's order,
    a reciprocal pivot times the entry, so the factor equals
    ``numpy.linalg.cholesky`` of the 4 x 4 array bit for bit wherever that
    succeeds. Where b - l^2 rounds to 0 or below, as it can on a validated
    state at T = 1, xi ~ 0 and V from about 5.9e7 up to ``tmsv``'s limit,
    PrecisionError is raised, exactly where LAPACK raised. A heterodyning
    party's rows are then scaled by 1/sqrt(2) and given +1/sqrt(2) (x
    port, (in + vac)/sqrt(2)) and -1/sqrt(2) (p port, (in - vac)/sqrt(2))
    on its own two vacuum normals.
    Identical (parameters, seed) reproduce the record bit for bit. The
    seed is a non-negative integer, as ``numpy.random.SeedSequence`` takes
    it, and v a finite real >= 1 (DomainError otherwise).
    """
    n = _integer(n, "sample count")
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    if not (isinstance(seed, (int, np.integer)) and not isinstance(seed, bool) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")
    v = _real(v, "modulation variance")
    if math.isinf(v):
        raise DomainError("state construction needs a finite modulation variance")
    if not v >= 1.0:
        raise DomainError(f"modulation variance must be >= 1, got {v}")
    alice_hom, bob_hom = not protocol._a_het, not protocol._b_het
    mix = _cholesky(apply_channel(tmsv(v), ch, mode=1))  # normals to x_a, p_a, x_b, p_b
    r = 1.0 / math.sqrt(2.0)
    for party, hom in enumerate((alice_hom, bob_hom)):
        if not hom:  # (q + v_x)/sqrt(2) on the x port, (q - v_p)/sqrt(2) on the p port
            ports = np.zeros((4, 2))
            ports[2 * party : 2 * party + 2] = [[r, 0.0], [0.0, -r]]
            mix = np.hstack([mix, ports])
            mix[2 * party : 2 * party + 2, :4] *= r

    def one_block(block: int) -> tuple:
        start = block * BLOCK_SIZE
        m = min(BLOCK_SIZE, n - start)
        rng = _block_seed(seed, block)
        # draw order is fixed: normals, then Alice's coins, then Bob's
        y = rng.standard_normal((m, mix.shape[1])) @ mix.T
        out = {name: y[:, i].copy() for i, name in enumerate(COLUMNS)}
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
        rng_stream=_rng_stream(),
        basis_a=cat([p[1] for p in pieces]) if alice_hom else None,
        basis_b=cat([p[2] for p in pieces]) if bob_hom else None,
        **columns,
    )


def estimate_conditional_variance(
    record: MeasurementRecord, target: str, given: str
) -> EstimateWithError:
    """Residual variance of the least-squares fit of one column on another.

    Sifting keeps m symbols where both columns were measured. The fit
    spends two degrees of freedom, so the residual sum of squares is
    divided by m - 2, an unbiased estimate of the analytic conditional
    variance; the standard error is the chi-square width
    sqrt(2/(m-2)) * value. A line fits two points exactly, leaving a
    residual of zero up to rounding, so it takes three sifted pairs. A
    column fits itself exactly, so target and given must differ, and
    DomainError names a column that is constant over the sifted pairs.
    """
    return _residual_pair(record, target, given)[0]


def _residual_pair(
    record: MeasurementRecord, target: str, given: str
) -> tuple[EstimateWithError, EstimateWithError]:
    # (target|given, given|target) from one 2 x 2 covariance of the sifted pairs
    t = record.column(target)
    g = record.column(given)
    if target == given:
        raise DomainError("target and given columns must differ")
    mask = np.isfinite(t) & np.isfinite(g)
    m = int(mask.sum())
    if m < 3:
        raise InsufficientDataError(f"only {m} sifted pairs for {target}|{given}")
    cov = np.cov(t[mask], g[mask], ddof=2)  # the residuals over m - 2 degrees of freedom
    (v_t, c), (_, v_g) = cov.tolist()
    for name, v in ((target, v_t), (given, v_g)):
        if v == 0.0:  # each direction divides by the other column's variance
            raise DomainError(f"{name} is constant over the {m} sifted pairs of {target}|{given}")
    width = math.sqrt(2.0 / (m - 2))
    return tuple(
        EstimateWithError(value=v, std_error=width * v, n=m)
        for v in (v_t - c**2 / v_g, v_g - c**2 / v_t)
    )


def empirical_entropy(samples: np.ndarray, bin_width: float) -> float:
    """Histogram estimate of differential entropy in bits.

    Bins of the given width span +-8 standard deviations; the estimate
    is -sum p log2 p + log2(bin_width). DomainError where that takes more
    than MAX_ENTROPY_BINS bins.
    """
    bin_width = _real(bin_width, "bin width")
    if not 0.0 < bin_width < math.inf:
        raise DomainError(f"bin width must be positive and finite, got {bin_width}")
    samples = np.asarray(samples, dtype=float)
    if samples.size < 1000:
        raise InsufficientDataError(f"entropy estimate needs >= 1000 samples, got {samples.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are raised below
        spread = 8.0 * math.sqrt(float(np.var(samples)))
    if not 0.0 < spread < math.inf:  # NaN too: a NaN sample falls in no histogram bin
        raise DomainError("samples are constant, non-finite or too large to bin")
    bins = 2.0 * spread / bin_width  # inf where the quotient overflows
    if not bins <= MAX_ENTROPY_BINS:
        raise DomainError(f"bin width {bin_width} needs {bins:.3g} bins, over {MAX_ENTROPY_BINS}")
    edges = np.arange(-spread, spread + bin_width, bin_width)
    counts, _ = np.histogram(samples, bins=edges)
    p = counts[counts > 0] / samples.size
    return float(-(p * np.log2(p)).sum() + math.log2(bin_width))


class SimulatedKeyRate(_record("SimulatedKeyRate", "key_rate variances")):
    """Empirical key-rate evaluation with propagated statistical error.

    ``variances`` maps each conditional-variance name to its ``EstimateWithError``.
    """


def estimate_key_rate(record: MeasurementRecord) -> SimulatedKeyRate:
    """Estimate a record's conditional variances and push them through its
    protocol's key-rate formula.

    The propagated standard error combines the per-variance errors
    through the log-derivative of the rate, doubling the weight of a
    slot that enters through the 2v - 1 inference. InsufficientDataError
    where a pair has fewer than three sifted symbols; UnphysicalInferenceError
    where a lifted half is exactly 1/2, whose inferred variance is 0.
    """
    protocol = record.protocol
    (x_ba, x_ab), (p_ba, p_ab) = (_residual_pair(record, f"{q}_b", f"{q}_a") for q in "xp")
    variances = {
        "v_x_b_given_a": x_ba, "v_p_b_given_a": p_ba, "v_x_a_given_b": x_ab, "v_p_a_given_b": p_ab
    }
    for name, e in variances.items():  # 0 is the analytic V -> inf limit, never an estimate
        if not e.value > 0.0:
            raise DomainError(f"{name} must be positive, got {e.value}")
    cv = _tagged(protocol, (x_ba.value, p_ba.value), (x_ab.value, p_ab.value))
    result = key_rate(protocol, cv)
    # K = const - (log2 vx)/2 - (log2 vp)/2, vp entering as 2 vp - 1 where lifted: slope 2
    if protocol._dr:  # A|B, whose conditioner is Bob; RR reads B|A, conditioned on Alice
        x_est, p_est, lift = x_ab, p_ab, protocol._b_het
    else:
        x_est, p_est, lift = x_ba, p_ba, protocol._a_het
    dx = x_est.std_error / (2.0 * math.log(2.0) * x_est.value)
    vp_eff = infer_full_mode_variance(p_est.value) if lift else p_est.value
    if not vp_eff > 0.0:  # a half of exactly 1/2 lifts to the V -> inf limit 0
        raise UnphysicalInferenceError(
            f"inferred variance 2*{p_est.value} - 1 would be nonpositive"
        )
    dp = (2.0 if lift else 1.0) * p_est.std_error / (2.0 * math.log(2.0) * vp_eff)
    sigma = math.hypot(dx, dp)
    return SimulatedKeyRate(
        key_rate=EstimateWithError(result.key_rate, sigma, min(x_est.n, p_est.n)),
        variances=variances,
    )
