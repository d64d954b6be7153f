"""Seeded sampling of quadrature records and empirical key-rate estimates.

``sample_quadratures`` makes a ``MeasurementRecord``, its ``write_csv``
exports it, and ``estimate_key_rate(record)`` estimates its protocol's
key rate from it; a record too short to estimate from can still be written.

Gaussian states admit exact classical sampling: one linear map of four
standard normals a row draws the four record columns. The map is the
lower Cholesky factor of the measured columns' covariance, a
heterodyning party's two beamsplitter halves included, written in
closed form from (V, T, xi) with no vacuum port and no covariance
matrix formed. Its entries are correctly rounded; above ``MAX_SAMPLED_V``
= 1e12 the rounding of the sampled columns themselves would bias the
estimates, so ``sample_quadratures`` refuses it. The estimator fits
each column on the other and sums the squared residuals, never
subtracting two large variances. Records are drawn block by block, in
order; each block of 65536 rows has its own generator derived from
(seed, block index), so every whole block of a record is independent of
the total length. A shorter last block draws its basis coins after its
own rows, so its contents depend on its length.

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
from .gaussian import ChannelParams

np = _Deferred("numpy")

BLOCK_SIZE = 1 << 16

CSV_HEADER = ["index", "basis_a", "basis_b", "x_a", "p_a", "x_b", "p_b"]
COLUMNS = ("x_a", "p_a", "x_b", "p_b")
MAX_ENTROPY_BINS = 10**7  # empirical_entropy's histogram: 80 MB of edges
MAX_SAMPLED_V = 1e12  # sample_quadratures' modulation cap: see its docstring
MAX_SAMPLE_ROWS = 2 * 10**7  # about 1.5 GB at a record's peak of 73 bytes a row
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
# letters "x" and "p" as bytes; numerals, the uint32 "abcd" per 4-digit group;
# lead, the uint64 lead word per leading digit; groups, the uint64 ".a.b.c.d"
# per 4-digit group; trailing, the trailing zeros per 4-digit group, 4 for
# 0000; masks, the (217, 3) uint64 keep masks
_Tables = namedtuple("_Tables", "pow10 letters numerals lead groups trailing masks")


def _tables() -> _Tables:
    """The formatter's tables, 0.2 MB built in about 0.2 ms once per export and dropped after
    it: kept for the process's life, they raised the peak RSS of repeated in-process exports
    by about 3 MB through heap fragmentation."""
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
        numerals=numerals.view(np.uint32).ravel(),
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

        Rows are built as numpy byte arrays in buffers of _CSV_CHUNK_ROWS =
        2,048 rows, allocated once per export, so memory does not grow with
        the record length. A row's head holds its LF, the index as 4-digit
        groups from a numeral table (one divmod by 10,000 a group), and the
        commas and basis letters; the LF and commas are written once, and an
        index digit of place 10^k is kept from index 10^k on. A quadrature with
        1e-4 <= |x| < 1e8 takes its nine digits from the exactly rounded
        integer round(|x| 10^(8-e)), e its decimal exponent, and its layout
        from a table of keep masks.
        Python's "%.9g" formats the rest: zeros, magnitudes outside that
        range, values that round up to the next power of ten, and values
        whose scaled product lies within 1e-6 of a rounding tie.
        """
        stream.write(",".join(CSV_HEADER))  # each row follows its own line break
        tables = _tables()
        width = len(str(self.n - 1))  # digits of the widest index
        groups = -(-width // 4)
        # a row's head: three unkept bytes and the LF, the index in the uint32 words
        # 1..groups, then a comma and any basis letter per party, in whole 8-byte words
        units = 3 + 4 * groups  # the byte of the units digit
        commas = [units + 1, units + 2 + (self.basis_a is not None)]
        letters = [(at + 1, b) for at, b in zip(commas, (self.basis_a, self.basis_b)) if b is not None]
        rows = min(self.n, _CSV_CHUNK_ROWS)
        text = np.empty((rows, -(-(units + 3 + len(letters)) // 8) + 12), np.uint64)
        keep = np.zeros_like(text)
        text8, keep8, text32 = text.view(np.uint8), keep.view(bool), text.view(np.uint32)
        text8[:, [3, *commas]] = np.frombuffer(b"\n,,", np.uint8)
        keep8[:, [3, units, *commas, *(at for at, _ in letters)]] = True
        cell_text, cell_keep = (a[:, -12:].reshape(rows, len(COLUMNS), 3) for a in (text, keep))
        for start in range(0, self.n, rows):
            m = min(rows, self.n - start)
            q = i = np.arange(start, start + m)
            for word in range(groups, 1, -1):
                q, r = np.divmod(q, 10_000)
                text32[:m, word] = tables.numerals[r]
            text32[:m, 1] = tables.numerals[q]
            if start < 10 ** (width - 1) + rows:  # this chunk or the last holds a shorter index
                for k in range(1, width):
                    keep8[:m, units - k] = i >= 10**k
            for at, b in letters:
                text8[:m, at] = tables.letters[b[start : start + m]]
            values = np.stack([getattr(self, name)[start : start + m] for name in COLUMNS], axis=1)
            _format_cells(values, tables, cell_text[:m], cell_keep[:m])
            stream.write(np.compress(keep8[:m].ravel(), text8[:m].ravel()).tobytes().decode("ascii"))
        stream.write("\n")


class EstimateWithError(_record("EstimateWithError", "value std_error n")):
    """An estimate, its standard error and the number of sifted symbols it was formed from."""


def _block_seed(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(block,))))


def _sqrt_ratio(num: int, den: int) -> float:
    """sqrt(num/den), correctly rounded: an integer root of 58 or more bits, rounded to
    odd (its last bit set where the root is inexact), then one int true division."""
    shift = max(0, 116 + den.bit_length() - num.bit_length()) // 2
    scaled = num << 2 * shift
    root = math.isqrt(scaled // den)
    root |= root * root * den != scaled
    return root / (1 << shift)


def _factor(ch: ChannelParams, v: float, a_het: bool, b_het: bool) -> np.ndarray:
    """The record columns' lower Cholesky factor, as ``sample_quadratures`` states it."""
    # V = p/q, T = a/b and xi = c/e exactly; each entry is sqrt(num/den) of sums of products
    (p, q), (a, b), (c, e) = (x.as_integer_ratio() for x in (v, ch.transmission, ch.excess_noise))
    if a_het:  # (V + 1)/2, T (V - 1) and 1 + T xi
        squares = [(p + q, 2 * q), (a * (p - q), b * q), (b * e + a * c, b * e)]
    else:  # V, T (V - 1)(V + 1)/V and w + T/V, w = 1 - T + T xi
        squares = [(p, q), (a * (p - q) * (p + q), b * q * p), (((b - a) * e + a * c) * p + a * q * e, b * e * p)]
    if b_het:  # l / sqrt(2) and (d^2 + 1)/2
        (ln, ld), (dn, dd) = squares[1:]
        squares[1:] = [(ln, 2 * ld), (dn + dd, 2 * dd)]
    s, ell, d = (_sqrt_ratio(*square) for square in squares)
    return np.array([[s, 0, 0, 0], [0, s, 0, 0], [ell, 0, d, 0], [0, -ell, 0, d]], dtype=float)


def sample_quadratures(
    protocol: ProtocolSpec, ch: ChannelParams, v: float, n: int, seed: int
) -> MeasurementRecord:
    """Draw n joint symbols from the protocol's post-channel Gaussian state.

    Homodyning parties flip a fair, seeded basis coin per symbol and the
    unmeasured quadrature is blanked; heterodyning parties record both
    halves every symbol, the outcomes of a balanced beamsplitter with
    vacuum and a homodyne on each port: Gaussian with covariance
    (Gamma + I)/2, Gamma the party's mode (Weedbrook et al., Rev. Mod.
    Phys. 84, 621, 2012), so no vacuum normal is drawn. A block of m rows
    is ``standard_normal((m, 4)) @ mix.T``, ``mix`` the lower Cholesky
    factor of the record columns' covariance, (x_a, p_a, x_b, p_b), for the
    EPR state of modulation V sent through the channel on Bob's arm. Its
    rows are [s, 0, 0, 0], [0, s, 0, 0], [l, 0, d, 0] and [0, -l, 0, d];
    with w = 1 - T + T xi, s^2 is V, or (V + 1)/2 where Alice heterodynes;
    l is sqrt(T (V - 1)(V + 1)/V), or sqrt(T (V - 1)) where Alice
    heterodynes, over sqrt(2) where Bob does; d^2 = V_{B|A} is w + T/V,
    (w + T/V + 1)/2, 1 + T xi or (2 + T xi)/2 (hom-hom, hom-het, het-hom,
    het-het). Each square is a sum of nonnegative terms, taken as an exact
    rational of the float inputs, and each entry is its correctly rounded
    square root. Identical (parameters, seed) reproduce the record bit for
    bit. The seed is a non-negative integer, as ``numpy.random.SeedSequence``
    takes it, and v a finite real >= 1 (DomainError otherwise).

    V above ``MAX_SAMPLED_V`` = 1e12 raises PrecisionError. The columns
    are of size sqrt(V), so their float64 rounding adds a variance of
    about (eps V)^2 relative to V_{B|A} = 1/V at T = 1, xi = 0: 5e-8 at
    1e12, but 0.05 at 1e15. Uncapped, the mean pull of the rate over 20
    seeded records of 1e5 samples read +0.07 at 1e14, -3.5 at 1e15 and
    -48 at 1e16.
    n above ``MAX_SAMPLE_ROWS`` = 2e7 raises MemoryError before anything
    is allocated: traced with tracemalloc, sampling, estimating and
    exporting 1e6 rows peaked at 66-73 bytes a row (hom-hom sampling 68,
    het-het estimating 73), so the budget is about 1.5 GB.
    """
    n = _integer(n, "sample count")
    if n < 1:
        raise DomainError(f"sample count must be >= 1, got {n}")
    if n > MAX_SAMPLE_ROWS:
        raise MemoryError(f"{n} samples exceed the budget of {MAX_SAMPLE_ROWS} rows")
    seed = _integer(seed, "seed", "a non-negative integer")
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    v = _real(v, "modulation variance")
    if math.isinf(v):
        raise DomainError("state construction needs a finite modulation variance")
    if not v >= 1.0:
        raise DomainError(f"modulation variance must be >= 1, got {v}")
    if v > MAX_SAMPLED_V:
        raise PrecisionError(
            f"modulation variance {v} is above the sampling limit {MAX_SAMPLED_V:g},"
            " where rounding biases the estimates"
        )
    alice_hom, bob_hom = not protocol._a_het, not protocol._b_het
    mix = _factor(ch, v, protocol._a_het, protocol._b_het)  # normals to x_a, p_a, x_b, p_b

    def one_block(block: int) -> tuple:
        m = min(BLOCK_SIZE, n - block * BLOCK_SIZE)
        rng = _block_seed(seed, block)
        # draw order is fixed: normals, then Alice's coins, then Bob's
        y = rng.standard_normal((m, 4)) @ mix.T
        out = {name: y[:, i].copy() for i, name in enumerate(COLUMNS)}
        coins = [rng.integers(0, 2, size=m, dtype=np.uint8) if hom else None for hom in (alice_hom, bob_hom)]
        for party, c in enumerate(coins):
            if c is not None:  # blank the quadrature the coin did not pick
                out[COLUMNS[2 * party]][c == 1] = np.nan
                out[COLUMNS[2 * party + 1]][c == 0] = np.nan
        return out, *coins

    pieces = [one_block(b) for b in range((n + BLOCK_SIZE - 1) // BLOCK_SIZE)]

    def cat(arrays):
        return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

    columns = {name: cat([p[0][name] for p in pieces]) for name in COLUMNS}
    return MeasurementRecord(
        protocol=protocol, channel=ch, modulation=v, n=n, seed=seed, rng_stream=_rng_stream(),
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
    sqrt(2/(m-2)) * value. The sum is taken over the residuals themselves,
    so a close fit of large columns, as at large V, keeps its digits. A
    line fits two points exactly, leaving a residual of zero up to
    rounding, so it takes three sifted pairs. A column fits itself
    exactly, so target and given must differ, and DomainError names a
    column that is constant over the sifted pairs.
    """
    return _residual_pair(record, target, given)[0]


def _residual_pair(
    record: MeasurementRecord, target: str, given: str
) -> tuple[EstimateWithError, EstimateWithError]:
    # (target|given, given|target): each centred column's residual off its fit on the other
    t, g = record.column(target), record.column(given)
    if target == given:
        raise DomainError("target and given columns must differ")
    mask = np.isfinite(t) & np.isfinite(g)
    m = int(mask.sum())
    if m < 3:
        raise InsufficientDataError(f"only {m} sifted pairs for {target}|{given}")
    t, g = (x - x.mean() for x in (t[mask], g[mask]))
    tt, gg, tg = float(t @ t), float(g @ g), float(t @ g)
    for name, ss in ((target, tt), (given, gg)):
        if ss == 0.0:  # each direction divides by the other column's sum of squares
            raise DomainError(f"{name} is constant over the {m} sifted pairs of {target}|{given}")
    width = math.sqrt(2.0 / (m - 2))
    # the residuals' own squares, not tt - tg^2/gg, which cancels where the fit is close
    values = [float(r @ r) / (m - 2) for r in (t - (tg / gg) * g, g - (tg / tt) * t)]
    return tuple(EstimateWithError(value=v, std_error=width * v, n=m) for v in values)


def empirical_entropy(samples: np.ndarray, bin_width: float) -> float:
    """Histogram estimate of differential entropy in bits.

    Bins of the given width span +-8 standard deviations; the estimate
    is -sum p log2 p + log2(bin_width). DomainError where that takes more
    than MAX_ENTROPY_BINS bins, or for 1000 or more samples of a bool, str
    or object array, or of a sequence that holds a bool; PrecisionError for
    an int sample beyond the float range.
    """
    bin_width = _real(bin_width, "bin width")
    if not 0.0 < bin_width < math.inf:
        raise DomainError(f"bin width must be positive and finite, got {bin_width}")
    data = np.asarray(samples)
    try:
        values = data.astype(float, copy=False)
    except OverflowError:  # an int, as _real refuses one
        raise PrecisionError("samples hold an integer beyond the float range") from None
    if values.size < 1000:
        raise InsufficientDataError(f"entropy estimate needs >= 1000 samples, got {values.size}")
    if data.dtype.kind not in "iuf":  # a bool, a str or an object is no number, as for _real
        raise DomainError(f"samples must be real numbers, got dtype {data.dtype}")
    if data is not samples:  # numpy promotes a bool among numbers to a number: read the items
        for item in np.asarray(samples, dtype=object).flat:
            if isinstance(item, (bool, np.bool_)):
                raise DomainError(f"samples must be real numbers, got {item}")
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are raised below
        spread = 8.0 * math.sqrt(float(np.var(values)))
    if not 0.0 < spread < math.inf:  # NaN too: a NaN sample falls in no histogram bin
        raise DomainError("samples are constant, non-finite or too large to bin")
    bins = 2.0 * spread / bin_width  # inf where the quotient overflows
    if not bins <= MAX_ENTROPY_BINS:
        raise DomainError(f"bin width {bin_width} needs {bins:.3g} bins, over {MAX_ENTROPY_BINS}")
    edges = np.arange(-spread, spread + bin_width, bin_width)
    counts, _ = np.histogram(values, bins=edges)
    p = counts[counts > 0] / values.size
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
