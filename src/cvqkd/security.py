"""Channel-parameter analysis: key rates, thresholds, secure regions and distances.

Every protocol's conditional variances come from one closed form in
u = 1/V (``_cond_variances``), so no covariance matrix is built at any
modulation. u = 0 is the V -> inf limit, the most favorable one, where
all the figure-of-merit numbers quoted for these protocols live, and
where the solvers work in closed form. There x and p share one
conditional variance v of the pair the rate reads (A|B for DR, B|A for
RR), and the rate log2(2/(e sqrt(Vx Vp))) is nonnegative iff e v <= 2.
With w = 1 - T + T xi that is one law w <= c T^k with
xi_max(T) = (c T^k - (1 - T))/T:

    dr homA-homB   v = w/T           w <= (2/e) T       T* = 1/(1 + 2/e - xi)
    rr homA-homB   v = w             w <= 2/e           T* = (1 - 2/e)/(1 - xi)
    rr homA-hetB   v = (w + 1)/2     w <= 4/e - 1       T* = (2 - 4/e)/(1 - xi)
    dr hetA-homB   v = (w/T + 1)/2   w <= (4/e - 1) T   T* = 1/(4/e - xi)

A heterodyning conditioner (Bob for DR, Alice for RR) adds vacuum, so
v >= 1 and e v > 2: the other eight are never secure. T* and xi_max
lie within 1e-14 relative plus 1e-15 of 60-digit mpmath, then step by
nextafter towards the secure side until ``_secure_at_infinite_v``
(exactly ``key_rate_at(...).key_rate >= 0``) holds, at most 3 ulps on
about 10^5 sampled points. Within ``_LAW_MARGIN`` of a boundary, where
law and float test can differ by a rounding, that test decides between
a value and None.

Two routes run that test. T* is a scalar route:
``threshold_transmission`` (and so ``max_distance``) solves one float
and loads no numpy. xi_max is an array route: ``security_region``
solves its whole grid as one array in ``_xi_max``, where every open row
steps once a pass, and ``max_excess_noise`` is its one-point grid. A
float-only ``_xi_max``, one point at a time, made the region
benchmark's pass 3x slower (``pass_ref`` 0.072 -> 0.236 on a 2-core
host). The eight protocols without a law return None rows before any
array is built.
"""

from __future__ import annotations

import math

from .bounds import KeyRateResult, ProtocolSpec, _tagged, key_rate
from .errors import DomainError, PrecisionError, _Deferred, _integer, _real, _record
from .gaussian import ChannelParams

np = _Deferred("numpy")

# (c, k) of the law w <= c T^k, by the spec's (DR, Alice heterodynes, Bob heterodynes)
_LAWS = {
    (True, False, False): (2.0 / math.e, 1),
    (False, False, False): (2.0 / math.e, 0),
    (False, False, True): (4.0 / math.e - 1.0, 0),
    (True, True, False): (4.0 / math.e - 1.0, 1),
}
_LAW_MARGIN = 1e-12  # law and float sign test agree beyond this distance from a boundary
# The most points a grid may have. Traced with tracemalloc over 200,000 rows, verify-ur
# peaked at about 256 bytes a row and region at about 240, output included, so the
# budget is about 1.3 GB, as the sampler's MAX_SAMPLE_ROWS is.
MAX_GRID_POINTS = 5_000_000


class FibreModel(_record("FibreModel", "attenuation_db_per_km")):
    """Standard fibre: T = 10^(-attenuation * d / 10), default 0.2 dB/km, a float."""

    def __new__(cls, attenuation_db_per_km: float = 0.2):
        attenuation_db_per_km = _real(attenuation_db_per_km, "attenuation")
        if not 0.0 < attenuation_db_per_km < math.inf:
            raise DomainError(f"attenuation must be finite and positive, got {attenuation_db_per_km}")
        return tuple.__new__(cls, (attenuation_db_per_km,))

    def distance_km(self, transmission: float) -> float:
        """Fibre length with this transmission, which must lie in (0, 1]; PrecisionError if inf."""
        transmission = ChannelParams(transmission).transmission  # DomainError outside (0, 1]
        # abs gives 0, not -0, at T = 1
        km = abs(10.0 * math.log10(transmission)) / self.attenuation_db_per_km
        if km == math.inf:  # a denormal attenuation: inf would read as "no security" in JSON
            raise PrecisionError(f"distance overflows at attenuation {self.attenuation_db_per_km}")
        return km


class SweepConfig(_record("SweepConfig", "t_min t_max steps")):
    """Transmission grid for region sweeps.

    The grid is ``steps`` evenly spaced T from t_min to t_max, both ends
    exact, or [t_min] for one step. Each end must lie in (0, 1], t_min
    checked first, in ``ChannelParams``' words, and is stored as a float;
    ``steps`` is an int >= 1, and two or more steps need t_min < t_max.
    More than ``MAX_GRID_POINTS`` steps raise MemoryError here, before
    any grid is allocated. ``t_values`` is a list of floats and loads no
    numpy; ``security_region`` solves it as one array, and ``verify-ur``
    walks it point by point.
    """

    def __new__(cls, t_min: float, t_max: float, steps: int):
        t_min = ChannelParams(t_min).transmission  # DomainError on NaN, inf or T outside (0, 1]
        t_max = ChannelParams(t_max).transmission
        steps = _integer(steps, "grid steps")
        if steps < 1:
            raise DomainError(f"grid needs at least 1 step, got {steps}")
        if steps > 1 and not t_min < t_max:
            raise DomainError(f"need t_min < t_max, got {t_min}, {t_max}")
        if steps > MAX_GRID_POINTS:  # refused before any grid is allocated
            raise MemoryError(f"{steps} grid points exceed the budget of {MAX_GRID_POINTS}")
        return tuple.__new__(cls, (t_min, t_max, steps))

    def t_values(self) -> list[float]:
        """The grid as floats, equal to ``np.linspace(t_min, t_max, steps).tolist()``.

        numpy's arithmetic in pure Python, so building the grid loads no
        numpy: point i is i * step + t_min, or i / (steps - 1) * span + t_min
        where step rounds to 0 (a denormal span), and the last point is
        t_max.
        """
        t_min, t_max = self.t_min, self.t_max
        ts = [t_min] * self.steps  # point 0 is 0 * step + t_min
        div = len(ts) - 1
        if div:
            span = t_max - t_min
            step = span / div
            if step == 0.0:
                for i in range(1, div):
                    ts[i] = i / div * span + t_min
            else:
                for i in range(1, div):
                    ts[i] = i * step + t_min
            ts[-1] = t_max
        return ts


def _cond_variances(
    protocol: ProtocolSpec, t: float | np.ndarray, xi: float | np.ndarray, u: float = 0.0
):
    """(V_{A|B}, V_{B|A}) of a protocol at u = 1/V, x and p alike.

    With w = 1 - T + T*xi the noise Bob's arm carries, the EPR-plus-channel
    Schur complements (Weedbrook et al., Rev. Mod. Phys. 84, 621, 2012) are

        V_{B|A} = w + T u,    V_{A|B} = (w + T u) / (T + w u).

    Where Bob heterodynes, V_{A|B1} takes w + 1 for w; a heterodyned half
    is the lift (x + 1)/2 of its full-mode x. Where Alice heterodynes,
    V_{B|A2} = 1 + T*xi and V_{B1|A1} = (2 + T*xi)/2 hold at every V.
    u = 0 skips the u terms, so the V -> inf limit the solvers test costs
    no more than the limits alone. Floats or numpy arrays (elementwise).
    """
    w = 1.0 - t + t * xi
    a_het, b_het = protocol._a_het, protocol._b_het
    w_b = w + 1.0 if b_het else w
    if u == 0.0:
        a_given_b, b_given_a = w_b / t, w
    else:
        a_given_b, b_given_a = (w_b + t * u) / (t + w_b * u), w + t * u
    if a_het:
        a_given_b = (a_given_b + 1.0) / 2.0
        b_given_a = (2.0 + t * xi) / 2.0 if b_het else 1.0 + t * xi
    elif b_het:
        b_given_a = (b_given_a + 1.0) / 2.0
    return a_given_b, b_given_a


def _secure_at_infinite_v(
    protocol: ProtocolSpec, t: float | np.ndarray, xi: float | np.ndarray
) -> bool | np.ndarray:
    """Elementwise ``key_rate_at(protocol, ChannelParams(t, xi)).key_rate >= 0.0``: e v <= 2.

    v is the variance the rate reads for both x and p, so its product is
    v v, or v (2v - 1) where the conditioner heterodynes. There v >= 1 and
    both tests read insecure. Otherwise sqrt(fl(v v)) = v in binary64
    round-to-nearest (S. Boldo, ENTCS 317, 2015); where v v overflows
    both read insecure, and where it underflows (v < 1.5e-154) both read
    secure, as ``key_rate`` gives the rate +inf or takes its logs apart.
    Extreme (t, xi) can overflow numpy's arithmetic here; the solvers
    never pass them, since ``_xi_max`` divides only rows at T > 1/4 and
    ``threshold_transmission`` tests only T* >= 0.26.
    """
    a_given_b, b_given_a = _cond_variances(protocol, t, xi)
    return math.e * (a_given_b if protocol._dr else b_given_a) <= 2.0


def key_rate_at(protocol: ProtocolSpec, ch: ChannelParams, v: float = math.inf) -> KeyRateResult:
    """Key-rate bound of a protocol on a channel at modulation v (default the v->inf limit).

    The public route to a protocol's four tagged conditional variances
    (``.variances``) and to both steering products (``.steering_ab``,
    ``.steering_ba``). Any v in [1, inf] is valid (DomainError for v < 1
    or NaN); the variances are within 1e-15 relative, and the rate within
    1e-14 bits, of a 60-digit reference on V in [1, 1e10]. On the
    identity channel at v = inf (w = u = 0) the four variances of a
    homodyne-homodyne protocol are 0, and ``key_rate`` gives them the
    rate +inf; that is the only infinite rate. A variance that overflows,
    or whose 2v - 1 lift does where its conditioner heterodynes (T near
    5e-324, or xi near 1e308), raises PrecisionError: the record could
    not report it, and the rate would read -inf.
    """
    v = _real(v, "modulation variance")
    if not v >= 1.0:
        raise DomainError(f"modulation variance must be >= 1, got {v}")
    t, xi = ch
    a_given_b, b_given_a = _cond_variances(protocol, t, xi, 1.0 / v)
    if (2.0 * a_given_b if protocol._b_het else a_given_b) == math.inf or (
        2.0 * b_given_a if protocol._a_het else b_given_a
    ) == math.inf:
        raise PrecisionError(
            f"conditional variances ({a_given_b}, {b_given_a}) of {protocol.id} overflow "
            f"at T = {t}, xi = {xi}"
        )
    return key_rate(protocol, _tagged(protocol, (b_given_a, b_given_a), (a_given_b, a_given_b)))


def _law(protocol: ProtocolSpec) -> tuple[float, int] | None:
    # (c, k) of the secure law w <= c T^k, or None where nothing is ever secure
    return _LAWS.get((protocol._dr, protocol._a_het, protocol._b_het))


def _nudged(secure, x: float, toward: float) -> float | None:
    # step x one ulp at a time towards the secure end until the float sign
    # test holds; None where it fails even at that end, or where x is NaN
    while not secure(x):
        if x == toward or x != x:
            return None
        x = math.nextafter(x, toward)
    return x


def threshold_transmission(protocol: ProtocolSpec, xi: float) -> float | None:
    """Lowest transmission with nonnegative key at excess noise xi (v -> inf).

    T* = 1/(1 + c - xi) for a DR law, (1 - c)/(1 - xi) for an RR law; None (a
    result, not an error) without a law or where that denominator is <= 0 or T* > 1.
    """
    xi = ChannelParams(1.0, xi).excess_noise  # DomainError on NaN, inf or xi < 0
    if (law := _law(protocol)) is None:
        return None
    c, k = law
    num, den = (1.0, 1.0 + c - xi) if k else (1.0 - c, 1.0 - xi)
    if not den > 0.0 or num / den > 1.0 + _LAW_MARGIN:
        return None
    return _nudged(lambda t: _secure_at_infinite_v(protocol, t, xi), min(num / den, 1.0), 1.0)


def _xi_max(protocol: ProtocolSpec, ts: list[float]) -> list[float | None]:
    # xi_max over a whole grid in one array pass: (c T^k - (1 - T))/T
    # elementwise, rows more than _LAW_MARGIN below 0 NaN (None), so only
    # T > 1/4 is divided and T = 5e-324 stays quiet; then every open row steps
    # one ulp towards 0 per pass until the float sign test holds
    if (law := _law(protocol)) is None:
        return [None] * len(ts)
    c, k = law
    t = np.array(ts)
    num = c * t**k - (1.0 - t)
    xi = np.divide(np.maximum(num, 0.0), t, out=np.full_like(t, np.nan), where=num >= -_LAW_MARGIN)
    ok = _secure_at_infinite_v(protocol, t, xi)
    while (open_ := ~ok & (xi > 0.0)).any():  # NaN rows are never open
        xi = np.where(open_, np.nextafter(xi, 0.0), xi)
        ok = _secure_at_infinite_v(protocol, t, xi)
    return [x if s else None for x, s in zip(xi.tolist(), ok.tolist())]


def max_excess_noise(protocol: ProtocolSpec, t: float) -> float | None:
    """Largest xi with nonnegative key at transmission t (v -> inf): (c T^k - (1 - T))/T, or None.

    A one-point grid of ``_xi_max``.
    """
    t = ChannelParams(t).transmission  # DomainError on NaN, inf or T outside (0, 1]
    return _xi_max(protocol, [t])[0]


def security_region(
    protocol: ProtocolSpec, config: SweepConfig
) -> list[tuple[float, float | None]]:
    """(T, max_excess_noise(T)) rows over the grid in ascending T, in one array pass.

    Only protocols with a secure law load numpy; the other eight read None rows.
    """
    ts = config.t_values()
    return list(zip(ts, _xi_max(protocol, ts)))


def max_distance(
    protocol: ProtocolSpec, xi: float, fibre: FibreModel = FibreModel()
) -> float | None:
    """Maximum fibre length in km with nonnegative key, or None if never secure."""
    t_star = threshold_transmission(protocol, xi)
    if t_star is None:
        return None
    return fibre.distance_km(t_star)
