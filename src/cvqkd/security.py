"""Channel-parameter analysis: key rates, thresholds, secure regions and distances.

Every protocol's conditional variances come from one closed form in
u = 1/V (``_cond_variances``), so no covariance matrix is built at any
modulation. u = 0 is the V -> inf limit, the most favorable one, where
all the figure-of-merit numbers quoted for these protocols live.

The solvers (thresholds, xi_max, regions, distances) work in that limit
without building a ``KeyRateResult``: ``_secure_at_infinite_v`` tests
fl(e sqrt P) <= 2 on the rate's variance product P, which is exactly the
floating-point sign test ``key_rate_at(...).key_rate >= 0``, and
``_last_secure`` bisects a whole array of brackets (one per grid T of a
region) in one pass, each bracket bit-identical to a bisection of its own.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .bounds import (
    ConditionalVariances,
    KeyRateResult,
    Measurement,
    ProtocolSpec,
    _rate_pair,
    classify_1sdi,
    expected_kinds,
    key_rate,
)
from .errors import DomainError
from .gaussian import ChannelParams

T_BISECT_FLOOR = 1e-6
XI_BISECT_CEILING = 10.0  # xi_max <= 2/e for every protocol, so 10 safely brackets
SOLVER_TOL = 1e-9  # every threshold, xi_max and region bisects to this bracket width


@dataclass(frozen=True)
class FibreModel:
    """Standard fibre: T = 10^(-attenuation * d / 10), default 0.2 dB/km."""

    attenuation_db_per_km: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.attenuation_db_per_km < math.inf:
            raise DomainError(
                f"attenuation must be finite and positive, got {self.attenuation_db_per_km}"
            )

    def distance_km(self, transmission: float) -> float:
        return -10.0 * math.log10(transmission) / self.attenuation_db_per_km


@dataclass(frozen=True)
class SweepConfig:
    """Transmission grid for region sweeps.

    The grid is ``steps`` evenly spaced T from t_min to t_max, both ends
    exact, or [t_min] for one step. Each end must lie in (0, 1], t_min
    checked first, in ``ChannelParams``' words; two or more steps need
    t_min < t_max.
    """

    t_min: float
    t_max: float
    steps: int

    def __post_init__(self):
        ChannelParams(self.t_min)  # DomainError on NaN, inf or T outside (0, 1]
        ChannelParams(self.t_max)
        if self.steps < 1:
            raise DomainError(f"grid needs at least 1 step, got {self.steps}")
        if self.steps > 1 and not self.t_min < self.t_max:
            raise DomainError(f"need t_min < t_max, got {self.t_min}, {self.t_max}")

    def t_values(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.steps)


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
    a_het = protocol.alice_measurement is Measurement.HET
    b_het = protocol.bob_measurement is Measurement.HET
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


def _tagged_variances(
    protocol: ProtocolSpec, ch: ChannelParams, v: float
) -> ConditionalVariances | None:
    """The tagged conditional variances at modulation v, or None where they vanish.

    Only homodyne-homodyne protocols on the identity channel at V = inf
    (w = u = 0) get None: both full-mode variances are zero there and the
    bound diverges.
    """
    if not v >= 1.0:
        raise DomainError(f"modulation variance must be >= 1, got {v}")
    a_given_b, b_given_a = _cond_variances(protocol, ch.transmission, ch.excess_noise, 1.0 / v)
    if b_given_a == 0.0:  # V_{B|A} = w + T u for hom-hom; every heterodyne one is >= 1/2
        return None
    kind_ab, kind_ba = expected_kinds(protocol)
    return ConditionalVariances(
        v_x_b_given_a=b_given_a,
        v_p_b_given_a=b_given_a,
        v_x_a_given_b=a_given_b,
        v_p_a_given_b=a_given_b,
        kind_b_given_a=kind_ba,
        kind_a_given_b=kind_ab,
    )


def _secure_at_infinite_v(
    protocol: ProtocolSpec, t: float | np.ndarray, xi: float | np.ndarray
) -> bool | np.ndarray:
    """Elementwise ``key_rate_at(protocol, ChannelParams(t, xi)).key_rate >= 0.0``.

    With P the product of the rate's variance pair, the rate
    log2(2/(e sqrt P)) is >= 0 exactly when fl(e sqrt P) <= 2, since
    rounding is monotone and log2 keeps its sign around 1. The test also
    holds where ``key_rate`` leaves that formula: P = 0 (identity channel
    or underflow, rate +inf or large) is secure and P = inf (overflow,
    rate negative) is not. Overflow warnings are the caller's to silence.
    """
    a_given_b, b_given_a = _cond_variances(protocol, t, xi)
    v_x, v_p = _rate_pair(protocol, (b_given_a, b_given_a), (a_given_b, a_given_b))
    return math.e * np.sqrt(v_x * v_p) <= 2.0


def protocol_cond_variances(
    protocol: ProtocolSpec, ch: ChannelParams, v: float
) -> ConditionalVariances:
    """The four tagged conditional variances of a protocol at modulation v.

    Valid for v in [1, inf], v = math.inf giving the large-modulation
    limits; within 1e-15 relative of a 60-digit reference on V in
    [1, 1e10]. DomainError for v < 1 or NaN, and where the variances
    vanish (homodyne-homodyne on the identity channel at v = inf).
    """
    cv = _tagged_variances(protocol, ch, v)
    if cv is None:
        raise DomainError(
            "conditional variances vanish in the V->inf limit on an identity channel"
        )
    return cv


def key_rate_at(protocol: ProtocolSpec, ch: ChannelParams, v: float = math.inf) -> KeyRateResult:
    """Key-rate bound of a protocol on a channel at modulation v (default the v->inf limit).

    Any v in [1, inf] is valid (DomainError for v < 1 or NaN); the
    variances are those of ``protocol_cond_variances``, and the rate is
    within 1e-14 bits of a 60-digit reference on V in [1, 1e10].
    """
    cv = _tagged_variances(protocol, ch, v)
    if cv is None:
        # the variances vanish and the rate grows without bound
        return KeyRateResult(
            protocol=protocol,
            key_rate=math.inf,
            steering_ab=0.0,
            steering_ba=0.0,
            positive=True,
            one_sided_di=classify_1sdi(protocol),
            variances=None,
        )
    return key_rate(protocol, cv)


def optimize_modulation(
    protocol: ProtocolSpec, ch: ChannelParams, v_max: float
) -> tuple[float, float]:
    """Maximise the key rate over modulation variance v in [1, v_max].

    The rate is monotone in v for every protocol: with u = 1/v, dV_{A|B}/du
    has the sign of T^2 - w^2, V_{B|A} = w + T u falls as v grows, and the
    (x + 1)/2 and 2x - 1 lifts keep the order. So the better of v = 1 and
    v = v_max is the maximum; a tie goes to v = 1, and v_max = inf means
    the large-modulation limit. Returns (v_star, k_star); k_star may be
    negative.
    """
    if v_max < 1.0:
        raise DomainError(f"v_max must be >= 1, got {v_max}")
    candidates = [(v, key_rate_at(protocol, ch, v).key_rate) for v in (1.0, v_max)]
    return max(candidates, key=lambda pair: pair[1])


def _pick(cond, a, b):
    # np.where for a single bracket held in Python floats
    return a if cond else b


def _last_secure(
    secure: Callable[[float | np.ndarray], bool | np.ndarray],
    secure_end: float,
    far_end: float,
    tol: float,
) -> float | None | list[float | None]:
    """Bisect from secure_end towards far_end for the last point where ``secure`` holds.

    ``secure`` may broadcast over a fixed array parameter; then every
    element is its own bracket, all bisected in one array pass, and the
    result is a list. Per bracket the result is None when secure_end
    itself is insecure, far_end when far_end is secure, and otherwise
    the secure end once |far - secure| <= tol. Each bracket halves at
    (lo + hi)/2.0 and stops on its own, so every result is bit-identical
    to bisecting that bracket alone. A lone bracket stays in Python
    floats, where an operation costs a tenth of a 1-element array one.
    The whole solve runs under one ``np.errstate``: variances overflow to
    inf (insecure) at T near 5e-324 or xi near 1e300.
    """
    with np.errstate(over="ignore"):
        found = secure(secure_end)
        batched = np.ndim(found) > 0
        select, any_open = (np.where, np.count_nonzero) if batched else (_pick, bool)
        lo = select(secure(far_end), far_end, secure_end)
        hi = select(found, far_end, lo)  # an insecure secure_end closes its bracket
        while True:
            open_ = abs(hi - lo) > tol
            if not any_open(open_):
                break
            # a closed bracket tests its own lo and stays put
            mid = select(open_, (lo + hi) / 2.0, lo)
            ok = secure(mid)
            lo, hi = select(ok, mid, lo), select(ok, hi, mid)
    if batched:
        return [x if f else None for x, f in zip(lo.tolist(), found.tolist())]
    return lo if found else None


def threshold_transmission(protocol: ProtocolSpec, xi: float) -> float | None:
    """Lowest transmission with nonnegative key at excess noise xi (v -> inf).

    Bisection on T in [1e-6, 1] to ``SOLVER_TOL``; returns None when no
    transmission in (0, 1] is secure (a result, not an error).
    """
    xi = ChannelParams(1.0, xi).excess_noise  # DomainError on NaN, inf or xi < 0
    return _last_secure(
        lambda t: _secure_at_infinite_v(protocol, t, xi), 1.0, T_BISECT_FLOOR, SOLVER_TOL
    )


def _xi_max(protocol: ProtocolSpec, t: float | np.ndarray) -> float | None | list[float | None]:
    # largest secure xi at T = t in (0, 1]; an array t gives one bracket per element
    return _last_secure(
        lambda xi: _secure_at_infinite_v(protocol, t, xi), 0.0, XI_BISECT_CEILING, SOLVER_TOL
    )


def max_excess_noise(protocol: ProtocolSpec, t: float) -> float | None:
    """Largest xi with nonnegative key at transmission t (v -> inf), or None."""
    t = ChannelParams(t).transmission  # DomainError on NaN, inf or T outside (0, 1]
    return _xi_max(protocol, t)


def security_region(
    protocol: ProtocolSpec, config: SweepConfig
) -> list[tuple[float, float | None]]:
    """(T, xi_max) rows over the grid in ascending T; xi_max is None where nothing is secure.

    The whole grid is one batched bisection, one bracket per T.
    """
    ts = config.t_values()
    return list(zip(ts.tolist(), _xi_max(protocol, ts)))


def max_distance(
    protocol: ProtocolSpec, xi: float, fibre: FibreModel = FibreModel()
) -> float | None:
    """Maximum fibre length in km with nonnegative key, or None if never secure."""
    t_star = threshold_transmission(protocol, xi)
    if t_star is None:
        return None
    return fibre.distance_km(t_star)
