"""Channel-parameter analysis: thresholds, secure regions and distances.

The finite-modulation path assembles states through the covariance
toolbox (EPR source, channel on Bob's arm, beamsplitters where a party
heterodynes) and reads conditional variances off the result. The
infinite-modulation path uses the closed-form limits of those same
variances; all the figure-of-merit numbers quoted for these protocols
live in that limit, which is also the most favorable one.

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
from .gaussian import (
    ChannelParams,
    CovarianceMatrix,
    ModeQuadrature,
    Quadrature,
    apply_channel,
    conditional_variance,
    split_with_vacuum,
    tmsv,
)

T_BISECT_FLOOR = 1e-6
XI_BISECT_CEILING = 10.0  # xi_max <= 2/e for every protocol, so 10 safely brackets


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
    """Transmission grid plus solver settings for region sweeps."""

    t_min: float
    t_max: float
    steps: int
    tolerance: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.t_min < self.t_max <= 1.0:
            raise DomainError(f"need 0 < t_min < t_max <= 1, got {self.t_min}, {self.t_max}")
        if self.steps < 2:
            raise DomainError("grid needs at least 2 steps")
        if not 0.0 < self.tolerance < math.inf:
            raise DomainError(f"tolerance must be finite and positive, got {self.tolerance}")

    def t_values(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.steps)


@dataclass(frozen=True)
class ProtocolState:
    """Post-channel, post-split covariance matrix with the measured-mode map."""

    cm: CovarianceMatrix
    alice_x_mode: int  # mode carrying Alice's x data (A or A1)
    alice_p_mode: int  # mode carrying Alice's p data (A or A2)
    bob_x_mode: int
    bob_p_mode: int


def build_protocol_state(protocol: ProtocolSpec, ch: ChannelParams, v: float) -> ProtocolState:
    """EPR state of variance v through the channel, split where a party heterodynes."""
    if math.isinf(v):
        raise DomainError("state construction needs a finite modulation variance")
    if not v >= 1.0:
        raise DomainError(f"modulation variance must be >= 1, got {v}")
    cm = apply_channel(tmsv(v), ch, mode=1)
    a_x = a_p = 0
    b_x = b_p = 1
    if protocol.alice_measurement is Measurement.HET:
        cm = split_with_vacuum(cm, 0)  # modes: A1, B, A2
        a_p = 2
    if protocol.bob_measurement is Measurement.HET:
        b2 = cm.n_modes  # appended slot
        cm = split_with_vacuum(cm, 1)
        b_p = b2
    return ProtocolState(cm, a_x, a_p, b_x, b_p)


def _infinite_v_limits(protocol: ProtocolSpec, t: float | np.ndarray, xi: float | np.ndarray):
    # Closed-form V -> infinity limits (V_{A|B}, V_{B|A}) of the conditional
    # variances, x and p alike, with w = 1 - T + T*xi the asymptotic noise
    # seen from Bob's side; floats or numpy arrays (elementwise):
    #   full-mode:            V_{B|A} -> w,            V_{A|B} -> w/T
    #   Alice heterodynes:    V_{A1|B} -> (w/T + 1)/2, V_{B|A2} = 1 + T*xi (exact)
    #   Bob heterodynes:      V_{A|B1} -> (w + 1)/T,   V_{B1|A} -> (w + 1)/2
    #   both heterodyne:      V_{A1|B1} -> ((w+1)/T + 1)/2, V_{B1|A1} = (2 + T*xi)/2 (exact)
    w = 1.0 - t + t * xi
    a_het = protocol.alice_measurement is Measurement.HET
    b_het = protocol.bob_measurement is Measurement.HET
    if a_het and b_het:
        return ((w + 1.0) / t + 1.0) / 2.0, (2.0 + t * xi) / 2.0
    if a_het:
        return (w / t + 1.0) / 2.0, 1.0 + t * xi
    if b_het:
        return (w + 1.0) / t, (w + 1.0) / 2.0
    return w / t, w


def _infinite_v_variances(protocol: ProtocolSpec, ch: ChannelParams) -> ConditionalVariances | None:
    """The V -> inf conditional variances, or None where they vanish.

    Only homodyne-homodyne protocols on the identity channel (w = 0) get
    None: both full-mode variances are zero there and the bound diverges.
    """
    a_given_b, b_given_a = _infinite_v_limits(protocol, ch.transmission, ch.excess_noise)
    if b_given_a == 0.0:  # V_{B|A} = w for hom-hom; every heterodyne limit is >= 1/2
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
    a_given_b, b_given_a = _infinite_v_limits(protocol, t, xi)
    v_x, v_p = _rate_pair(protocol, (b_given_a, b_given_a), (a_given_b, a_given_b))
    return math.e * np.sqrt(v_x * v_p) <= 2.0


def protocol_cond_variances(
    protocol: ProtocolSpec, ch: ChannelParams, v: float
) -> ConditionalVariances:
    """The four tagged conditional variances of a protocol at modulation v.

    Pass v = math.inf for the analytic large-modulation limits.
    """
    if math.isinf(v):
        cv = _infinite_v_variances(protocol, ch)
        if cv is None:
            raise DomainError(
                "conditional variances vanish in the V->inf limit on an identity channel"
            )
        return cv
    st = build_protocol_state(protocol, ch, v)

    def cv(t_mode: int, g_mode: int, quad: Quadrature) -> float:
        return conditional_variance(
            st.cm, ModeQuadrature(t_mode, quad), ModeQuadrature(g_mode, quad)
        )

    kind_ab, kind_ba = expected_kinds(protocol)
    return ConditionalVariances(
        v_x_b_given_a=cv(st.bob_x_mode, st.alice_x_mode, Quadrature.X),
        v_p_b_given_a=cv(st.bob_p_mode, st.alice_p_mode, Quadrature.P),
        v_x_a_given_b=cv(st.alice_x_mode, st.bob_x_mode, Quadrature.X),
        v_p_a_given_b=cv(st.alice_p_mode, st.bob_p_mode, Quadrature.P),
        kind_b_given_a=kind_ba,
        kind_a_given_b=kind_ab,
    )


def key_rate_at(protocol: ProtocolSpec, ch: ChannelParams, v: float = math.inf) -> KeyRateResult:
    """Key-rate bound of a protocol on a channel at modulation v (or the v->inf limit)."""
    if not math.isinf(v):
        return key_rate(protocol, protocol_cond_variances(protocol, ch, v))
    cv = _infinite_v_variances(protocol, ch)
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


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def optimize_modulation(
    protocol: ProtocolSpec, ch: ChannelParams, v_max: float, xtol: float = 1e-6
) -> tuple[float, float]:
    """Maximise the key rate over modulation variance v in [1, v_max].

    Golden-section search to xtol in v, then an endpoint comparison so
    monotone rates (the common case, supremum at the boundary) are
    resolved exactly. Returns (v_star, k_star); k_star may be negative.
    """
    if v_max < 1.0:
        raise DomainError(f"v_max must be >= 1, got {v_max}")

    def k(v: float) -> float:
        return key_rate_at(protocol, ch, v).key_rate

    lo, hi = 1.0, v_max
    v1 = hi - _INV_GOLDEN * (hi - lo)
    v2 = lo + _INV_GOLDEN * (hi - lo)
    k1, k2 = k(v1), k(v2)
    while hi - lo > xtol:
        if k1 < k2:
            lo, v1, k1 = v1, v2, k2
            v2 = lo + _INV_GOLDEN * (hi - lo)
            k2 = k(v2)
        else:
            hi, v2, k2 = v2, v1, k1
            v1 = hi - _INV_GOLDEN * (hi - lo)
            k1 = k(v1)
    candidates = [(1.0, k(1.0)), ((lo + hi) / 2.0, k((lo + hi) / 2.0)), (v_max, k(v_max))]
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


def threshold_transmission(
    protocol: ProtocolSpec, xi: float, tol: float = 1e-9
) -> float | None:
    """Lowest transmission with nonnegative key at excess noise xi (v -> inf).

    Bisection on T in [1e-6, 1] to the given tolerance; returns None
    when no transmission in (0, 1] is secure (a result, not an error).
    """
    xi = ChannelParams(1.0, xi).excess_noise  # DomainError on NaN, inf or xi < 0
    return _last_secure(
        lambda t: _secure_at_infinite_v(protocol, t, xi), 1.0, T_BISECT_FLOOR, tol
    )


def _xi_max(
    protocol: ProtocolSpec, t: float | np.ndarray, tol: float = 1e-9
) -> float | None | list[float | None]:
    # largest secure xi at T = t in (0, 1]; an array t gives one bracket per element
    return _last_secure(
        lambda xi: _secure_at_infinite_v(protocol, t, xi), 0.0, XI_BISECT_CEILING, tol
    )


def max_excess_noise(protocol: ProtocolSpec, t: float, tol: float = 1e-9) -> float | None:
    """Largest xi with nonnegative key at transmission t (v -> inf), or None."""
    t = ChannelParams(t).transmission  # DomainError on NaN, inf or T outside (0, 1]
    return _xi_max(protocol, t, tol)


def security_region(
    protocol: ProtocolSpec, config: SweepConfig
) -> list[tuple[float, float | None]]:
    """(T, xi_max) rows over the grid in ascending T; xi_max is None where nothing is secure.

    The whole grid is one batched bisection, one bracket per T.
    """
    ts = config.t_values()
    return list(zip(ts.tolist(), _xi_max(protocol, ts, config.tolerance)))


def max_distance(
    protocol: ProtocolSpec, xi: float, fibre: FibreModel = FibreModel()
) -> float | None:
    """Maximum fibre length in km with nonnegative key, or None if never secure."""
    t_star = threshold_transmission(protocol, xi)
    if t_star is None:
        return None
    return fibre.distance_km(t_star)
