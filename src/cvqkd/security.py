"""Channel-parameter analysis: thresholds, secure regions and distances.

The finite-modulation path assembles states through the covariance
toolbox (EPR source, channel on Bob's arm, beamsplitters where a party
heterodynes) and reads conditional variances off the result. The
infinite-modulation path uses the closed-form limits of those same
variances; all the figure-of-merit numbers quoted for these protocols
live in that limit, which is also the most favorable one.
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


def _infinite_v_variances(protocol: ProtocolSpec, ch: ChannelParams) -> ConditionalVariances:
    # Closed-form V -> infinity limits of the conditional variances, with
    # w = 1 - T + T*xi the asymptotic noise seen from Bob's side:
    #   full-mode:            V_{B|A} -> w,            V_{A|B} -> w/T
    #   Alice heterodynes:    V_{A1|B} -> (w/T + 1)/2, V_{B|A2} = 1 + T*xi (exact)
    #   Bob heterodynes:      V_{A|B1} -> (w + 1)/T,   V_{B1|A} -> (w + 1)/2
    #   both heterodyne:      V_{A1|B1} -> ((w+1)/T + 1)/2, V_{B1|A1} = (2 + T*xi)/2 (exact)
    t, xi = ch.transmission, ch.excess_noise
    w = 1.0 - t + t * xi
    a_het = protocol.alice_measurement is Measurement.HET
    b_het = protocol.bob_measurement is Measurement.HET
    if w == 0.0 and not (a_het or b_het):
        # lossless noiseless boundary: both full-mode variances vanish and
        # the bound diverges; key_rate_at reports the infinite rate instead
        raise DomainError(
            "conditional variances vanish in the V->inf limit on an identity channel"
        )
    if a_het and b_het:
        a_given_b = ((w + 1.0) / t + 1.0) / 2.0
        b_given_a = (2.0 + t * xi) / 2.0
    elif a_het:
        a_given_b = (w / t + 1.0) / 2.0
        b_given_a = 1.0 + t * xi
    elif b_het:
        a_given_b = (w + 1.0) / t
        b_given_a = (w + 1.0) / 2.0
    else:
        a_given_b = w / t
        b_given_a = w
    kind_ab, kind_ba = expected_kinds(protocol)
    return ConditionalVariances(
        v_x_b_given_a=b_given_a,
        v_p_b_given_a=b_given_a,
        v_x_a_given_b=a_given_b,
        v_p_a_given_b=a_given_b,
        kind_b_given_a=kind_ba,
        kind_a_given_b=kind_ab,
    )


def protocol_cond_variances(
    protocol: ProtocolSpec, ch: ChannelParams, v: float
) -> ConditionalVariances:
    """The four tagged conditional variances of a protocol at modulation v.

    Pass v = math.inf for the analytic large-modulation limits.
    """
    if math.isinf(v):
        return _infinite_v_variances(protocol, ch)
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
    if (
        math.isinf(v)
        and ch.is_identity
        and protocol.alice_measurement is Measurement.HOM
        and protocol.bob_measurement is Measurement.HOM
    ):
        # identity-channel limit of the homodyne-homodyne bound: V_{B|A} and
        # V_{A|B} both tend to zero and the rate grows without bound
        return KeyRateResult(
            protocol=protocol,
            key_rate=math.inf,
            steering_ab=0.0,
            steering_ba=0.0,
            positive=True,
            one_sided_di=classify_1sdi(protocol),
        )
    return key_rate(protocol, protocol_cond_variances(protocol, ch, v))


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


def _last_secure(
    k: Callable[[float], float], secure_end: float, far_end: float, tol: float
) -> float | None:
    """Bisect from secure_end towards far_end for the last point with k >= 0.

    Returns None when secure_end itself is insecure and far_end when the
    whole interval is secure; otherwise the secure bracket end once the
    bracket is narrower than tol.
    """
    if k(secure_end) < 0.0:
        return None
    if k(far_end) >= 0.0:
        return far_end
    while abs(far_end - secure_end) > tol:
        mid = (secure_end + far_end) / 2.0
        if k(mid) >= 0.0:
            secure_end = mid
        else:
            far_end = mid
    return secure_end


def threshold_transmission(
    protocol: ProtocolSpec, xi: float, tol: float = 1e-9
) -> float | None:
    """Lowest transmission with nonnegative key at excess noise xi (v -> inf).

    Bisection on T in [1e-6, 1] to the given tolerance; returns None
    when no transmission in (0, 1] is secure (a result, not an error).
    """
    rate = lambda t: key_rate_at(protocol, ChannelParams(t, xi)).key_rate
    return _last_secure(rate, 1.0, T_BISECT_FLOOR, tol)


def max_excess_noise(protocol: ProtocolSpec, t: float, tol: float = 1e-9) -> float | None:
    """Largest xi with nonnegative key at transmission t (v -> inf), or None."""
    rate = lambda xi: key_rate_at(protocol, ChannelParams(t, xi)).key_rate
    return _last_secure(rate, 0.0, XI_BISECT_CEILING, tol)


def security_region(
    protocol: ProtocolSpec, config: SweepConfig
) -> list[tuple[float, float | None]]:
    """(T, xi_max) rows over the grid in ascending T; xi_max is None where nothing is secure."""
    return [
        (t, max_excess_noise(protocol, t, config.tolerance)) for t in config.t_values().tolist()
    ]


def max_distance(
    protocol: ProtocolSpec, xi: float, fibre: FibreModel = FibreModel()
) -> float | None:
    """Maximum fibre length in km with nonnegative key, or None if never secure."""
    t_star = threshold_transmission(protocol, xi)
    if t_star is None:
        return None
    return fibre.distance_km(t_star)
