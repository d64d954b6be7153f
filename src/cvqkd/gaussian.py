"""The two-mode Gaussian states of the protocols, held as the three numbers that fix them.

Every state the package builds is an EPR state (two-mode squeezed
vacuum) of modulation V on Alice's arm, whose other arm, Bob's, went
through one phase-insensitive loss-and-noise channel (T, xi). The record
``CovarianceMatrix(modulation, transmission, excess_noise)`` holds those
three floats. Its covariance matrix has blocks a I, b I and diag(c, -c)
with, for w = 1 - T + T xi the noise Bob's arm carries,

    a = V,    b = T V + w,    c^2 = T (V^2 - 1),    ab - c^2 = V w + T,

and every quantity is computed from (V, T, xi) in forms that carry no
cancellation, so they hold at any V a float holds. Everything is scalar
``math`` code, so the module uses no numpy: building a state, its
spectrum and its entropies never load it.

Conventions (fixed throughout the package):

* shot-noise units with hbar = 2, i.e. x = a + a^dag, p = i(a^dag - a),
  so the vacuum has quadrature variance 1;
* quadrature ordering (x1, p1, x2, p2), so a I is mode 1's block,
  b I mode 2's and diag(c, -c) their correlation block;
* all logarithms base 2, entropies in bits.

States are zero-mean; first moments are never tracked because every
quantity computed downstream depends only on second moments.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import DomainError, PrecisionError, _integer, _real, _record

_LN2 = math.log(2.0)


class Quadrature(Enum):
    X = "x"
    P = "p"


class ModeQuadrature(_record("ModeQuadrature", "mode quadrature")):
    """A single quadrature of a single mode, e.g. (mode 1, P): an int and a ``Quadrature``.

    The mode must be 0 (Alice) or 1 (Bob), DomainError otherwise: it is
    checked here, once, and not again where a state reads it.
    """

    def __new__(cls, mode: int, quadrature: Quadrature):
        try:
            index = _integer(mode, "mode")
        except DomainError:
            index = None
        if index is None or not isinstance(quadrature, Quadrature):
            raise DomainError(f"need (int, Quadrature), got ({mode!r}, {quadrature!r})")
        if index not in (0, 1):
            raise DomainError(f"mode {index} out of range for a two-mode state")
        return tuple.__new__(cls, (index, quadrature))


class ChannelParams(_record("ChannelParams", "transmission excess_noise")):
    """Gaussian channel with transmission T and excess noise xi (SNU, input-referred), two floats.

    A pure state of unit variance acquires variance 1 + T*xi after the
    channel, on top of the loss-induced mixing with vacuum.
    """

    def __new__(cls, transmission: float, excess_noise: float = 0.0):
        transmission = _real(transmission, "transmission")
        excess_noise = _real(excess_noise, "excess noise")
        if not 0.0 < transmission <= 1.0:
            raise DomainError(f"transmission must lie in (0, 1], got {transmission}")
        if not 0.0 <= excess_noise < math.inf:
            raise DomainError(f"excess noise must be finite and >= 0, got {excess_noise}")
        return tuple.__new__(cls, (transmission, excess_noise))


class CovarianceMatrix(_record("CovarianceMatrix", "modulation transmission excess_noise")):
    """An EPR state of modulation V whose arm B went through the channel (T, xi): three floats.

    V must be a finite real >= 1 ("EPR variance", DomainError otherwise),
    and (T, xi) a channel as ``ChannelParams`` checks it. A state whose
    b, ab - c^2 or larger symplectic eigenvalue overflows raises
    PrecisionError.

    Validation stores the derived facts beside the fields, as attributes
    that are not fields: the blocks ``a``, ``b`` and ``c`` (see the module
    docstring), ``_det`` = ab - c^2 = V w + T, the spectrum ``_nus`` =
    (nu-, nu+), which ``symplectic_eigenvalues`` returns, and the joint
    entropy ``_s_ab`` = g(nu-) + g(nu+), which ``von_neumann_entropy``
    returns. Every route that copies a state validates it again, so none
    of them is ever carried over.
    """

    n_modes = 2  # a class constant, not a field; bench/spans.py and the tests read it

    def __new__(cls, modulation: float, transmission: float = 1.0, excess_noise: float = 0.0):
        v = _real(modulation, "EPR variance")
        if not 1.0 <= v < math.inf:
            raise DomainError(f"EPR variance must be finite and >= 1, got {v}")
        self = tuple.__new__(cls, (v, *ChannelParams(transmission, excess_noise)))
        self.__post_init__()
        return self

    def __post_init__(self):
        # the derived facts of the checked fields; bench/spans.py times and counts this method
        v, t, xi = self
        w = (1.0 - t) + t * xi
        det = v * w + t
        b = t * v + w
        # nu+ = (hypot(a - b, 2 sqrt(det)) + |a - b|) / 2 (Serafini, Illuminati and De Siena,
        # J. Phys. B 37, L21, 2004), with a - b = (V - 1)(1 - T) - T xi: that difference of
        # rounded a and b would cancel to an error of eps V where T is near 1
        half_gap = abs((v - 1.0) * (1.0 - t) - t * xi) / 2.0
        nu_plus = math.hypot(half_gap, math.sqrt(det)) + half_gap
        if not (b < math.inf and nu_plus < math.inf):  # nu+ is inf where det is
            raise PrecisionError(f"state (V, T, xi) = ({v}, {t}, {xi}) overflows: b = {b}, det = {det}")
        nu_minus = det / nu_plus
        c = math.sqrt(v - 1.0) * math.sqrt(v + 1.0) * math.sqrt(t)
        facts = {"a": v, "b": b, "c": c, "_det": det, "_nus": (nu_minus, nu_plus),
                 "_s_ab": entropy_g(nu_minus) + entropy_g(nu_plus)}
        for name, value in facts.items():
            object.__setattr__(self, name, value)  # the record is immutable

    def variance(self, mq: ModeQuadrature) -> float:
        return self.b if mq.mode else self.a


def vacuum(n_modes: int = 2) -> CovarianceMatrix:
    """Two uncorrelated vacuum modes: the state (V, T, xi) = (1, 1, 0).

    ``n_modes`` takes only its default, 2; it stays for callers that pass it.
    """
    if _integer(n_modes, "mode count") != 2:
        raise DomainError(f"need two modes, got {n_modes}")
    return CovarianceMatrix(1.0)


def tmsv(v: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with quadrature variance v = cosh(2s): the state (v, 1, 0).

    a = b = v and c = sqrt(v^2 - 1), two vacua at v = 1. Pure for every
    finite v >= 1, in every decade of v: ab - c^2 = V w + T = 1 holds
    exactly, so the spectrum is [1, 1] and the joint entropy 0, the
    oracle's values with no error. inf raises DomainError.
    """
    return CovarianceMatrix(v)


def apply_channel(cm: CovarianceMatrix, ch: ChannelParams, mode: int) -> CovarianceMatrix:
    """Send Bob's mode (mode 1) through a further Gaussian loss/noise channel.

    The channels compose: T' = T T_ch and xi' = xi + xi_ch / T, which
    maps b to T_ch b + (1 - T_ch) + T_ch xi_ch and c to sqrt(T_ch) c. A
    T' that underflows or a xi' that overflows raises PrecisionError.
    Mode 0 raises DomainError: no state of the family has a channel on
    Alice's arm.
    """
    mode = _integer(mode, "mode")
    if mode != 1:
        where = "on Alice's arm" if mode == 0 else "out of range for a two-mode state"
        raise DomainError(f"mode {mode} {where}: channels act on Bob's arm, mode 1")
    v, t, xi = cm
    t, xi = t * ch.transmission, xi + ch.excess_noise / t
    if not (t > 0.0 and xi < math.inf):
        raise PrecisionError(f"composed channel (T, xi) = ({t}, {xi}) overflows the float range")
    return CovarianceMatrix(v, t, xi)


def conditional_variance(
    cm: CovarianceMatrix, target: ModeQuadrature, given: ModeQuadrature
) -> float:
    """Optimal-linear-estimator conditional variance V_t - C^2 / V_g.

    Of a correlated pair (the same quadrature of both modes) that is
    (ab - c^2) / V_g, which carries no cancellation; any other pair is
    uncorrelated, and the target keeps its variance.
    """
    if target == given:
        raise DomainError("target and given quadratures must differ")
    if target.quadrature is given.quadrature:
        return cm._det / cm.variance(given)
    return cm.variance(target)


def symplectic_eigenvalues(cm: CovarianceMatrix) -> list[float]:
    """Symplectic spectrum [nu-, nu+], ascending, stored when the state is validated.

    nu+ = hypot(d/2, sqrt(det)) + |d|/2 with d = (V - 1)(1 - T) - T xi
    and det = V w + T, and nu- = det/nu+. Against a 60-digit spectrum of
    (V, T, xi) (``tests/oracle.py``) on 6,000 random states with V from 1
    to 1e12, T from 1e-4 to 1 and xi from 0 to 1, the largest relative
    error in the decades [1, 10), [10, 100), ..., [1e11, 1e12] was 1.4,
    1.9, 1.8, 1.7, 1.4, 1.8, 2.0, 1.7, 1.9, 1.6, 2.1 and 1.6 eps: it does
    not grow with V.
    """
    return list(cm._nus)


def entropy_g(nu: float) -> float:
    """Bosonic entropy kernel g(nu) in bits, vanishing at nu = 1; g(inf) = inf, NaN raises."""
    if nu.__class__ is not float:  # on this hot path only other types pay for the check
        nu = _real(nu, "symplectic eigenvalue")
    if not nu > 1.0:
        if math.isnan(nu):
            raise DomainError("symplectic eigenvalue is NaN")
        return 0.0
    if nu == math.inf:  # dn log1p(1/dn) below would be inf * 0
        return math.inf
    # up log2 up - dn log2 dn with up = dn + 1, without cancelling the two terms
    up, dn = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return math.log2(up) + dn * math.log1p(1.0 / dn) / _LN2


def von_neumann_entropy(cm: CovarianceMatrix) -> float:
    """von Neumann entropy in bits, g(nu-) + g(nu+) over the symplectic spectrum.

    The sum is taken once, when the state is validated, and stored with its
    spectrum (``CovarianceMatrix``); this returns the stored value. On the
    states of ``symplectic_eigenvalues``, the largest error per decade of
    V against the oracle ran from 5.3e-15 to 1.4e-14 bits.
    """
    return cm._s_ab
