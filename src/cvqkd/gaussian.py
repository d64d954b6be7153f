"""Second-moment algebra for the two-mode Gaussian states of the protocols.

Every state the package builds is an EPR state (two-mode squeezed
vacuum) sent through a phase-insensitive loss-and-noise channel: a
covariance matrix with blocks a I, b I and diag(c, -c). The record
``CovarianceMatrix(a, b, c)`` holds those three floats, and every
operation here is scalar ``math`` code on them, so the module uses no
numpy: building a state, its spectrum and its entropies never load it.

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
import numbers
from enum import Enum

from .errors import DomainError, PrecisionError, UnphysicalStateError, _record, _typed

# Tolerance of the bona fide check.
NU_TOLERANCE = 1e-9
# below this entry limit the largest product of the spectra, (a + b)^2 - 4c^2, is finite
_ENTRY_LIMIT = 2.0**510
_LN2 = math.log(2.0)


class Quadrature(Enum):
    X = "x"
    P = "p"


class ModeQuadrature(_record("ModeQuadrature", "mode quadrature")):
    """A single quadrature of a single mode, e.g. (mode 1, P).

    The mode must be 0 (Alice) or 1 (Bob), DomainError otherwise: it is
    checked here, once, and not again where a state reads it.
    """

    def __new__(cls, mode: int, quadrature: Quadrature):
        integer = isinstance(mode, (int, numbers.Integral)) and mode.__class__ is not bool
        if not (integer and isinstance(quadrature, Quadrature)):
            raise DomainError(f"need (int, Quadrature), got ({mode!r}, {quadrature!r})")
        if mode not in (0, 1):
            raise DomainError(f"mode {mode} out of range for a two-mode state")
        return tuple.__new__(cls, (mode, quadrature))


class ChannelParams(_record("ChannelParams", "transmission excess_noise")):
    """Gaussian channel with transmission T and excess noise xi (SNU, input-referred).

    A pure state of unit variance acquires variance 1 + T*xi after the
    channel, on top of the loss-induced mixing with vacuum.
    """

    def __new__(cls, transmission: float, excess_noise: float = 0.0):
        _typed(transmission, "transmission")
        _typed(excess_noise, "excess noise")
        if not 0.0 < transmission <= 1.0:
            raise DomainError(f"transmission must lie in (0, 1], got {transmission}")
        if not 0.0 <= excess_noise < math.inf:
            raise DomainError(f"excess noise must be finite and >= 0, got {excess_noise}")
        return tuple.__new__(cls, (transmission, excess_noise))


class CovarianceMatrix(_record("CovarianceMatrix", "a b c")):
    """A two-mode state of the family: blocks A = a I, B = b I and C = diag(c, -c).

    Every state the package builds has this form (Weedbrook et al., Rev.
    Mod. Phys. 84, 621, 2012), so the three entries are the whole state.
    Each must be a finite real number (DomainError otherwise) and is
    stored as a float. The state must be physical, every symplectic
    eigenvalue nu >= 1 - 1e-9 (UnphysicalStateError otherwise; see
    ``_gate``). An entry of magnitude 2^510 (about 3.4e153) or more, where
    the closed-form spectrum would overflow, raises PrecisionError. So
    does a quadrature block [[a, c], [c, b]] that is singular to rounding,
    since its spectrum cannot be resolved: where the closed form declines,
    the block's smallest eigenvalue below -tol raises UnphysicalStateError
    instead. So a and b of a validated state are positive, and
    conditioning on any quadrature divides by one of them safely.

    Validation stores two derived facts beside the fields: the gated
    spectrum ``_nus`` (nu-, nu+), which ``symplectic_eigenvalues`` returns,
    and the joint entropy ``_s_ab`` = g(nu-) + g(nu+), which
    ``von_neumann_entropy`` returns. Every route that copies a state
    validates it again, so neither fact is ever carried over.
    """

    n_modes = 2  # a class constant, not a field; bench/spans.py and the tests read it

    def __new__(cls, a: float, b: float, c: float):
        entries = (a, b, c)
        if not a.__class__ is b.__class__ is c.__class__ is float:  # only others pay for checks
            for name, value in zip(cls._fields, entries):
                _typed(value, f"covariance matrix entry {name}")
            entries = tuple(map(float, entries))
        self = tuple.__new__(cls, entries)
        self.__post_init__()
        return self

    def __post_init__(self):
        # the checks on the float entries; bench/spans.py times and counts this method
        a, b, c = self
        x, y, z = abs(a), abs(b), abs(c)
        peak = max(x, y, z) if x + y + z == x + y + z else math.nan  # max() can drop a NaN
        if not peak < math.inf:
            raise DomainError(f"covariance matrix entries must be finite, got max |m| = {peak}")
        if peak >= _ENTRY_LIMIT:
            raise PrecisionError(f"covariance matrix entry {peak} reaches 2^510: spectra overflow")
        scale = max(1.0, peak)
        nus = _closed_form_spectrum(a, b, c)
        if nus is None:  # the quadrature block [[a, c], [c, b]] is not positive definite to rounding
            low = (a + b) / 2.0 - math.hypot((a - b) / 2.0, c)
            if low < -NU_TOLERANCE * scale:
                raise UnphysicalStateError("covariance matrix is not positive definite")
            raise PrecisionError(f"covariance matrix eigenvalue {low} is below its rounding floor")
        # stored, since the UR slack and both DW ceilings read S(AB) again
        nu_minus, nu_plus = _gate(nus[0], scale), _gate(nus[1], scale)
        object.__setattr__(self, "_nus", (nu_minus, nu_plus))
        object.__setattr__(self, "_s_ab", entropy_g(nu_minus) + entropy_g(nu_plus))

    def variance(self, mq: ModeQuadrature) -> float:
        return self.b if mq.mode else self.a

    def covariance(self, a: ModeQuadrature, b: ModeQuadrature) -> float:
        if a.quadrature is not b.quadrature:
            return 0.0
        if a.mode == b.mode:
            return self.b if a.mode else self.a
        return self.c if a.quadrature is Quadrature.X else -self.c


def vacuum(n_modes: int = 2) -> CovarianceMatrix:
    """Two uncorrelated vacuum modes: a = b = 1, c = 0.

    ``n_modes`` takes only its default, 2; it stays for callers that pass it.
    """
    _typed(n_modes, "mode count", "an integer")
    if n_modes != 2:
        raise DomainError(f"need two modes, got {n_modes}")
    return CovarianceMatrix(1.0, 1.0, 0.0)


def tmsv(v: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with quadrature variance v = cosh(2s).

    a = b = v and c = sqrt(v^2 - 1); pure for every v >= 1, reducing to
    two vacua at v = 1. The stored c carries an absolute error of about
    eps * v, which from about v = 8.5e6 can exceed the purity gate. A v
    whose stored entries do not validate to the spectrum [1, 1] exactly
    raises PrecisionError, as does every v beyond about 9.49e7 (inf
    included), where v^2 - 1 rounds to v^2 and c to v.
    """
    _typed(v, "EPR variance")
    if not v >= 1.0:
        raise DomainError(f"EPR variance must be >= 1, got {v}")
    if v * v - 1.0 == v * v:
        raise PrecisionError(f"EPR variance {v} too large: v^2 - 1 rounds to v^2")
    try:
        cm = CovarianceMatrix(v, v, math.sqrt(v * v - 1.0))
        if cm._nus == (1.0, 1.0):
            return cm
    except (UnphysicalStateError, PrecisionError):
        pass
    raise PrecisionError(f"EPR variance {v} too large: the stored state is not pure")


def apply_channel(cm: CovarianceMatrix, ch: ChannelParams, mode: int) -> CovarianceMatrix:
    """Send one mode through a Gaussian loss/noise channel.

    The target mode's variance maps to T*V + (1 - T) + T*xi and c to
    sqrt(T)*c; the other mode's variance is untouched.
    """
    _typed(mode, "mode", "an integer")
    if mode not in (0, 1):
        raise DomainError(f"mode {mode} out of range for a two-mode state")
    t = ch.transmission
    # float(): with a numpy-scalar T or xi, T*V + w would otherwise round in that precision
    w = float((1.0 - t) + t * ch.excess_noise)
    c = cm.c * math.sqrt(t)
    if mode:
        return CovarianceMatrix(cm.a, float(t) * cm.b + w, c)
    return CovarianceMatrix(float(t) * cm.a + w, cm.b, c)


def conditional_variance(
    cm: CovarianceMatrix, target: ModeQuadrature, given: ModeQuadrature
) -> float:
    """Optimal-linear-estimator conditional variance V_t - C^2 / V_g."""
    if target == given:
        raise DomainError("target and given quadratures must differ")
    v_g = cm.variance(given)
    c = cm.covariance(target, given)
    return cm.variance(target) - c * c / v_g


def symplectic_eigenvalues(cm: CovarianceMatrix) -> list[float]:
    """Symplectic spectrum: |eig(i Omega Sigma)|, one value per mode, ascending.

    Computed once, in closed form, when the covariance matrix is validated
    (see ``_closed_form_spectrum`` and ``_gate``). Measured against a 50-digit spectrum of
    the same stored entries on channel states with V in [1, 1e7], the
    largest relative error in the decade 10^d <= V < 10^(d+1) (V = 1e7
    joins d = 6) runs from 4e-16 at d = 0 to 6.7e-10 at d = 6 and stays
    below eps * 10^(d+1) / 2: it grows like eps * V.
    """
    return list(cm._nus)


def _gate(nu: float, scale: float) -> float:
    """The one physicality gate: nu below 1 - tol raises, nu below 1 + tol snaps to 1.

    Two-mode squeezed vacuum is analytically pure but numerically
    nu = 1 +- eps, and anything further below 1 is unphysical
    (UnphysicalStateError). The tolerance tol = 1e-9 * scale grows with
    ``scale``, the largest entry or 1: stored entries of size s cannot
    represent purity more finely than s * machine epsilon, so a fixed
    gate would spuriously reject pure states beyond V ~ 1e4. This keeps
    ``tmsv(V)`` at [1, 1] up to V = 1e7.
    """
    tol = NU_TOLERANCE * scale
    if nu < 1.0 - tol:
        raise UnphysicalStateError(f"symplectic eigenvalue {nu} < 1 (unphysical state)")
    return 1.0 if nu < 1.0 + tol else nu


def _closed_form_spectrum(a: float, b: float, c: float) -> tuple[float, float] | None:
    """Unsnapped closed-form spectrum of the blocks a I, b I, diag(c, -c), ascending, or None.

    With c taken as |c| and lo = (a - c) + (b - c), for a, b, lo and
    ab - c^2 positive (Serafini, Illuminati and De Siena, J. Phys. B 37,
    L21, 2004):

        nu+ = (sqrt(lo (a + b + 2c)) + |a - b|) / 2,
        nu- = (a (b - c) + c (a - c)) / nu+.

    Unlike (Delta +- sqrt(Delta^2 - 4 det Sigma)) / 2 this never takes a
    root of a cancelling difference, so degenerate pairs (a = b, as in
    the two-mode squeezed vacuum) lose no digits to the root. The sum in
    nu- still cancels where b < c, by a factor of about V on channel
    states. None where the conditions fail.
    """
    c = abs(c)
    lo = (a - c) + (b - c)
    num = a * (b - c) + c * (a - c)  # ab - c^2 without cancelling products
    if not (a > 0.0 and b > 0.0 and lo > 0.0 and num > 0.0):
        return None
    hi = (math.sqrt(lo * (a + b + 2.0 * c)) + abs(a - b)) / 2.0
    return (num / hi, hi)


def _one_mode_entropy(x: float, p: float) -> float:
    """Entropy in bits of the one-mode state diag(x, p): g(sqrt(xp)) through ``_gate``.

    The gate's scale is max(1, |x|, |p|), as ``CovarianceMatrix`` takes
    its own. PrecisionError where the closed form declines: a NaN
    or non-finite entry, an entry of 2^510 or more (``CovarianceMatrix``'s
    limit, past which xp overflows), x <= 0 or xp <= 0. A block of a
    validated state declines only through rounding.
    """
    scale = max(1.0, abs(x), abs(p))  # a NaN entry fails the tests below
    det = x * p
    if not (scale < _ENTRY_LIMIT and x > 0.0 and det > 0.0):
        raise PrecisionError(f"one-mode block [[{x}, 0.0], [0.0, {p}]] is not positive definite")
    return entropy_g(_gate(math.sqrt(det), scale))


def entropy_g(nu: float) -> float:
    """Bosonic entropy kernel g(nu) in bits, vanishing at nu = 1; g(inf) = inf, NaN raises."""
    try:  # on this hot path only a failed comparison pays for the type check
        low = not nu > 1.0
    except TypeError:
        _typed(nu, "symplectic eigenvalue")
        raise
    if low:
        if nu.__class__ is not float:  # a bool compares as 0 or 1, but is no eigenvalue
            _typed(nu, "symplectic eigenvalue")
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
    spectrum (``CovarianceMatrix``); this returns the stored value.
    """
    return cm._s_ab
