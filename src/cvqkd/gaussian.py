"""Covariance-matrix algebra for the one- and two-mode Gaussian states of the protocols.

Every state the package builds is an EPR state (two-mode squeezed
vacuum) sent through a phase-insensitive loss-and-noise channel, or one
mode of it: a 4 x 4 matrix with blocks a I, b I and diag(c, -c), or a
2 x 2 matrix. Both have a closed-form symplectic spectrum.

Conventions (fixed throughout the package):

* shot-noise units with hbar = 2, i.e. x = a + a^dag, p = i(a^dag - a),
  so the vacuum has quadrature variance 1;
* quadrature ordering (x1, p1, x2, p2), making every single-mode
  operation a 2x2 block update;
* all logarithms base 2, entropies in bits.

States are zero-mean; first moments are never tracked because every
quantity computed downstream depends only on second moments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

from .errors import DomainError, PrecisionError, UnphysicalStateError, _Deferred, _typed

np = _Deferred("numpy")

# Tolerances for the bona fide checks.
SYMMETRY_RTOL = 1e-12
NU_TOLERANCE = 1e-9
# below this entry limit the largest product of the spectra, (a + b)^2 - 4c^2, is finite
_ENTRY_LIMIT = 2.0**510


class Quadrature(Enum):
    X = "x"
    P = "p"


@dataclass(frozen=True)
class ModeQuadrature:
    """A single quadrature of a single mode, e.g. (mode 1, P)."""

    mode: int
    quadrature: Quadrature

    def __post_init__(self):  # a mode's range depends on the state and is checked where read
        integer = isinstance(self.mode, (int, numbers.Integral)) and self.mode.__class__ is not bool
        if not (integer and isinstance(self.quadrature, Quadrature)):
            raise DomainError(f"need (int, Quadrature), got ({self.mode!r}, {self.quadrature!r})")

    def index(self) -> int:
        """Row/column index in the (x1, p1, x2, p2, ...) ordering."""
        return 2 * self.mode + (0 if self.quadrature is Quadrature.X else 1)


@dataclass(frozen=True)
class ChannelParams:
    """Gaussian channel with transmission T and excess noise xi (SNU, input-referred).

    A pure state of unit variance acquires variance 1 + T*xi after the
    channel, on top of the loss-induced mixing with vacuum.
    """

    transmission: float
    excess_noise: float = 0.0

    def __post_init__(self):
        _typed(self.transmission, "transmission")
        _typed(self.excess_noise, "excess noise")
        if not 0.0 < self.transmission <= 1.0:
            raise DomainError(f"transmission must lie in (0, 1], got {self.transmission}")
        if not 0.0 <= self.excess_noise < math.inf:
            raise DomainError(f"excess noise must be finite and >= 0, got {self.excess_noise}")


@dataclass(frozen=True)
class CovarianceMatrix:
    """Second-moment matrix of a one-mode state, or of a two-mode state in block form.

    Two modes take the form A = a I, B = b I, C = diag(c, -c) that ``tmsv``
    and ``apply_channel`` build; any other shape or form raises DomainError.
    The matrix must be symmetric (to 1e-12 relative tolerance), positive
    definite and physical, i.e. every symplectic eigenvalue nu >= 1 - 1e-9.
    An entry of magnitude 2^510 (about 3.4e153) or more, where the closed-form
    spectrum would overflow, raises PrecisionError, and so does a matrix whose
    smallest eigenvalue is rounding noise, since its spectrum cannot be resolved.
    So every quadrature variance of a validated matrix is positive, and
    conditioning on any quadrature divides by it safely.
    """

    matrix: np.ndarray
    n_modes: int = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape not in ((2, 2), (4, 4)):
            raise DomainError(f"covariance matrix must be 2 x 2 or 4 x 4, got shape {m.shape}")
        peak = float(np.abs(m).max())  # NaN if any entry is
        if not peak < math.inf:
            raise DomainError(f"covariance matrix entries must be finite, got max |m| = {peak}")
        if peak >= _ENTRY_LIMIT:
            raise PrecisionError(f"covariance matrix entry {peak} reaches 2^510: spectra overflow")
        scale = max(1.0, peak)
        if np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
            raise DomainError("covariance matrix is not symmetric")
        m = (m + m.T) / 2.0
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "n_modes", m.shape[0] // 2)
        # raises UnphysicalStateError when some nu < 1 - tolerance; the
        # spectrum is cached since entropy calls need it again
        object.__setattr__(self, "_nus", _symplectic_spectrum(m, scale))

    def variance(self, mq: ModeQuadrature) -> float:
        # compared inline: a _check_mode call on this hot path slows finite-V sweeps
        if not 0 <= mq.mode < self.n_modes:
            raise DomainError(f"mode {mq.mode} out of range for {self.n_modes}-mode state")
        return float(self.matrix[mq.index(), mq.index()])

    def covariance(self, a: ModeQuadrature, b: ModeQuadrature) -> float:
        if not (0 <= a.mode < self.n_modes and 0 <= b.mode < self.n_modes):
            raise DomainError(
                f"modes {a.mode}, {b.mode} out of range for {self.n_modes}-mode state"
            )
        return float(self.matrix[a.index(), b.index()])

    def _check_mode(self, mode: int):
        _typed(mode, "mode", "an integer")
        if not 0 <= mode < self.n_modes:
            raise DomainError(f"mode {mode} out of range for {self.n_modes}-mode state")


def vacuum(n_modes: int = 1) -> CovarianceMatrix:
    """One or two uncorrelated vacuum modes (identity CM)."""
    _typed(n_modes, "mode count", "an integer")
    if not 1 <= n_modes <= 2:
        raise DomainError(f"need one or two modes, got {n_modes}")
    return CovarianceMatrix(np.eye(2 * n_modes))


def tmsv(v: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum with quadrature variance v = cosh(2s).

    Diagonal blocks v*I, off-diagonal block diag(+c, -c) with
    c = sqrt(v^2 - 1); pure for every v >= 1, reducing to two vacua
    at v = 1. The stored c carries an absolute error of about eps * v,
    which from about v = 8.5e6 can exceed the purity gate. A v whose
    stored matrix does not validate to the spectrum [1, 1] exactly
    raises PrecisionError, as does every v beyond about 9.49e7 (inf
    included), where v^2 - 1 rounds to v^2 and c to v.
    """
    _typed(v, "EPR variance")
    if not v >= 1.0:
        raise DomainError(f"EPR variance must be >= 1, got {v}")
    if v * v - 1.0 == v * v:
        raise PrecisionError(f"EPR variance {v} too large: v^2 - 1 rounds to v^2")
    c = math.sqrt(v * v - 1.0)
    m = np.diag([float(v)] * 4)
    m[0, 2] = m[2, 0] = c
    m[1, 3] = m[3, 1] = -c
    try:
        cm = CovarianceMatrix(m)
        if cm._nus == (1.0, 1.0):
            return cm
    except (UnphysicalStateError, PrecisionError):
        pass
    raise PrecisionError(f"EPR variance {v} too large: the stored state is not pure")


def apply_channel(cm: CovarianceMatrix, ch: ChannelParams, mode: int) -> CovarianceMatrix:
    """Send one mode through a Gaussian loss/noise channel.

    On the target mode each quadrature variance maps to
    T*V + (1 - T) + T*xi; every cross correlation involving the target
    is scaled by sqrt(T); all other entries are untouched.
    """
    cm._check_mode(mode)
    t = ch.transmission
    m = cm.matrix.copy()
    sl = slice(2 * mode, 2 * mode + 2)
    m[sl, :] *= math.sqrt(t)
    m[:, sl] *= math.sqrt(t)
    # the diagonal block, scaled twice above, is rebuilt from the unscaled one
    m[sl, sl] = t * cm.matrix[sl, sl] + ((1.0 - t) + t * ch.excess_noise) * np.eye(2)
    return CovarianceMatrix(m)


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
    (see ``_symplectic_spectrum``). Measured against a 50-digit spectrum of
    the same stored matrix on channel states with V in [1, 1e7], the
    largest relative error in the decade 10^d <= V < 10^(d+1) (V = 1e7
    joins d = 6) runs from 4e-16 at d = 0 to 6.7e-10 at d = 6 and stays
    below eps * 10^(d+1) / 2: it grows like eps * V.
    """
    return list(cm._nus)


def _symplectic_spectrum(m: np.ndarray, scale: float) -> tuple[float, ...]:
    """Validated closed-form symplectic spectrum of a symmetric 2 x 2 or 4 x 4 matrix, ascending.

    ``scale`` is max(1, max |m_ij|). Where ``_closed_form_spectrum``
    declines, the quadrature block [[a, c], [c, b]] is not positive
    definite to rounding: its smallest eigenvalue
    (a + b)/2 - hypot((a - b)/2, c) below -tol raises UnphysicalStateError,
    and otherwise PrecisionError, since the spectrum of a matrix singular
    to rounding cannot be resolved.

    Values below 1 by less than the tolerance are snapped to 1 (two-mode
    squeezed vacuum is analytically pure but numerically nu = 1 +- eps);
    anything further below 1 raises an unphysical-state error. The 1e-9
    tolerance is scaled by ``scale``: a stored CM with entries of size s
    cannot represent purity more finely than s * machine epsilon, so a
    fixed gate would spuriously reject pure states beyond V ~ 1e4. This
    keeps ``tmsv(V)`` at [1, 1] up to V = 1e7.
    """
    tol = NU_TOLERANCE * scale
    nus = _closed_form_spectrum(m)
    if nus is None:
        (a, c), (_, b) = (m if m.shape == (2, 2) else m[::2, ::2]).tolist()
        low = (a + b) / 2.0 - math.hypot((a - b) / 2.0, c)
        if low < -tol:
            raise UnphysicalStateError("covariance matrix is not positive definite")
        raise PrecisionError(f"covariance matrix eigenvalue {low} is below its rounding floor")
    return tuple(_gate(nu, tol) for nu in nus)


def _gate(nu: float, tol: float) -> float:
    # the one physicality gate: raise below 1 - tol, snap float noise around purity to 1
    if nu < 1.0 - tol:
        raise UnphysicalStateError(f"symplectic eigenvalue {nu} < 1 (unphysical state)")
    return 1.0 if nu < 1.0 + tol else nu


def _one_mode_nu(a: float, b: float, d: float) -> float | None:
    # unsnapped closed form nu = sqrt(ad - b^2) of [[a, b], [b, d]]; None unless a > 0 and det > 0
    det = a * d - b * b
    return math.sqrt(det) if a > 0.0 and det > 0.0 else None


def _closed_form_spectrum(m: np.ndarray) -> tuple[float, ...] | None:
    """Unsnapped closed-form spectrum, ascending, or None where it declines.

    One mode: nu = sqrt(ad - b^2), for a > 0 and a positive determinant.
    Two modes must be in block form A = a I, B = b I, C = diag(c, -c)
    (exact float equality; DomainError otherwise). With c taken as |c|
    and lo = (a - c) + (b - c), for a, b, lo and ab - c^2 positive
    (Serafini, Illuminati and De Siena, J. Phys. B 37, L21, 2004):

        nu+ = (sqrt(lo (a + b + 2c)) + |a - b|) / 2,
        nu- = (a (b - c) + c (a - c)) / nu+.

    Unlike (Delta +- sqrt(Delta^2 - 4 det Sigma)) / 2 this never takes a
    root of a cancelling difference, so degenerate pairs (a = b, as in
    the two-mode squeezed vacuum) lose no digits to the root. The sum in
    nu- still cancels where b < c, by a factor of about V on channel
    states.
    """
    if m.shape == (2, 2):
        (a, b), (_, d) = m.tolist()
        nu = _one_mode_nu(a, b, d)
        return None if nu is None else (nu,)
    (a, z1, c, z2), (_, a2, z3, c2), (_, _, b, z4), (_, _, _, b2) = m.tolist()
    if not (a == a2 and b == b2 and c == -c2 and z1 == z2 == z3 == z4 == 0.0):
        raise DomainError("two-mode covariance matrix must have blocks a I, b I and diag(c, -c)")
    c = abs(c)
    lo = (a - c) + (b - c)
    num = a * (b - c) + c * (a - c)  # ab - c^2 without cancelling products
    if not (a > 0.0 and b > 0.0 and lo > 0.0 and num > 0.0):
        return None
    hi = (math.sqrt(lo * (a + b + 2.0 * c)) + abs(a - b)) / 2.0
    return (num / hi, hi)


def _one_mode_entropy(a: float, b: float, d: float) -> float:
    """von_neumann_entropy(CovarianceMatrix([[a, b], [b, d]])) without building it, bit for bit.

    PrecisionError where the closed form declines: a NaN or non-finite entry, an
    entry of 2^510 or more (``CovarianceMatrix``'s limit, past which ad overflows),
    a <= 0 or ad - b^2 <= 0. A block of a validated state declines only through rounding.
    """
    scale = max(1.0, abs(a), abs(b), abs(d))  # a NaN entry is declined by _one_mode_nu
    nu = _one_mode_nu(a, b, d) if scale < _ENTRY_LIMIT else None
    if nu is None:
        raise PrecisionError(f"one-mode block [[{a}, {b}], [{b}, {d}]] is not positive definite")
    return entropy_g(_gate(nu, NU_TOLERANCE * scale))


def _block_entries(cm: CovarianceMatrix, message: str) -> tuple[float, float, float]:
    """(a, b, c) of a two-mode state's blocks a I, b I, diag(c, -c), else DomainError(message)."""
    if cm.n_modes != 2:
        raise DomainError(message)
    (a, _, c, _), _, (_, _, b, _), _ = cm.matrix.tolist()
    return a, b, c


def entropy_g(nu: float) -> float:
    """Bosonic entropy kernel g(nu) in bits, vanishing at nu = 1; g(inf) = inf, NaN raises."""
    try:  # on this hot path only a failed comparison pays for the type check
        low = not nu > 1.0
    except TypeError:
        _typed(nu, "symplectic eigenvalue")
        raise
    if low:
        if math.isnan(nu):
            raise DomainError("symplectic eigenvalue is NaN")
        return 0.0
    if nu == math.inf:  # dn log1p(1/dn) below would be inf * 0
        return math.inf
    # up log2 up - dn log2 dn with up = dn + 1, without cancelling the two terms
    up, dn = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return math.log2(up) + dn * math.log1p(1.0 / dn) / math.log(2.0)


def von_neumann_entropy(cm: CovarianceMatrix) -> float:
    """von Neumann entropy in bits, summed over the symplectic spectrum."""
    return sum(entropy_g(nu) for nu in symplectic_eigenvalues(cm))
