"""Entropy kernels, uncertainty-relation checks and the eight key-rate formulas.

The key-rate bounds all share the shape

    K = log2( 2 / (e * sqrt(Vx * Vp)) )

where Vx and Vp are conditional variances of the reconciliation
reference's quadratures given the other party's data. Which variances
enter, and whether the full-mode inference 2v - 1 is applied to the
p-side quantity, depends on who homodynes and who heterodynes; the
bookkeeping is made explicit through tags on ``ConditionalVariances``
because silently mixing half-mode and full-mode quantities is the main
foot-gun of these formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, TagMismatchError, UnphysicalInferenceError
from .gaussian import (
    CovarianceMatrix,
    ModeQuadrature,
    Quadrature,
    condition_on_homodyne,
    conditional_variance,
    reduced_state,
    von_neumann_entropy,
)

LOG2_4PI = math.log2(4.0 * math.pi)
# positivity boundary of the RR homodyne-homodyne rate: K > 0 iff the
# steering product V_{xB|xA} V_{pB|pA} drops below (2/e)^2
STEERING_KEY_THRESHOLD = (2.0 / math.e) ** 2


class Reconciliation(Enum):
    DR = "dr"
    RR = "rr"


class Measurement(Enum):
    HOM = "hom"
    HET = "het"


class Flavor(Enum):
    PM = "pm"
    EB = "eb"


class OneSidedDI(Enum):
    INDEPENDENT_OF_ALICE = "independent-of-alice"
    INDEPENDENT_OF_BOB = "independent-of-bob"
    NOT_1SDI = "not-1sdi"


class SteeringDirection(Enum):
    ALICE_STEERS_BOB = "alice-steers-bob"
    BOB_STEERS_ALICE = "bob-steers-alice"


@dataclass(frozen=True)
class ProtocolSpec:
    """One of the 16 protocol variants.

    Canonical id: "{dr|rr}-{hom|het}A-{hom|het}B-{pm|eb}". In the
    entanglement-based picture Alice heterodyning her arm is the
    coherent-state protocol and homodyning the squeezed-state protocol,
    so the P&M/EB flavor never changes a key rate, only the
    device-independence classification.
    """

    reconciliation: Reconciliation
    alice_measurement: Measurement
    bob_measurement: Measurement
    flavor: Flavor = Flavor.EB

    @property
    def id(self) -> str:
        return (
            f"{self.reconciliation.value}-{self.alice_measurement.value}A-"
            f"{self.bob_measurement.value}B-{self.flavor.value}"
        )

    @classmethod
    def parse(cls, protocol_id: str) -> "ProtocolSpec":
        parts = protocol_id.split("-")
        if len(parts) != 4:
            raise DomainError(f"unknown protocol id {protocol_id!r}")
        rec, alice, bob, flavor = parts
        try:
            if not (alice.endswith("A") and bob.endswith("B")):
                raise ValueError
            return cls(
                Reconciliation(rec),
                Measurement(alice[:-1]),
                Measurement(bob[:-1]),
                Flavor(flavor),
            )
        except ValueError:
            raise DomainError(f"unknown protocol id {protocol_id!r}") from None

    @classmethod
    def all(cls) -> list["ProtocolSpec"]:
        return [
            cls(rec, alice, bob, flavor)
            for rec in Reconciliation
            for alice in Measurement
            for bob in Measurement
            for flavor in Flavor
        ]


class VarianceKind(Enum):
    """Tag recording which side of a conditional variance is a heterodyne half."""

    FULL = "full"
    TARGET_HALF = "target-half"
    CONDITIONER_HALF = "conditioner-half"
    BOTH_HALF = "both-half"

    @property
    def conditioner_is_half(self) -> bool:
        return self in (VarianceKind.CONDITIONER_HALF, VarianceKind.BOTH_HALF)


def expected_kinds(protocol: ProtocolSpec) -> tuple[VarianceKind, VarianceKind]:
    """(kind of the A|B pair, kind of the B|A pair) for a protocol's measurements."""
    a_het = protocol.alice_measurement is Measurement.HET
    b_het = protocol.bob_measurement is Measurement.HET
    if a_het and b_het:
        return VarianceKind.BOTH_HALF, VarianceKind.BOTH_HALF
    if a_het:
        return VarianceKind.TARGET_HALF, VarianceKind.CONDITIONER_HALF
    if b_het:
        return VarianceKind.CONDITIONER_HALF, VarianceKind.TARGET_HALF
    return VarianceKind.FULL, VarianceKind.FULL


@dataclass(frozen=True)
class ConditionalVariances:
    """The four conditional variances feeding a key-rate formula.

    For homodyne measurements the quantities are full-mode; when a party
    heterodynes, the corresponding target or conditioner is the
    beamsplitter half that party actually measures, as recorded by the
    kind tags (x and p of one direction always share a tag).
    """

    v_x_b_given_a: float
    v_p_b_given_a: float
    v_x_a_given_b: float
    v_p_a_given_b: float
    kind_b_given_a: VarianceKind = VarianceKind.FULL
    kind_a_given_b: VarianceKind = VarianceKind.FULL

    def __post_init__(self):
        for name in ("v_x_b_given_a", "v_p_b_given_a", "v_x_a_given_b", "v_p_a_given_b"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass(frozen=True)
class KeyRateResult:
    """Key rate in bits per retained symbol plus the steering diagnostics.

    ``steering_ab`` and ``steering_ba`` are the conditional-variance
    products entering the RR and DR formulas respectively; for the
    homodyne-homodyne protocols these are exactly the Gaussian steering
    parameters E_ab = V_{xB|xA} V_{pB|pA} and its reverse. Positivity of
    the key therefore coincides with the product dropping below (2/e)^2
    by the very same arithmetic. ``variances`` are the inputs the rate
    was computed from; None in the identity-channel V -> inf limit of the
    homodyne-homodyne protocols, where all four vanish.
    """

    protocol: ProtocolSpec
    key_rate: float
    steering_ab: float
    steering_ba: float
    positive: bool
    one_sided_di: OneSidedDI
    variances: ConditionalVariances | None


def gaussian_shannon_entropy(v: float) -> float:
    """Differential Shannon entropy of a Gaussian of variance v: 0.5*log2(2*pi*e*v)."""
    if v <= 0.0:
        raise DomainError(f"variance must be positive, got {v}")
    return 0.5 * math.log2(2.0 * math.pi * math.e * v)


def infer_full_mode_variance(measured_half_conditional: float) -> float:
    """Full-mode conditional variance 2v - 1 inferred from a heterodyne half.

    Inverse of the heterodyne-half law V_half = (V_full + 1)/2; the
    trusted party's beamsplitter is what licenses the inference. Applies
    elementwise to an array, raising if any element is below 1/2.
    """
    too_low = measured_half_conditional < 0.5
    if too_low.any() if isinstance(too_low, np.ndarray) else too_low:
        raise UnphysicalInferenceError(
            f"inferred variance 2*{measured_half_conditional} - 1 would be nonpositive"
        )
    return 2.0 * measured_half_conditional - 1.0


def classify_1sdi(protocol: ProtocolSpec) -> OneSidedDI:
    """Which side's devices may stay uncharacterised, if any.

    DR protocols with Bob homodyning are independent of Bob's devices
    (both P&M and EB, Alice homodyne or heterodyne: she controls the
    trusted source). RR protocols are independent of Alice's devices
    only in the EB flavor with Alice homodyning; Bob may then homodyne
    or heterodyne. Heterodyne detection on the *untrusted* side breaks
    the argument because the bound leans on that beamsplitter. Exactly
    6 of the 16 variants qualify.
    """
    if (
        protocol.reconciliation is Reconciliation.DR
        and protocol.bob_measurement is Measurement.HOM
    ):
        return OneSidedDI.INDEPENDENT_OF_BOB
    if (
        protocol.reconciliation is Reconciliation.RR
        and protocol.flavor is Flavor.EB
        and protocol.alice_measurement is Measurement.HOM
    ):
        return OneSidedDI.INDEPENDENT_OF_ALICE
    return OneSidedDI.NOT_1SDI


def steering_parameter(cv: ConditionalVariances, direction: SteeringDirection) -> float:
    """Gaussian steering product for one direction; requires full-mode variances.

    E = V_{xB|xA} V_{pB|pA} for Alice steering Bob (>= 1 iff not
    steerable); the caller compares against 1 and against (2/e)^2 for
    key positivity.
    """
    if direction is SteeringDirection.ALICE_STEERS_BOB:
        if cv.kind_b_given_a is not VarianceKind.FULL:
            raise TagMismatchError("steering parameter needs full-mode B|A variances")
        return cv.v_x_b_given_a * cv.v_p_b_given_a
    if cv.kind_a_given_b is not VarianceKind.FULL:
        raise TagMismatchError("steering parameter needs full-mode A|B variances")
    return cv.v_x_a_given_b * cv.v_p_a_given_b


def _effective_pair(v_x: float, v_p: float, kind: VarianceKind) -> tuple[float, float]:
    # The p-side quantity is replaced by 2v - 1 whenever the conditioning
    # party heterodynes (its p-half is what was actually measured); the
    # x-side quantity always enters as measured.
    if kind.conditioner_is_half:
        v_p = infer_full_mode_variance(v_p)
    return v_x, v_p


def _rate_pair(
    protocol: ProtocolSpec, b_given_a: tuple[float, float], a_given_b: tuple[float, float]
) -> tuple[float, float]:
    """The (v_x, v_p) pair a protocol's rate reads, lifted by ``_effective_pair``.

    DR rates read the A|B pair and RR rates the B|A pair. Floats or
    numpy arrays (elementwise); only the selected pair is lifted.
    """
    kind_ab, kind_ba = expected_kinds(protocol)
    if protocol.reconciliation is Reconciliation.DR:
        return _effective_pair(*a_given_b, kind_ab)
    return _effective_pair(*b_given_a, kind_ba)


def key_rate(protocol: ProtocolSpec, cv: ConditionalVariances) -> KeyRateResult:
    """Evaluate the protocol's entropic key-rate bound on given variances.

    DR rates use the A|B pair, RR rates the B|A pair; the conditioning
    side's p-variance is lifted to full mode with 2v - 1 where that side
    heterodynes. The rate may be negative; ``positive`` mirrors
    key_rate > 0.
    """
    exp_ab, exp_ba = expected_kinds(protocol)
    if cv.kind_a_given_b is not exp_ab or cv.kind_b_given_a is not exp_ba:
        raise TagMismatchError(
            f"protocol {protocol.id} expects tags ({exp_ab.value}, {exp_ba.value}), "
            f"got ({cv.kind_a_given_b.value}, {cv.kind_b_given_a.value})"
        )
    b_given_a = (cv.v_x_b_given_a, cv.v_p_b_given_a)
    a_given_b = (cv.v_x_a_given_b, cv.v_p_a_given_b)
    pair_ab = _effective_pair(*b_given_a, exp_ba)
    pair_ba = _effective_pair(*a_given_b, exp_ab)
    steering_ab, steering_ba = pair_ab[0] * pair_ab[1], pair_ba[0] * pair_ba[1]
    v_x, v_p = _rate_pair(protocol, b_given_a, a_given_b)
    product = v_x * v_p
    if 0.0 < product < math.inf:
        rate = math.log2(2.0 / (math.e * math.sqrt(product)))
    else:  # the product under- or overflows (variances near 1e-160 or 1e160); its factors do not
        rate = math.log2(2.0 / math.e) - (math.log2(v_x) + math.log2(v_p)) / 2.0
    return KeyRateResult(
        protocol=protocol,
        key_rate=rate,
        steering_ab=steering_ab,
        steering_ba=steering_ba,
        positive=rate > 0.0,
        one_sided_di=classify_1sdi(protocol),
        variances=cv,
    )


# ---------------------------------------------------------------------------
# entropic uncertainty relations on two-mode states
# ---------------------------------------------------------------------------


def measured_conditional_vn_entropy(
    cm: CovarianceMatrix, measured: ModeQuadrature, side: int
) -> float:
    """Conditional von Neumann entropy of a measured quadrature, S(q_M | side).

    Assembled as H(q_M) + S(rho_side^q) - S(side): the Shannon entropy
    of the Gaussian outcome distribution, the entropy of the conditioned
    remote state (outcome independent for Gaussian states) and the
    entropy of the unconditioned remote state.
    """
    if cm.n_modes != 2:
        raise DomainError("conditional measured entropy is defined on two-mode states")
    if side == measured.mode or not 0 <= side < 2:
        raise DomainError("side must be the remaining mode")
    return _outcome_entropy(cm, measured) - von_neumann_entropy(reduced_state(cm, [side]))


def _outcome_entropy(cm: CovarianceMatrix, measured: ModeQuadrature) -> float:
    # H(q_M) + S(rest | q_M): the terms every measured conditional entropy shares
    h_outcome = gaussian_shannon_entropy(cm.variance(measured))
    conditioned, _ = condition_on_homodyne(cm, measured)
    return h_outcome + von_neumann_entropy(conditioned)


def verify_ur_bipartite(cm: CovarianceMatrix) -> float:
    """Slack of S(x_A|B) + S(p_A|B) >= log2(4 pi) + S(A|B) in bits.

    Mode 0 plays A, mode 1 plays B. Nonnegative (to -1e-9) for every
    physical state.
    """
    if cm.n_modes != 2:
        raise DomainError("bipartite check is defined on two-mode states")
    s_b = von_neumann_entropy(reduced_state(cm, [1]))
    s_x = _outcome_entropy(cm, ModeQuadrature(0, Quadrature.X)) - s_b
    s_p = _outcome_entropy(cm, ModeQuadrature(0, Quadrature.P)) - s_b
    s_a_given_b = von_neumann_entropy(cm) - s_b
    return s_x + s_p - LOG2_4PI - s_a_given_b


def verify_ur_tripartite(cm: CovarianceMatrix) -> float:
    """Slack of S(x_A|B) + S(p_A|E) >= log2(4 pi), E purifying the state.

    Purity of the global state gives S(E) = S(AB), and after the p_A
    measurement the conditional BE state is pure, so S(rho_E^{p_A}) =
    S(rho_B^{p_A}); no explicit purification is ever constructed.
    """
    if cm.n_modes != 2:
        raise DomainError("tripartite check is defined on two-mode states")
    s_x_given_b = measured_conditional_vn_entropy(cm, ModeQuadrature(0, Quadrature.X), side=1)
    s_p_given_e = _outcome_entropy(cm, ModeQuadrature(0, Quadrature.P)) - von_neumann_entropy(cm)
    return s_x_given_b + s_p_given_e - LOG2_4PI


def devetak_winter_oracle(
    cm: CovarianceMatrix, direction: Reconciliation, basis: Quadrature = Quadrature.X
) -> float:
    """Devetak-Winter rate I(ref:other) - chi(ref:E) for homodyne-homodyne.

    The reference party is Bob (mode 1) for RR and Alice (mode 0) for
    DR. I = 0.5*log2(V_ref / V_ref|other); the Holevo term is
    chi = S(E) - S(E|ref) with S(E) = S(AB) and S(E|ref) equal to the
    entropy of the *other* party's conditioned state, again through
    purification purity. Serves as the independent ceiling the entropic
    bound must stay below.
    """
    if cm.n_modes != 2:
        raise DomainError("Devetak-Winter oracle is defined on two-mode states")
    ref_mode = 1 if direction is Reconciliation.RR else 0
    ref = ModeQuadrature(ref_mode, basis)
    other = ModeQuadrature(1 - ref_mode, basis)
    mutual_info = 0.5 * math.log2(cm.variance(ref) / conditional_variance(cm, ref, other))
    conditioned_other, _ = condition_on_homodyne(cm, ref)
    holevo = von_neumann_entropy(cm) - von_neumann_entropy(conditioned_other)
    return mutual_info - holevo
