"""Entropy kernels, uncertainty-relation checks and the eight key-rate formulas.

The key-rate bounds all share the shape

    K = log2( 2 / (e * sqrt(Vx * Vp)) )

where Vx and Vp are conditional variances of the reconciliation
reference's quadratures given the other party's data. Which variances
enter, and whether the full-mode inference 2v - 1 is applied to the
p-side quantity, depends on who homodynes and who heterodynes; the
bookkeeping is made explicit through tags on ``ConditionalVariances``
because silently mixing half-mode and full-mode quantities is the main
foot-gun of these formulas. It is resolved once per protocol, when its
``ProtocolSpec`` is constructed: the rates, the tags and the 1sDI class
read the facts the spec stores, not its enum members.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

from .errors import DomainError, PrecisionError, TagMismatchError, UnphysicalInferenceError, _real, _record
from .gaussian import _LN2, CovarianceMatrix, entropy_g

_LOG2_E_HALF = math.log2(math.e / 2.0)
# the smallest normal float, 2.2250738585072014e-308: a product below it is subnormal and
# keeps too few significant bits to print to nine digits or to take one log of
_MIN_NORMAL = sys.float_info.min


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


class VarianceKind(Enum):
    """Tag recording which side of a conditional variance is a heterodyne half."""

    FULL = "full"
    TARGET_HALF = "target-half"
    CONDITIONER_HALF = "conditioner-half"
    BOTH_HALF = "both-half"


# the kind of X|Y, indexed [X heterodynes][Y heterodynes]
_KIND = (
    (VarianceKind.FULL, VarianceKind.CONDITIONER_HALF),
    (VarianceKind.TARGET_HALF, VarianceKind.BOTH_HALF),
)


class ProtocolSpec(
    _record("ProtocolSpec", "reconciliation alice_measurement bob_measurement flavor")
):
    """One of the 16 protocol variants.

    Canonical id: "{dr|rr}-{hom|het}A-{hom|het}B-{pm|eb}". In the
    entanglement-based picture Alice heterodyning her arm is the
    coherent-state protocol and homodyning the squeezed-state protocol,
    so the P&M/EB flavor never changes a key rate, only the
    device-independence classification.

    Each field must be a member of its enum (DomainError otherwise). The
    bookkeeping every rate reads is resolved at construction, once per
    spec, into private attributes that are not fields (so ``repr``,
    ``==``, ``hash``, ``len``, iteration and ``_asdict`` see only the four
    fields): the heterodyne flags ``_a_het``, ``_b_het``, the DR flag
    ``_dr``, the (A|B, B|A) kinds ``_kinds`` and the class
    ``_one_sided_di``. The p-side of a pair is lifted by 2v - 1 where its
    conditioner heterodynes, so A|B's lift is ``_b_het`` and B|A's is
    ``_a_het``.
    """

    def __new__(
        cls, reconciliation: Reconciliation, alice_measurement: Measurement,
        bob_measurement: Measurement, flavor: Flavor = Flavor.EB
    ):
        self = tuple.__new__(cls, (reconciliation, alice_measurement, bob_measurement, flavor))
        enums = (Reconciliation, Measurement, Measurement, Flavor)
        for name, value, enum in zip(cls._fields, self, enums):
            if value.__class__ is not enum:  # an enum member's class is its enum
                raise DomainError(f"{name} must be a {enum.__name__} member, got {value!r}")
        a_het = alice_measurement is Measurement.HET
        b_het = bob_measurement is Measurement.HET
        dr = reconciliation is Reconciliation.DR
        kind_ab, kind_ba = _KIND[a_het][b_het], _KIND[b_het][a_het]
        if dr and not b_het:
            one_sided_di = OneSidedDI.INDEPENDENT_OF_BOB
        elif not dr and not a_het and flavor is Flavor.EB:
            one_sided_di = OneSidedDI.INDEPENDENT_OF_ALICE
        else:
            one_sided_di = OneSidedDI.NOT_1SDI
        facts = {
            "_a_het": a_het,
            "_b_het": b_het,
            "_dr": dr,
            "_kinds": (kind_ab, kind_ba),
            "_one_sided_di": one_sided_di,
        }
        for name, value in facts.items():
            object.__setattr__(self, name, value)  # the record is immutable
        return self

    @property
    def id(self) -> str:
        return (
            f"{self.reconciliation.value}-{self.alice_measurement.value}A-"
            f"{self.bob_measurement.value}B-{self.flavor.value}"
        )

    @classmethod
    def parse(cls, protocol_id: str) -> "ProtocolSpec":
        if not isinstance(protocol_id, str):
            raise DomainError(f"protocol id must be a string, got {protocol_id!r}")
        if protocol_id not in _BY_ID:
            raise DomainError(f"unknown protocol id {protocol_id!r}")
        return _BY_ID[protocol_id]

    @classmethod
    def all(cls) -> list["ProtocolSpec"]:
        """The 16 canonical specs, the ones ``parse`` returns, in a new list."""
        return list(_BY_ID.values())


# the canonical specs by id, reconciliation-major; parse inverts id by lookup
_BY_ID = {
    p.id: p
    for p in (
        ProtocolSpec(rec, alice, bob, flavor)
        for rec in Reconciliation
        for alice in Measurement
        for bob in Measurement
        for flavor in Flavor
    )
}


class ConditionalVariances(_record("ConditionalVariances", "v_x_b_given_a v_p_b_given_a "
                                  "v_x_a_given_b v_p_a_given_b kind_b_given_a kind_a_given_b")):
    """The four conditional variances feeding a key-rate formula.

    For homodyne measurements the quantities are full-mode; when a party
    heterodynes, the corresponding target or conditioner is the
    beamsplitter half that party actually measures, as recorded by the
    kind tags (x and p of one direction always share a tag). Each variance
    must be a nonnegative real number, inf included, and not a bool, and is
    stored as a float; 0 is the V -> inf identity-channel limit of a
    homodyne pair. Each tag must be a ``VarianceKind`` (DomainError otherwise).
    """

    def __new__(
        cls, v_x_b_given_a: float, v_p_b_given_a: float, v_x_a_given_b: float,
        v_p_a_given_b: float, kind_b_given_a: VarianceKind = VarianceKind.FULL,
        kind_a_given_b: VarianceKind = VarianceKind.FULL
    ):
        if not (
            v_x_b_given_a.__class__ is v_p_b_given_a.__class__ is v_x_a_given_b.__class__
            is v_p_a_given_b.__class__ is float and v_x_b_given_a >= 0.0 and v_p_b_given_a >= 0.0
            and v_x_a_given_b >= 0.0 and v_p_a_given_b >= 0.0  # NaN fails too
        ):  # on this hot path only other types, or a failed comparison, pay for the walk
            checked = []
            for name, value in zip(cls._fields, (v_x_b_given_a, v_p_b_given_a, v_x_a_given_b,
                                                 v_p_a_given_b)):
                value = _real(value, name)
                if not value >= 0.0:
                    raise DomainError(f"{name} must be nonnegative, got {value}")
                checked.append(value)
            v_x_b_given_a, v_p_b_given_a, v_x_a_given_b, v_p_a_given_b = checked
        if kind_b_given_a.__class__ is not VarianceKind or kind_a_given_b.__class__ is not VarianceKind:
            # as above, only a bad tag pays for finding which one it is
            for name, tag in zip(cls._fields[4:], (kind_b_given_a, kind_a_given_b)):
                if tag.__class__ is not VarianceKind:
                    raise DomainError(f"{name} must be a VarianceKind member, got {tag!r}")
        return tuple.__new__(cls, (v_x_b_given_a, v_p_b_given_a, v_x_a_given_b, v_p_a_given_b,
                                   kind_b_given_a, kind_a_given_b))


def _tagged(protocol: ProtocolSpec, b_given_a, a_given_b) -> ConditionalVariances:
    # the (x, p) pairs of B|A and A|B, tagged with the protocol's expected kinds;
    # positional, as a keyword call costs about twice as much
    kind_ab, kind_ba = protocol._kinds
    return ConditionalVariances(*b_given_a, *a_given_b, kind_ba, kind_ab)


class KeyRateResult(_record("KeyRateResult", "protocol key_rate steering_ab steering_ba "
                                           "positive one_sided_di variances")):
    """Key rate in bits per retained symbol plus the steering diagnostics.

    The public route to the four conditional variances (``variances``)
    and to both steering products (``steering_ab``, ``steering_ba``);
    ``key_rate_at`` returns one for a protocol on a channel, ``key_rate``
    for given variances. ``steering_ab`` and ``steering_ba`` are the
    conditional-variance products entering the RR and DR formulas
    respectively; for the homodyne-homodyne protocols these are exactly
    the Gaussian steering parameters E_ab = V_{xB|xA} V_{pB|pA} and its
    reverse (>= 1 iff not steerable). Positivity of the key therefore
    coincides with the product dropping below (2/e)^2 by the very same
    arithmetic. ``variances`` are the inputs the rate was computed from,
    never None: in the identity-channel V -> inf limit of the
    homodyne-homodyne protocols all four are 0 and the rate is +inf.
    A steering product below the smallest normal float,
    2.2250738585072014e-308, is held as 0.0: a subnormal keeps as few as
    one significant bit, so it could not be printed to nine digits. The
    rate is then taken from the logs of the two factors, so a finite
    rate beside a steering product of 0 marks that underflow, and only a
    zero factor gives the rate +inf.
    """


def infer_full_mode_variance(measured_half_conditional: float) -> float:
    """Full-mode conditional variance 2v - 1 inferred from a heterodyne half.

    Inverse of the heterodyne-half law V_half = (V_full + 1)/2, licensed by the
    trusted party's beamsplitter. A half below 1/2 raises
    UnphysicalInferenceError, and NaN DomainError; one of inf, or above
    about 9e307 where 2v - 1 overflows, gives inf.
    """
    v = measured_half_conditional
    if v.__class__ is not float:  # on this hot path only other types pay for the check
        v = _real(v, "half-mode conditional variance")
    if not v >= 0.5:  # NaN is told apart only here, off the hot path
        if v != v:
            raise DomainError("half-mode conditional variance is NaN")
        raise UnphysicalInferenceError(f"inferred variance 2*{v} - 1 would be nonpositive")
    return 2.0 * v - 1.0


def classify_1sdi(protocol: ProtocolSpec) -> OneSidedDI:
    """Which side's devices may stay uncharacterised, if any.

    DR protocols with Bob homodyning are independent of Bob's devices
    (both P&M and EB, Alice homodyne or heterodyne: she controls the
    trusted source). RR protocols are independent of Alice's devices
    only in the EB flavor with Alice homodyning; Bob may then homodyne
    or heterodyne. Heterodyne detection on the *untrusted* side breaks
    the argument because the bound leans on that beamsplitter. Exactly
    6 of the 16 variants qualify. Resolved when the spec is constructed.
    """
    return protocol._one_sided_di


def key_rate(protocol: ProtocolSpec, cv: ConditionalVariances) -> KeyRateResult:
    """Evaluate the protocol's entropic key-rate bound on given variances.

    DR rates use the A|B pair, RR rates the B|A pair; the conditioning
    side's p-variance is lifted to full mode with 2v - 1 where that side
    heterodynes. The rate may be negative; ``positive`` mirrors
    key_rate > 0. A zero factor, x or p, gives the rate +inf: a homodyne
    variance of 0 (the identity channel at V -> inf, as ``key_rate_at``
    passes it) or a conditioner's half of exactly 1/2, which lifts to 0.
    A 0 beside an inf in either pair, the one the rate reads or the
    other, leaves its product undefined (DomainError), so no steering
    product is NaN; an inf factor beside a nonzero one (given, or a half
    of 9e307 or more lifted) raises PrecisionError where the rate reads
    it, as the rate would read -inf. No other function makes a
    ``KeyRateResult``.
    """
    exp_ab, exp_ba = protocol._kinds
    if cv.kind_a_given_b is not exp_ab or cv.kind_b_given_a is not exp_ba:
        raise TagMismatchError(
            f"protocol {protocol.id} expects tags ({exp_ab.value}, {exp_ba.value}), "
            f"got ({cv.kind_a_given_b.value}, {cv.kind_b_given_a.value})"
        )
    v_p_ba = cv.v_p_b_given_a
    if protocol._a_het:  # B|A's conditioner is Alice, A|B's is Bob
        v_p_ba = infer_full_mode_variance(v_p_ba)
    v_p_ab = cv.v_p_a_given_b
    if protocol._b_het:
        v_p_ab = infer_full_mode_variance(v_p_ab)
    steering_ab, steering_ba = cv.v_x_b_given_a * v_p_ba, cv.v_x_a_given_b * v_p_ab
    if protocol._dr:
        v_x, v_p, product = cv.v_x_a_given_b, v_p_ab, steering_ba
    else:
        v_x, v_p, product = cv.v_x_b_given_a, v_p_ba, steering_ab
    if _MIN_NORMAL <= product < math.inf:
        rate = math.log2(2.0 / (math.e * math.sqrt(product)))
    elif v_x == 0.0 or v_p == 0.0:  # the V -> inf identity channel, or a half of 1/2 lifted
        rate = math.inf  # or a 0 beside an inf, a NaN product refused below
    else:  # the product is subnormal or under- or overflows (variances near 1e-160 or 1e160)
        if v_x == math.inf or v_p == math.inf:
            raise PrecisionError(f"key rate of {protocol.id} overflows at variances ({v_x}, {v_p})")
        rate = math.log2(2.0 / math.e) - (math.log2(v_x) + math.log2(v_p)) / 2.0
    if not steering_ab >= _MIN_NORMAL:  # subnormal or 0, or NaN: inf times 0
        if steering_ab != steering_ab:
            raise DomainError(f"key rate of {protocol.id} is undefined for variances inf and 0")
        steering_ab = 0.0
    if not steering_ba >= _MIN_NORMAL:
        if steering_ba != steering_ba:
            raise DomainError(f"key rate of {protocol.id} is undefined for variances inf and 0")
        steering_ba = 0.0
    # positional, in field order, as a keyword call costs about twice as much
    return KeyRateResult(
        protocol, rate, steering_ab, steering_ba, rate > 0.0, protocol._one_sided_di, cv
    )


# ---------------------------------------------------------------------------
# entropic uncertainty relations and the Devetak-Winter ceiling on two-mode states
# ---------------------------------------------------------------------------


def verify_ur_bipartite(cm: CovarianceMatrix) -> float:
    """Slack of S(x_A|B) + S(p_A|B) >= log2(4 pi) + S(A|B) in bits.

    Mode 0 plays A, mode 1 plays B. On every two-mode state this is the
    tripartite slack, so it returns ``verify_ur_tripartite(cm)``; see
    there. Nonnegative for every state.
    """
    return verify_ur_tripartite(cm)


def _r(nu: float) -> float:
    # g(nu) - log2(e nu/2) <= 0 without log2(nu)-sized terms: (ln(1 + 1/nu) + dn ln(1 + 1/dn) - 1)/ln 2
    # with dn = (nu - 1)/2, and from nu = 100 on -(x/6 + x^2/20 + x^3/42)/ln 2 with x = 1/nu^2
    if nu >= 100.0:  # where the series holds 13 digits
        x = 1.0 / (nu * nu)
        return -x * (1.0 / 6.0 + x * (0.05 + x / 42.0)) / _LN2
    if not nu > 1.0:  # g(1) = 0
        return -_LOG2_E_HALF
    dn = (nu - 1.0) / 2.0
    return (math.log1p(1.0 / nu) + dn * math.log1p(1.0 / dn) - 1.0) / _LN2


def verify_ur_tripartite(cm: CovarianceMatrix) -> float:
    """Slack of S(x_A|B) + S(p_A|E) >= log2(4 pi), E purifying the state.

    Purity gives S(E) = S(AB) and S(E|p_A) = S(B|p_A), so no purification
    is built; with O_q = H(q_A) + S(B|q_A) the slack is (O_x - S_B) + (O_p -
    S_AB) - log2(4 pi), the bipartite slack's sum (Berta et al., Nat. Phys.
    6, 659, 2010). H(q_A) = log2(2 pi e a)/2, and B given q_A has nu_c =
    sqrt(b det/a). With r(nu) = g(nu) - log2(e nu/2) <= 0 the slack is
    2 r(nu_c) - r(nu-) - r(nu+) - r(b), whose log2-sized terms cancel, as
    a nu_c^2 = b nu- nu+. The relation holds on every state, so a slack
    that rounds below 0 is rounding, and is clamped at 0, which never
    moves it further from the truth. Against ``tests/oracle.py`` on
    6,000 random states (V from 1 to 1e12, T from 1e-4 to 1, xi from 0
    to 1) the largest error was 2.7e-15 bits, and 1.0e-14 on 9,000 at
    T = 1, xi down to 1e-320.
    """
    nu_minus, nu_plus = cm._nus
    bracket = 2.0 * _r(math.sqrt(cm.b / cm.a) * math.sqrt(cm._det)) - _r(nu_minus) - _r(nu_plus)
    return max(bracket - _r(cm.b), 0.0)


def devetak_winter_oracle(cm: CovarianceMatrix, direction: Reconciliation) -> float:
    """Devetak-Winter rate I(ref:other) - chi(ref:E) for homodyne-homodyne, in the x basis.

    The reference party is Bob (mode 1) for RR and Alice (mode 0) for
    DR. I = 0.5*log2(V_ref / V_ref|other) = 0.5*log2(ab/det) in both
    directions; the Holevo term is chi = S(E) - S(E|ref) with S(E) =
    S(AB) = g(nu-) + g(nu+), summed here over the stored spectrum, and
    S(E|ref) equal to the entropy of the *other* party's conditioned
    state, again through purification purity: nu = sqrt(other det/ref).
    Serves as the independent ceiling the entropic bound must stay
    below. Both parties read x: the states are phase symmetric. Against
    the 60-digit ceilings (``tests/oracle.py``) on the states of
    ``verify_ur_tripartite``, the largest error of either direction in
    the decades of V from [1, 10) to [1e11, 1e12] was 6.5, 11, 6.4, 7.8,
    7.1, 9.5, 9.1, 12, 11, 10, 12 and 13 e-15 bits.
    """
    if not isinstance(direction, Reconciliation):
        raise DomainError(f"reconciliation direction must be a Reconciliation, got {direction!r}")
    ref, other = (cm.b, cm.a) if direction is Reconciliation.RR else (cm.a, cm.b)
    mutual_info = 0.5 * (math.log2(cm.a / cm._det) + math.log2(cm.b))
    nu_minus, nu_plus = cm._nus
    s_ab = entropy_g(nu_minus) + entropy_g(nu_plus)
    return mutual_info - s_ab + entropy_g(math.sqrt(other) * math.sqrt(cm._det / ref))
