"""The public-API input contract, stated once: a table of every argument value and its outcome.

Each public callable that takes a number, a string or an enum member is
listed in ``CALLS`` with valid arguments. ``ARGUMENTS`` maps each of its
arguments to rows: a value, put in that argument's place with the others
held valid, and its outcome. The outcome is a return of finite numbers
(an infinity or None only where the callable documents one), or one
exception class, never a subclass or a base class, whose message matches
a pattern in full. Every argument takes every value of ``ODD``: no
number (None, a str, a bool, a numpy bool, a 0-d array, a list), NaN and
the infinities, 0 and -1, the smallest and a large float, a float32 and
an int beyond the float range; and its domain edges. ``CHECK_ORDER``
rows replace several arguments at once. A float32 gives the result of
its float64 value, and a numpy integer that of its int, in types as in
values. Arguments of object type (a protocol, a channel, a covariance
matrix, a record) are outside the contract, as the ``errors`` module
states. The records themselves are namedtuples: their semantics, and
that every route copying one runs its checks again, are pinned at the
end.
"""

import enum
import inspect
import math
import numbers
import re

import numpy as np
import pytest

import cvqkd
from conftest import COPY_ROUTES
from cvqkd import (
    ChannelParams,
    ConditionalVariances,
    CovarianceMatrix,
    CVQKDError,
    DomainError,
    FibreModel,
    Flavor,
    InsufficientDataError,
    KeyRateResult,
    Measurement,
    ModeQuadrature,
    OneSidedDI,
    PrecisionError,
    ProtocolSpec,
    Quadrature,
    Reconciliation,
    SweepConfig,
    UnphysicalInferenceError,
    VarianceKind,
    apply_channel,
    devetak_winter_oracle,
    empirical_entropy,
    entropy_g,
    estimate_conditional_variance,
    estimate_key_rate,
    infer_full_mode_variance,
    key_rate,
    key_rate_at,
    max_distance,
    max_excess_noise,
    sample_quadratures,
    threshold_transmission,
    tmsv,
    vacuum,
)
from cvqkd.montecarlo import COLUMNS, MAX_SAMPLE_ROWS, MAX_SAMPLED_V
from cvqkd.security import MAX_GRID_POINTS

NOT_NUMBERS = {
    "none": None, "str": "2", "bool": True, "numpy-bool": np.True_, "0d-array": np.array(2.0), "list": [1.0],
}
ODD = {
    **NOT_NUMBERS, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "zero": 0, "minus-one": -1,
    "denormal": 5e-324, "1e308": 1e308, "float32": np.float32(0.5), "10**400": 10**400,
}
NOT_INTEGERS = [*NOT_NUMBERS, "nan", "inf", "-inf", "denormal", "1e308", "float32"]
RETURNS = None  # the outcome of a row whose call returns

RR_HOM_HOM = ProtocolSpec.parse("rr-homA-homB-eb")
DR_HOM_HOM = ProtocolSpec.parse("dr-homA-homB-eb")
RR_HET_HET = ProtocolSpec.parse("rr-hetA-hetB-eb")
RR_HOM_HET = ProtocolSpec.parse("rr-homA-hetB-eb")
RECORD = sample_quadratures(RR_HET_HET, ChannelParams(0.9, 0.01), 3.0, 200, seed=1)
SAMPLES = np.linspace(0.0, 2.0, 2000)
WIDE = np.linspace(-1.0, 1.0, 2000)  # no 0 among them, which inf would make NaN
VARIANCES = ("v_x_b_given_a", "v_p_b_given_a", "v_x_a_given_b", "v_p_a_given_b")

# name -> (call, valid keyword arguments: each is replaced in turn)
CALLS = {
    "ChannelParams": (ChannelParams, {"transmission": 0.5, "excess_noise": 0.01}),
    "ConditionalVariances": (ConditionalVariances, {
        **dict.fromkeys(VARIANCES, 0.5), "kind_b_given_a": VarianceKind.FULL, "kind_a_given_b": VarianceKind.FULL,
    }),
    # its three fields by position, a = V, then T and xi
    "CovarianceMatrix": (lambda a, b, c: CovarianceMatrix(a, b, c), {"a": 2.0, "b": 0.5, "c": 0.1}),
    "FibreModel": (FibreModel, {"attenuation_db_per_km": 0.2}),
    "FibreModel.distance_km": (FibreModel().distance_km, {"transmission": 0.5}),
    "FibreModel(attenuation).distance_km": (
        lambda attenuation: FibreModel(attenuation).distance_km(0.5), {"attenuation": 0.2}
    ),
    "MeasurementRecord.column": (RECORD.column, {"name": "x_a"}),
    "ModeQuadrature": (ModeQuadrature, {"mode": 0, "quadrature": Quadrature.X}),
    "ProtocolSpec": (ProtocolSpec, {
        "reconciliation": Reconciliation.RR, "alice_measurement": Measurement.HOM,
        "bob_measurement": Measurement.HOM, "flavor": Flavor.EB,
    }),
    "ProtocolSpec.parse": (ProtocolSpec.parse, {"protocol_id": "rr-homA-homB-eb"}),
    "SweepConfig": (SweepConfig, {"t_min": 0.1, "t_max": 1.0, "steps": 3}),
    "apply_channel": (lambda mode: apply_channel(tmsv(2.0), ChannelParams(0.5), mode), {"mode": 1}),
    "devetak_winter_oracle": (
        lambda direction: devetak_winter_oracle(tmsv(2.0), direction), {"direction": Reconciliation.RR}
    ),
    "empirical_entropy": (empirical_entropy, {"samples": SAMPLES, "bin_width": 0.1}),
    "entropy_g": (entropy_g, {"nu": 2.0}),
    "estimate_conditional_variance": (
        lambda target, given: estimate_conditional_variance(RECORD, target, given),
        {"target": "x_b", "given": "x_a"},
    ),
    "infer_full_mode_variance": (infer_full_mode_variance, {"measured_half_conditional": 0.75}),
    # a variance of the pair the rate does not read, beside a 0
    "key_rate(rr-homA-homB-eb, v_p_a_given_b=0)": (
        lambda v_x_a_given_b: key_rate(RR_HOM_HOM, ConditionalVariances(0.5, 0.5, v_x_a_given_b, 0.0)),
        {"v_x_a_given_b": 0.5},
    ),
    "key_rate(dr-homA-homB-eb, v_p_b_given_a=0)": (
        lambda v_x_b_given_a: key_rate(DR_HOM_HOM, ConditionalVariances(v_x_b_given_a, 0.0, 0.5, 0.5)),
        {"v_x_b_given_a": 0.5},
    ),
    "key_rate_at": (lambda v: key_rate_at(RR_HOM_HOM, ChannelParams(0.9, 0.01), v), {"v": 5.0}),
    "max_distance": (lambda xi: max_distance(RR_HOM_HOM, xi), {"xi": 0.002}),
    "max_excess_noise": (lambda t: max_excess_noise(RR_HOM_HOM, t), {"t": 0.9}),
    "sample_quadratures": (
        lambda v, n, seed: sample_quadratures(RR_HOM_HOM, ChannelParams(0.9), v, n, seed),
        {"v": 3.0, "n": 10, "seed": 1},
    ),
    "threshold_transmission": (lambda xi: threshold_transmission(RR_HOM_HOM, xi), {"xi": 0.01}),
    "tmsv": (tmsv, {"v": 2.0}),
    "vacuum": (vacuum, {"n_modes": 2}),
}
# public callables whose every argument is an object or a record
OBJECT_ARGUMENTS_ONLY = {
    "KeyRateResult", "EstimateWithError", "MeasurementRecord", "SimulatedKeyRate",
    "classify_1sdi", "key_rate", "verify_ur_bipartite", "verify_ur_tripartite", "conditional_variance",
    "symplectic_eigenvalues", "estimate_key_rate", "security_region",
}
# callables that document an infinite result for some argument
DOCUMENTED_INF = {"ConditionalVariances", "entropy_g", "infer_full_mode_variance"}


def exactly(error, message):
    """The outcome of a row whose call raises this class with this message."""
    return error, "^" + re.escape(message) + "$"


def _labelled(value):
    # an ODD label and its value, or a value and its repr
    return (value, ODD[value]) if isinstance(value, str) and value in ODD else (repr(value), value)


def _rows(typed, refused, checked, out=(), ok=(), also=None, convert=float, error=DomainError):
    # label -> (value, outcome): each of refused fails the type check with DomainError and
    # typed.format(value), each of out fails the range check with error and
    # checked.format(convert(value)), and each of ok returns; also adds rows of its own
    rows = {}
    for values, outcome in ((refused, lambda v: exactly(DomainError, typed.format(v))),
                            (out, lambda v: exactly(error, checked.format(convert(v)))),
                            (ok, lambda v: RETURNS)):
        for label, v in map(_labelled, values):
            rows[label] = (v, outcome(v))
    return {**rows, **(also or {})}


def real(what, checked, out=(), ok=(), also=None, error=DomainError):
    """A real argument named ``what`` in its messages; 10**400 is no float."""
    big = {"10**400": (10**400, exactly(PrecisionError, f"{what} is an integer beyond the float range"))}
    return _rows(f"{what} must be a real number, got {{!r}}", NOT_NUMBERS, checked, out, ok,
                 {**big, **(also or {})}, error=error)


def integer(typed, checked, out=(), ok=(), also=None, refused=()):
    """A count or an index, refused with ``typed`` where it is no integer."""
    return _rows(typed, [*NOT_INTEGERS, *refused], checked, out, ok, also, int)


def every(message, *edges):
    """A string or enum argument that refuses every ODD value and each edge with ``message``."""
    return _rows(message, [*ODD, *edges], "")


def transmission(ok=(1.0,), also=None):
    # ChannelParams' check of T, which SweepConfig, max_excess_noise and distance_km share
    out = ("nan", "inf", "-inf", "zero", "minus-one", "1e308", -0.5, 1.2, 1.5, math.nextafter(1.0, 2.0))
    return real("transmission", "transmission must lie in (0, 1], got {}", out, ("denormal", "float32", *ok), also)


def excess_noise():
    # ChannelParams' check of xi, which threshold_transmission and max_distance share
    out = ("nan", "inf", "-inf", "minus-one", -0.1, -5e-324)
    ok = ("zero", "denormal", "1e308", "float32")
    return real("excess noise", "excess noise must be finite and >= 0, got {}", out, ok)


def epr_variance():
    out = ("nan", "inf", "-inf", "zero", "minus-one", "denormal", "float32", 0.5, 0.999, math.nextafter(1.0, 0.0))
    return real("EPR variance", "EPR variance must be finite and >= 1, got {}", out, ("1e308", 1.0))


def at_least_one(what, ok=("inf", "1e308"), also=None):
    out = ("nan", "-inf", "zero", "minus-one", "denormal", "float32", 0.5, math.nextafter(1.0, 0.0))
    return real(what, f"{what} must be >= 1, got {{}}", out, (*ok, 1.0), also)


def nonnegative(field):
    out = ("nan", "-inf", "minus-one", -0.5, -5e-324)
    ok = ("inf", "zero", "denormal", "1e308", "float32")
    return real(field, f"{field} must be nonnegative, got {{}}", out, ok)


def attenuation(ok=("denormal", "1e308", "float32"), also=None):
    out = ("nan", "inf", "-inf", "zero", "minus-one", -5e-324)
    return real("attenuation", "attenuation must be finite and positive, got {}", out, ok, also)


def column():
    return every(f"unknown record column {{!r}}; expected one of {COLUMNS}", "x_c", "X_A")


def member(field, enum_type, *edges):
    return every(f"{field} must be a {enum_type.__name__} member, got {{!r}}", *edges)


def bins(width):
    # empirical_entropy's histogram budget, at SAMPLES
    return DomainError, rf"^bin width {re.escape(str(width))} needs \S+ bins, over 10000000$"


def budget(count, what):
    return exactly(MemoryError, f"{count} {what}")


TOO_FEW = exactly(InsufficientDataError, "entropy estimate needs >= 1000 samples, got 1")
UNBINNABLE = exactly(DomainError, "samples are constant, non-finite or too large to bin")
BEYOND_FLOATS = exactly(PrecisionError, "samples hold an integer beyond the float range")
NO_MODE = f"need (int, Quadrature), got ({{!r}}, {Quadrature.X!r})"

# (name, argument) -> label -> (value, outcome)
ARGUMENTS = {
    ("ChannelParams", "transmission"): transmission(),
    ("ChannelParams", "excess_noise"): excess_noise(),
    **{("ConditionalVariances", field): nonnegative(field) for field in VARIANCES},
    **{("ConditionalVariances", field): member(field, VarianceKind, "full", Flavor.EB)
       for field in ("kind_b_given_a", "kind_a_given_b")},
    ("CovarianceMatrix", "a"): epr_variance(),
    ("CovarianceMatrix", "b"): transmission(),
    ("CovarianceMatrix", "c"): excess_noise(),
    ("FibreModel", "attenuation_db_per_km"): attenuation(),
    ("FibreModel.distance_km", "transmission"): transmission(),
    ("FibreModel(attenuation).distance_km", "attenuation"): attenuation(("1e308", "float32"), {
        "denormal": (5e-324, exactly(PrecisionError, "distance overflows at attenuation 5e-324")),
    }),
    ("MeasurementRecord.column", "name"): column(),
    ("ModeQuadrature", "mode"): integer(
        NO_MODE, "mode {} out of range for a two-mode state", ("minus-one", "10**400", 2, -2), ("zero", 1),
        refused=(0.5, 1.0),
    ),
    ("ModeQuadrature", "quadrature"): every("need (int, Quadrature), got (0, {!r})", "x", "p", 1),
    ("ProtocolSpec", "reconciliation"): member("reconciliation", Reconciliation, "dr", Flavor.EB),
    ("ProtocolSpec", "alice_measurement"): member("alice_measurement", Measurement, "hom", Flavor.EB),
    ("ProtocolSpec", "bob_measurement"): member("bob_measurement", Measurement, "het", Reconciliation.RR),
    ("ProtocolSpec", "flavor"): member("flavor", Flavor, "pm", Measurement.HOM),
    ("ProtocolSpec.parse", "protocol_id"): {
        **every("protocol id must be a string, got {!r}"),
        "str": ("2", exactly(DomainError, "unknown protocol id '2'")),
    },
    ("SweepConfig", "t_min"): transmission((), {
        "1.0": (1.0, exactly(DomainError, "need t_min < t_max, got 1.0, 1.0")),
    }),
    ("SweepConfig", "t_max"): transmission((1.0, "float32"), {
        "denormal": (5e-324, exactly(DomainError, "need t_min < t_max, got 0.1, 5e-324")),
        "0.1": (0.1, exactly(DomainError, "need t_min < t_max, got 0.1, 0.1")),
    }),
    ("SweepConfig", "steps"): integer(
        "grid steps must be an integer, got {!r}", "grid needs at least 1 step, got {}", ("zero", "minus-one"),
        (1, 2, MAX_GRID_POINTS), {
            "10**400": (10**400, budget(10**400, "grid points exceed the budget of 5000000")),
            "budget": (MAX_GRID_POINTS + 1, budget(5000001, "grid points exceed the budget of 5000000")),
        }, refused=(2.5, 10.0, "10"),
    ),
    ("apply_channel", "mode"): integer(
        "mode must be an integer, got {!r}",
        "mode {} out of range for a two-mode state: channels act on Bob's arm, mode 1",
        ("minus-one", "10**400", 2), (1,), {
            "zero": (0, exactly(DomainError, "mode 0 on Alice's arm: channels act on Bob's arm, mode 1")),
        }, refused=(1.0,),
    ),
    ("devetak_winter_oracle", "direction"): every(
        "reconciliation direction must be a Reconciliation, got {!r}", "rr", Flavor.EB
    ),
    ("empirical_entropy", "samples"): {
        **{label: (value, TOO_FEW) for label, value in ODD.items()},
        "10**400": (10**400, BEYOND_FLOATS),
        "array-10**400": ([10**400] * 2000, BEYOND_FLOATS),
        "array-bool": ([True, False] * 1000, exactly(DomainError, "samples must be real numbers, got dtype bool")),
        "array-str": (["0.5", "1.5", "2"] * 700, exactly(DomainError, "samples must be real numbers, got dtype <U3")),
        "array-object": (SAMPLES.astype(object), exactly(DomainError, "samples must be real numbers, got dtype object")),
        # numpy turns these lists into float64 and <U32 arrays before the dtype check
        "list-with-bool": ([True, 1.5] * 1000, exactly(DomainError, "samples must be real numbers, got True")),
        "list-with-numpy-bool": ([2.0, np.True_] * 1000,
                                 exactly(DomainError, "samples must be real numbers, got True")),
        "list-with-str": (["0.5", 1.5] * 1000, exactly(DomainError, "samples must be real numbers, got dtype <U32")),
        "list-of-floats": (SAMPLES.tolist(), RETURNS),
        "999": (SAMPLES[:999], exactly(InsufficientDataError, "entropy estimate needs >= 1000 samples, got 999")),
        "1000": (SAMPLES[:1000], RETURNS),
        "array-nan": (np.full(2000, math.nan), UNBINNABLE),
        "constant": (np.ones(2000), UNBINNABLE),
        "1e300": (WIDE * 1e300, UNBINNABLE),
        "array-inf": (WIDE * math.inf, UNBINNABLE),
    },
    ("empirical_entropy", "bin_width"): real(
        "bin width", "bin width must be positive and finite, got {}", ("nan", "inf", "-inf", "zero", "minus-one"),
        ("1e308", "float32"), {label: (w, bins(w)) for label, w in (("denormal", 5e-324), ("1e-300", 1e-300),
                                                                     ("1e-20", 1e-20))},
    ),
    ("entropy_g", "nu"): real(
        "symplectic eigenvalue", "", (), ("inf", "-inf", "zero", "minus-one", "denormal", "1e308", "float32", 1.0),
        {"nan": (math.nan, exactly(DomainError, "symplectic eigenvalue is NaN"))},
    ),
    ("estimate_conditional_variance", "target"): column(),
    ("estimate_conditional_variance", "given"): column(),
    ("infer_full_mode_variance", "measured_half_conditional"): real(
        "half-mode conditional variance", "inferred variance 2*{} - 1 would be nonpositive",
        ("-inf", "zero", "minus-one", "denormal", 0.49, math.nextafter(0.5, 0.0)),
        ("inf", "1e308", "float32", 0.5, 1.0),
        {"nan": (math.nan, exactly(DomainError, "half-mode conditional variance is NaN"))},
        UnphysicalInferenceError,
    ),
    **{(f"key_rate({protocol.id}, {zero}=0)", field): {
        **nonnegative(field),
        "inf": (math.inf, exactly(DomainError, f"key rate of {protocol.id} is undefined for variances inf and 0")),
    } for protocol, field, zero in ((RR_HOM_HOM, "v_x_a_given_b", "v_p_a_given_b"),
                                    (DR_HOM_HOM, "v_x_b_given_a", "v_p_b_given_a"))},
    ("key_rate_at", "v"): at_least_one("modulation variance"),
    ("max_distance", "xi"): excess_noise(),
    ("max_excess_noise", "t"): transmission(),
    ("sample_quadratures", "v"): at_least_one("modulation variance", (MAX_SAMPLED_V,), {
        **{label: (ODD[label], exactly(DomainError, "state construction needs a finite modulation variance"))
           for label in ("inf", "-inf")},
        **{label: (x, exactly(PrecisionError, f"modulation variance {x} is above the sampling limit 1e+12, "
                              "where rounding biases the estimates"))
           for label, x in (("1e308", 1e308), ("above-the-cap", math.nextafter(MAX_SAMPLED_V, math.inf)))},
    }),
    ("sample_quadratures", "n"): integer(
        "sample count must be an integer, got {!r}", "sample count must be >= 1, got {}", ("zero", "minus-one"),
        (1,), {
            "10**400": (10**400, budget(10**400, "samples exceed the budget of 20000000 rows")),
            "budget": (MAX_SAMPLE_ROWS + 1, budget(20000001, "samples exceed the budget of 20000000 rows")),
        }, refused=(1e3, 10.5, 2.0),
    ),
    ("sample_quadratures", "seed"): integer(
        "seed must be a non-negative integer, got {!r}", "seed must be a non-negative integer, got {}",
        ("minus-one",), ("zero", "10**400"), refused=(1.5,),
    ),
    ("threshold_transmission", "xi"): excess_noise(),
    ("tmsv", "v"): epr_variance(),
    ("vacuum", "n_modes"): integer(
        "mode count must be an integer, got {!r}", "need two modes, got {}",
        ("zero", "minus-one", "10**400", 1, 3), (2,), refused=(1.5,),
    ),
}
# rows that replace several arguments, and so show which is checked first
CHECK_ORDER = [
    *(("CovarianceMatrix", {"a": x, "b": x}, exactly(DomainError, f"EPR variance must be finite and >= 1, got {x}"))
      for x in (math.nan, math.inf, -math.inf)),
    ("CovarianceMatrix", {"b": math.inf, "c": math.nan},
     exactly(DomainError, "transmission must lie in (0, 1], got inf")),
    ("ChannelParams", {"transmission": 2.0, "excess_noise": -1.0},
     exactly(DomainError, "transmission must lie in (0, 1], got 2.0")),
    ("SweepConfig", {"t_min": 0.5, "t_max": 0.5, "steps": 10},
     exactly(DomainError, "need t_min < t_max, got 0.5, 0.5")),
    ("SweepConfig", {"t_min": 2.0, "t_max": -1.0, "steps": 0},
     exactly(DomainError, "transmission must lie in (0, 1], got 2.0")),
    ("SweepConfig", {"t_min": 0.5, "t_max": 0.5, "steps": 1}, RETURNS),
    ("ModeQuadrature", {"mode": 1, "quadrature": "p"},
     exactly(DomainError, "need (int, Quadrature), got (1, 'p')")),
    ("ModeQuadrature", {"mode": 2, "quadrature": Quadrature.P},
     exactly(DomainError, "mode 2 out of range for a two-mode state")),
    ("sample_quadratures", {"v": math.nan, "n": 0, "seed": -1},
     exactly(DomainError, "sample count must be >= 1, got 0")),
    ("sample_quadratures", {"v": math.nan, "seed": -1},
     exactly(DomainError, "seed must be a non-negative integer, got -1")),
    *(("estimate_conditional_variance", {"target": c, "given": c},
       exactly(DomainError, "target and given columns must differ")) for c in COLUMNS),
    ("estimate_conditional_variance", {"target": "x_c", "given": "x_c"},
     exactly(DomainError, f"unknown record column 'x_c'; expected one of {COLUMNS}")),
]
ROWS = [
    pytest.param(name, {argument: value}, outcome, id=f"{name}-{argument}-{label}")
    for (name, argument), rows in ARGUMENTS.items() for label, (value, outcome) in rows.items()
] + [
    pytest.param(name, replace, outcome, id=f"{name}-" + "-".join(f"{k}={v!r}" for k, v in replace.items()))
    for name, replace, outcome in CHECK_ORDER
]


def _numbers(result):
    """Every real scalar of a result, as a float, through records, tuples, lists and dicts.

    Records are tuples, so the tuple branch walks their fields. Arrays are
    skipped: a NaN cell of a record column marks an unmeasured quadrature.
    """
    if type(result).__module__.startswith("cvqkd"):  # a record, or an enum member
        assert isinstance(result, (tuple, enum.Enum)), f"the walk cannot enter {result!r}"
    if isinstance(result, (tuple, list)):
        for item in result:
            yield from _numbers(item)
    elif isinstance(result, dict):
        for item in result.values():
            yield from _numbers(item)
    elif isinstance(result, numbers.Real) and not isinstance(result, numbers.Integral):
        yield float(result)  # an int is finite, even beyond the float range


def test_every_public_callable_is_classified():
    # a new public callable joins CALLS or OBJECT_ARGUMENTS_ONLY, and an inf result is documented;
    # every exported error is a CVQKDError
    for name in DOCUMENTED_INF:
        assert "inf" in getattr(cvqkd, name).__doc__, name
    values = {name: getattr(cvqkd, name) for name in cvqkd.__all__}
    errors = {value for value in values.values() if inspect.isclass(value) and issubclass(value, Exception)}
    assert PrecisionError in errors and all(issubclass(error, CVQKDError) for error in errors)
    callables = {
        name for name, value in values.items()
        if not (inspect.isclass(value) and issubclass(value, (Exception, enum.Enum)))
    }
    top_level = {name.split(".")[0] for name in CALLS}
    assert callables <= top_level | OBJECT_ARGUMENTS_ONLY, callables - top_level - OBJECT_ARGUMENTS_ONLY


def test_every_argument_has_a_row_for_every_odd_value():
    assert set(ARGUMENTS) == {(name, arg) for name, (_, kwargs) in CALLS.items() for arg in kwargs}
    for key, rows in ARGUMENTS.items():
        assert set(ODD) <= set(rows), (key, set(ODD) - set(rows))


@pytest.mark.parametrize("name, replace, outcome", ROWS)
def test_each_value_returns_or_raises_as_its_row_states(name, replace, outcome):
    call, valid = CALLS[name]
    if outcome is RETURNS:
        result = call(**{**valid, **replace})
        for x in _numbers(result):
            assert not math.isnan(x) and (math.isfinite(x) or name in DOCUMENTED_INF), result
        return
    error, pattern = outcome
    with pytest.raises(error, match=pattern) as raised:
        call(**{**valid, **replace})
    assert type(raised.value) is error


def _leaves(result):
    # the scalars reachable from a result with their types, and each array as its dtype and bytes
    if isinstance(result, np.ndarray):
        yield result.dtype, result.tobytes()
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _leaves(item)
    elif isinstance(result, dict):
        for item in result.values():
            yield from _leaves(item)
    else:
        yield type(result), repr(result)


def _outcome(call):
    # what a call gives: the leaves of its result, or its error and message
    try:
        return list(_leaves(call()))
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return type(exc), str(exc)


# results read further: a channel through the functions that compute with it, the variances
# through the key rate computed from them, and a mode quadrature through a state's variance
THROUGH = {
    "ChannelParams": lambda ch: (
        ch, apply_channel(tmsv(5.0), ch, 1), key_rate_at(RR_HOM_HET, ch, 5.0),
    ),
    "ConditionalVariances": lambda cv: (cv, key_rate(RR_HOM_HOM, cv)),
    "ModeQuadrature": lambda mq: (mq, CovarianceMatrix(5.0, 0.7, 0.1).variance(mq)),
}
# the arguments that take a number, an array of them included, and those whose valid value is a float
NUMERIC_ARGUMENTS = [
    (name, arg) for name, (_, kwargs) in CALLS.items() for arg, value in kwargs.items()
    if value.__class__ in (int, float, np.ndarray)
]
FLOAT_ARGUMENTS = [(name, arg) for name, arg in NUMERIC_ARGUMENTS if CALLS[name][1][arg].__class__ is float]


@pytest.mark.parametrize("name, argument", FLOAT_ARGUMENTS)
def test_a_float32_is_its_value(name, argument):
    # a float32 argument is computed in float64, as the float of its value is
    call, valid = CALLS[name]
    through = THROUGH.get(name, lambda result: result)
    x = np.float32(valid[argument])
    got = through(call(**{**valid, argument: x}))
    want = through(call(**{**valid, argument: float(x)}))
    assert list(_leaves(got)) == list(_leaves(want))


@pytest.mark.parametrize("integer", [np.int32, np.int64, np.uint32])
@pytest.mark.parametrize("name, argument", NUMERIC_ARGUMENTS)
def test_a_numpy_integer_is_its_int(name, argument, integer):
    # the least integer at or above the valid value, as a numpy integer and as an int (a list
    # of them for an array), gives one result, or one error
    call, valid = CALLS[name]
    through = THROUGH.get(name, lambda result: result)
    x = np.ceil(valid[argument]).astype(integer)
    assert _outcome(lambda: through(call(**{**valid, argument: x}))) == _outcome(
        lambda: through(call(**{**valid, argument: x.tolist()}))
    )


RATE = key_rate_at(RR_HOM_HOM, ChannelParams(0.5, 0.01), 5.0)
# each record that checks its fields: a valid one, and a field value its checks reject
CHECKED = {
    "ChannelParams": (ChannelParams(0.5, 0.01), "transmission", 2.0, "transmission must lie in"),
    "ModeQuadrature": (ModeQuadrature(1, Quadrature.P), "mode", 2, "mode 2 out of range"),
    "CovarianceMatrix": (tmsv(2.0), "transmission", 2.0, "transmission must lie in"),
    "ProtocolSpec": (RR_HOM_HOM, "flavor", "pm", "flavor must be a Flavor member"),
    "ConditionalVariances": (RATE.variances, "kind_a_given_b", "full", "kind_a_given_b must be"),
    "FibreModel": (FibreModel(), "attenuation_db_per_km", 0.0, "attenuation must be finite"),
    "SweepConfig": (SweepConfig(0.1, 1.0, 5), "steps", 0, "grid needs at least 1 step"),
}
UNCHECKED = {
    "KeyRateResult": RATE,
    "MeasurementRecord": RECORD,
    "EstimateWithError": estimate_conditional_variance(RECORD, "x_b", "x_a"),
    "SimulatedKeyRate": estimate_key_rate(RECORD),
}


def test_records_are_tuples():
    # every record is a namedtuple: equal to, hashed and ordered as the tuple of its fields
    records = {
        name for name in cvqkd.__all__
        if isinstance(getattr(cvqkd, name), type) and issubclass(getattr(cvqkd, name), tuple)
    }
    assert records == set(CHECKED) | set(UNCHECKED)
    assert not any(hasattr(getattr(cvqkd, name), "__dataclass_fields__") for name in records)
    ch = ChannelParams(0.5, 0.01)
    assert ch == (0.5, 0.01) and hash(ch) == hash((0.5, 0.01)) and ChannelParams(0.4) < ch
    assert len(ch) == 2 and list(ch) == [0.5, 0.01] and ch[1] == 0.01
    assert ch._asdict() == {"transmission": 0.5, "excess_noise": 0.01}
    assert SweepConfig(t_min=0.5, t_max=1.0, steps=1) == (0.5, 1.0, 1)
    cv = ConditionalVariances(v_x_b_given_a=1, v_p_b_given_a=2, v_x_a_given_b=3, v_p_a_given_b=4)
    assert cv == (1, 2, 3, 4, VarianceKind.FULL, VarianceKind.FULL)
    assert isinstance(RATE, KeyRateResult) and RATE[-1] is RATE.variances


@pytest.mark.parametrize(
    "record, name", [(ChannelParams(0.5), "transmission"), (ChannelParams(0.5), "extra"),
                     (tmsv(2.0), "_nus"), (RR_HOM_HOM, "_kinds")],
    ids=["field", "new", "spectrum", "fact"],
)
def test_records_are_immutable(record, name):
    # as the frozen records were: no field, derived fact or new attribute is set or deleted
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(record, name)


@pytest.mark.parametrize("route", COPY_ROUTES.values(), ids=list(COPY_ROUTES))
@pytest.mark.parametrize("name", list(CHECKED))
def test_copy_routes_rerun_the_checks(name, route):
    record, field, bad, message = CHECKED[name]
    copied = route(record)
    assert type(copied) is type(record) and copied == record
    with pytest.raises(CVQKDError, match=message):
        record._replace(**{field: bad})
    # the same fields put together without the checks, as namedtuple's own _make does
    unchecked = tuple.__new__(type(record), (record._asdict() | {field: bad}).values())
    with pytest.raises(CVQKDError, match=message):
        route(unchecked)


@pytest.mark.parametrize("route", COPY_ROUTES.values(), ids=list(COPY_ROUTES))
def test_copy_routes_recompute_the_derived_facts(route):
    # each route derives a copy's facts from its fields, and never carries over the original's
    facts = [
        *((cm, ["a", "b", "_det", "_nus"]) for cm in (tmsv(2.0), CovarianceMatrix(2.0, 0.5, 1.0))),
        (RR_HOM_HOM, ["_a_het", "_b_het", "_dr", "_kinds", "_one_sided_di"]),
    ]
    for record, names in facts:
        stale = tuple.__new__(type(record), record)
        for name in names:
            object.__setattr__(stale, name, None)
        copied = route(stale)
        assert [getattr(copied, n) for n in names] == [getattr(record, n) for n in names]


def test_replace_derives_the_facts_of_the_new_fields():
    pm = RR_HOM_HOM._replace(flavor=Flavor.PM)
    assert pm == ProtocolSpec.parse("rr-homA-homB-pm")
    assert RR_HOM_HOM._one_sided_di is OneSidedDI.INDEPENDENT_OF_ALICE
    assert pm._one_sided_di is OneSidedDI.NOT_1SDI
    cm = tmsv(2.0)._replace(transmission=0.5)
    assert cm._nus == CovarianceMatrix(2.0, 0.5)._nus and cm._nus != tmsv(2.0)._nus
    assert cm._det == CovarianceMatrix(2.0, 0.5)._det and cm._det > tmsv(2.0)._det == 1.0


@pytest.mark.parametrize("route", COPY_ROUTES.values(), ids=list(COPY_ROUTES))
@pytest.mark.parametrize("name", list(UNCHECKED))
def test_copy_routes_keep_unchecked_records(name, route):
    record = UNCHECKED[name]
    copied = route(record)
    assert type(copied) is type(record) and len(copied) == len(record)
    for got, want in zip(copied, record):
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(got, want)
        else:
            assert got == want
