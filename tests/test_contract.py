"""The public-API input contract: every numeric or string argument, odd values included.

Each public callable that takes a number or a string is called with each
value of ``ODD_VALUES`` in each such argument, the others held valid. The
call must return finite numbers (an infinity only where the callable
documents one, None where it documents one) or raise a ``CVQKDError``:
never NaN and never an untyped exception. Arguments of object type (a
protocol, a channel, a covariance matrix, a record) are outside the
contract, as the ``errors`` module states. The records themselves are
namedtuples: their semantics, and that every route copying one runs its
checks again, are pinned at the end.
"""

import enum
import inspect
import math

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
    KeyRateResult,
    Measurement,
    ModeQuadrature,
    OneSidedDI,
    ProtocolSpec,
    Quadrature,
    Reconciliation,
    SweepConfig,
    VarianceKind,
    apply_channel,
    empirical_entropy,
    entropy_g,
    estimate_conditional_variance,
    estimate_key_rate,
    gaussian_shannon_entropy,
    infer_full_mode_variance,
    key_rate_at,
    max_distance,
    max_excess_noise,
    optimize_modulation,
    sample_quadratures,
    threshold_transmission,
    tmsv,
    vacuum,
)

ODD_VALUES = [
    None, "2", True, math.nan, math.inf, -math.inf, 0, -1, 5e-324, 1e308,
    np.float32(0.5), np.array(2.0), [1.0],
]
ODD_IDS = [
    "none", "str", "bool", "nan", "inf", "-inf", "zero", "minus-one", "denormal", "1e308",
    "float32", "0d-array", "list",
]

RR_HOM_HOM = ProtocolSpec.parse("rr-homA-homB-eb")
RR_HET_HET = ProtocolSpec.parse("rr-hetA-hetB-eb")
RECORD = sample_quadratures(RR_HET_HET, ChannelParams(0.9, 0.01), 3.0, 200, seed=1)

# name -> (call, valid keyword arguments: each is replaced in turn)
CALLS = {
    "ChannelParams": (ChannelParams, {"transmission": 0.5, "excess_noise": 0.01}),
    "ConditionalVariances": (ConditionalVariances, {
        **dict.fromkeys(("v_x_b_given_a", "v_p_b_given_a", "v_x_a_given_b", "v_p_a_given_b"), 0.5),
        "kind_b_given_a": VarianceKind.FULL, "kind_a_given_b": VarianceKind.FULL,
    }),
    "CovarianceMatrix": (CovarianceMatrix, {"a": 2.0, "b": 1.5, "c": 1.0}),
    "FibreModel": (FibreModel, {"attenuation_db_per_km": 0.2}),
    "FibreModel.distance_km": (FibreModel().distance_km, {"transmission": 0.5}),
    "FibreModel(attenuation).distance_km": (
        lambda attenuation: FibreModel(attenuation).distance_km(0.5), {"attenuation": 0.2}
    ),
    "MeasurementRecord.column": (RECORD.column, {"name": "x_a"}),
    "ModeQuadrature": (lambda mode: ModeQuadrature(mode, Quadrature.X), {"mode": 0}),
    "ProtocolSpec": (ProtocolSpec, {
        "reconciliation": Reconciliation.RR, "alice_measurement": Measurement.HOM,
        "bob_measurement": Measurement.HOM, "flavor": Flavor.EB,
    }),
    "ProtocolSpec.parse": (ProtocolSpec.parse, {"protocol_id": "rr-homA-homB-eb"}),
    "SweepConfig": (SweepConfig, {"t_min": 0.1, "t_max": 1.0, "steps": 3}),
    "apply_channel": (lambda mode: apply_channel(tmsv(2.0), ChannelParams(0.5), mode), {"mode": 1}),
    "empirical_entropy": (empirical_entropy, {"samples": np.linspace(-1.0, 1.0, 2000), "bin_width": 0.1}),
    "entropy_g": (entropy_g, {"nu": 2.0}),
    "estimate_conditional_variance": (
        lambda target, given: estimate_conditional_variance(RECORD, target, given),
        {"target": "x_b", "given": "x_a"},
    ),
    "gaussian_shannon_entropy": (gaussian_shannon_entropy, {"v": 2.0}),
    "infer_full_mode_variance": (infer_full_mode_variance, {"measured_half_conditional": 0.75}),
    "key_rate_at": (lambda v: key_rate_at(RR_HOM_HOM, ChannelParams(0.9, 0.01), v), {"v": 5.0}),
    "max_distance": (lambda xi: max_distance(RR_HOM_HOM, xi), {"xi": 0.002}),
    "max_excess_noise": (lambda t: max_excess_noise(RR_HOM_HOM, t), {"t": 0.9}),
    "optimize_modulation": (
        lambda v_max: optimize_modulation(RR_HOM_HOM, ChannelParams(0.9, 0.01), v_max), {"v_max": 10.0}
    ),
    "sample_quadratures": (
        lambda v, n, seed: sample_quadratures(RR_HOM_HOM, ChannelParams(0.9), v, n, seed),
        {"v": 3.0, "n": 10, "seed": 1},
    ),
    "threshold_transmission": (lambda xi: threshold_transmission(RR_HOM_HOM, xi), {"xi": 0.01}),
    "tmsv": (tmsv, {"v": 2.0}),
    "vacuum": (vacuum, {"n_modes": 2}),
}
# public callables whose every argument is an object, an enum member or a record
OBJECT_ARGUMENTS_ONLY = {
    "KeyRateResult", "EstimateWithError", "MeasurementRecord", "SimulatedKeyRate",
    "classify_1sdi", "devetak_winter_oracle", "key_rate", "verify_ur_bipartite",
    "verify_ur_tripartite", "conditional_variance", "symplectic_eigenvalues",
    "von_neumann_entropy", "estimate_key_rate", "security_region",
}
# callables that document an infinite result for some argument
DOCUMENTED_INF = {
    "ConditionalVariances", "entropy_g", "gaussian_shannon_entropy", "infer_full_mode_variance",
    "optimize_modulation",
}


def _numbers(result):
    """Every scalar number reachable from a result, through records, tuples, lists and dicts.

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
    elif isinstance(result, (float, np.floating)):
        yield float(result)


def test_every_public_callable_is_classified():
    # a new public callable joins CALLS or OBJECT_ARGUMENTS_ONLY, and an inf result is documented
    for name in DOCUMENTED_INF:
        assert "inf" in getattr(cvqkd, name).__doc__, name
    callables = {
        name
        for name, value in ((name, getattr(cvqkd, name)) for name in cvqkd.__all__)
        if not (inspect.isclass(value) and issubclass(value, (Exception, enum.Enum)))
    }
    top_level = {name.split(".")[0] for name in CALLS}
    assert callables <= top_level | OBJECT_ARGUMENTS_ONLY, callables - top_level - OBJECT_ARGUMENTS_ONLY


@pytest.mark.parametrize(
    "name, argument", [(name, arg) for name, (_, kwargs) in CALLS.items() for arg in kwargs]
)
def test_odd_arguments_return_finite_values_or_raise_typed_errors(name, argument):
    call, valid = CALLS[name]
    violations = []
    for value, label in zip(ODD_VALUES, ODD_IDS):
        try:
            result = call(**{**valid, argument: value})
        except CVQKDError:
            continue
        except Exception as exc:  # noqa: BLE001 - the contract forbids any other type
            violations.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        for x in _numbers(result):
            if math.isnan(x) or (math.isinf(x) and name not in DOCUMENTED_INF):
                violations.append(f"{label}: returned {result!r}")
                break
    assert not violations, violations


@pytest.mark.parametrize(
    "name, argument",
    [(name, arg) for name, (_, kwargs) in CALLS.items() for arg, value in kwargs.items()
     if isinstance(value, (int, float)) and value.__class__ is not bool],
)
def test_a_bool_is_no_number(name, argument):
    # True compares as 1, yet no numeric argument takes it: each rejects it as _typed does
    call, valid = CALLS[name]
    with pytest.raises(DomainError, match="True"):
        call(**{**valid, argument: True})


RATE = key_rate_at(RR_HOM_HOM, ChannelParams(0.5, 0.01), 5.0)
# each record that checks its fields: a valid one, and a field value its checks reject
CHECKED = {
    "ChannelParams": (ChannelParams(0.5, 0.01), "transmission", 2.0, "transmission must lie in"),
    "ModeQuadrature": (ModeQuadrature(1, Quadrature.P), "mode", 2, "mode 2 out of range"),
    "CovarianceMatrix": (tmsv(2.0), "c", 5.0, "not positive definite"),
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
                     (tmsv(2.0), "_nus"), (tmsv(2.0), "_s_ab"), (RR_HOM_HOM, "_kinds")],
    ids=["field", "new", "spectrum", "entropy", "fact"],
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
        (tmsv(2.0), ["_nus", "_s_ab"]), (CovarianceMatrix(2.0, 1.5, 1.0), ["_nus", "_s_ab"]),
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
    cm = tmsv(2.0)._replace(b=3.0)
    assert cm._nus == CovarianceMatrix(2.0, 3.0, cm.c)._nus and cm._nus != tmsv(2.0)._nus
    assert cm._s_ab == CovarianceMatrix(2.0, 3.0, cm.c)._s_ab and cm._s_ab > tmsv(2.0)._s_ab == 0.0


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
