"""The public-API input contract: every numeric or string argument, odd values included.

Each public callable that takes a number or a string is called with each
value of ``ODD_VALUES`` in each such argument, the others held valid. The
call must return finite numbers (an infinity only where the callable
documents one, None where it documents one) or raise a ``CVQKDError``:
never NaN and never an untyped exception. Arguments of object type (a
protocol, a channel, a covariance matrix, a record) are outside the
contract, as the ``errors`` module states.
"""

import dataclasses
import enum
import inspect
import math

import numpy as np
import pytest

import cvqkd
from cvqkd import (
    ChannelParams,
    ConditionalVariances,
    CovarianceMatrix,
    CVQKDError,
    FibreModel,
    Flavor,
    Measurement,
    ModeQuadrature,
    ProtocolSpec,
    Quadrature,
    Reconciliation,
    SweepConfig,
    VarianceKind,
    apply_channel,
    empirical_entropy,
    entropy_g,
    estimate_conditional_variance,
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

    Arrays are skipped: a NaN cell of a record column marks an unmeasured quadrature.
    """
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        for f in dataclasses.fields(result):
            yield from _numbers(getattr(result, f.name))
    elif isinstance(result, (tuple, list)):
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
