"""Every printed number of the golden files that the package computes, against the 60-digit oracle.

The golden replay pins bytes; this pins truth. It walks each exit-0 case of
the ``verify-ur``, ``keyrate``, ``region``, ``distance`` and ``simulate``
golden files, rebuilds the case's points from its argv with the CLI's own
parser, and checks each ``slack_bipartite``, ``slack_tripartite``,
``key_rate_bits``, ``xi_max``, ``threshold_transmission``, ``loss_percent``,
``max_distance_km`` and ``analytic_key_rate_bits`` cell, text and JSON
alike: the printed 9 significant digits must be the oracle's. A cell the
oracle has no value for (no secure xi, no secure T) must be empty, null or
``no-security``.

A slack below ``NEAR_ZERO`` in magnitude is held to ``SLACK_FLOOR`` bits
instead: its absolute error is about 1e-14 bits whatever its size
(``test_gaussian``'s oracle property), and 9 digits of a slack below 1e-4
would resolve finer than that. Every printed slack is >= 0, as the
relation is: at (7e7, 1, 0) it prints 4.90712599e-17, the oracle's
4.9e-17.
"""

import json
import shlex

import pytest

import oracle
from cvqkd.cli import build_parser
from cvqkd.security import SweepConfig
from test_golden import PROMPT, golden_path

NEAR_ZERO = 1e-4
SLACK_FLOOR = 1e-13


def exit_zero_cases(command):
    """(argv, stdout) of each case of the command's golden file that exits 0."""
    cases = []
    for block in golden_path(command).read_text().split(PROMPT)[1:]:
        header, status, *lines = block.split("\n")
        if status == "[exit 0]":
            stdout = "\n".join(lines[: lines.index("[stderr]")] if "[stderr]" in lines else lines)
            cases.append((shlex.split(header), stdout))
    return cases


def records(stdout, as_json):
    """The output as a list of {name: cell} dicts: a JSON array or object, a CSV or a report."""
    if as_json:
        payload = json.loads(stdout)
        return payload if isinstance(payload, list) else [payload]
    lines = stdout.strip().split("\n")
    if "," in lines[0]:
        header = lines[0].split(",")
        return [dict(zip(header, line.split(","))) for line in lines[1:]]
    return [dict(line.split(None, 1) for line in lines)]


def assert_cell(cell, want, floor=None):
    # a text cell is the %.9g string, a JSON one the float of it, null for inf
    if want == float("inf"):
        assert cell in ("inf", None), cell
    elif floor is not None and abs(want) < NEAR_ZERO:
        assert abs(float(cell) - want) <= floor, (cell, want)
    else:
        assert float(cell) == float(f"{want:.9g}"), (cell, f"{want:.9g}")


def assert_none(cell):
    # no secure value: an empty CSV cell, a JSON null, or the distance report's word
    assert cell in ("", None, "no-security"), cell


VERIFY_UR = exit_zero_cases("verify-ur")
KEYRATE = exit_zero_cases("keyrate")
REGION = exit_zero_cases("region")
DISTANCE = exit_zero_cases("distance")
SIMULATE = exit_zero_cases("simulate")


@pytest.mark.parametrize("argv, stdout", VERIFY_UR, ids=[shlex.join(a) for a, _ in VERIFY_UR])
def test_verify_ur_slacks_are_the_oracle_slacks(argv, stdout):
    args = build_parser().parse_args(argv)
    ts = SweepConfig(args.t_min, args.t_max, args.steps).t_values()
    points = [(v, t, xi) for v in args.v_list for t in ts for xi in args.xi_list]
    rows = records(stdout, args.json)
    assert len(rows) == len(points)
    for point, row in zip(points, rows):
        want = float(oracle.ur_slack(*point))
        for name in ("slack_bipartite", "slack_tripartite"):
            assert_cell(row[name], want, floor=SLACK_FLOOR)
            assert float(row[name]) >= 0.0, (point, row[name])


@pytest.mark.parametrize("argv, stdout", KEYRATE, ids=[shlex.join(a) for a, _ in KEYRATE])
def test_keyrate_rates_are_the_oracle_rates(argv, stdout):
    args = build_parser().parse_args(argv)
    (record,) = records(stdout, args.json)
    want = float(oracle.key_rate(args.protocol, args.transmission, args.xi, args.modulation))
    assert_cell(record["key_rate_bits"], want)


@pytest.mark.parametrize("argv, stdout", REGION, ids=[shlex.join(a) for a, _ in REGION])
def test_region_xi_max_is_the_oracle_xi_max(argv, stdout):
    args = build_parser().parse_args(argv)
    ts = SweepConfig(args.t_min, args.t_max, args.steps).t_values()
    rows = records(stdout, args.json)
    assert len(rows) == len(ts)
    for t, row in zip(ts, rows):
        want = oracle.xi_max(args.protocol, t)
        if want is None:
            assert_none(row["xi_max"])
        else:
            assert_cell(row["xi_max"], float(want))


@pytest.mark.parametrize("argv, stdout", DISTANCE, ids=[shlex.join(a) for a, _ in DISTANCE])
def test_distance_cells_are_the_oracle_cells(argv, stdout):
    args = build_parser().parse_args(argv)
    (record,) = records(stdout, args.json)
    names = ("threshold_transmission", "loss_percent", "max_distance_km")
    want = oracle.distance(args.protocol, args.xi, args.attenuation_db_per_km)
    if want is None:
        for name in names if args.json else names[2:]:
            assert_none(record[name])
    else:
        for name, value in zip(names, want):
            assert_cell(record[name], float(value))


@pytest.mark.parametrize("argv, stdout", SIMULATE, ids=[shlex.join(a) for a, _ in SIMULATE])
def test_simulate_analytic_rate_is_the_oracle_rate(argv, stdout):
    args = build_parser().parse_args(argv)
    (record,) = records(stdout, args.json)
    want = float(oracle.key_rate(args.protocol, args.transmission, args.xi, args.modulation))
    assert_cell(record["analytic_key_rate_bits"], want)


def test_the_walk_covers_every_printed_cell():
    # 4 x 10 x 4 + 4 x 2 x 4 rows, each in text and JSON, and four one-row cases
    assert sum(len(records(out, "--json" in argv)) for argv, out in VERIFY_UR) == 2 * (160 + 32) + 4
    assert len(KEYRATE) == 16 * 4 * 2 + 2
    # 16 protocols' default 100-point grids in text and JSON, and one 3-point grid
    assert sum(len(records(out, "--json" in argv)) for argv, out in REGION) == 16 * 2 * 100 + 3
    assert len(DISTANCE) == 16 * 3 * 2
    assert len(SIMULATE) == 2 * 2 + 2
