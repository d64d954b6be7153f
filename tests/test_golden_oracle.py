"""Every printed slack and key rate of the golden files against the 60-digit oracle.

The golden replay pins bytes; this pins truth. It walks each exit-0 case of
``tests/golden/verify-ur.txt`` and ``tests/golden/keyrate.txt``, rebuilds the
case's points from its argv with the CLI's own parser, and checks each
``slack_bipartite``, ``slack_tripartite`` and ``key_rate_bits`` cell, text
and JSON alike: the printed 9 significant digits must be the oracle's.

A slack below ``NEAR_ZERO`` in magnitude is held to ``SLACK_FLOOR`` bits
instead. The slack is a difference of entropies of up to about 40 bits on
these grids, each rounded to a few eps, so its absolute error is about
1e-14 bits whatever its size (``test_gaussian``'s oracle property); 9
digits of a slack below 1e-4 would resolve finer than that. At (7e7, 1, 0)
the float slack prints -1.77635684e-15 where the oracle reads 4.9e-17.
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


VERIFY_UR = exit_zero_cases("verify-ur")
KEYRATE = exit_zero_cases("keyrate")


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


@pytest.mark.parametrize("argv, stdout", KEYRATE, ids=[shlex.join(a) for a, _ in KEYRATE])
def test_keyrate_rates_are_the_oracle_rates(argv, stdout):
    args = build_parser().parse_args(argv)
    (record,) = records(stdout, args.json)
    want = float(oracle.key_rate(args.protocol, args.transmission, args.xi, args.modulation))
    assert_cell(record["key_rate_bits"], want)


def test_the_walk_covers_every_printed_cell():
    # 4 x 10 x 4 + 4 x 2 x 4 rows, each in text and JSON, and four one-row cases
    assert sum(len(records(out, "--json" in argv)) for argv, out in VERIFY_UR) == 2 * (160 + 32) + 4
    assert len(KEYRATE) == 16 * 4 * 2 + 2
