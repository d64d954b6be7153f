"""Golden replay of the CLI: every pinned argv with its exit code, stdout and stderr.

``CASES`` lists each command's argv lists. ``render`` runs argv lists in process
through ``cvqkd.cli.main`` and writes each case as

    $ cvqkd <argv, shell-quoted>
    [exit N]
    <stdout, verbatim>
    [stderr]                  (only when stderr is not empty)
    <stderr, verbatim>

with ``\\ no newline at end`` after a stream that does not end in LF.
``test_golden`` compares the rendering with ``tests/golden/<command>.txt``
and fails with a unified diff whose hunk headers name the case.

Regenerate the files with

    PYTHONPATH=src python tests/test_golden.py

A change that moves golden bytes commits the regenerated files, so
``git diff tests/golden`` shows each moved row, and says in CHANGES.md
which cases moved and why.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import os
import shlex
from pathlib import Path
from unittest import mock

import pytest

from cvqkd import ProtocolSpec
from cvqkd.cli import main

GOLDEN = Path(__file__).parent / "golden"
PROMPT = "$ cvqkd "
NO_EOL = "\\ no newline at end\n"

_IDS = [p.id for p in ProtocolSpec.all()]


def _with_json(argvs):
    return [argv for plain in argvs for argv in (plain, [*plain, "--json"])]


CASES = {
    "keyrate": _with_json(
        ["keyrate", "--protocol", p, "--T", t, "--xi", xi, "--V", v]
        for p in _IDS
        for t, xi, v in (("1", "0", "inf"), ("0.5", "0.01", "3e7"), ("0.9", "0.1", "5"),
                         ("0.5", "1e300", "inf"))
    ) + [
        ["keyrate", "--protocol", "rr-homA-homB-eb", "--T", "1", "--json"],
        ["keyrate", "--protocol", "dr-homA-homB-eb", "--T", "1"],
        ["keyrate", "--protocol", "bogus", "--T", "1"],
        ["keyrate", "--protocol", "rr-homA-homB-eb"],
        # ROADMAP item 6, wrong today: both print key_rate_bits -inf and exit 0,
        # where the rate is finite (about -1074 and -1024 bits)
        ["keyrate", "--protocol", "dr-homA-homB-eb", "--T", "5e-324"],
        ["keyrate", "--protocol", "rr-hetA-homB-eb", "--T", "1", "--xi", "1e308"],
    ],
    "region": _with_json(["region", "--protocol", p] for p in _IDS) + [
        ["region", "--protocol", "rr-homA-homB-eb", "--steps", "3"],
        # more grid points than a list can index: out of memory, not a traceback
        ["region", "--protocol", "rr-homA-homB-eb", "--steps", "100000000000000000000"],
    ],
    "distance": _with_json(
        ["distance", "--protocol", p, "--xi", xi] for p in _IDS for xi in ("0", "0.002", "0.05")
    ) + [
        ["distance", "--protocol", "rr-homA-homB-eb", "--xi", "0", "--attenuation-db-per-km",
         "1e-320"],
    ],
    "simulate": _with_json(
        ["simulate", "--protocol", p, "--T", "0.9", "--xi", "0.01", "--V", "5", "--samples",
         "70000", "--seed", "3"]
        for p in ("rr-homA-homB-eb", "rr-hetA-hetB-eb")
    ) + [
        ["simulate", "--protocol", "rr-homA-homB-eb", "--T", "0.9", "--V", "5", "--seed", "-1"],
        # exited 3 while the factor came from the covariance matrix, whose pivot
        # b - c^2/a = 1/V rounded below zero here
        ["simulate", "--protocol", "rr-homA-homB-eb", "--T", "1", "--xi", "0", "--V",
         "66502965.66699864", "--samples", "10"],
        ["simulate", "--protocol", "rr-homA-homB-eb", "--T", "0.9"],
        # 22.6754 +- 0.0091 bits against an analytic 22.6588, +1.8 sigma; the
        # covariance-matrix factor and np.cov estimate read 22.6995, +4.5 sigma
        ["simulate", "--protocol", "rr-homA-homB-eb", "--T", "1", "--xi", "0", "--V", "9e6",
         "--samples", "100000", "--seed", "3"],
        # just above MAX_SAMPLED_V = 1e12
        ["simulate", "--protocol", "rr-homA-homB-eb", "--T", "1", "--xi", "0", "--V",
         "1.0000000000001e12", "--samples", "10"],
        # over MAX_SAMPLE_ROWS: refused before any column is allocated
        ["simulate", "--protocol", "rr-homA-homB-eb", "--T", "0.9", "--V", "5", "--samples",
         "10000000000"],
    ],
    "verify-ur": _with_json([["verify-ur"], ["verify-ur", "--steps", "2"]]) + [
        ["verify-ur", "--v-list", "1", "--xi-list", "0", "--t-min", "1", "--t-max", "1",
         "--steps", "1"],
        ["verify-ur", "--v-list", "7e7", "--xi-list", "0", "--t-min", "1", "--t-max", "1",
         "--steps", "1"],
        ["verify-ur", "--v-list", "2", "--xi-list", "1e160", "--t-min", "0.5", "--t-max", "1",
         "--steps", "1"],
        # ROADMAP item 2, wrong today: the gate snaps nu- to 1, so the slack
        # 0.44105271 is 4.59e-5 bits above its 60-digit value
        ["verify-ur", "--v-list", "7495", "--t-min", "0.0404", "--t-max", "0.0404", "--steps",
         "1", "--xi-list", "1.08e-4"],
        ["verify-ur", "--steps", "100000000000000000000"],
    ],
    "table": _with_json([["table"]]),
}


def _stream(text: str) -> str:
    # a line that reads as a marker would let two outputs render alike
    for line in text.splitlines(keepends=True):
        if line.startswith(PROMPT) or line.rstrip("\n") in ("[stderr]", NO_EOL[:-1]):
            raise ValueError(f"output line {line!r} reads as a golden-file marker")
    return text if text.endswith("\n") or not text else text + "\n" + NO_EOL


def render(argvs) -> str:
    text = ""
    # argparse wraps usage to the terminal width, which it reads from COLUMNS
    with mock.patch.dict(os.environ, COLUMNS="80"):
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage errors and --help
                    code = exc.code
            text += f"{PROMPT}{shlex.join(argv)}\n[exit {code}]\n{_stream(out.getvalue())}"
            text += f"[stderr]\n{_stream(err.getvalue())}" if err.getvalue() else ""
    return text


def golden_path(command: str) -> Path:
    return GOLDEN / f"{command}.txt"


def _diff(want: str, got: str, name: str) -> str:
    want_lines = want.splitlines(keepends=True)
    lines = []
    for line in difflib.unified_diff(want_lines, got.splitlines(keepends=True), name, "replay"):
        if line.startswith("@@"):  # name the case the hunk starts in, as git names a function
            start = int(line.split()[1][1:].split(",")[0])
            case = [w for w in want_lines[:start] if w.startswith(PROMPT)]
            line = line.rstrip("\n") + (" " + case[-1] if case else "\n")
        lines.append(line)
    return "".join(lines)


@pytest.mark.parametrize("command", CASES)
def test_golden(command):
    want = golden_path(command).read_bytes().decode()
    got = render(CASES[command])
    if got != want:
        pytest.fail(_diff(want, got, f"tests/golden/{command}.txt"), pytrace=False)


def test_usage_is_wrapped_at_80_columns_whatever_the_terminal(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    case = render([["keyrate", "--protocol", "rr-homA-homB-eb"]])
    assert case in golden_path("keyrate").read_bytes().decode()
    assert os.environ["COLUMNS"] == "200"


def test_no_two_outputs_render_alike():
    assert _stream("a") == "a\n" + NO_EOL != _stream("a\n")
    for marker in ("[stderr]", "$ cvqkd table", NO_EOL[:-1]):
        with pytest.raises(ValueError, match="reads as a golden-file marker"):
            _stream(f"a\n{marker}\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for command in CASES:
        golden_path(command).write_bytes(render(CASES[command]).encode())
