"""Command-line surface: key rates, sweeps, distances, simulation and tables.

Each command returns one record; `main` renders it and writes it, to
stdout or --out. A dict is an aligned `name  value` report, or a JSON
object with --json; a (header, rows) pair is CSV, or a JSON array of
objects. Only the table's grid comes laid out as text. Every value is
one cell: 9 significant digits, "" for None, lower-case booleans; JSON
carries the same rounded numbers, with null for inf and NaN.

Exit codes: 0 on success (including "no security" and negative-key results),
2 on usage errors (including an --out path that cannot be written), 3 on
numeric/domain errors and on a failed allocation ("error: out of memory").
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .bounds import (
    OneSidedDI,
    ProtocolSpec,
    classify_1sdi,
    verify_ur_tripartite,
)
from .errors import CVQKDError
from .gaussian import ChannelParams, apply_channel, tmsv
from .montecarlo import estimate_key_rate, sample_quadratures
from .security import FibreModel, SweepConfig, key_rate_at, security_region, threshold_transmission

_VALID_IDS = [p.id for p in ProtocolSpec.all()]


def _cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x).lower() if isinstance(x, bool) else str(x)


def _plain(x):
    # JSON carries the same 9-significant-digit values as the text and CSV;
    # it has no spelling for inf or NaN, so those become null
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_plain(v) for v in x]
    if isinstance(x, float):
        return float(_cell(x)) if math.isfinite(x) else None
    return x


def _json(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _protocol_arg(value: str) -> ProtocolSpec:
    try:
        return ProtocolSpec.parse(value)
    except CVQKDError:
        raise argparse.ArgumentTypeError(
            f"unknown protocol id {value!r}; valid ids: {', '.join(_VALID_IDS)}"
        ) from None


def _float_list_arg(value: str) -> list[float]:
    try:
        return [float(part) for part in value.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {value!r}") from None


def _render(record, as_json: bool) -> str:
    if isinstance(record, str):  # the table's grid, already laid out
        return record
    if isinstance(record, tuple):
        header, rows = record
        if not as_json:  # every cell is a number or empty, so no CSV quoting is needed
            return "".join(",".join(map(_cell, row)) + "\n" for row in [header, *rows])
        record = [dict(zip(header, row)) for row in rows]
    if as_json:
        return _json(_plain(record))
    width = max(map(len, record))
    return "".join(f"{k.ljust(width)}  {_cell(v)}\n" for k, v in record.items())


@functools.cache  # one parser per process: parsing leaves it as it was built
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cvqkd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p, out="out"):
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", default=None, dest=out, metavar="OUT")

    def add_common(p, point=True, out="out", v_required=False):
        p.add_argument("--protocol", type=_protocol_arg, required=True)
        if point:  # one (T, xi, V) operating point; the solvers work in the V -> inf limit
            p.add_argument("--T", type=float, dest="transmission", required=True)
            p.add_argument("--xi", type=float, default=0.0)
            p.add_argument(
                "--V", type=float, default=math.inf, dest="modulation", required=v_required
            )
        add_output(p, out)

    p = sub.add_parser("keyrate", help="key rate, variances, steering, classification")
    add_common(p)

    p = sub.add_parser("region", help="xi_max over a transmission grid (CSV)")
    add_common(p, point=False)
    p.add_argument("--t-min", type=float, default=0.01)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100)

    p = sub.add_parser("distance", help="maximum fibre distance at a given excess noise")
    add_common(p, point=False)
    p.add_argument("--xi", type=float, default=0.0)
    p.add_argument("--attenuation-db-per-km", type=float, default=0.2)

    p = sub.add_parser("simulate", help="sampled run: empirical key rate vs analytic")
    # --out names the sampled record's CSV; the report goes to stdout. --V has no
    # default: keyrate's, the V -> inf limit, cannot be sampled from
    add_common(p, out="record", v_required=True)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify-ur", help="uncertainty-relation slack over a (V, T, xi) grid")
    p.add_argument("--v-list", type=_float_list_arg, default=[1.0, 2.0, 5.0, 20.0])
    p.add_argument("--xi-list", type=_float_list_arg, default=[0.0, 0.01, 0.1, 0.5])
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10)
    add_output(p)

    p = sub.add_parser("table", help="the 16 protocol variants and their 1sDI status")
    add_output(p)
    return parser


def _channel(args) -> tuple[ChannelParams, dict]:
    # a keyrate or simulate run's channel and its record's head: the protocol and (T, xi, V)
    ch = ChannelParams(args.transmission, args.xi)
    return ch, {
        "protocol": args.protocol.id, "T": ch.transmission, "xi": ch.excess_noise,
        "V": args.modulation,
    }


def cmd_keyrate(args):
    ch, record = _channel(args)
    result = key_rate_at(args.protocol, ch, args.modulation)
    cv = result.variances
    kinds = {"b_given_a": cv.kind_b_given_a.value, "a_given_b": cv.kind_a_given_b.value}
    names = ("v_x_b_given_a", "v_p_b_given_a", "v_x_a_given_b", "v_p_a_given_b")
    variances = {name: getattr(cv, name) for name in names}
    record |= {
        "key_rate_bits": result.key_rate,
        "positive": result.positive,
        "classification": result.one_sided_di.value,
        "steering_ab": result.steering_ab,
        "steering_ba": result.steering_ba,
    }
    if args.json:
        return record | {"variances": variances | {f"kind_{k}": v for k, v in kinds.items()}}
    return record | {name: f"{_cell(v)} ({kinds[name[4:]]})" for name, v in variances.items()}


def cmd_region(args):
    # SweepConfig raises DomainError (exit 3) on a T outside (0, 1] or a bad step count
    config = SweepConfig(args.t_min, args.t_max, args.steps)
    return ["T", "xi_max"], security_region(args.protocol, config)


def cmd_distance(args):
    fibre = FibreModel(args.attenuation_db_per_km)
    t_star = threshold_transmission(args.protocol, args.xi)
    record = {
        "protocol": args.protocol.id,
        "xi": args.xi,
        "attenuation_db_per_km": fibre.attenuation_db_per_km,
    }
    if t_star is None:
        if not args.json:
            return record | {"max_distance_km": "no-security"}
        return record | dict.fromkeys(("threshold_transmission", "loss_percent", "max_distance_km"))
    return record | {
        "threshold_transmission": t_star,
        "loss_percent": 100.0 * (1.0 - t_star),
        "max_distance_km": fibre.distance_km(t_star),
    }


def cmd_simulate(args):
    ch, record = _channel(args)
    # sample, write, then estimate: a record too short to estimate from is still written
    sampled = sample_quadratures(args.protocol, ch, args.modulation, args.samples, args.seed)
    if args.record is not None:
        try:
            with open(args.record, "w", newline="") as fh:
                sampled.write_csv(fh)
        except OSError as exc:  # a failed write or flush names no file; main's message needs it
            exc.filename = args.record
            raise
    sim = estimate_key_rate(sampled)
    analytic = key_rate_at(args.protocol, ch, args.modulation)
    record |= {"samples": args.samples, "seed": args.seed}
    rate, variances = sim.key_rate, sim.variances
    if args.json:
        return record | {
            "key_rate_bits": rate.value,
            "key_rate_std_error": rate.std_error,
            "analytic_key_rate_bits": analytic.key_rate,
            "variances": {name: e._asdict() for name, e in variances.items()},
        }
    record["key_rate_bits"] = f"{_cell(rate.value)} +- {_cell(rate.std_error)}"
    record["analytic_key_rate_bits"] = analytic.key_rate
    return record | {
        name: f"{_cell(e.value)} +- {_cell(e.std_error)} (n={e.n})" for name, e in variances.items()
    }


def cmd_verify_ur(args):
    ts = SweepConfig(args.t_min, args.t_max, args.steps).t_values()
    rows = []
    for v in args.v_list:
        for t in ts:
            for xi in args.xi_list:
                cm = apply_channel(tmsv(v), ChannelParams(t, xi), mode=1)
                slack = verify_ur_tripartite(cm)  # the bipartite slack too: one quantity
                rows.append((v, t, xi, slack, slack))
    return ["V", "T", "xi", "slack_bipartite", "slack_tripartite"], rows


_MARK = {
    OneSidedDI.INDEPENDENT_OF_ALICE: "yes_A",
    OneSidedDI.INDEPENDENT_OF_BOB: "yes_B",
    OneSidedDI.NOT_1SDI: "-",
}


def cmd_table(args):
    protocols = ProtocolSpec.all()
    if args.json:
        return ["protocol", "classification"], [[p.id, classify_1sdi(p).value] for p in protocols]
    lines = [
        "alice        |   hom   |   hom   |   het   |   het   ",
        "bob          |   hom   |   het   |   hom   |   het   ",
        "-------------+---------+---------+---------+---------",
    ]
    for rec in ("dr", "rr"):
        for flavor in ("pm", "eb"):
            # ProtocolSpec.all() runs alice-major, as the header's columns do
            row = [p for p in protocols if (p.reconciliation.value, p.flavor.value) == (rec, flavor)]
            cells = "|".join(_MARK[classify_1sdi(p)].center(9) for p in row)
            lines.append(f"{rec} {flavor}".ljust(13) + "|" + cells)
    n_1sdi = sum(1 for p in protocols if classify_1sdi(p) is not OneSidedDI.NOT_1SDI)
    lines.append("")
    lines.append(f"{n_1sdi} of {len(protocols)} protocols are one-sided device independent")
    return "\n".join(lines) + "\n"


_COMMANDS = {
    "keyrate": cmd_keyrate,
    "region": cmd_region,
    "distance": cmd_distance,
    "simulate": cmd_simulate,
    "verify-ur": cmd_verify_ur,
    "table": cmd_table,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)  # None for simulate, whose --out is its record file
    try:
        text = _render(_COMMANDS[args.command](args), args.json)
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "w", newline="") as fh:
                fh.write(text)
    except CVQKDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3
    except OSError as exc:  # the output could not be written
        target = exc.filename or out or "stdout"
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return 0


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
