"""Command-line surface: key rates, sweeps, distances, simulation and tables.

Exit codes: 0 on success (including "no security" and negative-key
results), 2 on usage errors (including an --out path that cannot be
written), 3 on numeric/domain errors. All numeric output is fixed at 9
significant digits, in CSV and JSON alike.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .bounds import OneSidedDI, ProtocolSpec, classify_1sdi, expected_kinds
from .errors import CVQKDError
from .gaussian import ChannelParams, CovarianceMatrix, apply_channel, tmsv
from .bounds import verify_ur_bipartite, verify_ur_tripartite
from .montecarlo import simulate_protocol_run
from .security import FibreModel, _xi_max, key_rate_at, threshold_transmission

_VALID_IDS = [p.id for p in ProtocolSpec.all()]


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _round9(x: float) -> float | None:
    # JSON carries the same 9-significant-digit values as the CSV/text output;
    # it has no spelling for inf or NaN, so those become null
    return float(_fmt(x)) if math.isfinite(x) else None


def _json(payload) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _protocol_arg(value: str) -> ProtocolSpec:
    try:
        return ProtocolSpec.parse(value)
    except CVQKDError:
        raise argparse.ArgumentTypeError(
            f"unknown protocol id {value!r}; valid ids: {', '.join(_VALID_IDS)}"
        ) from None


def _modulation_arg(value: str) -> float:
    if value.lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--V must be a real number or 'inf', got {value!r}") from None


def _float_list_arg(value: str) -> list[float]:
    try:
        return [float(part) for part in value.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated reals, got {value!r}") from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _report(pairs: list[tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in pairs)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in pairs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cvqkd", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, point=True):
        p.add_argument("--protocol", type=_protocol_arg, required=True)
        if point:  # one (T, xi, V) operating point; the solvers work in the V -> inf limit
            p.add_argument("--T", type=float, dest="transmission")
            p.add_argument("--xi", type=float, default=0.0)
            p.add_argument("--V", type=_modulation_arg, default=math.inf, dest="modulation")
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", default=None)

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
    add_common(p)
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("verify-ur", help="uncertainty-relation slack over a (V, T, xi) grid")
    p.add_argument("--v-list", type=_float_list_arg, default=[1.0, 2.0, 5.0, 20.0])
    p.add_argument("--xi-list", type=_float_list_arg, default=[0.0, 0.01, 0.1, 0.5])
    p.add_argument("--t-min", type=float, default=0.1)
    p.add_argument("--t-max", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("table", help="the 16 protocol variants and their 1sDI status")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", default=None)
    return parser


def _t_grid(t_min: float, t_max: float, steps: int) -> list[float]:
    if steps < 1:
        raise CVQKDError("--steps must be >= 1")
    if steps == 1:
        return [t_min]
    if not t_min < t_max:
        raise CVQKDError("--t-min must be below --t-max")
    return [t_min + (t_max - t_min) * i / (steps - 1) for i in range(steps)]


def cmd_keyrate(args) -> int:
    if args.transmission is None:
        raise CVQKDError("keyrate requires --T")
    ch = ChannelParams(args.transmission, args.xi)
    result = key_rate_at(args.protocol, ch, args.modulation)
    kind_ab, kind_ba = expected_kinds(args.protocol)
    cv = result.variances  # None where all four vanish: identity channel, V -> inf
    variances = [
        (name, 0.0 if cv is None else getattr(cv, name), kind)
        for name, kind in (
            ("v_x_b_given_a", kind_ba),
            ("v_p_b_given_a", kind_ba),
            ("v_x_a_given_b", kind_ab),
            ("v_p_a_given_b", kind_ab),
        )
    ]
    fields = [
        ("protocol", args.protocol.id),
        ("T", _fmt(ch.transmission)),
        ("xi", _fmt(ch.excess_noise)),
        ("V", "inf" if math.isinf(args.modulation) else _fmt(args.modulation)),
        ("key_rate_bits", _fmt(result.key_rate)),
        ("positive", str(result.positive).lower()),
        ("classification", result.one_sided_di.value),
        ("steering_ab", _fmt(result.steering_ab)),
        ("steering_ba", _fmt(result.steering_ba)),
    ] + [(name, f"{_fmt(v)} ({kind.value})") for name, v, kind in variances]
    if args.json:
        payload = {
            "protocol": args.protocol.id,
            "T": _round9(ch.transmission),
            "xi": _round9(ch.excess_noise),
            "V": None if math.isinf(args.modulation) else _round9(args.modulation),
            "key_rate_bits": _round9(result.key_rate),
            "positive": result.positive,
            "classification": result.one_sided_di.value,
            "steering_ab": _round9(result.steering_ab),
            "steering_ba": _round9(result.steering_ba),
            "variances": {name: _round9(v) for name, v, _ in variances}
            | {"kind_b_given_a": kind_ba.value, "kind_a_given_b": kind_ab.value},
        }
        _emit(_json(payload), args.out)
    else:
        _emit(_report(fields), args.out)
    return 0


def cmd_region(args) -> int:
    # ChannelParams raises DomainError (exit 3) at the first T outside (0, 1]
    ts = [ChannelParams(t).transmission for t in _t_grid(args.t_min, args.t_max, args.steps)]
    rows = list(zip(ts, _xi_max(args.protocol, np.array(ts))))
    if args.json:
        payload = [
            {"T": _round9(t), "xi_max": None if xi is None else _round9(xi)} for t, xi in rows
        ]
        _emit(_json(payload), args.out)
    else:
        text = _csv_text(
            ["T", "xi_max"],
            [[_fmt(t), "" if xi is None else _fmt(xi)] for t, xi in rows],
        )
        _emit(text, args.out)
    return 0


def cmd_distance(args) -> int:
    fibre = FibreModel(args.attenuation_db_per_km)
    t_star = threshold_transmission(args.protocol, args.xi)
    km = None if t_star is None else fibre.distance_km(t_star)
    if args.json:
        payload = {
            "protocol": args.protocol.id,
            "xi": _round9(args.xi),
            "attenuation_db_per_km": _round9(fibre.attenuation_db_per_km),
            "threshold_transmission": None if t_star is None else _round9(t_star),
            "loss_percent": None if t_star is None else _round9(100.0 * (1.0 - t_star)),
            "max_distance_km": None if km is None else _round9(km),
        }
        _emit(_json(payload), args.out)
        return 0
    fields = [
        ("protocol", args.protocol.id),
        ("xi", _fmt(args.xi)),
        ("attenuation_db_per_km", _fmt(fibre.attenuation_db_per_km)),
    ]
    if t_star is None:
        fields.append(("max_distance_km", "no-security"))
    else:
        fields += [
            ("threshold_transmission", _fmt(t_star)),
            ("loss_percent", _fmt(100.0 * (1.0 - t_star))),
            ("max_distance_km", _fmt(km)),
        ]
    _emit(_report(fields), args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.transmission is None:
        raise CVQKDError("simulate requires --T")
    if math.isinf(args.modulation):
        raise CVQKDError("simulate requires a finite --V")
    ch = ChannelParams(args.transmission, args.xi)
    sim = simulate_protocol_run(args.protocol, ch, args.modulation, args.samples, args.seed)
    analytic = key_rate_at(args.protocol, ch, args.modulation)
    if args.out is not None:
        with open(args.out, "w", newline="") as fh:
            sim.record.write_csv(fh)
    if args.json:
        payload = {
            "protocol": args.protocol.id,
            "T": _round9(ch.transmission),
            "xi": _round9(ch.excess_noise),
            "V": _round9(args.modulation),
            "samples": args.samples,
            "seed": args.seed,
            "key_rate_bits": _round9(sim.key_rate.value),
            "key_rate_std_error": _round9(sim.key_rate.std_error),
            "analytic_key_rate_bits": _round9(analytic.key_rate),
            "variances": {
                name: {"value": _round9(e.value), "std_error": _round9(e.std_error), "n": e.n}
                for name, e in sim.variances.items()
            },
        }
        sys.stdout.write(_json(payload))
        return 0
    fields = [
        ("protocol", args.protocol.id),
        ("T", _fmt(ch.transmission)),
        ("xi", _fmt(ch.excess_noise)),
        ("V", _fmt(args.modulation)),
        ("samples", str(args.samples)),
        ("seed", str(args.seed)),
        ("key_rate_bits", f"{_fmt(sim.key_rate.value)} +- {_fmt(sim.key_rate.std_error)}"),
        ("analytic_key_rate_bits", _fmt(analytic.key_rate)),
    ]
    for name, est in sim.variances.items():
        fields.append((name, f"{_fmt(est.value)} +- {_fmt(est.std_error)} (n={est.n})"))
    sys.stdout.write(_report(fields))
    return 0


def cmd_verify_ur(args) -> int:
    ts = _t_grid(args.t_min, args.t_max, args.steps)
    rows = []
    for v in args.v_list:
        for t in ts:
            for xi in args.xi_list:
                cm: CovarianceMatrix = apply_channel(tmsv(v), ChannelParams(t, xi), mode=1)
                rows.append((v, t, xi, verify_ur_bipartite(cm), verify_ur_tripartite(cm)))
    if args.json:
        payload = [
            {
                "V": _round9(v),
                "T": _round9(t),
                "xi": _round9(xi),
                "slack_bipartite": _round9(b),
                "slack_tripartite": _round9(tri),
            }
            for v, t, xi, b, tri in rows
        ]
        _emit(_json(payload), args.out)
    else:
        text = _csv_text(
            ["V", "T", "xi", "slack_bipartite", "slack_tripartite"],
            [[_fmt(v), _fmt(t), _fmt(xi), _fmt(b), _fmt(tri)] for v, t, xi, b, tri in rows],
        )
        _emit(text, args.out)
    return 0


_MARK = {
    OneSidedDI.INDEPENDENT_OF_ALICE: "yes_A",
    OneSidedDI.INDEPENDENT_OF_BOB: "yes_B",
    OneSidedDI.NOT_1SDI: "-",
}


def cmd_table(args) -> int:
    protocols = ProtocolSpec.all()
    if args.json:
        payload = [
            {"protocol": p.id, "classification": classify_1sdi(p).value} for p in protocols
        ]
        _emit(_json(payload), args.out)
        return 0
    columns = [("hom", "hom"), ("hom", "het"), ("het", "hom"), ("het", "het")]
    lines = [
        "alice        |   hom   |   hom   |   het   |   het   ",
        "bob          |   hom   |   het   |   hom   |   het   ",
        "-------------+---------+---------+---------+---------",
    ]
    for rec in ("dr", "rr"):
        for flavor in ("pm", "eb"):
            cells = []
            for alice, bob in columns:
                spec = ProtocolSpec.parse(f"{rec}-{alice}A-{bob}B-{flavor}")
                cells.append(_MARK[classify_1sdi(spec)].center(9))
            lines.append(f"{rec} {flavor}".ljust(13) + "|" + "|".join(cells))
    n_1sdi = sum(1 for p in protocols if classify_1sdi(p) is not OneSidedDI.NOT_1SDI)
    lines.append("")
    lines.append(f"{n_1sdi} of {len(protocols)} protocols are one-sided device independent")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "keyrate": cmd_keyrate,
    "region": cmd_region,
    "distance": cmd_distance,
    "simulate": cmd_simulate,
    "verify-ur": cmd_verify_ur,
    "table": cmd_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CVQKDError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # the output could not be written
        target = "stdout" if args.out is None else args.out
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
