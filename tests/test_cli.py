"""CLI contract: values, formats, exit codes, determinism."""

import hashlib
import io
import json
import math

import mpmath
import pytest

import cvqkd
from conftest import fresh_python
from cvqkd import ProtocolSpec, SweepConfig, security_region
from cvqkd.cli import _COMMANDS, _json, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def report_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + " "):
            return line.split()[-1]
    raise KeyError(key)


class TestKeyrate:
    def test_perfect_channel_value(self, capsys):
        code, out, _ = run(
            capsys, "keyrate", "--protocol", "rr-homA-homB-eb", "--T", "1", "--xi", "0", "--V", "2"
        )
        assert code == 0
        assert float(report_value(out, "key_rate_bits")) == pytest.approx(0.557304959, abs=1e-9)
        assert report_value(out, "classification") == "independent-of-alice"

    def test_threshold_point_is_zero_rate(self, capsys):
        code, out, _ = run(
            capsys,
            "keyrate", "--protocol", "rr-homA-homB-eb", "--T", "0.264241", "--xi", "0", "--V", "inf",
        )
        assert code == 0
        assert abs(float(report_value(out, "key_rate_bits"))) < 1e-6

    def test_negative_key_still_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "keyrate", "--protocol", "rr-hetA-homB-eb", "--T", "0.9", "--xi", "0.1"
        )
        assert code == 0
        assert float(report_value(out, "key_rate_bits")) < 0.0
        assert report_value(out, "positive") == "false"

    def test_unknown_protocol_lists_valid_ids(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["keyrate", "--protocol", "bogus", "--T", "1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "rr-homA-homB-eb" in err and "dr-hetA-hetB-pm" in err

    def test_domain_error_exits_three(self, capsys):
        code, _, err = run(
            capsys, "keyrate", "--protocol", "rr-homA-homB-eb", "--T", "1", "--V", "0.5"
        )
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize(
        "protocol", ["dr-homA-homB-pm", "dr-homA-homB-eb", "rr-homA-homB-pm", "rr-homA-homB-eb"]
    )
    def test_identity_channel_hom_hom_rate_is_infinite(self, capsys, protocol):
        # V -> inf on T = 1, xi = 0: all four variances vanish and the bound diverges
        argv = ["keyrate", "--protocol", protocol, "--T", "1", "--xi", "0"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert report_value(out, "key_rate_bits") == "inf"
        assert report_value(out, "positive") == "true"
        for name in ("v_x_b_given_a", "v_p_b_given_a", "v_x_a_given_b", "v_p_a_given_b"):
            assert f"{name}   0 (full)\n" in out
        code, out, err = run(capsys, *argv, "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["key_rate_bits"] is None and payload["positive"] is True
        assert payload["variances"] == {
            "v_x_b_given_a": 0.0,
            "v_p_b_given_a": 0.0,
            "v_x_a_given_b": 0.0,
            "v_p_a_given_b": 0.0,
            "kind_b_given_a": "full",
            "kind_a_given_b": "full",
        }


    def test_large_modulation_exits_zero(self, capsys):
        # the covariance-matrix path raised a spurious UnphysicalStateError here
        code, out, err = run(
            capsys, "keyrate", "--protocol", "rr-homA-homB-eb", "--T", "0.5", "--xi", "0.01",
            "--V", "3e7",
        )
        assert (code, err) == (0, "")
        assert float(report_value(out, "key_rate_bits")) > 0.0

    def test_large_modulation_rate_matches_mpmath(self, capsys):
        code, out, _ = run(
            capsys, "keyrate", "--protocol", "rr-homA-homB-eb", "--T", "0.5", "--xi", "0.01",
            "--V", "1e10",
        )
        assert code == 0
        with mpmath.workdps(60):
            t, xi, v = mpmath.mpf(0.5), mpmath.mpf(0.01), mpmath.mpf(1e10)
            v_b_given_a = 1 - t + t * xi + t / v  # RR hom-hom reads V_{B|A} twice
            want = float(mpmath.log(2 / (mpmath.e * v_b_given_a), 2))
        assert abs(float(report_value(out, "key_rate_bits")) - want) <= 1e-9

class TestJsonOutput:
    @staticmethod
    def _reject(constant):
        raise ValueError(f"{constant} is not JSON")

    def test_infinite_steering_is_null(self, capsys):
        argv = ["keyrate", "--protocol", "rr-homA-homB-eb", "--T", "0.5", "--xi", "1e300"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        payload = json.loads(out, parse_constant=self._reject)
        assert payload["steering_ab"] is None and payload["steering_ba"] is None
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert report_value(out, "steering_ab") == "inf"

    def test_non_finite_value_raises(self):
        with pytest.raises(ValueError):
            _json({"x": math.inf})


class TestRegion:
    def test_full_transmission_row(self, capsys):
        code, out, _ = run(
            capsys,
            "region", "--protocol", "rr-homA-homB-eb",
            "--t-min", "1", "--t-max", "1", "--steps", "1",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "T,xi_max"
        t, xi = lines[1].split(",")
        assert float(xi) == pytest.approx(2.0 / math.e, abs=1e-6)

    def test_no_security_cell_is_empty(self, capsys):
        code, out, _ = run(
            capsys,
            "region", "--protocol", "dr-hetA-homB-pm",
            "--t-min", "0.5", "--t-max", "0.5", "--steps", "1",
        )
        assert out.strip().split("\n")[1] == "0.5,"

    def test_boundary_point_near_zero(self, capsys):
        # just above T* = e/4 = 0.6795704571: xi_max exists and is ~ 0
        code, out, _ = run(
            capsys,
            "region", "--protocol", "dr-hetA-homB-pm",
            "--t-min", "0.6795705", "--t-max", "0.6795705", "--steps", "1",
        )
        cell = out.strip().split("\n")[1].split(",")[1]
        assert cell != "" and abs(float(cell)) < 1e-5

    def test_json_and_csv_agree(self, capsys):
        args = ["region", "--protocol", "rr-homA-homB-eb", "--t-min", "0.3", "--t-max", "1",
                "--steps", "8"]
        _, csv_out, _ = run(capsys, *args)
        _, json_out, _ = run(capsys, *args, "--json")
        csv_rows = [line.split(",") for line in csv_out.strip().split("\n")[1:]]
        json_rows = json.loads(json_out)
        assert len(csv_rows) == len(json_rows) == 8
        for (t_csv, xi_csv), row in zip(csv_rows, json_rows):
            assert abs(float(t_csv) - row["T"]) < 1e-9
            if xi_csv == "":
                assert row["xi_max"] is None
            else:
                assert abs(float(xi_csv) - row["xi_max"]) < 1e-9

    def test_deterministic_output(self, capsys):
        args = ["region", "--protocol", "dr-homA-homB-eb", "--t-min", "0.6", "--t-max", "1",
                "--steps", "5"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    @pytest.mark.parametrize(
        "grid, bad",
        [
            (["--t-min", "1.5", "--steps", "1"], "1.5"),
            (["--t-min", "0"], "0.0"),
            (["--t-min", "-1", "--t-max", "2", "--steps", "4"], "-1.0"),
            (["--t-min", "0.5", "--t-max", "1.25", "--steps", "4"], "1.25"),
            (["--t-min", "nan", "--steps", "1"], "nan"),
        ],
    )
    def test_transmission_outside_unit_interval_exits_three(self, capsys, grid, bad):
        code, out, err = run(capsys, "region", "--protocol", "rr-homA-homB-eb", *grid)
        assert (code, out) == (3, "")
        assert err == f"error: transmission must lie in (0, 1], got {bad}\n"

    @pytest.mark.parametrize("protocol", ProtocolSpec.all(), ids=lambda p: p.id)
    def test_json_rows_are_the_library_region(self, capsys, protocol):
        # the default grid, where t_min + i (t_max - t_min) / 99 and linspace
        # disagree in the last bit at 32 of the 100 points
        _, out, _ = run(capsys, "region", "--protocol", protocol.id, "--json")
        want = [
            {"T": float(f"{t:.9g}"), "xi_max": None if xi is None else float(f"{xi:.9g}")}
            for t, xi in security_region(protocol, SweepConfig(0.01, 1.0, 100))
        ]
        assert json.loads(out) == want


@pytest.mark.parametrize("command", [["region", "--protocol", "rr-homA-homB-eb"], ["verify-ur"]])
@pytest.mark.parametrize(
    "grid, message",
    [
        (["--steps", "0"], "grid needs at least 1 step, got 0"),
        (["--t-min", "0.8", "--t-max", "0.2"], "need t_min < t_max, got 0.8, 0.2"),
        # one step is the grid [t_min], but --t-max must still lie in (0, 1]
        (["--t-min", "0.5", "--t-max", "1.25", "--steps", "1"], "got 1.25"),
    ],
    ids=["no-steps", "reversed", "one-step-bad-t-max"],
)
def test_bad_grid_exits_three_with_one_line(capsys, command, grid, message):
    code, out, err = run(capsys, *command, *grid)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.endswith(message + "\n") and err.count("\n") == 1


class TestDistance:
    def test_reported_noise_distance(self, capsys):
        code, out, _ = run(capsys, "distance", "--protocol", "rr-homA-homB-eb", "--xi", "0.002")
        assert code == 0
        assert float(report_value(out, "max_distance_km")) == pytest.approx(28.8565, abs=0.01)

    def test_zero_noise_distance(self, capsys):
        _, out, _ = run(capsys, "distance", "--protocol", "rr-homA-homB-eb", "--xi", "0")
        assert float(report_value(out, "max_distance_km")) == pytest.approx(28.900, abs=0.01)

    def test_coherent_distance(self, capsys):
        _, out, _ = run(capsys, "distance", "--protocol", "dr-hetA-homB-pm", "--xi", "0")
        assert float(report_value(out, "max_distance_km")) == pytest.approx(8.388, abs=0.01)

    def test_no_security_report(self, capsys):
        code, out, _ = run(capsys, "distance", "--protocol", "rr-hetA-homB-eb", "--xi", "0")
        assert code == 0
        assert report_value(out, "max_distance_km") == "no-security"

    def test_json_mirror(self, capsys):
        _, out, _ = run(
            capsys, "distance", "--protocol", "rr-homA-homB-eb", "--xi", "0.002", "--json"
        )
        payload = json.loads(out)
        assert payload["max_distance_km"] == pytest.approx(28.8565, abs=0.01)
        assert payload["loss_percent"] == pytest.approx(73.52, abs=0.01)

class TestSimulate:
    def test_reports_empirical_and_analytic(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--protocol", "rr-homA-homB-eb", "--T", "1", "--xi", "0",
            "--V", "2", "--samples", "40000", "--seed", "9", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["analytic_key_rate_bits"] == pytest.approx(0.557304959, abs=1e-9)
        assert abs(payload["key_rate_bits"] - 0.557305) < 5.0 * payload["key_rate_std_error"]

    def test_negative_seed_exits_three(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--protocol", "rr-homA-homB-eb", "--T", "0.9", "--V", "5",
            "--seed", "-1",
        )
        assert (code, out) == (3, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"

    def test_record_csv_written(self, capsys, tmp_path):
        path = tmp_path / "record.csv"
        code, _, _ = run(
            capsys,
            "simulate", "--protocol", "dr-hetA-homB-pm", "--T", "0.9", "--xi", "0",
            "--V", "5", "--samples", "64", "--seed", "2", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().split("\n")
        assert lines[0] == "index,basis_a,basis_b,x_a,p_a,x_b,p_b"
        assert len(lines) == 66  # header + 64 rows + trailing LF

    # sha256 of the written file, taken with a row-by-row "%.9g" export, not
    # write_csv; 70,000 rows are a whole sampling block and part of a second
    @pytest.mark.parametrize(
        "protocol, digest",
        [
            ("rr-homA-homB-eb", "f730d5bd0c4848a662da57039060337908164d828b1eb16a0f385e9e0ce5648a"),
            ("rr-hetA-hetB-eb", "3321a2882d77381b48c32c054c673330f09138e2ca72f79fb183ff375985356a"),
        ],
    )
    def test_record_csv_bytes_are_pinned(self, capsys, tmp_path, protocol, digest):
        path = tmp_path / "record.csv"
        code, _, _ = run(
            capsys,
            "simulate", "--protocol", protocol, "--T", "0.9", "--xi", "0.01", "--V", "5",
            "--samples", "70000", "--seed", "3", "--out", str(path),
        )
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("protocol", ["rr-homA-homB-eb", "rr-hetA-hetB-eb"])
    def test_single_sample_record_is_written(self, capsys, tmp_path, protocol):
        # one symbol gives too few sifted pairs to estimate from, but the record
        # is written before the estimate fails
        path = tmp_path / "record.csv"
        code, out, err = run(
            capsys,
            "simulate", "--protocol", protocol, "--T", "0.9", "--xi", "0.01", "--V", "5",
            "--samples", "1", "--seed", "3", "--out", str(path),
        )
        assert code == 3
        assert out == "" and err.startswith("error: only ")
        want = io.StringIO()
        cvqkd.sample_quadratures(
            ProtocolSpec.parse(protocol), cvqkd.ChannelParams(0.9, 0.01), 5.0, 1, 3
        ).write_csv(want)
        assert path.read_bytes() == want.getvalue().encode()
        assert path.read_text().count("\n") == 2  # header and one row

    @pytest.mark.parametrize(
        "argv",
        [
            ["--protocol", "rr-homA-homB-eb", "--T", "0.9", "--xi", "0.01", "--V", "5",
             "--samples", "4", "--seed", "43", "--json"],
            ["--protocol", "rr-hetA-hetB-eb", "--T", "0.9", "--V", "2", "--samples", "2"],
        ],
        ids=["hom-hom", "het-het"],
    )
    def test_two_sifted_pairs_exit_three(self, capsys, argv):
        # two points fit a line exactly, so their residual variance is 0 up to rounding
        code, out, err = run(capsys, "simulate", *argv)
        assert (code, out, err) == (3, "", "error: only 2 sifted pairs for x_b|x_a\n")

    @pytest.mark.parametrize(
        "t, v", [("0.9", "3e7"), ("1", "66502965.66699864")], ids=["past-tmsv", "past-pivot"]
    )
    def test_modulation_past_the_matrix_limits_samples(self, capsys, t, v):
        # both exited 3 while the sampler built a covariance matrix: tmsv refused
        # 3e7, and the factor's pivot b - c^2/a = 1/V rounded below zero at the other
        code, out, err = run(
            capsys, "simulate", "--protocol", "rr-homA-homB-eb", "--T", t, "--xi", "0",
            "--V", v, "--samples", "20000", "--seed", "1", "--json",
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        off = payload["key_rate_bits"] - payload["analytic_key_rate_bits"]
        assert abs(off) < 5.0 * payload["key_rate_std_error"]

    def test_modulation_above_the_cap_exits_three(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--protocol", "rr-homA-homB-eb", "--T", "1", "--xi", "0",
            "--V", "1.0000000000001e12", "--samples", "10",
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: modulation variance ") and err.count("\n") == 1, err

    def test_infinite_v_rejected(self, capsys):
        # no record can be sampled in the V -> inf limit; the library's DomainError says so
        code, out, err = run(
            capsys, "simulate", "--protocol", "rr-homA-homB-eb", "--T", "1", "--V", "inf"
        )
        assert (code, out) == (3, "")
        assert err == "error: state construction needs a finite modulation variance\n"
        # so simulate, unlike keyrate, has no V -> inf default: an omitted --V is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--protocol", "rr-homA-homB-eb", "--T", "1"])
        assert exc.value.code == 2
        assert "the following arguments are required: --V" in capsys.readouterr().err


class TestModulationSpelling:
    @pytest.mark.parametrize("spelling", ["inf", "Infinity", "INF"])
    @pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
    def test_infinite_spellings_are_the_default(self, capsys, spelling, extra):
        argv = ["keyrate", "--protocol", "dr-hetA-homB-pm", "--T", "0.9", "--xi", "0.01", *extra]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert run(capsys, *argv, "--V", spelling) == (0, out, "")

    def test_malformed_modulation_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["keyrate", "--protocol", "rr-homA-homB-eb", "--T", "0.5", "--V", "abc"])
        assert exc.value.code == 2
        assert "argument --V: invalid float value: 'abc'" in capsys.readouterr().err


class TestRejectedInputs:
    def test_malformed_list_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-ur", "--v-list", "1,abc"])
        assert exc.value.code == 2
        assert "argument --v-list: expected comma-separated reals, got '1,abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["keyrate", "simulate"])
    def test_missing_transmission_is_a_usage_error(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--protocol", "rr-homA-homB-eb"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --T" in captured.err

    @pytest.mark.parametrize("command", ["region", "distance"])
    def test_modulation_is_a_usage_error_for_solvers(self, capsys, command):
        # region and distance solve in the V -> inf limit, so --V has no meaning there
        with pytest.raises(SystemExit) as exc:
            main([command, "--protocol", "rr-homA-homB-eb", "--V", "2"])
        assert exc.value.code == 2
        assert "--V" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["keyrate", "--protocol", "rr-homA-homB-eb", "--T", "0.5", "--xi", "inf"],
            ["keyrate", "--protocol", "rr-homA-homB-eb", "--T", "0.5", "--xi", "nan"],
            ["distance", "--protocol", "rr-homA-homB-eb", "--xi", "nan"],
            ["keyrate", "--protocol", "rr-homA-homB-eb", "--T", "0.5", "--V", "nan"],
            ["distance", "--protocol", "rr-homA-homB-eb", "--attenuation-db-per-km", "inf"],
            ["verify-ur", "--v-list", "nan"],
            # these printed nan slacks and an inf distance (null in JSON) with exit 0; the
            # state (1e160, 0.5, 1e160) has ab - c^2 = 5e319 (V = 2 is finite: golden/verify-ur)
            ["verify-ur", "--v-list", "1e160", "--xi-list", "1e160", "--t-min", "0.5", "--steps", "1"],
            ["distance", "--protocol", "rr-homA-homB-eb", "--attenuation-db-per-km", "1e-320"],
        ],
        ids=[
            "keyrate-xi-inf",
            "keyrate-xi-nan",
            "distance-xi-nan",
            "keyrate-v-nan",
            "distance-att-inf",
            "verify-ur-v-nan",
            "verify-ur-xi-1e160",
            "distance-att-denormal",
        ],
    )
    def test_non_finite_input_exits_three(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["region", "--protocol", "rr-homA-homB-eb", "--steps", "10000000000000"],
     ["verify-ur", "--steps", "10000000000000"]],
    ids=["region", "verify-ur"],
)
def test_out_of_memory_exits_three_without_traceback(capsys, monkeypatch, argv):
    # any MemoryError a command raises, as a grid over MAX_GRID_POINTS does; the
    # command is replaced by one that raises it, so nothing is allocated
    def exhausted(args):
        raise MemoryError("Unable to allocate 72.8 TiB")

    monkeypatch.setitem(_COMMANDS, argv[0], exhausted)
    assert run(capsys, *argv) == (3, "", "error: out of memory\n")


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--protocol", "rr-homA-homB-eb", "--T", "0.9", "--V", "3", "--samples", "10"],
            ["table"],
        ],
        ids=["simulate", "table"],
    )
    @pytest.mark.parametrize(
        "where, reason",
        [("missing-directory", "No such file or directory"), ("directory", "Is a directory")],
    )
    def test_usage_error_without_traceback(self, capsys, tmp_path, argv, where, reason):
        path = tmp_path / "missing" / "out.csv" if where == "missing-directory" else tmp_path
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert code == 2
        assert out == ""
        assert err == f"error: cannot write {path}: {reason}\n"


class TestVerifyUr:
    def test_modulation_beyond_tmsv_precision_exits_three(self, capsys):
        # 1e400 parses as inf, which no state has; 1e8 once exited 3 here too
        code, out, err = run(capsys, "verify-ur", "--v-list", "1e400")
        assert (code, out, err) == (3, "", "error: EPR variance must be finite and >= 1, got inf\n")
        code, out, err = run(capsys, "verify-ur", "--v-list", "1e8")
        assert (code, err) == (0, "") and len(out.splitlines()) == 1 + 10 * 4

    def test_vacuum_point(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-ur", "--v-list", "1", "--t-min", "1", "--t-max", "1",
            "--steps", "1", "--xi-list", "0",
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[3]) == pytest.approx(0.442695041, abs=1e-9)

    def test_default_grid_slack_nonnegative(self, capsys):
        code, out, _ = run(capsys, "verify-ur")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert len(rows) == 4 * 10 * 4
        assert min(float(r[3]) for r in rows) >= -1e-9
        assert min(float(r[4]) for r in rows) >= -1e-9

    def test_json_array(self, capsys):
        _, out, _ = run(
            capsys,
            "verify-ur", "--v-list", "1,2", "--t-min", "0.5", "--t-max", "1",
            "--steps", "2", "--xi-list", "0,0.1", "--json",
        )
        payload = json.loads(out)
        assert len(payload) == 8
        assert all(p["slack_bipartite"] >= -1e-9 for p in payload)


class TestTable:
    def test_six_marks(self, capsys):
        code, out, _ = run(capsys, "table")
        assert code == 0
        assert out.count("yes_B") == 4
        assert out.count("yes_A") == 2
        assert "6 of 16" in out

    def test_json_classification(self, capsys):
        _, out, _ = run(capsys, "table", "--json")
        payload = json.loads(out)
        by_id = {p["protocol"]: p["classification"] for p in payload}
        assert len(by_id) == 16
        assert by_id["rr-homA-hetB-eb"] == "independent-of-alice"
        assert by_id["dr-hetA-homB-pm"] == "independent-of-bob"
        assert by_id["rr-homA-homB-pm"] == "not-1sdi"
        # P&M and EB agree on every DR Bob-homodyne column
        for alice in ("hom", "het"):
            assert by_id[f"dr-{alice}A-homB-pm"] == by_id[f"dr-{alice}A-homB-eb"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "table.txt"
        run(capsys, "table", "--out", str(path))
        assert "6 of 16" in path.read_text()

class TestModuleEntry:
    @pytest.mark.parametrize(
        "argv, want",
        [
            (["table"], 0),
            (["keyrate", "--protocol", "bogus", "--T", "1"], 2),
            (["keyrate", "--protocol", "rr-homA-homB-eb", "--T", "1", "--V", "0.5"], 3),
        ],
        ids=["ok", "usage", "domain"],
    )
    def test_python_m_cvqkd_matches_main(self, capsys, argv, want):
        proc = fresh_python("-m", "cvqkd", *argv)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert proc.returncode == code == want
        assert (proc.stdout, proc.stderr) == (out.out, out.err)

    def test_parser_is_built_once_per_process(self, capsys):
        assert main(["table"]) == main(["table"]) == 0
        assert build_parser() is build_parser() and build_parser.cache_info().misses == 1

    def test_table_and_keyrate_never_import_numpy(self):
        # a fresh interpreter: this suite imports numpy before any test runs; nor do
        # a state, its spectrum, entropy, UR slacks, DW ceilings and conditional variances,
        # finite-V and identity-channel key rates and the 1sDI classes
        proc = fresh_python(
            "-c",
            "import contextlib, io, sys\n"
            "import cvqkd, cvqkd.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cvqkd.cli.main(['table']) == 0\n"
            "    for p in cvqkd.ProtocolSpec.all():\n"
            "        point = ['--protocol', p.id, '--T', '0.9', '--xi', '0.01']\n"
            "        assert cvqkd.cli.main(['keyrate', *point]) == 0\n"
            "cm = cvqkd.apply_channel(cvqkd.tmsv(5.0), cvqkd.ChannelParams(0.5, 0.01), mode=1)\n"
            "values = [cvqkd.verify_ur_bipartite(cm), cvqkd.verify_ur_tripartite(cm)]\n"
            "values += [cvqkd.devetak_winter_oracle(cm, d) for d in cvqkd.Reconciliation]\n"
            "q = [cvqkd.ModeQuadrature(m, x) for m in (0, 1) for x in cvqkd.Quadrature]\n"
            "values += [cvqkd.conditional_variance(cm, q[i], q[j]) for i, j in ((2, 0), (3, 1), (0, 2), (1, 3))]\n"
            "values += [*cvqkd.symplectic_eigenvalues(cm), cvqkd.von_neumann_entropy(cm)]\n"
            "assert all(v == v for v in values) and len(values) == 11, values\n"
            "for p in cvqkd.ProtocolSpec.all():\n"
            "    finite = cvqkd.key_rate_at(p, cvqkd.ChannelParams(0.5, 0.01), 5.0).key_rate\n"
            "    identity = cvqkd.key_rate_at(p, cvqkd.ChannelParams(1.0)).key_rate\n"
            "    assert finite == finite and identity == identity, p.id\n"
            "assert sum(cvqkd.classify_1sdi(p) is not cvqkd.OneSidedDI.NOT_1SDI\n"
            "           for p in cvqkd.ProtocolSpec.all()) == 6\n"
            "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.'))\n"
            "assert not loaded, loaded[:5]\n"
            "rec = cvqkd.sample_quadratures(cvqkd.ProtocolSpec.parse('rr-homA-homB-eb'),\n"
            "                                cvqkd.ChannelParams(0.5), 2.0, 4, 0)\n"
            "assert rec.n == 4 and 'numpy' in sys.modules\n"
            "import numpy\n"
            "want = f'numpy.random.Philox(4x64-10), numpy {numpy.__version__}'\n"
            "assert cvqkd.montecarlo.RNG_STREAM == want\n"
            "from cvqkd.montecarlo import RNG_STREAM\n"
            "assert RNG_STREAM == want\n"
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_distance_and_verify_ur_never_import_numpy(self):
        # a fresh interpreter: the grid and the T* solver are float arithmetic, and
        # a region of a protocol without a secure law needs no array either
        proc = fresh_python(
            "-c",
            "import contextlib, io, sys\n"
            "import cvqkd, cvqkd.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for p in cvqkd.ProtocolSpec.all():\n"
            "        for xi in ('0', '0.002', '0.0237'):\n"
            "            assert cvqkd.cli.main(['distance', '--protocol', p.id, '--xi', xi]) == 0\n"
            "    assert cvqkd.cli.main(['verify-ur']) == 0\n"
            "config = cvqkd.SweepConfig(0.05, 1.0, 200)\n"
            "ts = config.t_values()\n"
            "assert len(ts) == 200 and ts[-1] == 1.0 and type(ts[1]) is float, ts[:2]\n"
            "rows = cvqkd.security_region(cvqkd.ProtocolSpec.parse('rr-hetA-hetB-eb'), config)\n"
            "assert rows == [(t, None) for t in ts]\n"
            "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('numpy.'))\n"
            "assert not loaded, loaded[:5]\n"
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_table_loads_neither_dataclasses_nor_inspect(self):
        # a fresh interpreter: the records are namedtuples, and dataclasses imports inspect
        proc = fresh_python(
            "-c",
            "import contextlib, io, sys\n"
            "import cvqkd.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cvqkd.cli.main(['table']) == 0\n"
            "loaded = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_threads_making_the_first_array_call_at_once(self):
        # each thread reads numpy attributes while another may still be importing it
        proc = fresh_python(
            "-c",
            "import sys, threading\n"
            "import cvqkd\n"
            "sys.setswitchinterval(1e-5)\n"
            "protocol = cvqkd.ProtocolSpec.parse('rr-homA-homB-eb')\n"
            "errors = []\n"
            "def build():\n"
            "    try:\n"
            "        cvqkd.sample_quadratures(protocol, cvqkd.ChannelParams(0.5), 2.0, 4, 0)\n"
            "    except Exception as exc:\n"
            "        errors.append(repr(exc))\n"
            "threads = [threading.Thread(target=build) for _ in range(4)]\n"
            "for t in threads:\n"
            "    t.start()\n"
            "for t in threads:\n"
            "    t.join(60)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "assert not errors, errors\n"
        )
        assert (proc.returncode, proc.stderr) == (0, "")
