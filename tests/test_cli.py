"""CLI contract: values, formats, exit codes, determinism."""

import hashlib
import json
import math

import pytest

from cvqkd import ProtocolSpec
from cvqkd.cli import _json, main


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

    # sha256 of the default-grid stdout of all 16 protocols in ProtocolSpec.all()
    # order, taken with the point-by-point solver the batched one replaced
    DEFAULT_TEXT_SHA256 = "9c4b4fedbff0da9a7b7337e9bbad19b6507bd91f5b26bb6a62769fd2f3ba7d57"
    DEFAULT_JSON_SHA256 = "ea86b3296ff3e9f4d922d2b1215d866051df54528644eae4e4ec392d3cd4b9b3"

    def test_default_grid_output_is_pinned(self, capsys):
        for extra, want in (([], self.DEFAULT_TEXT_SHA256), (["--json"], self.DEFAULT_JSON_SHA256)):
            text = ""
            for protocol in ProtocolSpec.all():
                code, out, err = run(capsys, "region", "--protocol", protocol.id, *extra)
                assert (code, err) == (0, "")
                text += out
            assert hashlib.sha256(text.encode()).hexdigest() == want

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

    def test_infinite_v_rejected(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--protocol", "rr-homA-homB-eb", "--T", "1", "--V", "inf"
        )
        assert code == 3


class TestRejectedInputs:
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
        ],
        ids=[
            "keyrate-xi-inf",
            "keyrate-xi-nan",
            "distance-xi-nan",
            "keyrate-v-nan",
            "distance-att-inf",
            "verify-ur-v-nan",
        ],
    )
    def test_non_finite_input_exits_three(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestVerifyUr:
    # sha256 of the default-grid stdout, taken before the closed-form spectrum
    # landed; a change to the spectrum or the entropies must not move them
    DEFAULT_TEXT_SHA256 = "6648cb9baae9600e358bde9daba2c37c5abdb95a0cd295a18ee5881ef94acc9f"
    DEFAULT_JSON_SHA256 = "b55e28be2290040df51dbeade052d6d9f69656f9fd9d74ca585b3fbea5a29479"

    def test_default_grid_output_is_pinned(self, capsys):
        _, text, _ = run(capsys, "verify-ur")
        _, as_json, _ = run(capsys, "verify-ur", "--json")
        assert hashlib.sha256(text.encode()).hexdigest() == self.DEFAULT_TEXT_SHA256
        assert hashlib.sha256(as_json.encode()).hexdigest() == self.DEFAULT_JSON_SHA256

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
