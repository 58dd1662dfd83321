import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from ddiqkd import cli
from ddiqkd.optics import ValidationError

PI = math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(args, capsys):
    code = cli.main(args)
    return code, capsys.readouterr().out


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [[float(x) if x else None for x in row] for row in rows[1:]]


class TestParseAngle:
    def test_pi_fractions(self):
        assert cli.parse_angle("0.5pi") == pytest.approx(PI / 2)
        assert cli.parse_angle("pi/36") == pytest.approx(PI / 36)
        assert cli.parse_angle("3pi/2") == pytest.approx(1.5 * PI)
        assert cli.parse_angle("-pi/18") == pytest.approx(-PI / 18)
        assert cli.parse_angle("2pi") == pytest.approx(2 * PI)

    def test_plain_radians(self):
        assert cli.parse_angle("0.25") == 0.25
        assert cli.parse_angle(1.5) == 1.5

    def test_bad_angles(self):
        for bad in ("abc", "pi/", "1.2.3pi", "pipi"):
            with pytest.raises(ValidationError):
                cli.parse_angle(bad)


class TestTable1:
    def test_first_row(self, capsys):
        code, out = run_cli(["table1", "--mu", "1"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["phi_E", "phi_B", "D1", "D2", "D3", "D4"]
        assert len(rows) == 16
        assert rows[0][:2] == [0.0, 0.0]
        assert np.allclose(rows[0][2:], [1, 1, 0, 0], atol=1e-12)

    def test_entries_quantized_for_mu_two(self, capsys):
        code, out = run_cli(["table1", "--mu", "2"], capsys)
        _, rows = parse_csv(out)
        for row in rows:
            for entry in row[2:]:
                assert min(abs(entry - v) for v in (0.0, 1.0, 2.0)) < 1e-12

    def test_zero_mu_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["table1", "--mu", "0"])
        assert err.value.code == 2


class TestVerify:
    def test_balanced_check_passes(self, capsys):
        code, out = run_cli(["--format", "json", "verify", "eq1", "--trials", "500"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] and report["max_error"] < 1e-12

    def test_general_check_passes(self, capsys):
        code, out = run_cli(["--format", "json", "verify", "eq3", "--trials", "500"], capsys)
        assert code == 0

    def test_mismatch_exits_five(self, capsys, monkeypatch):
        import ddiqkd.cli as climod

        def broken(cfg, mu, phi_e, gamma=0.5):
            return np.array([1e9 + 0j] * 4)

        monkeypatch.setattr(climod, "propagated_port_amplitudes", broken)
        code, out = run_cli(["verify", "eq1", "--trials", "3"], capsys)
        assert code == 5


class TestSweep:
    def test_ideal_sweep_peaks_at_one(self, capsys):
        code, out = run_cli(["sweep", "--phi-b", "0.5pi"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["phi_E", "D1", "D2", "D3", "D4"]
        assert len(rows) == 721
        d1 = np.array([r[1] for r in rows])
        assert d1.max() == pytest.approx(1.0, abs=1e-12)
        assert d1.argmax() == 180  # phi_E = pi/2 on the default grid
        assert d1[540] == pytest.approx(0.0, abs=1e-12)  # phi_E = 3pi/2

    def test_wavelength_fixture_maxima(self, capsys):
        code, out = run_cli(
            ["sweep", "--phi-b", "0.5pi", "--t1", "0.44", "--t2", "0.46", "--gamma", "0.2"],
            capsys,
        )
        _, rows = parse_csv(out)
        data = np.array(rows)
        maxima = data[:, 1:].max(axis=0)
        assert np.allclose(maxima, [0.9606368, 0.8406368, 0.9030368, 0.8790368], atol=1e-6)

    def test_modulator_offset_shifts_curves(self, capsys):
        code, out = run_cli(
            ["sweep", "--phi-b", "0.5pi", "--delta-phi-b", "pi/36"], capsys
        )
        _, rows = parse_csv(out)
        data = np.array(rows)
        # 721 points over a full turn: pi/36 is 10 grid steps
        assert data[:, 1].argmax() == 190
        assert data[:, 4].argmax() == 170


class TestSession:
    def test_single_detector_attack_report(self, capsys):
        code, out = run_cli(
            ["session", "--config", str(CONFIGS / "single_detector_blinding.json")], capsys
        )
        assert code == 0
        stats = json.loads(out)
        assert stats["qber"] == 0.0
        assert stats["double_click_rate"] == 0.0
        assert stats["eve_knowledge"] == 1.0

    def test_honest_ideal_gain(self, capsys):
        code, out = run_cli(["session", "--config", str(CONFIGS / "honest_ideal.json")], capsys)
        stats = json.loads(out)
        assert abs(stats["gain"] - 1.0) < 0.01

    def test_exact_flag(self, capsys):
        code, out = run_cli(
            ["session", "--exact", "--config", str(CONFIGS / "phase_deviation.json")], capsys
        )
        stats = json.loads(out)
        assert stats["n_slots"] is None
        assert stats["gain"] == 0.5

    def test_seed_override_changes_sampling(self, capsys):
        path = str(CONFIGS / "honest_ideal.json")
        _, out1 = run_cli(["--seed", "1", "session", "--config", path], capsys)
        _, out2 = run_cli(["--seed", "2", "session", "--config", path], capsys)
        assert json.loads(out1)["sifted_rate"] != json.loads(out2)["sifted_rate"]

    def test_trials_csv(self, capsys, tmp_path):
        trials_path = tmp_path / "trials.csv"
        cfg = {
            "n_slots": 200,
            "seed": 3,
            "receiver": {"active_detectors": [True, False, False, False]},
            "attack": {"type": "single_detector_blinding", "mu": 1.0, "mu_th": 0.75},
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _ = run_cli(
            ["session", "--config", str(cfg_path), "--trials-out", str(trials_path)], capsys
        )
        assert code == 0
        rows = list(csv.reader(trials_path.open()))
        assert rows[0] == ["slot", "theta_A", "phi_B", "phi_E", "E1", "E2", "E3", "E4",
                           "outcome", "sifted", "a", "b", "e"]
        assert len(rows) == 201
        sifted_rows = [r for r in rows[1:] if r[9] == "1"]
        assert sifted_rows and all(r[10] == r[11] == r[12] for r in sifted_rows)

    def test_missing_config_exits_three(self, capsys):
        code, out = run_cli(["session", "--config", "/nonexistent.json"], capsys)
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "config"

    def test_infeasible_attack_exits_four(self, capsys, tmp_path):
        cfg = {
            "n_slots": 10,
            "attack": {"type": "phase_deviation", "delta_phi_e": 0.0, "mu": 1.0, "mu_th": 0.99},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out = run_cli(["session", "--config", str(path)], capsys)
        assert code == 4
        assert json.loads(out)["error"]["kind"] == "infeasible"

    def test_invalid_json_exits_three(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, out = run_cli(["session", "--config", str(path)], capsys)
        assert code == 3


def write_config(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text if isinstance(text, str) else json.dumps(text))
    return str(path)


SDB = {
    "n_slots": 100,
    "receiver": {"active_detectors": [True, False, False, False]},
    "attack": {"type": "single_detector_blinding", "mu": 1.0, "mu_th": 0.75},
}


def with_changes(base, *path_and_value):
    """A deep copy of ``base`` with ``value`` stored under the key path."""
    cfg = json.loads(json.dumps(base))
    *path, key, value = path_and_value
    node = cfg
    for part in path:
        node = node.setdefault(part, {})
    node[key] = value
    return cfg


class TestConfigRejection:
    """Inputs the simulator cannot give a meaning to exit 3, never 0."""

    def expect_config_error(self, capsys, argv, fragment=""):
        code, out = run_cli(argv, capsys)
        assert code == 3
        error = json.loads(out)["error"]
        assert error["kind"] == "config"
        assert fragment in error["message"]

    def test_negative_seed_flag(self, capsys):
        path = str(CONFIGS / "honest_ideal.json")
        self.expect_config_error(capsys, ["--seed", "-1", "session", "--config", path], "seed")

    def test_negative_seed_in_config(self, capsys, tmp_path):
        path = write_config(tmp_path, with_changes(SDB, "seed", -1))
        self.expect_config_error(capsys, ["session", "--config", path], "seed")

    def test_non_integral_seed_in_config(self, capsys, tmp_path):
        path = write_config(tmp_path, with_changes(SDB, "seed", 1.5))
        self.expect_config_error(capsys, ["session", "--config", path], "seed")

    @pytest.mark.parametrize(
        "changes, key",
        [
            (("channel_transmitance", 0.1), "channel_transmitance"),
            (("receiver", "t3", 0.5), "t3"),
            (("attack", "mu_thr", 0.75), "mu_thr"),
            (("detectors", {"model": "threshold", "mu_th": 0.75, "mu": 1.0}), "mu"),
        ],
        ids=["top", "receiver", "attack", "detectors"],
    )
    def test_unknown_key_is_named(self, capsys, tmp_path, changes, key):
        path = write_config(tmp_path, with_changes(SDB, *changes))
        self.expect_config_error(capsys, ["session", "--config", path], f"unknown key {key!r}")

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_json_constants(self, capsys, tmp_path, constant):
        text = json.dumps(SDB).replace('"mu": 1.0', f'"mu": {constant}')
        self.expect_config_error(capsys, ["session", "--config", write_config(tmp_path, text)],
                                 constant)

    def test_string_boolean_detector_flag(self, capsys, tmp_path):
        cfg = with_changes(SDB, "receiver", "active_detectors", [True, "false", "false", "false"])
        path = write_config(tmp_path, cfg)
        self.expect_config_error(capsys, ["session", "--config", path], "booleans")

    def test_non_integral_slot_count(self, capsys, tmp_path):
        path = write_config(tmp_path, with_changes(SDB, "n_slots", 1000.7))
        self.expect_config_error(capsys, ["session", "--config", path], "n_slots")

    def test_slot_count_beyond_int64(self, capsys, tmp_path):
        path = write_config(tmp_path, with_changes(SDB, "n_slots", 2**63))
        self.expect_config_error(capsys, ["session", "--config", path], "n_slots")

    def test_integral_float_slot_count_is_accepted(self, capsys, tmp_path):
        path = write_config(tmp_path, with_changes(SDB, "n_slots", 100.0))
        code, out = run_cli(["session", "--config", path], capsys)
        assert code == 0 and json.loads(out)["n_slots"] == 100

    @pytest.mark.parametrize(
        "changes",
        [
            ("attack", "mu", "1e400"),
            ("attack", "mu_th", -0.5),
            ("detectors", {"model": "threshold", "mu_th": "inf"}),
            ("detectors", {"model": "ideal", "efficiency": "nan"}),
            ("receiver", "phi_b", "nan"),
        ],
        ids=["strategy-inf", "strategy-negative", "model-inf", "model-nan", "angle-nan"],
    )
    def test_out_of_range_values(self, capsys, tmp_path, changes):
        cfg = with_changes(SDB, *changes)
        if changes[0] == "detectors" and changes[1]["model"] == "ideal":
            del cfg["attack"]
        self.expect_config_error(capsys, ["session", "--config", write_config(tmp_path, cfg)])

    @pytest.mark.parametrize(
        "attack",
        [
            {"type": "asymmetric_threshold", "p_b": 0.56, "e_t": 0.19, "schedule": {"Y": [0.2, 0.1]}},
            {"type": "time_shift", "p_b": 0.32, "e_t": 0.125, "targets": {"Z": ["D9", 1.0]}},
            {"type": "time_shift", "p_b": 0.32, "e_t": 0.125, "targets": {"Z": "D1"}},
            {"type": "wavelength_bs", "gamma": 0.2, "t1": 1.5, "t2": 0.46, "mu": 1.0, "mu_th": 0.89},
        ],
        ids=["schedule-basis", "target-detector", "target-shape", "splitting"],
    )
    def test_bad_strategy_fields(self, capsys, tmp_path, attack):
        path = write_config(tmp_path, {"n_slots": 10, "attack": attack})
        self.expect_config_error(capsys, ["session", "--config", path])

    def test_non_finite_click_probability(self, capsys, tmp_path, monkeypatch):
        from ddiqkd.detectors import ThresholdModel

        monkeypatch.setattr(
            ThresholdModel, "click_probs", lambda self, energies, pulses: energies * np.nan
        )
        path = write_config(tmp_path, SDB)
        self.expect_config_error(capsys, ["session", "--config", path], "non-finite")

    def test_config_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        self.expect_config_error(capsys, ["session", "--config", str(path)], "not valid JSON")

    def test_config_not_an_object(self, capsys, tmp_path):
        path = write_config(tmp_path, "[1, 2]")
        self.expect_config_error(capsys, ["session", "--config", path], "JSON object")

    def test_missing_field_is_named(self, capsys, tmp_path):
        cfg = with_changes(SDB, "attack", {"type": "single_detector_blinding", "mu": 1.0})
        path = write_config(tmp_path, cfg)
        self.expect_config_error(capsys, ["session", "--config", path], "'mu_th'")


class TestUnwritableOutput:
    def test_report_out(self, capsys):
        path = str(CONFIGS / "honest_ideal.json")
        code, out = run_cli(["--out", "/nonexistent/x.json", "session", "--config", path], capsys)
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "config"

    def test_trials_out(self, capsys, tmp_path, monkeypatch):
        from ddiqkd import protocol

        def never(comp):
            raise AssertionError("a slot was sampled before the output was opened")

        monkeypatch.setattr(protocol, "_slot_cells", never)
        path = write_config(tmp_path, SDB)
        code, out = run_cli(
            ["session", "--config", path, "--trials-out", "/nonexistent/t.csv"], capsys
        )
        assert code == 3
        error = json.loads(out)["error"]
        assert error["kind"] == "config"
        assert "cannot write output" in error["message"]


class TestUsageRejection:
    """Flag values with no meaning are usage errors (exit 2), never a report."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "eq1", "--trials", "0"],
            ["verify", "eq1", "--trials", "-5"],
            ["sweep", "--points", "-3"],
            ["sweep", "--points", "0"],
            ["table1", "--mu", "nan"],
            ["table1", "--mu", "inf"],
            ["sweep", "--t1", "nan"],
            ["sweep", "--t2", "inf"],
            ["sweep", "--gamma=-inf"],
            ["sweep", "--t1", "1.5"],
            ["sweep", "--gamma", "-0.1"],
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv",
        [["verify", "eq1", "--seed", "-1"], ["--seed", "-1", "verify", "eq3"]],
        ids=["after", "before"],
    )
    def test_negative_verify_seed_exits_three(self, capsys, argv):
        code, out = run_cli(argv, capsys)
        assert code == 3
        error = json.loads(out)["error"]
        assert error["kind"] == "config" and "seed" in error["message"]


class TestOpsearch:
    def test_finds_low_power_point(self, capsys):
        code, out = run_cli(["opsearch", "--constraints", "D1>D2"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["found"] and report["verified"]
        assert abs(report["p_b_mw"] - 0.2) < 0.05
        assert abs(report["e_t_pj"] - 0.1) < 0.02

    def test_finds_high_power_point(self, capsys):
        code, out = run_cli(["opsearch", "--constraints", "D2>D1"], capsys)
        report = json.loads(out)
        assert abs(report["p_b_mw"] - 0.56) < 0.05
        assert abs(report["e_t_pj"] - 0.19) < 0.02

    def test_identical_curves_infeasible(self, capsys, tmp_path):
        lines = ["detector,kind,P_B_mW,E_pJ"]
        for det in ("D1", "D2"):
            lines += [
                f"{det},never,0.1,0.10",
                f"{det},never,0.6,0.10",
                f"{det},always,0.1,0.20",
                f"{det},always,0.6,0.20",
                f"{det},window,0.0,1.0",
            ]
        path = tmp_path / "same.csv"
        path.write_text("\n".join(lines) + "\n")
        code, out = run_cli(
            ["opsearch", "--curves", str(path), "--constraints", "D1>D2"], capsys
        )
        assert code == 4

    def test_bad_constraint_syntax(self, capsys):
        code, out = run_cli(["opsearch", "--constraints", "D1-D2"], capsys)
        assert code == 3


class TestBreakeven:
    def test_single_detector_attack_report(self, capsys):
        code, out = run_cli(
            ["breakeven", "--config", str(CONFIGS / "single_detector_blinding.json")], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["breakeven_transmittance"] == pytest.approx(1.0, abs=1e-9)
        assert report["reference_transmittance"] == 0.5
        assert report["reference_loss_db"] == pytest.approx(3.0103, abs=1e-3)
        assert report["matches_reference"] is False


class TestOutputOptions:
    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        code, out = run_cli(["--out", str(out_path), "table1", "--mu", "1"], capsys)
        assert code == 0
        assert out == ""
        header, rows = parse_csv(out_path.read_text())
        assert len(rows) == 16

    def test_json_format_rows(self, capsys):
        code, out = run_cli(["--format", "json", "table1", "--mu", "1"], capsys)
        data = json.loads(out)
        assert len(data) == 16
        assert data[0]["D1"] == pytest.approx(1.0, abs=1e-12)
