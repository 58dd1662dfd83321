"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They run every workload at the tiny size in its own process, so they take
under a minute; they are kept out of the repository's tier-1 test paths.
"""

from __future__ import annotations

import copy
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def tiny_run(workload: str, trace: int, seed: int = 5) -> tuple[dict, dict]:
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("detail "))


def test_spec_lists_the_workloads_with_their_reasons():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_named_metric_with_its_unit(workload, trace):
    result, _ = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in named} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_runs_at_one_seed_give_identical_counts():
    runs = [tiny_run("exact-analysis", 1, seed=9) for _ in range(2)]
    counts = [
        {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}
        for result, _ in runs
    ]
    assert counts[0] == counts[1]
    assert runs[0][1]["calls_per_op"] == runs[1][1]["calls_per_op"]
    assert all(detail["counts_repeat"] for _, detail in runs)


def test_traced_counts_follow_the_code():
    result, detail = tiny_run("exact-analysis", 1)
    per_op = detail["calls_per_op"]
    # five attack configs build their 16-entry tables twice, two honest ones once
    assert per_op["receiver.general_port_amplitudes"]["exact"] == pytest.approx((5 * 32 + 2 * 16) / 7)
    assert per_op["attacks.select_operating_point"]["opsearch"] == 1
    assert 9_000 < result["metrics"]["attacks.select_operating_point.click_evals_per_call"]["value"]
    assert result["metrics"]["optics.propagate.calls"]["value"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "exact-analysis", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


# --------------------------------------------------------------------------
# the gate catches wrong outputs


def _sampled(config: str, n: int) -> dict:
    exact = checks.EXACT[config]
    report = copy.deepcopy(exact)
    report["n_slots"] = n
    report["bell_histogram"] = {k: v * n for k, v in exact["bell_histogram"].items()}
    return report


def test_exact_checks_pass_pinned_values_and_flag_a_corrupted_qber():
    report = {"n_slots": None, **copy.deepcopy(checks.EXACT["time_shift"])}
    assert checks.check_exact_session("time_shift", report) == []
    report["qber"] = 0.01
    assert checks.check_exact_session("time_shift", report)


def test_sampled_checks_flag_a_corrupted_attack_report():
    report = _sampled("asymmetric_threshold", 10_000)
    assert checks.check_sampled_session("asymmetric_threshold", report, 10_000) == []
    for key, bad in (("qber", 0.01), ("eve_knowledge", 0.99), ("double_click_rate", 1e-4),
                     ("gain", 0.6)):
        corrupted = dict(report, **{key: bad})
        assert checks.check_sampled_session("asymmetric_threshold", corrupted, 10_000), key


def _write_trials(path: Path, rows: int) -> dict:
    """A trials CSV with ``rows`` slots: every other slot clicks, a quarter sift."""
    single = sifted = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["slot", "theta_A", "phi_B", "phi_E", "E1", "E2", "E3", "E4",
                         "outcome", "sifted", "a", "b", "e"])
        for i in range(rows):
            clicked, sift = i % 2 == 0, i % 4 == 0
            single += clicked
            sifted += sift
            writer.writerow([i, 0, 0, 0, 0, 0, 0, 0, "phi_plus" if clicked else "no_click",
                             int(sift), 1 if sift else "", 1 if sift else "", ""])
    return {"gain": single / rows, "sifted_rate": sifted / rows, "qber": 0.0,
            "double_click_rate": 0.0}


def test_trials_csv_check_flags_a_missing_row_and_a_wrong_recount(tmp_path):
    path = tmp_path / "t.csv"
    report = _write_trials(path, 400)
    assert checks.check_trials_csv("x", path, report, 400) == []
    assert checks.check_trials_csv("x", path, report, 401)
    assert checks.check_trials_csv("x", path, dict(report, gain=report["gain"] + 1 / 400), 400)


def test_analysis_checks_flag_wrong_answers():
    assert checks.check_breakeven("time_shift", {"breakeven_transmittance": 0.25,
                                                 "attacked_gain": 0.25}) == []
    assert checks.check_breakeven("time_shift", {"breakeven_transmittance": 0.5,
                                                 "attacked_gain": 0.25})
    good = {"verified": True, "p_b_mw": 0.2, "e_t_pj": 0.1}
    assert checks.check_opsearch("D1>D2", good) == []
    assert checks.check_opsearch("D1>D2", dict(good, e_t_pj=0.105))
    assert checks.check_opsearch("D1>D2", dict(good, verified=False))
    ok = {"check": "eq3", "trials": 10, "max_error": 1e-15, "ok": True}
    assert checks.check_verify("eq3", ok, 10) == []
    assert checks.check_verify("eq3", dict(ok, max_error=1e-9, ok=False), 10)
    assert checks.check_verify("eq3", ok, 11)
