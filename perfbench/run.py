"""The ddiqkd benchmark.

    python3 perfbench/run.py --workload sampled-sessions --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

One workload runs in one single-threaded process as a closed loop with one
client: each op is an in-process ``ddiqkd.cli.main([...])`` call (or the
library planner), with stdout captured, issued only after the previous one
finished and was checked.  Ops run in cycles (one pass over the workload's op
list, see ``workloads.py``); whole cycles run until the summed op time
reaches ``--seconds``.  Set-up is timed in fresh processes spread between
the cycles, so that its median, like the op means, spans the whole run.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see ``tracing.py``).  The last line of stdout is the
JSON result; a line before it starting with ``detail`` holds the per-op-kind
figures.  ``--workload all`` runs every workload in its own process and
prints one JSON document with machine provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ddiqkd.cli
ddiqkd.cli.build_parser()
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_latency_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: module.function.what -> unit.  ``calls`` are per
#: cycle, ``self_ms`` the median per-cycle self time over the traced cycles.
PER_LAYER_UNITS = {
    "cli.cmd_session.self_ms": "ms/cycle",
    "cli.cmd_verify.self_ms": "ms/cycle",
    "cli.load_session_config.calls": "count",
    "cli.load_session_config.self_ms": "ms/cycle",
    "cli.trials_csv.bytes_per_slot": "B/slot",
    "protocol.run_session.calls": "count",
    "protocol.run_session.self_ms": "ms/cycle",
    "protocol.run_session.ns_per_slot": "ns/slot",
    "protocol.run_session.trials_ns_per_slot": "ns/slot",
    "protocol.run_session.peak_mb": "MB",
    "protocol.validate_attack.calls_per_op": "count",
    "protocol.validate_attack.self_ms": "ms/cycle",
    "protocol.enumerate_exact.calls": "count",
    "protocol.enumerate_exact.self_ms": "ms/cycle",
    "protocol.breakeven_transmittance.enumerations_per_call": "count",
    "attacks.select_operating_point.calls": "count",
    "attacks.select_operating_point.self_ms": "ms/cycle",
    "attacks.select_operating_point.click_evals_per_call": "count",
    "attacks.plan_asymmetric_threshold.self_ms": "ms/cycle",
    "attacks.plan_time_shift.calls": "count",
    "attacks.plan_time_shift.self_ms": "ms/cycle",
    "attacks.forge_pulse.calls": "count",
    "detectors.default_curves.calls": "count",
    "detectors.default_curves.self_ms": "ms/cycle",
    "detectors.blinded_click_probability.calls": "count",
    "detectors.blinded_click_probability.self_ms": "ms/cycle",
    "detectors.temporal_click_probability.calls": "count",
    "receiver.general_port_amplitudes.calls": "count",
    "receiver.general_port_amplitudes.self_ms": "ms/cycle",
    "receiver.propagated_port_amplitudes.calls": "count",
    "receiver.propagated_port_amplitudes.self_ms": "ms/cycle",
    "receiver.balanced_port_amplitudes.calls": "count",
    "optics.propagate.calls": "count",
    "optics.propagate.self_ms": "ms/cycle",
    "optics.single_photon_probabilities.calls": "count",
    "trace.overhead_s": "s",
}

#: Names of each op kind's throughput in the ``detail`` line, in work units per second.
KIND_RATES = {
    "session": "sampled_slots_per_s",
    "export": "export_slots_per_s",
    "verify": "verify_trials_per_s",
}


def import_program():
    """Import ``ddiqkd`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "ddiqkd" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}")
    sys.path.insert(0, str(SRC))
    import ddiqkd

    if Path(ddiqkd.__file__).resolve().parent != (SRC / "ddiqkd").resolve():
        sys.exit(f"perfbench: imported ddiqkd from {ddiqkd.__file__}, not {SRC}")


def measure_setup() -> float:
    """Seconds to import ddiqkd and build the CLI parser in a fresh process."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Runner:
    """Executes and checks ops, keeping the tally of attempts and failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.csv_bytes = 0
        self.csv_slots = 0
        self.tracer = None  # set for the traced cycles of a traced run

    def execute(self, op) -> float:
        """Run one op, check its output, and return its latency in seconds."""
        from ddiqkd import attacks, cli, detectors

        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id += 1
            self.tracer.op_key = op.key
        if op.trials_out is not None:
            op.trials_out.unlink(missing_ok=True)  # a stale CSV must not pass the check
        buf = io.StringIO()
        rc, result, problems = 0, None, []
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                if op.argv is None:
                    result = attacks.plan_asymmetric_threshold(detectors.default_curves())
                else:
                    rc = cli.main(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # an op that crashes is a failure; the run goes on
            problems = [f"{op.key}: raised {exc!r}"]
        latency = time.perf_counter() - start
        if not problems:
            if rc != 0:
                problems = [f"{op.key}: exit code {rc}"]
            else:
                problems = self._check(op, buf.getvalue(), result)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return latency

    def _check(self, op, stdout: str, result) -> list[str]:
        if op.argv is not None:
            try:
                result = json.loads(stdout)
            except json.JSONDecodeError:
                return [f"{op.key}: output is not JSON: {stdout[:200]!r}"]
            if not isinstance(result, dict):
                return [f"{op.key}: output is not a JSON object: {stdout[:200]!r}"]
        if op.trials_out is not None and op.trials_out.exists():
            self.csv_bytes += op.trials_out.stat().st_size
            self.csv_slots += op.work
        return op.check(result)

    def cycle(self, ops) -> list[float]:
        return [self.execute(op) for op in ops]

    def cycles(self, ops, seconds: float, between=lambda: None) -> list[list[float]]:
        """Whole cycles until their summed op time reaches ``seconds`` (at least
        one), calling ``between`` after each."""
        done: list[list[float]] = []
        busy = 0.0
        while not done or busy < seconds:
            done.append(self.cycle(ops))
            busy += sum(done[-1])
            between()
        return done


def percentile(values: list[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation between order statistics."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int, target: int = 90) -> int:
    """Highest whole percentile up to ``target`` with at least ten of ``n`` samples beyond it."""
    return max(0, min(target, math.floor(100 * (1 - 10 / n)))) if n else 0


def latency_detail(ops, timed: list[list[float]]) -> dict:
    """Figures per op kind: pooled median and tail latency, and
    throughput for kinds that do slots or trials."""
    by_kind: dict[str, list[float]] = {}
    work: dict[str, int] = {}
    for cycle in timed:
        for op, latency in zip(ops, cycle):
            by_kind.setdefault(op.kind, []).append(latency)
            work[op.kind] = work.get(op.kind, 0) + op.work
    detail = {}
    for kind, lats in sorted(by_kind.items()):
        q = tail_percentile(len(lats))
        detail[f"{kind}_p50_ms"] = {"value": 1e3 * statistics.median(lats), "unit": "ms", "n": len(lats)}
        if q > 50:
            detail[f"{kind}_p{q}_ms"] = {"value": 1e3 * percentile(lats, q / 100), "unit": "ms", "n": len(lats)}
        if kind in KIND_RATES:
            detail[KIND_RATES[kind]] = {"value": work[kind] / sum(lats), "unit": "1/s", "n": len(lats)}
    return detail


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(ops, timed, setup_times) -> dict:
    """``op_latency_ms`` is the geometric mean over op kinds of the geometric
    mean over the kind's ops of each op's mean latency, so every command, and
    every input of a command, weighs the same whatever its cost.  Means, not
    medians: on a shared machine speed drifts in phases of tens of seconds, and a
    median jumps between a fast and a slow phase where a mean moves smoothly."""
    by_kind: dict[str, list[float]] = {}
    for op, lats in zip(ops, zip(*timed)):
        by_kind.setdefault(op.kind, []).append(statistics.fmean(lats))
    busy = sum(map(sum, timed))
    work = sum(op.work for op in ops) * len(timed)
    return {
        "setup_s": statistics.median(setup_times),
        "work_per_s": work / busy,
        "op_latency_ms": 1e3 * _geomean(_geomean(means) for means in by_kind.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _sum_stats(stats, name, where=lambda key: True, field=0) -> int:
    return sum(v[field] for key, v in stats.items() if key[0] == name and where(key))


def per_layer(ops, runner, traced, untraced_walls, traced_walls, peak_bytes) -> dict:
    """Per-layer metrics from the per-cycle aggregates of the traced cycles."""
    kind_of = {op.key: op.kind for op in ops}
    slots_of_kind = {}
    for op in ops:
        slots_of_kind[op.kind] = slots_of_kind.get(op.kind, 0) + op.work
    first = traced[0]

    def calls(name, where=lambda key: True):
        return _sum_stats(first, name, where)

    def median_ms(name):
        return statistics.median(_sum_stats(s, name, field=1) for s in traced) / 1e6

    def ns_per_slot(kind):
        slots = slots_of_kind.get(kind, 0)
        if not slots:
            return 0.0
        incl = [_sum_stats(s, "protocol.run_session", lambda k: kind_of[k[1]] == kind, 2) for s in traced]
        return statistics.median(incl) / slots

    def ratio(num, den):
        return num / den if den else 0.0

    session_ops = sum(1 for op in ops if op.kind in ("session", "export", "exact"))
    metrics = {
        "cli.trials_csv.bytes_per_slot": ratio(runner.csv_bytes, runner.csv_slots),
        "protocol.run_session.ns_per_slot": ns_per_slot("session"),
        "protocol.run_session.trials_ns_per_slot": ns_per_slot("export"),
        "protocol.run_session.peak_mb": peak_bytes / 2**20,
        "protocol.validate_attack.calls_per_op": ratio(
            calls("protocol.validate_attack", lambda k: kind_of[k[1]] in ("session", "export", "exact")),
            session_ops,
        ),
        "protocol.breakeven_transmittance.enumerations_per_call": ratio(
            calls("protocol.enumerate_exact", lambda k: k[2] == "protocol.breakeven_transmittance"),
            calls("protocol.breakeven_transmittance"),
        ),
        "attacks.select_operating_point.click_evals_per_call": ratio(
            calls("detectors.blinded_click_probability", lambda k: k[2] == "attacks.select_operating_point"),
            calls("attacks.select_operating_point"),
        ),
        "trace.overhead_s": statistics.median(traced_walls) - statistics.median(untraced_walls),
    }
    for name in PER_LAYER_UNITS:
        if name in metrics:
            continue
        func, what = name.rsplit(".", 1)
        metrics[name] = calls(func) if what == "calls" else median_ms(func)
    return metrics


def calls_per_op(ops, stats) -> dict[str, dict[str, float]]:
    """function -> {op kind: calls per op of that kind}, for one cycle."""
    n_kind = {}
    for op in ops:
        n_kind[op.kind] = n_kind.get(op.kind, 0) + 1
    kind_of = {op.key: op.kind for op in ops}
    totals: dict[str, dict[str, int]] = {}
    for (name, op_key, _), (count, _, _) in stats.items():
        row = totals.setdefault(name, {})
        row[kind_of[op_key]] = row.get(kind_of[op_key], 0) + count
    return {name: {kind: n / n_kind[kind] for kind, n in row.items()} for name, row in totals.items()}


def untraced_run(ops, runner: Runner, seconds: float, probes: int) -> tuple[dict, dict]:
    setup_times = [measure_setup()]

    def probe_between_cycles():
        if len(setup_times) < probes:
            setup_times.append(measure_setup())

    timed = runner.cycles(ops, seconds, probe_between_cycles)
    setup_times += [measure_setup() for _ in range(probes - len(setup_times))]
    values = end_to_end(ops, timed, setup_times)
    detail = latency_detail(ops, timed)
    detail["setup_s"] = {"value": values["setup_s"], "unit": "s", "n": len(setup_times)}
    detail["peak_rss_mb"] = {"value": values["peak_rss_mb"], "unit": "MB", "n": 1}
    detail["cycles"] = len(timed)
    return values, detail


def traced_run(ops, runner: Runner, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """Half of ``seconds`` untraced, half traced, then one cycle with the memory probe."""
    import tracing

    untraced_walls = [sum(c) for c in runner.cycles(ops, seconds / 2)]
    tracer = runner.tracer = tracing.Tracer()
    traced = []
    with tracing.tracing(tracer):
        traced_walls = [sum(c) for c in runner.cycles(ops, seconds / 2, lambda: traced.append(tracer.take()))]
    runner.tracer = None
    probe = tracing.MemoryProbe()
    with probe.installed():
        runner.cycle(ops)
    values = per_layer(ops, runner, traced, untraced_walls, traced_walls, probe.peak_bytes)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    counts = [{key: v[0] for key, v in s.items()} for s in traced]
    detail = {
        "calls_per_op": calls_per_op(ops, traced[0]),
        "counts_repeat": all(c == counts[0] for c in counts),
        "traced_cycles": len(traced),
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return values, detail


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail)."""
    from workloads import SIZES, build_ops

    import_program()
    TMP_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    try:
        ops = build_ops(workload, seed, size, workdir, ROOT / "configs")
        runner = Runner()
        if trace:
            values, detail = traced_run(ops, runner, seconds, OUT_DIR / f"spans-{workload}-seed{seed}.csv")
        else:
            values, detail = untraced_run(ops, runner, seconds, SIZES[size]["setup_probes"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    detail["attempted"] = runner.attempted
    detail["failed"] = runner.failed
    detail["fail_rate"] = runner.failed / runner.attempted
    detail["problems"] = runner.problems[:20]
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return result, detail


def provenance(seed: int, seconds: float) -> dict:
    import numpy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = out.stdout.strip() or None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": seconds,
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_all(seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Every workload in its own process, untraced and (with ``trace``) traced."""
    from workloads import WORKLOADS

    import_program()
    doc = {"provenance": provenance(seed, seconds), "workloads": {}}
    for workload in WORKLOADS:
        entry = doc["workloads"][workload] = {}
        for t in ((0, 1) if trace else (0,)):
            out = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(t), "--size", size],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
            )
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                raise SystemExit(f"perfbench: {workload} --trace {t} exited {out.returncode}")
            lines = out.stdout.splitlines()
            entry["traced" if t else "untraced"] = {
                "result": json.loads(lines[-1]),
                "detail": json.loads(lines[-2].removeprefix("detail ")),
            }
    return doc


def summarize(workload: str, trace: bool, result: dict, detail: dict) -> None:
    """Human-readable summary on stderr."""
    err = sys.stderr
    err.write(f"== {workload} ({'traced' if trace else 'untraced'}): "
              f"{result['attempted']} ops, {result['failed']} failed\n")
    for problem in detail["problems"]:
        err.write(f"   FAILED {problem}\n")
    for name, m in result["metrics"].items():
        err.write(f"   {name:58s} {m['value']:14.6g} {m['unit']}\n")
    if trace:
        for name, row in sorted(detail["calls_per_op"].items()):
            per = ", ".join(f"{kind} {n:g}" for kind, n in sorted(row.items()))
            err.write(f"   calls per op  {name:45s} {per}\n")
    else:
        for name, m in detail.items():
            if isinstance(m, dict) and "n" in m:
                err.write(f"   {name:58s} {m['value']:14.6g} {m['unit']}  (n={m['n']})\n")
        err.write(f"   fail_rate {detail['fail_rate']:g} ratio\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sampled-sessions", "trial-export", "exact-analysis",
                                 "network-verify", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every op for smoke tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, bool(args.trace), args.size), indent=2))
        return 0
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    summarize(args.workload, bool(args.trace), result, detail)
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
