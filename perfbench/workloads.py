"""Seeded inputs and the op list of each workload.

The program receives only generated files and arguments: the bundled
``configs/*.json`` rewritten with a fixed ``n_slots`` and a session seed
derived from the workload seed.  ``"curves": "default"`` is kept, so the
program pays for its own curve loading on every op; nothing is pre-loaded
on its behalf.  ``n_slots`` is fixed per op because the sampled stream is not
prefix-stable: results must not depend on how long the benchmark runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import (
    check_breakeven,
    check_exact_session,
    check_opsearch,
    check_plan,
    check_sampled_session,
    check_trials_csv,
    check_verify,
)

#: Why each workload exists; BENCHMARK.json carries the same sentences.
WORKLOADS = {
    "sampled-sessions": "stats-only sessions on all seven configs at 1e6 slots, where the "
    "per-slot sampler in run_session does nearly all the work",
    "trial-export": "sessions with --trials-out at 2e4 slots, where per-slot records and "
    "CSV writing dominate; shows a stats-only gain that costs export, or the reverse",
    "exact-analysis": "session --exact, breakeven, opsearch and the asymmetric planner, where "
    "fixed per-op costs dominate and the per-slot sampler does no work",
    "network-verify": "verify eq1 and eq3, the only route through optics.propagate and the "
    "network-propagation side of receiver",
}

#: ``setup_probes`` fresh processes time the set-up in each untraced run.
SIZES = {
    "full": {"session_slots": 1_000_000, "export_slots": 20_000, "verify_trials": 2_000,
             "setup_probes": 9},
    "tiny": {"session_slots": 2_000, "export_slots": 200, "verify_trials": 20, "setup_probes": 1},
}

CONSTRAINT_SETS = ("D1>D2", "D2>D1", "D3>D4", "D4>D3", "D1>D2,D3>D4", "D2>D1,D4>D3")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a ``cli.main`` call, or the library planner
    when ``argv`` is None."""

    key: str
    kind: str
    argv: tuple[str, ...] | None
    work: int  # slots, trials, or 1 for an analysis op
    check: Callable[[object], list[str]]
    trials_out: Path | None = None


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit seed for ``label``, stable across Python versions."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{label}".encode()).digest()[:4], "big")


def write_configs(configs_dir: Path, dst: Path, n_slots: int, seed: int) -> dict[str, Path]:
    """Rewrite every bundled config with ``n_slots`` and a derived seed."""
    paths = {}
    for src in sorted(configs_dir.glob("*.json")):
        data = json.loads(src.read_text())
        data["n_slots"] = n_slots
        data["seed"] = derive_seed(seed, src.stem)
        path = dst / src.name
        path.write_text(json.dumps(data, indent=2))
        paths[src.stem] = path
    return paths


def build_ops(workload: str, seed: int, size: str, workdir: Path, configs_dir: Path) -> list[Op]:
    """The op list of one cycle of ``workload``."""
    sz = SIZES[size]
    ops: list[Op] = []
    if workload == "sampled-sessions":
        n = sz["session_slots"]
        for name, path in write_configs(configs_dir, workdir, n, seed).items():
            ops.append(Op(
                f"session {name}", "session", ("session", "--config", str(path)), n,
                lambda r, name=name, n=n: check_sampled_session(name, r, n),
            ))
    elif workload == "trial-export":
        n = sz["export_slots"]
        for name, path in write_configs(configs_dir, workdir, n, seed).items():
            csv_path = workdir / f"{name}.csv"

            def check(r, name=name, n=n, csv_path=csv_path):
                return check_sampled_session(name, r, n) or check_trials_csv(name, csv_path, r, n)

            ops.append(Op(
                f"export {name}", "export",
                ("session", "--config", str(path), "--trials-out", str(csv_path)), n, check,
                trials_out=csv_path,
            ))
    elif workload == "exact-analysis":
        for name, path in write_configs(configs_dir, workdir, sz["session_slots"], seed).items():
            ops.append(Op(
                f"exact {name}", "exact", ("session", "--exact", "--config", str(path)), 1,
                lambda r, name=name: check_exact_session(name, r),
            ))
            ops.append(Op(
                f"breakeven {name}", "breakeven", ("breakeven", "--config", str(path)), 1,
                lambda r, name=name: check_breakeven(name, r),
            ))
        for constraints in CONSTRAINT_SETS:
            ops.append(Op(
                f"opsearch {constraints}", "opsearch", ("opsearch", "--constraints", constraints), 1,
                lambda r, c=constraints: check_opsearch(c, r),
            ))
        ops.append(Op("plan asymmetric_threshold", "plan", None, 1, check_plan))
    elif workload == "network-verify":
        trials = sz["verify_trials"]
        for check in ("eq1", "eq3"):
            argv = ("verify", check, "--trials", str(trials), "--seed", str(derive_seed(seed, check)))
            ops.append(Op(
                f"verify {check}", "verify", argv, trials,
                lambda r, c=check, t=trials: check_verify(c, r, t),
            ))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
