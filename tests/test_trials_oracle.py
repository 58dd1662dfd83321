"""The per-slot CSV export against a record-by-record oracle.

The oracle is the export as it was once written: one frozen ``TrialRecord``
per slot, each written by ``csv.writer.writerow``.  It takes the slots'
cells from the program's physical sampler (the sampler is checked against
exact enumeration elsewhere) and works out every other field itself, from
the cell's (sender phase, Eve branch, Bob phase, click pattern) and
``KEY_CORRECTION``, never from the program's per-cell maps.  Its report is
a recount of its own records.  The program's CSV and report must equal the
oracle's byte for byte.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ddiqkd import cli
from ddiqkd.attacks import BASES, EvePulse
from ddiqkd.protocol import KEY_CORRECTION, SessionStats, TENSOR_SHAPE, _compile, _slot_cells
from ddiqkd.receiver import BB84_PHASES, OUTCOME_BY_DETECTOR, BellOutcome

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

#: Honest receivers whose port energies are off the protocol lattice.
EXTRA_CONFIGS = {
    "honest_dark_counts": {
        "n_slots": 1,
        "channel_transmittance": 0.7,
        "receiver": {"active_detectors": [True, True, False, True]},
        "detectors": {"model": "ideal", "efficiency": 0.8, "dark_count_prob": 0.05},
    },
    "honest_phi_b_offset": {
        "n_slots": 1,
        "receiver": {"t1": 0.44, "t2": 0.46, "phi_b": "pi/36"},
        "detectors": {"model": "ideal", "dark_count_prob": 0.01},
    },
}


@dataclass(frozen=True)
class TrialRecord:
    """One protocol slot, as recorded for per-trial export."""

    slot: int
    theta_a: float
    phi_b: float
    eve: tuple[str, float, EvePulse] | None  # (basis, measured phase, pulse)
    energies: tuple[float, float, float, float]
    outcome: BellOutcome
    sifted: bool
    alice_bit: int | None = None
    bob_bit: int | None = None
    eve_bit: int | None = None


def oracle_records(comp, cells) -> list[TrialRecord]:
    attacked = comp.cfg.attack is not None
    records = []
    for slot, cell in enumerate(cells.tolist()):
        ti, ei, bj, pattern = (int(x) for x in np.unravel_index(cell, TENSOR_SHAPE))
        fired = [d for d in range(4) if pattern >> d & 1]
        if len(fired) == 1:
            outcome = OUTCOME_BY_DETECTOR[fired[0]]
        else:
            outcome = BellOutcome.NO_CLICK if not fired else BellOutcome.DOUBLE_CLICK
        sifted = len(fired) == 1 and ti % 2 == bj % 2
        bits = [None, None, None]
        if sifted:
            bits[0] = (ti // 2) ^ KEY_CORRECTION[(BASES[ti % 2], outcome)]
            bits[1] = bj // 2
            if attacked:
                bits[2] = (ei // 2) ^ KEY_CORRECTION[(BASES[bj % 2], outcome)]
        eve = (BASES[ei % 2], BB84_PHASES[ei], comp.pulses[ei]) if attacked else None
        records.append(
            TrialRecord(
                slot, BB84_PHASES[ti], BB84_PHASES[bj], eve,
                tuple(comp.ports[ei, bj].tolist()), outcome, sifted, *bits,
            )
        )
    return records


def oracle_csv(records) -> bytes:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(
        ["slot", "theta_A", "phi_B", "phi_E", "E1", "E2", "E3", "E4",
         "outcome", "sifted", "a", "b", "e"]
    )
    for rec in records:
        writer.writerow(
            [
                rec.slot,
                rec.theta_a,
                rec.phi_b,
                "" if rec.eve is None else rec.eve[1],
                *rec.energies,
                rec.outcome.value,
                int(rec.sifted),
                "" if rec.alice_bit is None else rec.alice_bit,
                "" if rec.bob_bit is None else rec.bob_bit,
                "" if rec.eve_bit is None else rec.eve_bit,
            ]
        )
    return fh.getvalue().encode()


def oracle_report(records, attacked: bool) -> bytes:
    n = len(records)
    single = [r for r in records if r.outcome in OUTCOME_BY_DETECTOR]
    sifted = [r for r in records if r.sifted]
    errors = sum(r.alice_bit != r.bob_bit for r in sifted)
    eve_match = sum(r.eve_bit == r.bob_bit for r in sifted)
    stats = SessionStats(
        n_slots=n,
        gain=len(single) / n,
        sifted_rate=len(sifted) / n,
        qber=errors / len(sifted) if sifted else 0.0,
        double_click_rate=sum(r.outcome is BellOutcome.DOUBLE_CLICK for r in records) / n,
        bell_histogram=tuple(float(sum(r.outcome is o for r in single)) for o in OUTCOME_BY_DETECTOR),
        eve_knowledge=(eve_match / len(sifted) if sifted else 0.0) if attacked else None,
    )
    return (json.dumps(stats.to_dict(), indent=2) + "\n").encode()


def export(tmp_path, data: dict) -> tuple[bytes, bytes, bytes, bytes]:
    """(program CSV, program report, oracle CSV, oracle report) for ``data``."""
    cfg_path, csv_path, out_path = (tmp_path / name for name in ("cfg.json", "t.csv", "r.json"))
    cfg_path.write_text(json.dumps(data))
    argv = ["--out", str(out_path), "session", "--config", str(cfg_path),
            "--trials-out", str(csv_path)]
    assert cli.main(argv) == 0
    comp = _compile(cli.load_session_config(cfg_path))
    records = oracle_records(comp, _slot_cells(comp))
    attacked = comp.cfg.attack is not None
    return (csv_path.read_bytes(), out_path.read_bytes(),
            oracle_csv(records), oracle_report(records, attacked))


CASES = {path.stem: json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))}
CASES.update(EXTRA_CONFIGS)


@pytest.mark.parametrize("name", CASES)
def test_export_equals_the_oracle(tmp_path, name):
    # 5000 slots cross the first 4096-slot block boundary
    data = dict(CASES[name], n_slots=5000, seed=11)
    program_csv, program_report, expected_csv, expected_report = export(tmp_path, data)
    assert program_csv == expected_csv
    assert program_report == expected_report


SINGLE_CLICKS = {outcome.value for outcome in OUTCOME_BY_DETECTOR}


def recount(csv_bytes: bytes) -> tuple[int, dict]:
    rows = list(csv.DictReader(io.StringIO(csv_bytes.decode(), newline="")))
    n = len(rows)
    outcomes = [row["outcome"] for row in rows]
    sifted = [row for row in rows if row["sifted"] == "1"]
    errors = sum(row["a"] != row["b"] for row in sifted)
    return n, {
        "n_slots": n,
        "gain": sum(o in SINGLE_CLICKS for o in outcomes) / n,
        "sifted_rate": len(sifted) / n,
        "qber": errors / len(sifted) if sifted else 0.0,
        "double_click_rate": outcomes.count("double_click") / n,
        "bell_histogram": {o.value: float(outcomes.count(o.value)) for o in OUTCOME_BY_DETECTOR},
        "eve_knowledge": None,
    }


unit = st.floats(min_value=0.0, max_value=1.0)
splitting = st.floats(min_value=0.01, max_value=0.99)


@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    n_slots=st.integers(min_value=1, max_value=9000),
    seed=st.integers(min_value=0, max_value=2**32),
    t1=splitting,
    t2=splitting,
    phi_b=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    active=st.lists(st.booleans(), min_size=4, max_size=4).filter(any),
    efficiency=unit,
    dark=st.floats(min_value=0.0, max_value=0.5),
    transmittance=st.floats(min_value=1e-6, max_value=1.0),
)
def test_random_honest_exports_recount_to_their_report(
    tmp_path, n_slots, seed, t1, t2, phi_b, active, efficiency, dark, transmittance
):
    data = {
        "n_slots": n_slots,
        "seed": seed,
        "channel_transmittance": transmittance,
        "receiver": {"t1": t1, "t2": t2, "phi_b": phi_b, "active_detectors": active},
        "detectors": {"model": "ideal", "efficiency": efficiency, "dark_count_prob": dark},
    }
    program_csv, program_report, expected_csv, _ = export(tmp_path, data)
    rows, counted = recount(program_csv)
    assert rows == n_slots
    assert json.loads(program_report) == counted
    assert program_csv == expected_csv
