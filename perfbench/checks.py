"""Output checks that gate every benchmark op.

Each ``check_*`` function returns a list of problems; an empty list means the
op's output is correct.  Exact values are pinned here, independently of the
program, so a refactor that changes what the program computes fails the gate.

Sampled reports are never pinned (the seeded stream is allowed to change);
each binomial rate must lie within ``SAMPLED_SIGMAS`` standard deviations of
the same config's exact value.  The tests of the repository use 3 sigma on a
few fixed seeds, but here the seed is chosen by whoever runs the benchmark and
every run makes about 30 binomial checks per workload: at 3 sigma (p = 0.27%
per check) a correct program would fail about one run in twelve.  At 6 sigma
(p = 2e-9 per check) a correct program fails no run in practice, while a bias
of 0.3% at 1e6 slots still fails.  Rates whose exact value is 0 or 1 have no
spread and must match exactly.
"""

from __future__ import annotations

import csv
import math

SAMPLED_SIGMAS = 6.0
EXACT_TOL = 1e-9
VERIFY_TOLERANCE = 1e-12

OUTCOMES = ("psi_plus", "phi_plus", "psi_minus", "phi_minus")


def _exact(gain, sifted, hist, eve):
    return {
        "gain": gain,
        "sifted_rate": sifted,
        "qber": 0.0,
        "double_click_rate": 0.0,
        "bell_histogram": dict(zip(OUTCOMES, hist)),
        "eve_knowledge": eve,
    }


#: Exact per-slot statistics of the bundled configs, keyed by config stem.
EXACT = {
    "asymmetric_threshold": _exact(0.5, 0.25, (0.0, 0.25, 0.0, 0.25), 1.0),
    "honest_ideal": _exact(1.0, 0.5, (0.25, 0.25, 0.25, 0.25), None),
    "honest_one_detector": _exact(0.25, 0.125, (0.25, 0.0, 0.0, 0.0), None),
    "phase_deviation": _exact(0.5, 0.25, (0.25, 0.0, 0.25, 0.0), 1.0),
    "single_detector_blinding": _exact(0.25, 0.125, (0.25, 0.0, 0.0, 0.0), 1.0),
    "time_shift": _exact(0.25, 0.125, (0.25, 0.0, 0.0, 0.0), 1.0),
    "wavelength_bs": _exact(0.5, 0.25, (0.25, 0.0, 0.25, 0.0), 1.0),
}

#: Break-even channel transmittance per config.
BREAKEVEN = {
    "asymmetric_threshold": 0.5,
    "honest_ideal": 1.0,
    "honest_one_detector": 1.0,
    "phase_deviation": 0.5,
    "single_detector_blinding": 1.0,
    "time_shift": 0.25,
    "wavelength_bs": 0.5,
}

#: The two published blinding operating points (P_B mW, E_T pJ) the curve
#: fixture is built through; every feasible constraint set lands on one.
OPERATING_POINTS = ((0.2, 0.1), (0.56, 0.19))

#: Static point ``plan_asymmetric_threshold`` finds on the bundled curves.
PLANNED_POINT = (0.56, 0.19)


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= EXACT_TOL


def _histogram(report: dict) -> dict:
    hist = report.get("bell_histogram")
    return hist if isinstance(hist, dict) else {}


def check_exact_session(config: str, report: dict) -> list[str]:
    expected = EXACT[config]
    problems = []
    if report.get("n_slots") is not None:
        problems.append(f"exact report has n_slots {report.get('n_slots')}")
    for key in ("gain", "sifted_rate", "qber", "double_click_rate"):
        if not _close(report.get(key), expected[key]):
            problems.append(f"{key} {report.get(key)} != exact {expected[key]}")
    hist = _histogram(report)
    for outcome, p in expected["bell_histogram"].items():
        if not _close(hist.get(outcome), p):
            problems.append(f"bell_histogram[{outcome}] {hist.get(outcome)} != exact {p}")
    eve = report.get("eve_knowledge")
    if expected["eve_knowledge"] is None:
        if eve is not None:
            problems.append(f"honest session reports eve_knowledge {eve}")
    elif not _close(eve, expected["eve_knowledge"]):
        problems.append(f"eve_knowledge {eve} != exact {expected['eve_knowledge']}")
    return [f"{config}: {p}" for p in problems]


def _within_sigmas(observed, p: float, n: int) -> bool:
    if not isinstance(observed, (int, float)):
        return False
    if p in (0.0, 1.0):
        return observed == p
    return abs(observed - p) <= SAMPLED_SIGMAS * math.sqrt(p * (1.0 - p) / n)


def check_sampled_session(config: str, report: dict, n_slots: int) -> list[str]:
    """A sampled report against the exact values of the same config.

    ``qber`` and ``eve_knowledge`` are rates over the sifted slots, so the
    binomial count behind them is the number of sifted slots.
    """
    expected = EXACT[config]
    problems = []
    if report.get("n_slots") != n_slots:
        problems.append(f"n_slots {report.get('n_slots')} != {n_slots}")
    for key in ("gain", "sifted_rate", "double_click_rate"):
        if not _within_sigmas(report.get(key), expected[key], n_slots):
            problems.append(f"{key} {report.get(key)} not within bound of exact {expected[key]}")
    n_sifted = round(expected["sifted_rate"] * n_slots)
    if not _within_sigmas(report.get("qber"), expected["qber"], n_sifted):
        problems.append(f"qber {report.get('qber')} != exact {expected['qber']}")
    hist = _histogram(report)
    for outcome, p in expected["bell_histogram"].items():
        count = hist.get(outcome)
        rate = count / n_slots if isinstance(count, (int, float)) else None
        if not _within_sigmas(rate, p, n_slots):
            problems.append(f"bell_histogram[{outcome}] {count} not within bound of exact {p}")
    eve = report.get("eve_knowledge")
    if expected["eve_knowledge"] is None:
        if eve is not None:
            problems.append(f"honest session reports eve_knowledge {eve}")
    elif not _within_sigmas(eve, expected["eve_knowledge"], n_sifted):
        problems.append(f"eve_knowledge {eve} != exact {expected['eve_knowledge']}")
    return [f"{config}: {p}" for p in problems]


def check_trials_csv(config: str, path, report: dict, n_slots: int) -> list[str]:
    """The per-slot export: ``n_slots`` rows whose recount equals ``report``."""
    rows = single = double = sifted = errors = 0
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            try:
                col = [header.index(name) for name in ("outcome", "sifted", "a", "b")]
            except ValueError:
                return [f"{config}: trials CSV header {header!r}"]
            for row in reader:
                rows += 1
                outcome, is_sifted, a, b = (row[i] for i in col)
                if outcome in OUTCOMES:
                    single += 1
                elif outcome == "double_click":
                    double += 1
                if is_sifted == "1":
                    sifted += 1
                    errors += a != b
    except (OSError, IndexError, csv.Error) as exc:
        return [f"{config}: trials CSV unreadable: {exc!r}"]
    if rows != n_slots:
        return [f"{config}: trials CSV has {rows} rows, expected {n_slots}"]
    recount = {
        "gain": single / n_slots,
        "sifted_rate": sifted / n_slots,
        "qber": errors / sifted if sifted else 0.0,
        "double_click_rate": double / n_slots,
    }
    return [
        f"{config}: trials CSV recounts {key} {value}, report says {report.get(key)}"
        for key, value in recount.items()
        if report.get(key) != value
    ]


def check_breakeven(config: str, report: dict) -> list[str]:
    expected = BREAKEVEN[config]
    eta = report.get("breakeven_transmittance")
    if not _close(eta, expected):
        return [f"{config}: breakeven_transmittance {eta} != {expected}"]
    gain = report.get("attacked_gain")
    if not _close(gain, EXACT[config]["gain"]):
        return [f"{config}: attacked_gain {gain} != exact {EXACT[config]['gain']}"]
    return []


def check_opsearch(constraints: str, report: dict) -> list[str]:
    point = (report.get("p_b_mw"), report.get("e_t_pj"))
    if report.get("verified") is not True:
        return [f"opsearch {constraints}: not verified"]
    if not any(_close(point[0], p) and _close(point[1], e) for p, e in OPERATING_POINTS):
        return [f"opsearch {constraints}: point {point} is not a published operating point"]
    return []


def check_plan(plan) -> list[str]:
    point = (getattr(plan, "p_b", None), getattr(plan, "e_t", None))
    if getattr(plan, "schedule", "missing") is not None or not (
        _close(point[0], PLANNED_POINT[0]) and _close(point[1], PLANNED_POINT[1])
    ):
        return [f"plan_asymmetric_threshold: {plan!r}, expected static {PLANNED_POINT}"]
    return []


def check_verify(check: str, report: dict, trials: int) -> list[str]:
    err = report.get("max_error")
    if report.get("check") != check or report.get("trials") != trials:
        return [f"verify {check}: report is for {report.get('check')} x {report.get('trials')}"]
    if report.get("ok") is not True or not isinstance(err, float) or not err < VERIFY_TOLERANCE:
        return [f"verify {check}: ok={report.get('ok')} max_error={err}"]
    return []
