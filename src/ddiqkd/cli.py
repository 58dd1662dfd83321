"""Command-line front end.

Subcommands::

    table1     energy grid over both parties' phase settings, as CSV
    verify     random cross-check of closed forms against network propagation
    sweep      normalized port energies versus Eve's phase, as CSV
    session    run a protocol session from a JSON config
    opsearch   search blinding operating points on a curve file
    breakeven  channel transmittance where an attack's rate stops covering

Exit codes: 0 success, 2 usage, 3 bad config, 4 infeasible attack,
5 verification failure.

Angles are printed in radians; anywhere an angle is accepted (flags and JSON
configs) a string like ``"0.5pi"`` is also understood, avoiding float drift
in configs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .attacks import STRATEGIES, FeasibilityError, select_operating_point
from .detectors import MODELS, CurveFileError, blinded_click_probability, curve_map, curve_source
from .optics import ConfigurationError, ValidationError
from .protocol import (
    SLOT_BLOCK,
    SessionConfig,
    Trials,
    breakeven_transmittance,
    enumerate_exact,
    run_session,
)
from .receiver import (
    BB84_PHASES,
    ReceiverConfig,
    balanced_port_amplitudes,
    general_port_amplitudes,
    parse_angle,
    phase_energy_table,
    propagated_port_amplitudes,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_INFEASIBLE = 4
EXIT_VERIFY = 5

VERIFY_TOLERANCE = 1e-12

#: Transmittance equivalent of the 3 dB rule of thumb for intercept-resend
#: attacks on standard receivers, reported alongside the computed break-even.
REFERENCE_TRANSMITTANCE = 0.5


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be > 0")
    return value


def _unit_float(text: str) -> float:
    value = _finite_float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is outside [0, 1]")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} must be > 0")
    return value


def _angle_arg(text: str) -> float:
    try:
        return parse_angle(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _emit(args, write) -> None:
    """Call ``write(stream)`` on the ``--out`` file, or on stdout."""
    if not args.out:
        write(sys.stdout)
        return
    with open(args.out, "w", newline="") as stream:
        write(stream)


def _emit_rows(args, header: list[str], rows: list[list]) -> None:
    """Tabular output: CSV unless JSON was asked for explicitly."""
    if args.format == "json":
        _emit_obj(args, [dict(zip(header, row)) for row in rows])
    else:
        _emit(args, lambda stream: csv.writer(stream).writerows([header, *rows]))


def _emit_obj(args, obj: dict | list) -> None:
    _emit(args, lambda stream: stream.write(json.dumps(obj, indent=2) + "\n"))


def _error(kind: str, message: str) -> dict:
    return {"error": {"kind": kind, "message": message}}


# --------------------------------------------------------------------------
# config files


def _integer(value) -> int:
    """A JSON integer; a float is accepted only when it is integral."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValidationError(f"{value!r} is not an integer")


def _flags(value) -> tuple[bool, ...]:
    if not isinstance(value, list) or not all(isinstance(x, bool) for x in value):
        raise ValidationError(f"expected a list of JSON booleans, got {value!r}")
    return tuple(value)


def _build(cls, fields: dict, data, where: str):
    """``cls`` from the JSON object ``data``, each key converted by ``fields``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where} must be a JSON object, got {data!r}")
    unknown = [key for key in data if key not in fields]
    if unknown:
        raise ValidationError(f"unknown key {unknown[0]!r} in {where}")
    for f in dataclasses.fields(cls):
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and f.name not in data:
            raise ValidationError(f"config is missing field {f.name!r} in {where}")
    kwargs = {}
    for key, value in data.items():
        try:
            kwargs[key] = fields[key](value)
        except (TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"bad value for {key!r} in {where}: {exc}") from None
    return cls(**kwargs)


def _tagged(table: dict, tag: str, where: str):
    """Converter of a JSON object naming its class in ``tag``, or null."""

    def convert(data):
        if data is None:
            return None
        if not isinstance(data, dict):
            raise ValidationError(f"{where} must be a JSON object, got {data!r}")
        cls = table.get(data.get(tag))
        if cls is None:
            raise ValidationError(f"unknown {tag} {data.get(tag)!r} in {where}")
        return _build(cls, cls.FIELDS, {k: v for k, v in data.items() if k != tag}, where)

    return convert


_RECEIVER_FIELDS = {"t1": float, "t2": float, "phi_b": parse_angle, "active_detectors": _flags}

_SESSION_FIELDS = {
    "n_slots": _integer,
    "seed": _integer,
    "channel_transmittance": float,
    "receiver": lambda data: _build(ReceiverConfig, _RECEIVER_FIELDS, data, "receiver"),
    "detectors": _tagged(MODELS, "model", "detectors"),
    "attack": _tagged(STRATEGIES, "type", "attack"),
}


def _reject_constant(name: str):
    raise ValidationError(f"config contains {name}, which is not a number")


def load_session_config(path: str | Path, seed_override: int | None = None) -> SessionConfig:
    try:
        data = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except OSError as exc:
        raise ValidationError(f"cannot read config: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"config is not valid JSON: {exc}") from None
    cfg = _build(SessionConfig, _SESSION_FIELDS, data, "session config")
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seed=seed_override)
    return cfg


# --------------------------------------------------------------------------
# subcommands


def cmd_table1(args) -> int:
    table = phase_energy_table(args.mu)
    rows = []
    for i, phi_e in enumerate(BB84_PHASES):
        for j, phi_b in enumerate(BB84_PHASES):
            rows.append([phi_e, phi_b] + [float(x) for x in table[i, j]])
    _emit_rows(args, ["phi_E", "phi_B", "D1", "D2", "D3", "D4"], rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(args.trials):
        mu = rng.uniform(1e-6, 10.0)
        phi_e, phi_b = rng.uniform(0.0, 2.0 * math.pi, 2)
        if args.check == "eq1":
            cfg = ReceiverConfig(phi_b=phi_b)
            closed = balanced_port_amplitudes(mu, phi_e, phi_b)
            network = propagated_port_amplitudes(cfg, mu, phi_e)
        else:
            t1, t2 = rng.uniform(0.01, 0.99, 2)
            gamma = rng.uniform(0.0, 1.0)
            cfg = ReceiverConfig(t1=t1, t2=t2, phi_b=phi_b)
            closed = general_port_amplitudes(mu, phi_e, gamma, t1, t2, phi_b)
            network = propagated_port_amplitudes(cfg, mu, phi_e, gamma)
        worst = max(worst, float(np.max(np.abs(network - closed))))
    ok = worst < VERIFY_TOLERANCE
    _emit_obj(
        args,
        {
            "check": args.check,
            "trials": args.trials,
            "max_error": worst,
            "tolerance": VERIFY_TOLERANCE,
            "ok": ok,
        },
    )
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_sweep(args) -> int:
    phi_b = args.phi_b + args.delta_phi_b
    grid = np.linspace(0.0, 2.0 * math.pi, args.points)
    amps = general_port_amplitudes(1.0, grid, args.gamma, args.t1, args.t2, phi_b)
    norm = np.abs(amps) ** 2  # mu = 1: energies are already in units of mu
    rows = [[float(grid[i])] + [float(norm[d, i]) for d in range(4)] for i in range(len(grid))]
    _emit_rows(args, ["phi_E", "D1", "D2", "D3", "D4"], rows)
    return EXIT_OK


#: Columns of the ``--trials-out`` CSV.
TRIALS_HEADER = ["slot", "theta_A", "phi_B", "phi_E", "E1", "E2", "E3", "E4",
                 "outcome", "sifted", "a", "b", "e"]


def _row_table(trials: Trials) -> dict[int, str]:
    """CSV text of every field after ``slot``, for each cell that occurs.

    Each distinct cell is formatted once by the same ``csv.writer`` a row at
    a time would use, so the text, quoting and line ends are unchanged.
    """
    distinct = np.unique(trials.cells)
    per_cell = dataclasses.replace(trials, cells=distinct)
    missing = [None] * len(distinct)
    columns = [
        per_cell.theta_a.tolist(),
        per_cell.phi_b.tolist(),
        missing if per_cell.phi_e is None else per_cell.phi_e.tolist(),
        *per_cell.energies.T.tolist(),
        [outcome.value for outcome in per_cell.outcome],
        per_cell.sifted.astype(int).tolist(),
        *([None if bit < 0 else bit for bit in col.tolist()]
          for col in (per_cell.alice_bit, per_cell.bob_bit, per_cell.eve_bit)),
    ]
    table = {}
    line = io.StringIO()
    writer = csv.writer(line)
    for cell, fields in zip(distinct.tolist(), zip(*columns)):
        line.seek(0)
        line.truncate()
        writer.writerow(fields)
        table[cell] = line.getvalue()
    return table


def _write_trials(fh, trials: Trials) -> None:
    """The per-slot CSV, one joined string and one write per slot block."""
    csv.writer(fh).writerow(TRIALS_HEADER)
    row = _row_table(trials)
    for start in range(0, len(trials), SLOT_BLOCK):
        block = trials.cells[start : start + SLOT_BLOCK].tolist()
        fh.write("".join([f"{i},{row[c]}" for i, c in enumerate(block, start)]))


def cmd_session(args) -> int:
    cfg = load_session_config(args.config, args.seed)
    if args.trials_out:
        # opened before any slot is sampled, so a bad path fails at once
        with open(args.trials_out, "w", newline="") as fh:
            mc_stats, trials = run_session(cfg, collect_trials=True)
            _write_trials(fh, trials)
        stats = enumerate_exact(cfg) if args.exact else mc_stats
    else:
        stats = enumerate_exact(cfg) if args.exact else run_session(cfg)
    _emit_obj(args, stats.to_dict())
    return EXIT_OK


def _parse_constraints(text: str) -> list[tuple[str, str]]:
    out = []
    for chunk in text.replace(";", ",").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ">" not in chunk:
            raise ValidationError(f"constraint {chunk!r} is not of the form D1>D2")
        i, j = (part.strip() for part in chunk.split(">", 1))
        out.append((i, j))
    if not out:
        raise ValidationError("no constraints given")
    return out


def cmd_opsearch(args) -> int:
    curves = curve_source(args.curves)
    constraints = _parse_constraints(args.constraints)
    point = select_operating_point(curves, constraints)
    if point is None:
        _emit_obj(args, _error("infeasible", "no operating point satisfies the constraints"))
        return EXIT_INFEASIBLE
    cmap = curve_map(curves)
    echoed = [
        {
            "click": i,
            "no_click": j,
            "click_prob": blinded_click_probability(cmap[i], point[0], point[1]),
            "no_click_prob": blinded_click_probability(cmap[j], point[0], point[1]),
        }
        for i, j in constraints
    ]
    if args.format == "csv":
        header = ["p_b_mw", "e_t_pj", "click", "no_click", "click_prob", "no_click_prob"]
        rows = [
            [point[0], point[1], c["click"], c["no_click"], c["click_prob"], c["no_click_prob"]]
            for c in echoed
        ]
        _emit_rows(args, header, rows)
        return EXIT_OK
    _emit_obj(
        args,
        {
            "found": True,
            "p_b_mw": point[0],
            "e_t_pj": point[1],
            "constraints": echoed,
            "verified": all(c["click_prob"] == 1.0 and c["no_click_prob"] == 0.0 for c in echoed),
        },
    )
    return EXIT_OK


def cmd_breakeven(args) -> int:
    cfg = load_session_config(args.config, args.seed)
    eta = breakeven_transmittance(cfg.attack, cfg)
    attacked = enumerate_exact(cfg)
    _emit_obj(
        args,
        {
            "breakeven_transmittance": eta,
            "breakeven_loss_db": (-10.0 * math.log10(eta)) if eta > 0 else None,
            "attacked_gain": attacked.gain,
            "reference_transmittance": REFERENCE_TRANSMITTANCE,
            "reference_loss_db": -10.0 * math.log10(REFERENCE_TRANSMITTANCE),
            "matches_reference": abs(eta - REFERENCE_TRANSMITTANCE) < 1e-9,
        },
    )
    return EXIT_OK


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # global flags are declared twice: on the main parser with their real
    # defaults, and on a SUPPRESS-default parent so they are accepted after
    # the subcommand too without clobbering values given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="override the RNG seed")
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write the report here instead of stdout")
    common.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS,
                        help="tabular commands default to csv, reports to json")
    parser = argparse.ArgumentParser(
        prog="ddiqkd",
        description="Simulate a single-photon Bell-measurement QKD receiver and its detector-control attacks.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", parents=[common],
                       help="detector energies over all settings pairs")
    p.add_argument("--mu", type=_positive_float, required=True)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("verify", parents=[common],
                       help="closed forms versus network propagation")
    p.add_argument("check", choices=("eq1", "eq3"))
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", parents=[common],
                       help="normalized port energies versus the sender phase")
    p.add_argument("--phi-b", type=_angle_arg, default=0.5 * math.pi)
    p.add_argument("--delta-phi-b", type=_angle_arg, default=0.0)
    p.add_argument("--t1", type=_unit_float, default=0.5)
    p.add_argument("--t2", type=_unit_float, default=0.5)
    p.add_argument("--gamma", type=_unit_float, default=0.5)
    p.add_argument("--points", type=_positive_int, default=721)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("session", parents=[common],
                       help="run a protocol session from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--exact", action="store_true", help="exact enumeration instead of sampling")
    p.add_argument("--trials-out", default=None, help="also write the per-slot CSV here")
    p.set_defaults(func=cmd_session)

    p = sub.add_parser("opsearch", parents=[common],
                       help="search blinding operating points")
    p.add_argument("--curves", default="default", help="curve CSV path, or 'default'")
    p.add_argument("--constraints", required=True, help="e.g. 'D1>D2,D3>D4'")
    p.set_defaults(func=cmd_opsearch)

    p = sub.add_parser("breakeven", parents=[common],
                       help="transmittance where the attacked rate stops covering")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_breakeven)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the global flags use SUPPRESS so either position works; fill the gaps
    for name in ("seed", "out", "format"):
        if not hasattr(args, name):
            setattr(args, name, None)
    try:
        return args.func(args)
    except FeasibilityError as exc:
        code, error = EXIT_INFEASIBLE, _error("infeasible", str(exc))
    except (ValidationError, ConfigurationError, CurveFileError) as exc:
        code, error = EXIT_CONFIG, _error("config", str(exc))
    except OSError as exc:
        code, error = EXIT_CONFIG, _error("config", f"cannot write output: {exc}")
    try:
        _emit_obj(args, error)
    except OSError:
        args.out = None  # the error object goes to stdout when --out is unwritable
        _emit_obj(args, error)
    return code


if __name__ == "__main__":
    sys.exit(main())
