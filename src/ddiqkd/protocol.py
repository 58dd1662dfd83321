"""Full protocol sessions: honest baseline and attacked runs, with sifting,
key mapping and aggregate statistics.

Per slot the sender draws one of the four protocol phases and Bob draws his
modulator phase, both uniformly.  Honestly, a single photon survives the
channel with probability ``channel_transmittance`` and lands on a detector
with the Born-rule port probabilities; under attack, Eve intercepts at the
sender's output (so channel loss never touches her bright resends), measures
in a random basis and forges a pulse whose detector-port energies drive the
configured click model.

Outcome tensor: every slot falls in one cell of (sender phase, Eve branch,
Bob phase, click pattern), 4 x 4 x 4 x 16 cells; the Eve branch is the phase
Eve measured, and the sender phase in honest runs.  A session compiles once
into the probability of each cell.  Every statistic sums a per-cell
indicator (single, double, histogram column, sifted, error, Eve match),
built at import from ``KEY_CORRECTION``, over the cell probabilities (exact
statistics) or over cell counts (sampled ones).

Key mapping: Bob's bit is the phase-index bit of his setting (0 for the
first phase of either basis, 1 for the second).  The sender's bit is her
phase-index bit XOR a correction looked up from the announced Bell outcome
and the shared basis.  The lookup is pinned in ``KEY_CORRECTION`` and
re-derivable by brute force over honest statistics, where it is the unique
table making matched-basis honest trials agree always.  Eve, who hears both
the announced outcome and the sifted basis, applies the same correction to
her measurement result.

Randomness: a stats-only run draws its cell counts as one multinomial
sample of ``n_slots`` over the cell probabilities, exactly the law of
``n_slots`` independent slots, at a cost that does not grow with
``n_slots``.  A run that collects per-slot trials is an independent physical
sampler: it draws settings, Eve's measurement, loss, landing and clicks from
the port-probability tables, never from the tensor.  It draws in blocks of
``SLOT_BLOCK`` slots, block ``j`` from a generator keyed by ``(seed, j)``, so
the first ``k`` trials of an ``n``-slot run are the ``k``-slot run.  The two
samplers use the seed differently: a stats-only run and a trials run with
the same seed report different, equally valid samples.  Identical configs
(seed included) give identical results.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field

import numpy as np

from .attacks import BASES, EvePulse, EveStrategy, FeasibilityError, forge_pulse, phase_index
from .detectors import DetectorModel, IdealDetectors
from .optics import ValidationError, single_photon_probabilities
from .receiver import (
    BB84_PHASES,
    BellOutcome,
    OUTCOME_BY_DETECTOR,
    ReceiverConfig,
    general_port_amplitudes,
)


@dataclass(frozen=True)
class SessionConfig:
    """One protocol session.  ``detectors=None`` derives the natural model
    from the attack (sharp thresholds for the threshold attacks, the bundled
    curve fixture for the curve-driven ones, ideal detectors honestly)."""

    n_slots: int
    seed: int = 0
    channel_transmittance: float = 1.0
    receiver: ReceiverConfig = field(default_factory=ReceiverConfig)
    detectors: DetectorModel | None = None
    attack: EveStrategy | None = None

    def __post_init__(self) -> None:
        for name in ("n_slots", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.n_slots < 2**63:  # the samplers count slots in int64
            raise ValidationError(f"n_slots must be in [1, 2**63), got {self.n_slots}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.channel_transmittance <= 1.0):
            raise ValidationError(
                f"channel transmittance {self.channel_transmittance} outside (0, 1]"
            )


# --------------------------------------------------------------------------
# key mapping

_B = BellOutcome

#: Correction XOR-ed onto the sender's phase-index bit, by (basis, outcome).
KEY_CORRECTION = {
    ("Z", _B.PSI_PLUS): 0,
    ("Z", _B.PHI_PLUS): 0,
    ("Z", _B.PSI_MINUS): 1,
    ("Z", _B.PHI_MINUS): 1,
    ("X", _B.PSI_PLUS): 0,
    ("X", _B.PHI_PLUS): 1,
    ("X", _B.PSI_MINUS): 1,
    ("X", _B.PHI_MINUS): 0,
}


def derive_key_correction() -> dict[tuple[str, BellOutcome], int]:
    """Brute-force the correction lookup from honest matched-basis statistics.

    For every matched settings pair and every outcome of nonzero probability,
    zero error forces correction = alice_phase_bit XOR bob_phase_bit; the
    table is consistent and complete, and equals ``KEY_CORRECTION``.
    """
    from .receiver import balanced_port_amplitudes

    table: dict[tuple[str, BellOutcome], int] = {}
    for ti in range(4):
        for bi in range(4):
            if ti % 2 != bi % 2:
                continue
            probs = single_photon_probabilities(
                balanced_port_amplitudes(1.0, BB84_PHASES[ti], BB84_PHASES[bi])
            )
            for det in range(4):
                if probs[det] < 1e-12:
                    continue
                needed = (ti // 2) ^ (bi // 2)
                key = (BASES[ti % 2], OUTCOME_BY_DETECTOR[det])
                if table.setdefault(key, needed) != needed:
                    raise RuntimeError(f"inconsistent key correction at {key}")
    return table


# --------------------------------------------------------------------------
# the cells of the outcome tensor

#: Cells of the outcome tensor: (sender phase, Eve branch, Bob phase, click
#: pattern), flattened in that order.  Bit ``k`` of a pattern is port D(k+1).
TENSOR_SHAPE = (4, 4, 4, 16)

#: Fired ports of each click pattern, (pattern, port).
_PATTERN_PORTS = (np.arange(16)[:, None] >> np.arange(4)) & 1

_OUTCOMES = np.array(
    OUTCOME_BY_DETECTOR + (BellOutcome.NO_CLICK, BellOutcome.DOUBLE_CLICK), dtype=object
)


def _cell_maps() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell outcome index (into ``_OUTCOMES``), sifted flag, (alice, bob,
    eve) key bits, and the indicator rows every statistic sums over."""
    t, e, b, pattern = np.indices(TENSOR_SHAPE).reshape(4, -1)
    fired = _PATTERN_PORTS[pattern]
    n_fired = fired.sum(axis=1)
    port = fired.argmax(axis=1)
    corr = np.array(
        [[KEY_CORRECTION[(basis, o)] for o in OUTCOME_BY_DETECTOR] for basis in BASES]
    )
    single = n_fired == 1
    sifted = single & (t % 2 == b % 2)
    bits = np.stack([(t // 2) ^ corr[t % 2, port], b // 2, (e // 2) ^ corr[b % 2, port]])
    outcome = np.where(single, port, np.where(n_fired == 0, 4, 5))
    indicators = np.array(
        [single, n_fired > 1, sifted, sifted & (bits[0] != bits[1]), sifted & (bits[2] == bits[1])]
        + [single & (port == d) for d in range(4)],
        dtype=float,
    )
    return outcome, sifted, bits, indicators


_CELL_OUTCOME, _CELL_SIFTED, _CELL_BITS, _INDICATORS = _cell_maps()

_PHASES = np.array(BB84_PHASES)


def sift_and_key(theta_a: float, phi_b: float, outcome: BellOutcome) -> tuple[int, int] | None:
    """Sift one single-click slot; (alice_bit, bob_bit) or None on basis mismatch.

    ``theta_a`` and ``phi_b`` are the nominal chosen settings (modulator
    deviations do not change what the parties announce).
    """
    if outcome in (BellOutcome.NO_CLICK, BellOutcome.DOUBLE_CLICK):
        raise ValidationError(f"sift_and_key requires a single click, got {outcome}")
    ti, bi = phase_index(theta_a), phase_index(phi_b)
    pattern = 1 << OUTCOME_BY_DETECTOR.index(outcome)
    cell = np.ravel_multi_index((ti, ti, bi, pattern), TENSOR_SHAPE)
    if not _CELL_SIFTED[cell]:
        return None
    return int(_CELL_BITS[0, cell]), int(_CELL_BITS[1, cell])


# --------------------------------------------------------------------------
# statistics


@dataclass(frozen=True)
class SessionStats:
    """Aggregates of one session.

    ``bell_histogram`` holds single-click tallies per Bell outcome: counts
    for sampled sessions, per-slot probabilities for exact enumeration
    (``n_slots`` is None in that case).  ``qber`` is 0.0 when nothing was
    sifted; ``eve_knowledge`` is None for honest sessions.
    """

    n_slots: int | None
    gain: float
    sifted_rate: float
    qber: float
    double_click_rate: float
    bell_histogram: tuple[float, float, float, float]
    eve_knowledge: float | None

    def to_dict(self) -> dict:
        hist = {
            outcome.value: value
            for outcome, value in zip(OUTCOME_BY_DETECTOR, self.bell_histogram)
        }
        return {
            "n_slots": self.n_slots,
            "gain": self.gain,
            "sifted_rate": self.sifted_rate,
            "qber": self.qber,
            "double_click_rate": self.double_click_rate,
            "bell_histogram": hist,
            "eve_knowledge": self.eve_knowledge,
        }


def _stats(weights: np.ndarray, n_slots: int | None, attacked: bool) -> SessionStats:
    """Statistics from per-cell counts (``n_slots`` given) or probabilities."""
    single, double, sifted, errors, eve_match, *hist = (_INDICATORS @ weights).tolist()
    n = 1 if n_slots is None else n_slots
    return SessionStats(
        n_slots=n_slots,
        gain=single / n,
        sifted_rate=sifted / n,
        qber=errors / sifted if sifted else 0.0,
        double_click_rate=double / n,
        bell_histogram=tuple(hist),
        eve_knowledge=(eve_match / sifted if sifted else 0.0) if attacked else None,
    )


# --------------------------------------------------------------------------
# model resolution and click-probability tables


def _resolve(cfg: SessionConfig) -> SessionConfig:
    """Fill in the derived detector model and the strategy's resolved form."""
    attack, model = cfg.attack, cfg.detectors
    if model is None:
        model = IdealDetectors() if attack is None else attack.default_model()
    needed = IdealDetectors if attack is None else attack.MODEL
    if not isinstance(model, needed):
        who = "honest sessions" if attack is None else type(attack).__name__
        raise ValidationError(f"{who} need a {needed.__name__}, got {type(model).__name__}")
    if attack is not None:
        attack = attack.resolve(model)
    return dataclasses.replace(cfg, detectors=model, attack=attack)


def _pulse_tables(cfg: SessionConfig) -> tuple[np.ndarray, np.ndarray, list[EvePulse]]:
    """Energy and click-probability tables over (eve index, bob index, detector).

    Both tables are indexed by the nominal measured/chosen phases; strategy
    deviations enter through :func:`forge_pulse`, and the detector model
    scores the whole energy table at once.
    """
    rc = cfg.receiver
    pulses = [forge_pulse(cfg.attack, phi_e) for phi_e in BB84_PHASES]
    amps = []
    for pulse in pulses:
        t1, t2 = pulse.splitting or (rc.t1, rc.t2)
        amps += [
            general_port_amplitudes(pulse.mu, pulse.phi_e, pulse.gamma, t1, t2, phi_b + rc.phi_b)
            for phi_b in BB84_PHASES
        ]
    energies = (np.abs(amps) ** 2).reshape(4, 4, 4)
    active = np.asarray(rc.active_detectors, dtype=float)
    return energies, cfg.detectors.click_probs(energies, pulses) * active, pulses


def _honest_table(cfg: SessionConfig) -> np.ndarray:
    """Born-rule port probabilities over (sender index, bob index, detector).

    Probabilities below 1e-12 are rounding residue of exact zeros (the
    smallest physical value on the protocol lattice is order 1e-3) and are
    snapped away so exact enumeration treats impossible outcomes as such.
    """
    rc = cfg.receiver
    table = np.zeros((4, 4, 4))
    for ti in range(4):
        for bj in range(4):
            amps = general_port_amplitudes(
                0.5, BB84_PHASES[ti], 0.5, rc.t1, rc.t2, BB84_PHASES[bj] + rc.phi_b
            )
            probs = single_photon_probabilities(amps)
            probs[probs < 1e-12] = 0.0
            table[ti, bj] = probs / probs.sum()
    return table


def _check_feasible(attack: EveStrategy, probs: np.ndarray) -> None:
    if not np.isfinite(probs).all():
        raise ValidationError("the attack gives a non-finite click probability")
    if ((probs > 0.0) & (probs < 1.0)).any():
        raise FeasibilityError("operating point falls in the detectors' probabilistic region")
    for (ei, bj), n in np.ndenumerate(probs.sum(axis=2)):
        matched = ei % 2 == bj % 2
        if not matched and n > 0:
            raise FeasibilityError("clicks in basis-mismatched slots would cause key errors")
        if matched and n > 1:
            raise FeasibilityError("double clicks in basis-matched slots")
        if matched and attack.MUST_CLICK and n != 1:
            raise FeasibilityError(f"{type(attack).__name__} must click in every matched slot")


# --------------------------------------------------------------------------
# session compilation


def _pattern_probs(q: np.ndarray) -> np.ndarray:
    """Click-pattern probabilities (..., 16) of independent ports firing with
    probabilities ``q`` (..., 4)."""
    q = q[..., None, :]
    return np.where(_PATTERN_PORTS == 1, q, 1.0 - q).prod(axis=-1)


#: Probability of each Eve branch given the sender phase, (sender, branch):
#: Eve picks her basis uniformly; in the sender's basis she reads the sender's
#: phase, in the other she reads either of its phases with equal chance.
_EVE_BRANCH = np.array(
    [[0.5 if e == t else (0.25 if e % 2 != t % 2 else 0.0) for e in range(4)] for t in range(4)]
)


@dataclass(frozen=True)
class _Compiled:
    """A resolved session, its port tables and its outcome tensor."""

    cfg: SessionConfig
    #: by (Eve branch, Bob, port): Born landing probabilities honestly (the
    #: branch is the sender phase), mean photon numbers under attack
    ports: np.ndarray
    clicks: np.ndarray | None  # attacked click probabilities, like ``ports``
    pulses: list[EvePulse] | None
    weights: np.ndarray  # probability of each cell, flattened


def _compile(cfg: SessionConfig) -> _Compiled:
    """Resolve ``cfg``, check the attack is feasible and build the tensor.

    Every table is built once here; feasibility is judged on the same
    click-probability table the samplers and the enumeration then use.
    """
    cfg = _resolve(cfg)
    if cfg.attack is None:
        det: IdealDetectors = cfg.detectors
        table = _honest_table(cfg)
        eta = cfg.channel_transmittance * det.efficiency
        active = np.asarray(cfg.receiver.active_detectors, dtype=float)
        # per-port click probability given where the photon went: ports 0..3,
        # then lost; a landed photon fires its port if active, darks fire any
        landed = np.vstack([np.eye(4), np.zeros(4)])
        fire = active * np.maximum(landed, det.dark_count_prob)
        by_landing = _pattern_probs(fire)
        landing = np.concatenate([eta * table, np.full((4, 4, 1), 1.0 - eta)], axis=2)
        weights = np.zeros(TENSOR_SHAPE)
        diagonal = np.arange(4)
        weights[diagonal, diagonal] = (landing @ by_landing) / 16.0
        return _Compiled(cfg, table, None, None, weights.ravel())
    energies, probs, pulses = _pulse_tables(cfg)
    _check_feasible(cfg.attack, probs)
    weights = (_EVE_BRANCH / 16.0)[:, :, None, None] * _pattern_probs(probs)
    return _Compiled(cfg, energies, probs, pulses, weights.ravel())


def validate_attack(cfg: SessionConfig) -> SessionConfig:
    """Check the attack runs cleanly; returns the resolved config.

    Clean means: deterministic clicks at the operating point, no clicks in
    any slot where Eve's and Bob's bases differ (those can be sifted and
    would cause errors), and at most one click everywhere.  The
    network-imperfection and power-domain attacks must additionally click in
    every basis-matched slot, mirroring their narratives.  Raises
    :class:`FeasibilityError` before any slot runs.
    """
    return _compile(cfg).cfg


# --------------------------------------------------------------------------
# sampling

#: Slots per independently keyed block of the per-slot sampler's stream.
SLOT_BLOCK = 4096


def _slot_cells(comp: _Compiled) -> np.ndarray:
    """Cell index of every slot, sampled physically from the port tables."""
    cfg = comp.cfg
    n = cfg.n_slots
    cells = np.empty(n, dtype=np.int16)
    active = np.asarray(cfg.receiver.active_detectors, dtype=bool)
    if cfg.attack is None:
        det: IdealDetectors = cfg.detectors
        eta = cfg.channel_transmittance * det.efficiency
        cum = np.cumsum(comp.ports, axis=2)
    for start in range(0, n, SLOT_BLOCK):
        # columns: sender, Bob, Eve basis, Eve branch, loss, landing, 4 ports
        rng = np.random.default_rng([cfg.seed, start // SLOT_BLOCK])
        u = rng.random((SLOT_BLOCK, 10))[: n - start]
        t = (4 * u[:, 0]).astype(np.int64)
        b = (4 * u[:, 1]).astype(np.int64)
        if cfg.attack is None:
            e = t
            port = np.minimum((u[:, 5, None] >= cum[t, b]).sum(axis=1), 3)
            clicks = (u[:, 6:] < det.dark_count_prob) & active
            clicks[np.arange(len(u)), port] |= (u[:, 4] < eta) & active[port]
        else:
            basis = (u[:, 2] >= 0.5).astype(np.int64)
            e = np.where(t % 2 == basis, t, basis + 2 * (u[:, 3] >= 0.5))
            clicks = u[:, 6:] < comp.clicks[e, b]
        pattern = clicks @ (1, 2, 4, 8)
        cells[start : start + len(u)] = np.ravel_multi_index((t, e, b, pattern), TENSOR_SHAPE)
    return cells


@dataclass(frozen=True)
class Trials:
    """The slots of a sampled session, stored as one outcome-tensor cell
    index per slot (``int16``, 2 bytes a slot).

    Every per-slot field is a function of the slot's cell, so each column is
    a lookup of the per-cell maps and of the compiled port tables and pulses.
    The same columns over other cell indices come from
    ``dataclasses.replace(trials, cells=...)``; the export uses that to
    format each distinct cell once.  Key bits read -1 where a slot is not
    sifted, and Eve's columns are None in honest runs.
    """

    comp: _Compiled
    cells: np.ndarray

    def __len__(self) -> int:
        return len(self.cells)

    def _axis(self, k: int) -> np.ndarray:
        return np.unravel_index(self.cells, TENSOR_SHAPE)[k]

    @property
    def theta_a(self) -> np.ndarray:
        return _PHASES[self._axis(0)]

    @property
    def phi_b(self) -> np.ndarray:
        """Bob's nominal setting; the receiver's offset is not included."""
        return _PHASES[self._axis(2)]

    @property
    def phi_e(self) -> np.ndarray | None:
        """The phase Eve measured."""
        return None if self.comp.pulses is None else _PHASES[self._axis(1)]

    @property
    def pulse(self) -> np.ndarray | None:
        """The :class:`EvePulse` she resent, as an object array."""
        if self.comp.pulses is None:
            return None
        return np.array(self.comp.pulses, dtype=object)[self._axis(1)]

    @property
    def energies(self) -> np.ndarray:
        """(slot, port): mean photon numbers under attack, Born landing
        probabilities honestly."""
        return self.comp.ports[self._axis(1), self._axis(2)]

    @property
    def outcome(self) -> np.ndarray:
        """The announced :class:`BellOutcome`, as an object array."""
        return _OUTCOMES[_CELL_OUTCOME[self.cells]]

    @property
    def sifted(self) -> np.ndarray:
        return _CELL_SIFTED[self.cells]

    @property
    def alice_bit(self) -> np.ndarray:
        return self._bit(0)

    @property
    def bob_bit(self) -> np.ndarray:
        return self._bit(1)

    @property
    def eve_bit(self) -> np.ndarray:
        if self.comp.pulses is None:
            return np.full(len(self), -1, dtype=np.int8)
        return self._bit(2)

    def _bit(self, k: int) -> np.ndarray:
        return np.where(self.sifted, _CELL_BITS[k, self.cells], -1).astype(np.int8)


def run_session(
    cfg: SessionConfig, collect_trials: bool = False
) -> SessionStats | tuple[SessionStats, Trials]:
    """Run one sampled session; optionally also return its per-slot trials.

    Without trials the cell counts are one multinomial draw over the outcome
    tensor; with trials every slot is sampled physically and the report
    counts the cells of those slots, so the trials recount to the report.
    """
    comp = _compile(cfg)
    n = comp.cfg.n_slots
    attacked = comp.cfg.attack is not None
    if collect_trials:
        cells = _slot_cells(comp)
        stats = _stats(np.bincount(cells, minlength=comp.weights.size), n, attacked)
        return stats, Trials(comp, cells)
    # drawn over the support only: numpy gives any rounding remainder to the
    # last category, which must not be an impossible cell
    support = np.flatnonzero(comp.weights)
    p = comp.weights[support]
    counts = np.zeros(comp.weights.size, dtype=np.int64)
    counts[support] = np.random.default_rng(cfg.seed).multinomial(n, p / p.sum())
    return _stats(counts, n, attacked)


# --------------------------------------------------------------------------
# exact enumeration


def enumerate_exact(cfg: SessionConfig) -> SessionStats:
    """Exact per-slot session statistics from the outcome tensor.

    The session compiles into the probability of every (sender phase, Eve
    branch, Bob phase, click pattern) cell, and each statistic is that
    tensor summed against its per-cell indicator: no sampling, no branching
    on honest or attacked runs.  Both samplers must converge to these numbers
    within binomial fluctuations.
    """
    comp = _compile(cfg)
    return _stats(comp.weights, None, comp.cfg.attack is not None)


def breakeven_transmittance(
    attack: EveStrategy | None, cfg: SessionConfig, tol: float = 1e-12
) -> float:
    """Largest channel transmittance at which the attacked click rate still
    covers the honest one, found by bisection over exact enumerations.

    The honest reference shares the receiver but uses ideal detectors; the
    attacked gain is transmittance-independent because Eve intercepts at the
    sender's output and resends bright light.
    """
    if attack is None:
        attacked_cfg = dataclasses.replace(cfg, attack=None, detectors=IdealDetectors())
    else:
        attacked_cfg = dataclasses.replace(cfg, attack=attack)
    attacked_gain = enumerate_exact(attacked_cfg).gain

    def honest_gain(eta: float) -> float:
        honest = dataclasses.replace(
            cfg, attack=None, detectors=IdealDetectors(), channel_transmittance=eta
        )
        return enumerate_exact(honest).gain

    if attacked_gain <= 0.0:
        return 0.0
    if attacked_gain >= honest_gain(1.0) - tol:
        return 1.0
    lo, hi = 0.0, 1.0  # honest gain is nondecreasing in transmittance
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if honest_gain(mid) <= attacked_gain:
            lo = mid
        else:
            hi = mid
    return lo
