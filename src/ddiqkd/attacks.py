"""Eavesdropping strategies against the four-detector receiver.

All five strategies share one skeleton: Eve intercepts every signal right at
the sender's output, measures it in a random BB84 basis, and resends a bright
forged pulse toward Bob whose parameters depend on the strategy:

* ``SingleDetectorBlinding``: plain bright resend against a receiver with a
  single active, blinded detector.
* ``AsymmetricThreshold``: all four detectors blinded; Eve picks a blinding
  power / trigger energy combination where the detectors' threshold curves
  disagree, so only her intended detector of each hot pair can click.
* ``TimeShift``: blinded detectors with mismatched temporal response windows;
  Eve shifts each pulse's arrival time into the window of exactly one
  detector.
* ``PhaseDeviation``: exploits a systematic offset in Bob's phase modulator
  by offsetting her own phase, making the two hot detectors' energies
  slightly unequal.
* ``WavelengthBS``: moves her pulses to a wavelength where Bob's splitting
  ratios and her chosen polarization weight make the port energies
  asymmetric.

Each strategy is one immutable class that owns its behaviour: its JSON
``type`` name (``KIND``) and field converters (``FIELDS``), the detector
model class it needs (``MODEL``) and the model it derives by default
(``default_model``), its ``resolve`` step against a model, whether it must
click in every basis-matched slot (``MUST_CLICK``), and ``forge``, the pulse
resent for Eve's measured phase.  A new strategy is one class here, listed in
``STRATEGIES``.  Every function is pure.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .detectors import (
    PHOTON_ENERGY_PJ,
    BlindedModel,
    DetectorResponseCurve,
    TemporalModel,
    ThresholdModel,
    blinded_click_probability,
    curve_map,
)
from .optics import DETECTOR_PORTS, ValidationError
from .receiver import parse_angle, phase_energy_table

BASES = ("Z", "X")

_QUARTER = 0.5 * math.pi


def phase_index(phi: float) -> int:
    """Index of a protocol phase in ``BB84_PHASES`` (tolerant to 1e-9 drift)."""
    r = phi % (2.0 * math.pi)
    snapped = round(r / _QUARTER)
    if abs(r - snapped * _QUARTER) > 1e-9:
        raise ValidationError(f"{phi} is not a protocol phase")
    return int(snapped) % 4


def phase_basis(phi: float) -> str:
    return BASES[phase_index(phi) % 2]


class FeasibilityError(Exception):
    """The strategy cannot run cleanly (errors or double clicks would leak)."""


def _require(name: str, value: float, lo: float, hi: float = math.inf) -> None:
    """Reject ``value`` unless it is finite and within [lo, hi]."""
    if not (lo <= value <= hi and math.isfinite(value)):
        raise ValidationError(f"{name}={value} outside [{lo}, {hi}] or not finite")


@dataclass(frozen=True)
class EvePulse:
    """Eve's forged signal: total mean photon number 2*mu at phase ``phi_e``.

    ``gamma`` is the H-polarization weight and ``splitting`` the pair of
    beamsplitter transmittances Bob's receiver exhibits at the pulse's
    wavelength; ``None`` means the design wavelength, i.e. the receiver's own
    ratios (1/2 by default).  ``p_b`` (mW) and ``arrival_time`` (ns) are what
    the curve-driven click models read: the blinding power for the pulse's
    basis and the time it reaches the detectors.  The defaults reproduce the
    plain bright-resend pulse of the one-detector attack.
    """

    mu: float
    phi_e: float
    gamma: float = 0.5
    splitting: tuple[float, float] | None = None
    arrival_time: float | None = None
    p_b: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu < math.inf:
            raise ValidationError(f"pulse mean photon number {self.mu} < 0 or not finite")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValidationError(f"gamma={self.gamma} outside [0, 1]")


def _threshold_model(strategy) -> ThresholdModel:
    return ThresholdModel(strategy.mu_th)


def _same_threshold(strategy, model: ThresholdModel):
    if model.mu_th != strategy.mu_th:
        raise ValidationError(
            f"model mu_th {model.mu_th} disagrees with strategy mu_th {strategy.mu_th}"
        )
    return strategy


@dataclass(frozen=True)
class SingleDetectorBlinding:
    """Bright intercept-resend against a receiver with one active detector."""

    mu: float
    mu_th: float

    KIND = "single_detector_blinding"
    FIELDS = {"mu": float, "mu_th": float}
    MODEL = ThresholdModel
    MUST_CLICK = False
    default_model = _threshold_model
    resolve = _same_threshold

    def __post_init__(self) -> None:
        _require("mu", self.mu, 0.0)
        _require("mu_th", self.mu_th, 0.0)

    def forge(self, phi_e: float) -> EvePulse:
        return EvePulse(mu=self.mu, phi_e=phi_e)


def _basis_map(first):
    """Converter of a JSON object basis -> [x, y] to basis -> (first(x), float(y))."""

    def convert(data):
        if data is None:
            return None
        return {basis: (first(x), float(y)) for basis, (x, y) in data.items()}

    return convert


def _require_bases(name: str, mapping: Mapping | None) -> None:
    for basis in mapping or ():
        if basis not in BASES:
            raise ValidationError(f"{name} has unknown basis {basis!r}")


@dataclass(frozen=True)
class AsymmetricThreshold:
    """Blinded four-detector attack at operating point(s) (p_b [mW], e_t [pJ]).

    ``e_t`` is the trigger energy delivered to a hot port (the port carrying
    the pulse's full mean photon number).  ``schedule`` optionally overrides
    the static point per measurement basis.
    """

    p_b: float
    e_t: float
    schedule: Mapping[str, tuple[float, float]] | None = None

    KIND = "asymmetric_threshold"
    FIELDS = {"p_b": float, "e_t": float, "schedule": _basis_map(float)}
    MODEL = BlindedModel
    MUST_CLICK = True

    def __post_init__(self) -> None:
        _require_bases("schedule", self.schedule)
        for p_b, e_t in [(self.p_b, self.e_t), *(self.schedule or {}).values()]:
            _require("p_b", p_b, 0.0)
            _require("e_t", e_t, 0.0)

    def default_model(self) -> BlindedModel:
        return BlindedModel()

    def resolve(self, model: BlindedModel) -> AsymmetricThreshold:
        return self

    def operating_point(self, basis: str) -> tuple[float, float]:
        if self.schedule is not None and basis in self.schedule:
            return tuple(self.schedule[basis])
        return (self.p_b, self.e_t)

    def forge(self, phi_e: float) -> EvePulse:
        p_b, e_t = self.operating_point(phase_basis(phi_e))
        return EvePulse(mu=e_t / PHOTON_ENERGY_PJ, phi_e=phi_e, p_b=p_b)


@dataclass(frozen=True)
class TimeShift:
    """Blinded four-detector attack steering arrival times into one window.

    ``targets`` maps each basis to the detector Eve aims at and the pulse
    arrival time (ns); build it with :func:`plan_time_shift`, or leave it
    None to have a session plan it against its detector curves.
    """

    p_b: float
    e_t: float
    targets: Mapping[str, tuple[str, float]] | None = None

    KIND = "time_shift"
    FIELDS = {"p_b": float, "e_t": float, "targets": _basis_map(str)}
    MODEL = TemporalModel
    MUST_CLICK = False

    def __post_init__(self) -> None:
        _require("p_b", self.p_b, 0.0)
        _require("e_t", self.e_t, 0.0)
        _require_bases("targets", self.targets)
        for detector, arrival in (self.targets or {}).values():
            if detector not in DETECTOR_PORTS:
                raise ValidationError(f"time-shift target {detector!r} is not a detector")
            _require("arrival time", arrival, -math.inf)

    def default_model(self) -> TemporalModel:
        return TemporalModel()

    def resolve(self, model: TemporalModel) -> TimeShift:
        if self.targets is not None:
            return self
        planned = plan_time_shift(model.curves, p_b=self.p_b, e_t=self.e_t)
        return dataclasses.replace(self, targets=planned.targets)

    def forge(self, phi_e: float) -> EvePulse:
        if self.targets is None:
            raise FeasibilityError("time-shift targets unresolved; use plan_time_shift")
        basis = phase_basis(phi_e)
        if basis not in self.targets:
            raise FeasibilityError(f"no time-shift target for basis {basis}")
        _, arrival = self.targets[basis]
        return EvePulse(
            mu=self.e_t / PHOTON_ENERGY_PJ, phi_e=phi_e, arrival_time=arrival, p_b=self.p_b
        )


@dataclass(frozen=True)
class PhaseDeviation:
    """Exploits a fixed offset in Bob's modulator with an offset of Eve's own."""

    delta_phi_e: float
    mu: float
    mu_th: float

    KIND = "phase_deviation"
    FIELDS = {"delta_phi_e": parse_angle, "mu": float, "mu_th": float}
    MODEL = ThresholdModel
    MUST_CLICK = True
    default_model = _threshold_model
    resolve = _same_threshold

    def __post_init__(self) -> None:
        _require("delta_phi_e", self.delta_phi_e, -math.inf)
        _require("mu", self.mu, 0.0)
        _require("mu_th", self.mu_th, 0.0)

    def forge(self, phi_e: float) -> EvePulse:
        return EvePulse(mu=self.mu, phi_e=phi_e + self.delta_phi_e)


@dataclass(frozen=True)
class WavelengthBS:
    """Wavelength-shifted pulses seeing splitting ratios (t1, t2), weight gamma."""

    gamma: float
    t1: float
    t2: float
    mu: float
    mu_th: float

    KIND = "wavelength_bs"
    FIELDS = {"gamma": float, "t1": float, "t2": float, "mu": float, "mu_th": float}
    MODEL = ThresholdModel
    MUST_CLICK = True
    default_model = _threshold_model
    resolve = _same_threshold

    def __post_init__(self) -> None:
        for name in ("gamma", "t1", "t2"):
            _require(name, getattr(self, name), 0.0, 1.0)
        _require("mu", self.mu, 0.0)
        _require("mu_th", self.mu_th, 0.0)

    def forge(self, phi_e: float) -> EvePulse:
        return EvePulse(mu=self.mu, phi_e=phi_e, gamma=self.gamma, splitting=(self.t1, self.t2))


EveStrategy = (
    SingleDetectorBlinding | AsymmetricThreshold | TimeShift | PhaseDeviation | WavelengthBS
)

#: Strategies by their JSON ``type`` name.
STRATEGIES = {
    cls.KIND: cls
    for cls in (SingleDetectorBlinding, AsymmetricThreshold, TimeShift, PhaseDeviation, WavelengthBS)
}


def forge_pulse(strategy: EveStrategy, phi_e: float) -> EvePulse:
    """Build Eve's resent pulse for a measurement result ``phi_e``."""
    return strategy.forge(phi_e)


def feasible_mu_window(e_high: float, e_low: float) -> tuple[float, float] | None:
    """Threshold interval (e_low, e_high] separating clicks from silence, or None."""
    if e_high < 0 or e_low < 0:
        raise ValidationError("energies must be >= 0")
    if e_high > e_low:
        return (e_low, e_high)
    return None


def phase_deviation_energies(mu, phi_e, phi_b) -> np.ndarray:
    """Port energies of the balanced receiver in cosine form.

    Independent of the amplitude route: mu/2 * (1 +- cos(phi_e -+ phi_b))
    for the difference-phase pair (D1, D3) and the sum-phase pair (D2, D4).
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise ValidationError("mean photon number must be >= 0")
    diff = np.cos(np.asarray(phi_e) - np.asarray(phi_b))
    tot = np.cos(np.asarray(phi_e) + np.asarray(phi_b))
    half = 0.5 * mu
    return np.stack(
        np.broadcast_arrays(
            half * (1.0 + diff), half * (1.0 + tot), half * (1.0 - diff), half * (1.0 - tot)
        )
    )


@lru_cache(maxsize=1)
def _unit_energy_table() -> np.ndarray:
    return phase_energy_table(1.0)


def _hot_pair(basis: str, bob_offset: int) -> tuple[str, str]:
    if basis not in BASES:
        raise ValidationError(f"unknown basis {basis!r}")
    idx = BASES.index(basis)
    hot = np.flatnonzero(_unit_energy_table()[idx, idx + bob_offset] > 0.75)
    return (DETECTOR_PORTS[hot[0]], DETECTOR_PORTS[hot[1]])


def expected_click_pair(basis: str) -> tuple[str, str]:
    """The two detectors that go hot when Eve's and Bob's phases coincide."""
    return _hot_pair(basis, 0)


def orthogonal_click_pair(basis: str) -> tuple[str, str]:
    """The hot detectors when Bob's phase is the basis partner of Eve's."""
    return _hot_pair(basis, 2)


def threshold_window(
    energy_table: np.ndarray,
    active: Sequence[bool],
    require_click_every_matched_slot: bool,
) -> tuple[float, float] | None:
    """Click-threshold window keeping an intercept-resend session clean.

    ``energy_table`` has shape (4, 4, 4): Eve's nominal phase index x Bob's
    nominal phase index x detector energy.  Any threshold in the returned
    (low, high] yields zero clicks in basis-mismatched slots and at most one
    click in basis-matched slots; with ``require_click_every_matched_slot``
    the high end is tightened so every matched slot clicks exactly once.
    """
    table = np.where(np.asarray(active, dtype=bool), np.asarray(energy_table), -np.inf)
    low = 0.0
    highs = []
    for i in range(4):
        for j in range(4):
            ranked = sorted(table[i, j], reverse=True)
            top, second = ranked[0], ranked[1]
            if i % 2 == j % 2:
                if second > -np.inf:
                    low = max(low, second)
                highs.append(top)
            else:
                low = max(low, top)
    high = min(highs) if require_click_every_matched_slot else max(highs)
    return feasible_mu_window(high, low)


#: Grid steps of the operating-point search: blinding power (mW), trigger energy (pJ).
PB_STEP = 0.005
ET_STEP = 0.005


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    pts = lo + step * np.arange(int((hi - lo) / step + 1e-9) + 1)
    return pts if pts[-1] >= hi - 1e-12 else np.append(pts, hi)


def select_operating_point(
    curves: Sequence[DetectorResponseCurve] | Mapping[str, DetectorResponseCurve],
    constraints: Sequence[tuple[str, str]],
) -> tuple[float, float] | None:
    """Grid-search a (P_B, E_T) point satisfying must-click / must-not-click pairs.

    Every constraint ``(i, j)`` demands a sure click on detector ``i`` and a
    sure non-click on detector ``j`` at the same trigger energy.  Among the
    feasible grid points the one with the largest worst-case margin to the
    threshold curves wins, ties broken toward smaller (P_B, E_T) in P_B-major
    order.  Feasibility is judged by :func:`blinded_click_probability`
    itself, over the whole grid at once, so any returned point re-verifies by
    construction.
    """
    cmap = curves if isinstance(curves, Mapping) else curve_map(curves)
    involved = []
    for i, j in constraints:
        for d in (i, j):
            if d not in cmap:
                raise ValidationError(f"no response curve for detector {d!r}")
            if cmap[d] not in involved:
                involved.append(cmap[d])
    if not involved:
        raise ValidationError("no constraints given")
    pb_lo = max(c.power_range()[0] for c in involved)
    pb_hi = min(c.power_range()[1] for c in involved)
    if pb_lo > pb_hi:
        return None
    et_hi = max(y for c in involved for _, y in c.always_points) + ET_STEP
    pbs, ets = _grid(pb_lo, pb_hi, PB_STEP), _grid(0.0, et_hi, ET_STEP)
    pb, et = pbs[:, None], ets[None, :]
    ok = np.ones((pbs.size, ets.size), dtype=bool)
    margin = np.full(ok.shape, np.inf)
    for i, j in constraints:
        ok &= blinded_click_probability(cmap[i], pb, et) == 1.0
        ok &= blinded_click_probability(cmap[j], pb, et) == 0.0
        margin = np.minimum(margin, et - cmap[i].e_always(pb))
        margin = np.minimum(margin, cmap[j].e_never(pb) - et)
    if not ok.any():
        return None
    # argmax returns the first maximum in row-major, i.e. P_B-major, order
    best = np.unravel_index(np.argmax(np.where(ok, margin, -np.inf)), ok.shape)
    return (float(pbs[best[0]]), float(ets[best[1]]))


def _isolated_time(
    curves: Mapping[str, DetectorResponseCurve], detector: str
) -> float | None:
    """Midpoint of the largest stretch of ``detector``'s window free of all others."""
    t0, t1 = curves[detector].time_window
    cuts = {t0, t1}
    others = [curves[d].time_window for d in curves if d != detector]
    for a, b in others:
        for edge in (a, b):
            if t0 < edge < t1:
                cuts.add(edge)
    grid = sorted(cuts)
    best = None
    for lo, hi in zip(grid, grid[1:]):
        mid = 0.5 * (lo + hi)
        if any(a <= mid <= b for a, b in others):
            continue
        if best is None or hi - lo > best[0]:
            best = (hi - lo, mid)
    return None if best is None else best[1]


def plan_time_shift(
    curves: Sequence[DetectorResponseCurve] | Mapping[str, DetectorResponseCurve],
    p_b: float = 0.32,
    e_t: float | None = None,
) -> TimeShift:
    """Resolve a time-shift strategy against measured curves.

    For each basis the target is the lexicographically first detector of the
    expected hot pair that (a) owns an arrival time outside every other
    detector's response window, (b) surely clicks on the full trigger energy
    and (c) stays silent on half of it, so basis-mismatched slots leave no
    trace.  ``e_t=None`` picks the middle of the clean energy interval of the
    overall first feasible target.
    """
    cmap = curves if isinstance(curves, Mapping) else curve_map(curves)

    def clean_interval(det: str) -> tuple[float, float] | None:
        lo = cmap[det].e_always(p_b)
        hi = 2.0 * cmap[det].e_never(p_b)
        return (lo, hi) if lo <= hi else None

    if e_t is None:
        for det in sorted(cmap):
            span = clean_interval(det)
            if span is not None and _isolated_time(cmap, det) is not None:
                e_t = 0.5 * (span[0] + span[1])
                break
        if e_t is None:
            raise FeasibilityError("no detector has a clean trigger-energy interval")

    targets = {}
    for basis in BASES:
        for det in sorted(expected_click_pair(basis)):
            t = _isolated_time(cmap, det)
            if t is None:
                continue
            if blinded_click_probability(cmap[det], p_b, e_t) != 1.0:
                continue
            if blinded_click_probability(cmap[det], p_b, 0.5 * e_t) != 0.0:
                continue
            targets[basis] = (det, t)
            break
        if basis not in targets:
            raise FeasibilityError(
                f"no isolatable detector for basis {basis} at P_B={p_b} mW, E_T={e_t} pJ"
            )
    return TimeShift(p_b=p_b, e_t=float(e_t), targets=targets)


def plan_asymmetric_threshold(
    curves: Sequence[DetectorResponseCurve] | Mapping[str, DetectorResponseCurve],
) -> AsymmetricThreshold | None:
    """Find asymmetric-threshold operating points for all four hot pairs.

    Tries every consistent choice of winner per hot pair, preferring a single
    static point; falls back to one point per basis.  Returned points are
    additionally required to stay silent at half the trigger energy (the
    energy every detector sees in basis-mismatched slots).
    """
    cmap = curves if isinstance(curves, Mapping) else curve_map(curves)
    pairs = {
        "Z": (expected_click_pair("Z"), orthogonal_click_pair("Z")),
        "X": (expected_click_pair("X"), orthogonal_click_pair("X")),
    }

    def half_silent(point: tuple[float, float]) -> bool:
        pb, et = point
        return all(blinded_click_probability(cmap[d], pb, 0.5 * et) == 0.0 for d in cmap)

    def first_point(pair_list) -> tuple[float, float] | None:
        """The first winner choice giving a half-silent point; the choices
        count in binary with the first pair's winner as the lowest bit."""
        for flips in itertools.product((False, True), repeat=len(pair_list)):
            combo = [pair[::-1] if flip else pair for pair, flip in zip(pair_list, flips[::-1])]
            point = select_operating_point(cmap, combo)
            if point is not None and half_silent(point):
                return point
        return None

    static = first_point([p for basis in BASES for p in pairs[basis]])
    if static is not None:
        return AsymmetricThreshold(p_b=static[0], e_t=static[1])
    schedule = {basis: first_point(pairs[basis]) for basis in BASES}
    if None in schedule.values():
        return None
    first = schedule[BASES[0]]
    return AsymmetricThreshold(p_b=first[0], e_t=first[1], schedule=schedule)
