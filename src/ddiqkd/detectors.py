"""Click models for the four receiver detectors.

Three bright-light regimes are covered, one model class each, besides the
honest ``IdealDetectors``:

* ``ThresholdModel``: an idealized threshold detector that clicks whenever
  the incoming mean photon number reaches ``mu_th`` (the bright-light
  blinded limit),
* ``BlindedModel``: blinded detectors whose click behaviour depends on the
  continuous blinding power P_B and the trigger-pulse energy E_T, captured by
  a pair of piecewise-linear curves per detector: below E_never(P_B) the
  click probability is 0, above E_always(P_B) it is 1, linear in between,
* ``TemporalModel``: the blinded curves plus a temporal response window per
  detector outside of which a pulse can never register, regardless of its
  energy.

Each bright-light model scores a whole (Eve phase, Bob phase, port) table of
forged-pulse energies at once with ``click_probs``; the curve functions
``blinded_click_probability`` and ``temporal_click_probability`` take arrays.

Response curves are loaded from CSV.  The bundled fixture is synthetic: the
curves are constructed to pass through two published operating points for a
pair of commercially deployed blinded detectors (roughly, one detector clicks
at 0.2 mW / 0.1 pJ where the other stays silent, and the roles reverse near
0.56 mW / 0.19 pJ), not measured data.

Protocol-level energies are kept in mean-photon-number units; picojoules and
milliwatts appear only in curve files.  ``PHOTON_ENERGY_PJ`` converts between
the two for mixed scenarios.

Curves and models are immutable after construction and click evaluation is
pure, so everything here is safe for concurrent use.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .optics import DETECTOR_PORTS, ValidationError

#: Energy of one 1550 nm photon in picojoules (h*c/lambda).
PHOTON_ENERGY_PJ = 1.2815779e-07


class CurveFileError(ValueError):
    """A curve file failed to parse or violates a curve invariant."""


@dataclass(frozen=True)
class DetectorResponseCurve:
    """Trigger thresholds versus blinding power for one blinded detector.

    ``never_points`` / ``always_points`` are (P_B [mW], E [pJ]) samples of the
    maximal no-click and minimal sure-click trigger energies; both lists are
    interpolated linearly and never extrapolated.
    """

    detector: str
    never_points: tuple[tuple[float, float], ...]
    always_points: tuple[tuple[float, float], ...]
    time_window: tuple[float, float]

    def __post_init__(self) -> None:
        for name, pts in (("never", self.never_points), ("always", self.always_points)):
            if len(pts) < 1:
                raise CurveFileError(f"{self.detector}: empty {name} curve")
            if not np.isfinite(pts).all():
                raise CurveFileError(f"{self.detector}: non-finite {name} point")
            powers = [p for p, _ in pts]
            if sorted(powers) != powers or len(set(powers)) != len(powers):
                raise CurveFileError(f"{self.detector}: {name} curve not sorted by P_B")
        lo, hi = self.power_range()
        if lo > hi:
            raise CurveFileError(f"{self.detector}: never/always curves cover disjoint power ranges")
        for pb in sorted({p for p, _ in self.never_points + self.always_points} | {lo, hi}):
            if lo <= pb <= hi and self.e_never(pb) > self.e_always(pb):
                raise CurveFileError(
                    f"{self.detector}: E_never > E_always at P_B={pb} mW"
                )
        if not (np.isfinite(self.time_window).all() and self.time_window[0] < self.time_window[1]):
            raise CurveFileError(f"{self.detector}: empty or non-finite window {self.time_window}")

    def power_range(self) -> tuple[float, float]:
        """Blinding-power interval covered by both curves."""
        return (
            max(self.never_points[0][0], self.always_points[0][0]),
            min(self.never_points[-1][0], self.always_points[-1][0]),
        )

    def _interp(self, points: tuple[tuple[float, float], ...], p_b):
        lo, hi = self.power_range()
        p_b = np.asarray(p_b, dtype=float)
        if not ((lo <= p_b) & (p_b <= hi)).all():
            raise ValidationError(
                f"{self.detector}: P_B={p_b} mW outside covered range [{lo}, {hi}]"
            )
        xs, ys = zip(*points)
        return _scalar_or_array(np.interp(p_b, xs, ys))

    def e_never(self, p_b):
        return self._interp(self.never_points, p_b)

    def e_always(self, p_b):
        return self._interp(self.always_points, p_b)


def _scalar_or_array(values):
    """A Python float for a 0-d result, the array otherwise."""
    values = np.asarray(values)
    return float(values) if values.ndim == 0 else values


def blinded_click_probability(curve: DetectorResponseCurve, p_b, e_t):
    """Click probability of a blinded detector for trigger energy ``e_t`` at power ``p_b``.

    ``p_b`` and ``e_t`` broadcast against each other; scalar input gives a
    Python float.  Sure-click takes precedence on a degenerate curve
    (E_never == E_always), which makes the degenerate case an inclusive sharp
    threshold, exactly like ``ThresholdModel``.
    """
    e_t = np.asarray(e_t, dtype=float)
    if (e_t < 0).any():
        raise ValidationError(f"trigger energy {e_t} < 0")
    e_always = curve.e_always(p_b)
    e_never = curve.e_never(p_b)
    span = e_always - e_never  # the ramp is only read where span > 0
    ramp = (e_t - e_never) / np.where(span > 0.0, span, 1.0)
    return _scalar_or_array(np.where(e_t >= e_always, 1.0, np.where(e_t <= e_never, 0.0, ramp)))


def temporal_click_probability(curve: DetectorResponseCurve, p_b, e_t, arrival_time):
    """Window-gated click probability: 0 outside the response window.

    The arguments broadcast against each other; the blinded curve is only
    consulted for pulses arriving inside the window.
    """
    p_b, e_t, arrival_time = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (p_b, e_t, arrival_time))
    )
    t0, t1 = curve.time_window
    inside = (t0 <= arrival_time) & (arrival_time <= t1)
    probs = np.zeros(inside.shape)
    if inside.any():
        probs[inside] = blinded_click_probability(curve, p_b[inside], e_t[inside])
    return _scalar_or_array(probs)


# --------------------------------------------------------------------------
# detector models


@dataclass(frozen=True)
class IdealDetectors:
    """Honest receiver detectors: efficiency and dark counts, default ideal."""

    efficiency: float = 1.0
    dark_count_prob: float = 0.0

    KIND = "ideal"
    FIELDS = {"efficiency": float, "dark_count_prob": float}

    def __post_init__(self) -> None:
        if not (0.0 <= self.efficiency <= 1.0):
            raise ValidationError(f"efficiency {self.efficiency} outside [0, 1]")
        if not (0.0 <= self.dark_count_prob < 1.0):
            raise ValidationError(f"dark count probability {self.dark_count_prob} outside [0, 1)")


@dataclass(frozen=True)
class ThresholdModel:
    """Blinded detectors in the sharp-threshold limit: click iff energy >= mu_th."""

    mu_th: float

    KIND = "threshold"
    FIELDS = {"mu_th": float}

    def __post_init__(self) -> None:
        if not 0.0 < self.mu_th < math.inf:
            raise ValidationError(f"mu_th {self.mu_th} must be finite and > 0")

    def click_probs(self, energies: np.ndarray, pulses: Sequence) -> np.ndarray:
        """Click probabilities over (Eve phase, Bob phase, port) mean photon numbers."""
        return (energies >= self.mu_th).astype(float)


def curve_source(source: str | None) -> tuple[DetectorResponseCurve, ...]:
    """Curves from a CSV path, or the bundled fixture for ``"default"`` or None."""
    return tuple(default_curves() if source in (None, "default") else load_curves(source))


def _require_every_port(curves: Sequence[DetectorResponseCurve]) -> None:
    missing = [d for d in DETECTOR_PORTS if d not in curve_map(curves)]
    if missing:
        raise ValidationError(f"curve set lacks detectors: {', '.join(missing)}")


def _port_probs(curves, energies: np.ndarray, pulses: Sequence, click) -> np.ndarray:
    """``click(curve, p_b, e_pj)`` per port over an (Eve phase, Bob phase,
    port) table of mean photon numbers, at each pulse's blinding power."""
    cmap = curve_map(curves)
    p_b = np.array([pulse.p_b for pulse in pulses], dtype=float)[:, None]
    e_pj = energies * PHOTON_ENERGY_PJ
    return np.stack([click(cmap[d], p_b, e_pj[..., k]) for k, d in enumerate(DETECTOR_PORTS)], -1)


@dataclass(frozen=True)
class BlindedModel:
    """Blinded detectors driven by measured response curves (power-domain)."""

    curves: tuple[DetectorResponseCurve, ...] = field(default_factory=lambda: curve_source("default"))

    KIND = "blinded"
    FIELDS = {"curves": curve_source}

    def __post_init__(self) -> None:
        _require_every_port(self.curves)

    def click_probs(self, energies: np.ndarray, pulses: Sequence) -> np.ndarray:
        """Click probabilities over (Eve phase, Bob phase, port) mean photon numbers."""
        return _port_probs(self.curves, energies, pulses, blinded_click_probability)


@dataclass(frozen=True)
class TemporalModel:
    """Blinded detectors with their temporal response windows applied."""

    curves: tuple[DetectorResponseCurve, ...] = field(default_factory=lambda: curve_source("default"))

    KIND = "temporal"
    FIELDS = {"curves": curve_source}

    def __post_init__(self) -> None:
        _require_every_port(self.curves)

    def click_probs(self, energies: np.ndarray, pulses: Sequence) -> np.ndarray:
        """Like :meth:`BlindedModel.click_probs`, gated by each pulse's arrival time."""
        arrival = np.array([pulse.arrival_time for pulse in pulses], dtype=float)[:, None]
        return _port_probs(
            self.curves, energies, pulses,
            lambda curve, p_b, e_pj: temporal_click_probability(curve, p_b, e_pj, arrival),
        )


DetectorModel = IdealDetectors | ThresholdModel | BlindedModel | TemporalModel

#: Detector models by their JSON ``model`` name.
MODELS = {cls.KIND: cls for cls in (IdealDetectors, ThresholdModel, BlindedModel, TemporalModel)}


# --------------------------------------------------------------------------
# curve files


def _parse_rows(rows: Iterable[Sequence[str]], source: str) -> list[DetectorResponseCurve]:
    never: dict[str, list[tuple[float, float]]] = {}
    always: dict[str, list[tuple[float, float]]] = {}
    windows: dict[str, tuple[float, float]] = {}
    order: list[str] = []
    for lineno, row in enumerate(rows, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 4:
            raise CurveFileError(f"{source}:{lineno}: expected 4 columns, got {len(row)}")
        det, kind = row[0].strip(), row[1].strip()
        try:
            x, y = float(row[2]), float(row[3])
        except ValueError as exc:
            raise CurveFileError(f"{source}:{lineno}: {exc}") from None
        if det not in order:
            order.append(det)
        if kind == "never":
            never.setdefault(det, []).append((x, y))
        elif kind == "always":
            always.setdefault(det, []).append((x, y))
        elif kind == "window":
            if det in windows:
                raise CurveFileError(f"{source}:{lineno}: duplicate window for {det}")
            windows[det] = (x, y)
        else:
            raise CurveFileError(f"{source}:{lineno}: unknown kind {kind!r}")
    if not order:
        raise CurveFileError(f"{source}: no curve rows found")
    curves = []
    for det in order:
        missing = [k for k, d in (("never", never), ("always", always), ("window", windows)) if det not in d]
        if missing:
            raise CurveFileError(f"{source}: detector {det} missing {', '.join(missing)} rows")
        curves.append(
            DetectorResponseCurve(
                detector=det,
                never_points=tuple(never[det]),
                always_points=tuple(always[det]),
                time_window=windows[det],
            )
        )
    return curves


def load_curves(path: str | Path) -> list[DetectorResponseCurve]:
    """Load and validate detector response curves from a CSV file.

    Format: header ``detector,kind,P_B_mW,E_pJ``; threshold rows use kind
    ``never``/``always``, response windows use kind ``window`` with the start
    and end times (ns) in the last two columns.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise CurveFileError(f"{path}: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise CurveFileError(f"{path}: empty file")
    reader = csv.reader(lines)
    header = next(reader)
    if [h.strip() for h in header] != ["detector", "kind", "P_B_mW", "E_pJ"]:
        raise CurveFileError(f"{path}: bad header {header!r}")
    return _parse_rows(reader, str(path))


def default_curves() -> list[DetectorResponseCurve]:
    """The bundled synthetic four-detector fixture."""
    ref = importlib.resources.files("ddiqkd.data") / "blinded_detector_curves.csv"
    with importlib.resources.as_file(ref) as path:
        return load_curves(path)


def curve_map(curves: Sequence[DetectorResponseCurve]) -> dict[str, DetectorResponseCurve]:
    return {c.detector: c for c in curves}
