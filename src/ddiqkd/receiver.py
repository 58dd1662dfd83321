"""Bob's receiver: a polarization/path interferometer feeding four detectors.

Light enters at mode ``a`` as a coherent state of total mean photon number
2*mu, polarized (sqrt(gamma), e^{i phi_e} sqrt(1-gamma)) in the (H, V) basis.
A first beamsplitter splits it over two arms, one arm gets a phase ``phi_b``
from Bob's modulator, the other a half-wave plate; a second beamsplitter
recombines the arms and two polarizing splitters resolve H/V onto the four
detector ports D1..D4.

A single click on D1, D2, D3 or D4 heralds a projection of the incoming
photon's polarization x path qubits onto one of the four Bell states
(psi+, phi+, psi-, phi- respectively).

``balanced_port_amplitudes`` and ``general_port_amplitudes`` are closed forms
for the port amplitudes of the balanced (50:50, gamma = 1/2) and the general
(t1, t2, gamma) receiver; both are reproduced exactly by propagating the
network built by ``build_receiver``, which the tests exploit as a two-route
consistency check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .optics import (
    BeamSplitter,
    DETECTOR_PORTS,
    Element,
    HalfWavePlate,
    OpticalState,
    PhaseModulator,
    PolAmplitude,
    PolarizingBeamSplitter,
    ValidationError,
    propagate,
)

#: The four protocol phases, indexed 0..3.
BB84_PHASES = (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi)



def parse_angle(text: str | float) -> float:
    """Radians from a float or a pi-fraction string: ``0.5pi``, ``pi/36``, ``-3pi/2``.

    NaN and infinities are rejected.
    """
    try:
        if isinstance(text, (int, float)):
            value = float(text)
        else:
            s = text.strip().lower().replace(" ", "")
            if "pi" in s:
                head, _, tail = s.partition("pi")
                num = float(head) if head not in ("", "+", "-") else float(head + "1")
                den = 1.0
                if tail:
                    if not tail.startswith("/"):
                        raise ValueError(tail)
                    den = float(tail[1:])
                value = num * math.pi / den
            else:
                value = float(s)
    except (AttributeError, ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"angle {text!r} is not finite")
    return value

class BellOutcome(enum.Enum):
    PSI_PLUS = "psi_plus"
    PHI_PLUS = "phi_plus"
    PSI_MINUS = "psi_minus"
    PHI_MINUS = "phi_minus"
    NO_CLICK = "no_click"
    DOUBLE_CLICK = "double_click"


#: Bell state announced by a single click on D1..D4, in port order.
OUTCOME_BY_DETECTOR = (
    BellOutcome.PSI_PLUS,
    BellOutcome.PHI_PLUS,
    BellOutcome.PSI_MINUS,
    BellOutcome.PHI_MINUS,
)


@dataclass(frozen=True)
class ReceiverConfig:
    """Receiver parameters.

    ``phi_b`` is the phase applied by Bob's modulator.  For a one-shot
    propagation it is the absolute modulator phase; in a protocol session it
    acts as a fixed offset added to each slot's randomly chosen phase, i.e.
    the modulator's systematic deviation.
    """

    t1: float = 0.5
    t2: float = 0.5
    phi_b: float = 0.0
    active_detectors: tuple[bool, bool, bool, bool] = (True, True, True, True)

    def __post_init__(self) -> None:
        for name, t in (("t1", self.t1), ("t2", self.t2)):
            if not (0.0 < t < 1.0):
                raise ValidationError(f"{name}={t} outside (0, 1)")
        if len(self.active_detectors) != 4:
            raise ValidationError("active_detectors must have four entries")
        if not any(self.active_detectors):
            raise ValidationError("at least one detector must be active")


def build_receiver(cfg: ReceiverConfig) -> tuple[Element, ...]:
    """Ordered element list realizing the receiver.

    The second beamsplitter is oriented with the half-wave-plate arm first
    and carries transmittance 1 - t2, which places the modulated arm on the
    t2 side of the split; together with the sign convention of
    :mod:`ddiqkd.optics` this reproduces the closed-form port amplitudes with
    their exact signs (port D3 carries the arm difference).
    """
    return (
        BeamSplitter(t=cfg.t1, inputs=("a", "b"), outputs=("c", "d")),
        PhaseModulator(phase=cfg.phi_b, mode="c", out="e"),
        HalfWavePlate(mode="d", out="f"),
        BeamSplitter(t=1.0 - cfg.t2, inputs=("f", "e"), outputs=("k", "g")),
        PolarizingBeamSplitter(mode="g", outputs=("D3", "D4")),
        PolarizingBeamSplitter(mode="k", outputs=("D1", "D2")),
    )


def source_state(mu: float, phi_e: float, gamma: float = 0.5) -> OpticalState:
    """Input state on mode ``a``: total mean photon number 2*mu, H fraction gamma."""
    if mu < 0:
        raise ValidationError(f"mean photon number {mu} < 0")
    if not (0.0 <= gamma <= 1.0):
        raise ValidationError(f"gamma={gamma} outside [0, 1]")
    alpha = math.sqrt(2.0 * mu)
    amp = PolAmplitude(
        h=alpha * math.sqrt(gamma),
        v=alpha * math.sqrt(1.0 - gamma) * np.exp(1j * phi_e),
    )
    return OpticalState({"a": amp})


def propagated_port_amplitudes(
    cfg: ReceiverConfig, mu: float, phi_e: float, gamma: float = 0.5
) -> np.ndarray:
    """Propagate through the built network; complex amplitude per detector port."""
    out = propagate(build_receiver(cfg), source_state(mu, phi_e, gamma))
    return np.array([out.amplitude(p).scalar() for p in DETECTOR_PORTS])


def balanced_port_amplitudes(mu, phi_e, phi_b) -> np.ndarray:
    """Port amplitudes of the balanced receiver (t1 = t2 = 1/2, gamma = 1/2).

    Accepts scalars or broadcastable arrays; returns shape (4,) + broadcast.
    """
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise ValidationError("mean photon number must be >= 0")
    ee = np.exp(1j * np.asarray(phi_e))
    eb = np.exp(1j * np.asarray(phi_b))
    half = 0.5 * np.sqrt(mu)
    return np.stack(
        np.broadcast_arrays(
            half * (ee + eb),
            half * (1.0 + ee * eb),
            half * (ee - eb),
            half * (1.0 - ee * eb),
        )
    )


def general_port_amplitudes(mu, phi_e, gamma, t1, t2, phi_b) -> np.ndarray:
    """Port amplitudes for arbitrary splitting ratios t1, t2 and H fraction gamma."""
    mu = np.asarray(mu, dtype=float)
    if np.any(mu < 0):
        raise ValidationError("mean photon number must be >= 0")
    for name, x in (("gamma", gamma), ("t1", t1), ("t2", t2)):
        if np.any(np.asarray(x) < 0) or np.any(np.asarray(x) > 1):
            raise ValidationError(f"{name} outside [0, 1]")
    g, g_ = np.asarray(gamma, dtype=float), 1.0 - np.asarray(gamma, dtype=float)
    a1, a1_ = np.asarray(t1, dtype=float), 1.0 - np.asarray(t1, dtype=float)
    a2, a2_ = np.asarray(t2, dtype=float), 1.0 - np.asarray(t2, dtype=float)
    ee = np.exp(1j * np.asarray(phi_e))
    eb = np.exp(1j * np.asarray(phi_b))
    alpha = np.sqrt(2.0 * mu)
    return np.stack(
        np.broadcast_arrays(
            alpha * (np.sqrt(a1_ * a2_ * g_) * ee + np.sqrt(a1 * a2 * g) * eb),
            alpha * (np.sqrt(a1_ * a2_ * g) + np.sqrt(a1 * a2 * g_) * ee * eb),
            alpha * (np.sqrt(a1_ * a2 * g_) * ee - np.sqrt(a1 * a2_ * g) * eb),
            alpha * (np.sqrt(a1_ * a2 * g) - np.sqrt(a1 * a2_ * g_) * ee * eb),
        )
    )


def phase_energy_table(mu: float) -> np.ndarray:
    """Detector energies for every settings pair, shape (4, 4, 4).

    Axis 0 indexes the sender phase, axis 1 Bob's phase (both over
    ``BB84_PHASES``), axis 2 the detector.  Every entry is 0, mu/2 or mu.
    """
    if mu <= 0:
        raise ValidationError(f"mean photon number {mu} must be > 0")
    table = np.empty((4, 4, 4))
    for i, phi_e in enumerate(BB84_PHASES):
        for j, phi_b in enumerate(BB84_PHASES):
            amps = balanced_port_amplitudes(mu, phi_e, phi_b)
            table[i, j] = np.abs(amps) ** 2
    return table


def bell_outcome(clicks: Sequence[bool]) -> BellOutcome:
    """Classify a four-detector click pattern."""
    fired = [i for i, c in enumerate(clicks) if c]
    if not fired:
        return BellOutcome.NO_CLICK
    if len(fired) > 1:
        return BellOutcome.DOUBLE_CLICK
    return OUTCOME_BY_DETECTOR[fired[0]]
