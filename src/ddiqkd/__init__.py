"""Desk-scale simulator of a single-photon Bell-measurement QKD receiver,
its idealized and blinded detectors, and five intercept-resend strategies
that exploit detector and receiver imperfections."""

from .attacks import (
    AsymmetricThreshold,
    EvePulse,
    FeasibilityError,
    PhaseDeviation,
    SingleDetectorBlinding,
    TimeShift,
    WavelengthBS,
    expected_click_pair,
    feasible_mu_window,
    forge_pulse,
    phase_deviation_energies,
    plan_asymmetric_threshold,
    plan_time_shift,
    select_operating_point,
    threshold_window,
)
from .detectors import (
    BlindedModel,
    DetectorResponseCurve,
    IdealDetectors,
    TemporalModel,
    ThresholdModel,
    blinded_click_probability,
    default_curves,
    load_curves,
    temporal_click_probability,
)
from .optics import (
    BeamSplitter,
    ConfigurationError,
    HalfWavePlate,
    OpticalState,
    PhaseModulator,
    PolAmplitude,
    PolarizingBeamSplitter,
    ValidationError,
    energies,
    propagate,
    single_photon_probabilities,
)
from .protocol import (
    KEY_CORRECTION,
    SessionConfig,
    SessionStats,
    Trials,
    breakeven_transmittance,
    derive_key_correction,
    enumerate_exact,
    run_session,
    sift_and_key,
    validate_attack,
)
from .receiver import (
    BB84_PHASES,
    BellOutcome,
    ReceiverConfig,
    balanced_port_amplitudes,
    bell_outcome,
    build_receiver,
    general_port_amplitudes,
    phase_energy_table,
    propagated_port_amplitudes,
)

__version__ = "0.1.0"
