import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from ddiqkd.attacks import (
    AsymmetricThreshold,
    FeasibilityError,
    PhaseDeviation,
    SingleDetectorBlinding,
    TimeShift,
    WavelengthBS,
    phase_deviation_energies,
    plan_asymmetric_threshold,
    plan_time_shift,
)
from ddiqkd.detectors import (
    BlindedModel,
    IdealDetectors,
    TemporalModel,
    ThresholdModel,
    default_curves,
)
from ddiqkd.optics import ValidationError
from ddiqkd.protocol import (
    KEY_CORRECTION,
    SessionConfig,
    breakeven_transmittance,
    derive_key_correction,
    enumerate_exact,
    run_session,
    sift_and_key,
    validate_attack,
)
from ddiqkd.receiver import BB84_PHASES, BellOutcome, ReceiverConfig

PI = math.pi

ONE_DETECTOR = ReceiverConfig(active_detectors=(True, False, False, False))


def sdb_config(n=1000, seed=0, mu_th=0.75, receiver=ONE_DETECTOR):
    return SessionConfig(
        n_slots=n, seed=seed, receiver=receiver, attack=SingleDetectorBlinding(mu=1.0, mu_th=mu_th)
    )


def pd_config(n=1000, seed=0, mu_th=0.99):
    return SessionConfig(
        n_slots=n,
        seed=seed,
        receiver=ReceiverConfig(phi_b=PI / 36),
        attack=PhaseDeviation(delta_phi_e=PI / 18, mu=1.0, mu_th=mu_th),
    )


def wl_config(n=1000, seed=0, mu_th=0.89):
    return SessionConfig(
        n_slots=n, seed=seed, attack=WavelengthBS(gamma=0.2, t1=0.44, t2=0.46, mu=1.0, mu_th=mu_th)
    )


def within_3_sigma(observed_rate, exact_rate, n):
    if exact_rate in (0.0, 1.0):
        return observed_rate == exact_rate
    sigma = math.sqrt(exact_rate * (1.0 - exact_rate) / n)
    return abs(observed_rate - exact_rate) <= 3.0 * sigma


class TestKeyCorrection:
    def test_brute_force_matches_frozen_table(self):
        assert derive_key_correction() == KEY_CORRECTION

    def test_difference_ports_flip_in_both_bases(self):
        assert KEY_CORRECTION[("Z", BellOutcome.PSI_MINUS)] == 1
        assert KEY_CORRECTION[("X", BellOutcome.PSI_MINUS)] == 1
        assert KEY_CORRECTION[("Z", BellOutcome.PSI_PLUS)] == 0
        assert KEY_CORRECTION[("X", BellOutcome.PSI_PLUS)] == 0


class TestSiftAndKey:
    def test_matched_click_agrees(self):
        assert sift_and_key(0.0, 0.0, BellOutcome.PSI_PLUS) == (0, 0)
        assert sift_and_key(PI, PI, BellOutcome.PHI_PLUS) == (1, 1)
        assert sift_and_key(PI / 2, 1.5 * PI, BellOutcome.PSI_MINUS) == (1, 1)

    def test_basis_mismatch_discards(self):
        assert sift_and_key(0.0, PI / 2, BellOutcome.PSI_PLUS) is None

    def test_impossible_combination_still_defined(self):
        # never occurs honestly (probability 0) but the lookup covers it
        assert sift_and_key(0.0, PI, BellOutcome.PSI_PLUS) == (0, 1)

    def test_rejects_non_single_clicks(self):
        with pytest.raises(ValidationError):
            sift_and_key(0.0, 0.0, BellOutcome.NO_CLICK)
        with pytest.raises(ValidationError):
            sift_and_key(0.0, 0.0, BellOutcome.DOUBLE_CLICK)

    def test_honest_matched_trials_always_agree(self):
        from ddiqkd.optics import single_photon_probabilities
        from ddiqkd.receiver import OUTCOME_BY_DETECTOR, balanced_port_amplitudes

        for ti in range(4):
            for bi in range(4):
                if ti % 2 != bi % 2:
                    continue
                probs = single_photon_probabilities(
                    balanced_port_amplitudes(1.0, BB84_PHASES[ti], BB84_PHASES[bi])
                )
                for det in range(4):
                    if probs[det] > 1e-12:
                        a, b = sift_and_key(
                            BB84_PHASES[ti], BB84_PHASES[bi], OUTCOME_BY_DETECTOR[det]
                        )
                        assert a == b


def hand_enumerate_single_detector(mu_th=Fraction(3, 4)):
    """Independent oracle: walk the 32 (sender, eve-basis, bob) combinations
    with exact fractions, branching the conjugate-basis measurement 50/50.
    Clicks follow the lattice cosine of the active detector's energy."""
    gain = sift = err = eve = Fraction(0)
    cos_by_delta = {0: 1, 1: 0, 2: -1, 3: 0}
    for ti in range(4):
        for basis in range(2):
            if ti % 2 == basis:
                branches = [(Fraction(1), ti)]
            else:
                branches = [(Fraction(1, 2), basis), (Fraction(1, 2), basis + 2)]
            for w_m, ei in branches:
                for bj in range(4):
                    w = Fraction(1, 4) * Fraction(1, 2) * w_m * Fraction(1, 4)
                    energy = Fraction(1, 2) * (1 + cos_by_delta[(ei - bj) % 4])
                    if energy >= mu_th:
                        gain += w
                        if ti % 2 == bj % 2:
                            sift += w
                            if (ti // 2) != (bj // 2):
                                err += w
                            if (ei // 2) == (bj // 2):
                                eve += w
    return gain, sift, err, eve


class TestEnumerateExact:
    def test_single_detector_rates(self):
        stats = enumerate_exact(sdb_config())
        assert stats.gain == 0.25
        assert stats.sifted_rate == 0.125
        assert stats.qber == 0.0
        assert stats.double_click_rate == 0.0
        assert stats.eve_knowledge == 1.0
        assert stats.bell_histogram == (0.25, 0.0, 0.0, 0.0)

    def test_single_detector_matches_hand_enumeration(self):
        gain, sift, err, eve = hand_enumerate_single_detector()
        stats = enumerate_exact(sdb_config())
        assert stats.gain == pytest.approx(float(gain), abs=1e-15)
        assert stats.sifted_rate == pytest.approx(float(sift), abs=1e-15)
        assert err == 0 and stats.qber == 0.0
        assert stats.eve_knowledge == pytest.approx(float(eve / sift), abs=1e-15)

    def test_honest_ideal_gain_is_one(self):
        stats = enumerate_exact(SessionConfig(n_slots=10))
        assert stats.gain == 1.0
        assert stats.sifted_rate == 0.5
        assert stats.qber == 0.0
        assert stats.double_click_rate == 0.0
        assert stats.eve_knowledge is None
        assert np.allclose(stats.bell_histogram, [0.25] * 4, atol=1e-12)

    def test_honest_gain_scales_with_transmittance(self):
        for eta in (0.1, 0.5, 0.9):
            four = enumerate_exact(SessionConfig(n_slots=10, channel_transmittance=eta))
            one = enumerate_exact(
                SessionConfig(n_slots=10, channel_transmittance=eta, receiver=ONE_DETECTOR)
            )
            assert four.gain == pytest.approx(eta, abs=1e-12)
            assert one.gain == pytest.approx(eta / 4, abs=1e-12)

    def test_network_imperfection_attacks(self):
        for cfg in (pd_config(), wl_config()):
            stats = enumerate_exact(cfg)
            assert stats.gain == 0.5
            assert stats.sifted_rate == 0.25
            assert stats.qber == 0.0
            assert stats.double_click_rate == 0.0
            assert stats.eve_knowledge == 1.0

    def test_deviation_fixture_click_pattern(self):
        # independent of the session code: one click in every basis-matched
        # slot, none in any mismatched slot
        for ei in range(4):
            for bj in range(4):
                e = phase_deviation_energies(
                    1.0, BB84_PHASES[ei] + PI / 18, BB84_PHASES[bj] + PI / 36
                )
                clicks = int(np.sum(e >= 0.99))
                assert clicks == (1 if ei % 2 == bj % 2 else 0)

    def test_honest_dark_counts_produce_doubles(self):
        cfg = SessionConfig(n_slots=10, detectors=IdealDetectors(dark_count_prob=0.01))
        stats = enumerate_exact(cfg)
        assert stats.double_click_rate > 0
        assert stats.gain < 1.0  # some photons now coincide with dark clicks


class TestRunSession:
    def test_honest_session_statistics(self):
        stats = run_session(SessionConfig(n_slots=100_000, seed=5))
        assert stats.gain == 1.0
        assert stats.qber == 0.0
        assert abs(stats.sifted_rate - 0.5) < 0.01

    def test_one_detector_gain_quarter(self):
        four = run_session(SessionConfig(n_slots=100_000, seed=6))
        one = run_session(SessionConfig(n_slots=100_000, seed=6, receiver=ONE_DETECTOR))
        assert abs(one.gain - 0.25 * four.gain) / (0.25 * four.gain) < 0.01

    def test_matched_zero_setting_splits_between_two_outcomes(self):
        stats, trials = run_session(SessionConfig(n_slots=200_000, seed=9), collect_trials=True)
        relevant = trials.outcome[(trials.theta_a == 0.0) & (trials.phi_b == 0.0)]
        psi = np.sum(relevant == BellOutcome.PSI_PLUS)
        phi = np.sum(relevant == BellOutcome.PHI_PLUS)
        assert psi + phi == len(relevant)
        assert abs(psi / len(relevant) - 0.5) < 0.01

    def test_reproducible_from_seed(self):
        cfg = sdb_config(n=5000, seed=77)
        s1, t1 = run_session(cfg, collect_trials=True)
        s2, t2 = run_session(cfg, collect_trials=True)
        assert s1 == s2
        assert np.array_equal(t1.cells, t2.cells)
        s3 = run_session(dataclasses.replace(cfg, seed=78))
        assert s3 != s1

    @pytest.mark.parametrize("k", [1, 5000])
    def test_trials_are_prefix_stable(self, k):
        for cfg in (
            sdb_config(n=10_000, seed=31),
            SessionConfig(n_slots=10_000, seed=32, detectors=IdealDetectors(dark_count_prob=0.05)),
        ):
            _, full = run_session(cfg, collect_trials=True)
            _, head = run_session(dataclasses.replace(cfg, n_slots=k), collect_trials=True)
            assert len(head) == k
            assert np.array_equal(head.cells, full.cells[:k])

    def test_trials_recount_to_the_report(self):
        cfg = SessionConfig(n_slots=9000, seed=33, detectors=IdealDetectors(dark_count_prob=0.1))
        stats, trials = run_session(cfg, collect_trials=True)
        n = cfg.n_slots
        doubles = np.sum(trials.outcome == BellOutcome.DOUBLE_CLICK)
        no_clicks = np.sum(trials.outcome == BellOutcome.NO_CLICK)
        sifted = trials.sifted
        assert stats.gain == (n - doubles - no_clicks) / n
        assert stats.double_click_rate == doubles / n
        assert stats.sifted_rate == np.sum(sifted) / n
        errors = np.sum(trials.alice_bit[sifted] != trials.bob_bit[sifted])
        assert stats.qber == errors / np.sum(sifted)

    def test_trial_records_respect_sift_invariant(self):
        _, trials = run_session(sdb_config(n=3000, seed=1), collect_trials=True)
        sifted = trials.sifted
        assert sifted.any()
        outcome = trials.outcome[sifted]
        assert not np.isin(outcome, [BellOutcome.NO_CLICK, BellOutcome.DOUBLE_CLICK]).any()
        z_a = np.isin(trials.theta_a[sifted], (0.0, PI))
        z_b = np.isin(trials.phi_b[sifted], (0.0, PI))
        assert np.array_equal(z_a, z_b)
        assert np.array_equal(trials.alice_bit[sifted], trials.bob_bit[sifted])
        assert np.array_equal(trials.bob_bit[sifted], trials.eve_bit[sifted])
        assert np.isin(trials.alice_bit[sifted], (0, 1)).all()
        assert (trials.alice_bit[~sifted] == -1).all() and (trials.bob_bit[~sifted] == -1).all()

    def test_honest_trials_have_no_eve(self):
        _, trials = run_session(SessionConfig(n_slots=50, seed=2), collect_trials=True)
        assert trials.phi_e is None and trials.pulse is None
        assert (trials.eve_bit == -1).all()

    def test_attacked_trials_record_pulses(self):
        _, trials = run_session(wl_config(n=50, seed=2), collect_trials=True)
        assert len(trials.phi_e) == len(trials.pulse) == 50
        for phi_e, pulse in zip(trials.phi_e, trials.pulse):
            assert phi_e in BB84_PHASES
            assert pulse.phi_e == phi_e
            assert pulse.splitting == (0.44, 0.46)


MC_CASES = {
    "honest": SessionConfig(n_slots=100_000, seed=21),
    "honest-lossy": SessionConfig(n_slots=100_000, seed=22, channel_transmittance=0.3),
    "single-detector": sdb_config(n=100_000, seed=23),
    "phase-deviation": pd_config(n=100_000, seed=24),
    "wavelength": wl_config(n=100_000, seed=25),
    "asymmetric-threshold": SessionConfig(
        n_slots=100_000, seed=26, attack=plan_asymmetric_threshold(default_curves())
    ),
    "time-shift": SessionConfig(n_slots=100_000, seed=27, attack=plan_time_shift(default_curves())),
    "honest-dark-counts": SessionConfig(
        n_slots=100_000, seed=28, detectors=IdealDetectors(dark_count_prob=0.02)
    ),
    "honest-inefficient-one-inactive": SessionConfig(
        n_slots=100_000,
        seed=29,
        receiver=ReceiverConfig(active_detectors=(True, True, False, True)),
        detectors=IdealDetectors(efficiency=0.6),
    ),
}


def assert_within_three_sigma(mc, exact, n):
    assert within_3_sigma(mc.gain, exact.gain, n)
    assert within_3_sigma(mc.sifted_rate, exact.sifted_rate, n)
    assert within_3_sigma(mc.double_click_rate, exact.double_click_rate, n)
    # qber and eve_knowledge are rates over the sifted slots
    n_sifted = round(mc.sifted_rate * n)
    assert within_3_sigma(mc.qber, exact.qber, n_sifted)
    if exact.eve_knowledge is None:
        assert mc.eve_knowledge is None
    else:
        assert within_3_sigma(mc.eve_knowledge, exact.eve_knowledge, n_sifted)
    for d in range(4):
        assert within_3_sigma(mc.bell_histogram[d] / n, exact.bell_histogram[d], n)


class TestMonteCarloAgainstExact:
    @pytest.mark.parametrize("cfg", MC_CASES.values(), ids=MC_CASES.keys())
    def test_rates_within_three_sigma(self, cfg):
        # the per-slot sampler draws from the port tables, not the tensor,
        # so this checks the tensor's weights
        mc, _ = run_session(cfg, collect_trials=True)
        assert_within_three_sigma(mc, enumerate_exact(cfg), cfg.n_slots)

    @pytest.mark.parametrize("cfg", MC_CASES.values(), ids=MC_CASES.keys())
    def test_multinomial_rates_within_three_sigma(self, cfg):
        cfg = dataclasses.replace(cfg, n_slots=10_000_000)
        assert_within_three_sigma(run_session(cfg), enumerate_exact(cfg), cfg.n_slots)


class TestStatsInvariants:
    def test_rates_bounded_and_histogram_consistent(self):
        for cfg in (
            SessionConfig(n_slots=20_000, seed=61),
            sdb_config(n=20_000, seed=62),
            pd_config(n=20_000, seed=63),
        ):
            stats = run_session(cfg)
            for rate in (stats.gain, stats.sifted_rate, stats.qber, stats.double_click_rate):
                assert 0.0 <= rate <= 1.0
            assert sum(stats.bell_histogram) == pytest.approx(stats.gain * cfg.n_slots)
            exact = enumerate_exact(cfg)
            assert sum(exact.bell_histogram) == pytest.approx(exact.gain, abs=1e-12)

    def test_skewed_histograms_are_reported(self):
        # the power-domain attack steers every click onto one detector per
        # hot pair; the histogram must show that, not smooth it away
        exact = enumerate_exact(
            SessionConfig(n_slots=10, attack=plan_asymmetric_threshold(default_curves()))
        )
        nonzero = [h for h in exact.bell_histogram if h > 0]
        assert len(nonzero) == 2
        assert sum(nonzero) == pytest.approx(exact.gain, abs=1e-12)


class TestFeasibility:
    def test_plain_blinding_needs_one_active_detector(self):
        with pytest.raises(FeasibilityError):
            validate_attack(sdb_config(receiver=ReceiverConfig()))

    def test_threshold_below_half_leaks_errors(self):
        with pytest.raises(FeasibilityError):
            validate_attack(sdb_config(mu_th=0.5))

    def test_threshold_above_full_is_clickless_but_clean(self):
        stats = enumerate_exact(sdb_config(mu_th=1.5))
        assert stats.gain == 0.0
        assert stats.qber == 0.0

    def test_deviation_attack_without_deviations_double_clicks(self):
        cfg = SessionConfig(
            n_slots=10, attack=PhaseDeviation(delta_phi_e=0.0, mu=1.0, mu_th=0.99)
        )
        with pytest.raises(FeasibilityError):
            validate_attack(cfg)

    def test_deviation_threshold_outside_window(self):
        with pytest.raises(FeasibilityError):
            validate_attack(pd_config(mu_th=0.95))  # both hot detectors click
        with pytest.raises(FeasibilityError):
            validate_attack(pd_config(mu_th=0.999))  # no detector clicks

    def test_wavelength_threshold_outside_window(self):
        with pytest.raises(FeasibilityError):
            validate_attack(wl_config(mu_th=0.999))

    def test_honest_session_requires_ideal_model(self):
        with pytest.raises(ValidationError):
            validate_attack(SessionConfig(n_slots=10, detectors=ThresholdModel(0.75)))

    def test_model_strategy_threshold_mismatch(self):
        cfg = dataclasses.replace(sdb_config(), detectors=ThresholdModel(0.9))
        with pytest.raises(ValidationError):
            validate_attack(cfg)

    def test_asymmetric_point_in_probabilistic_region(self):
        cfg = SessionConfig(
            n_slots=10,
            detectors=BlindedModel(tuple(default_curves())),
            attack=AsymmetricThreshold(p_b=0.2, e_t=0.065),
        )
        with pytest.raises(FeasibilityError):
            validate_attack(cfg)

    def test_time_shift_with_leaky_trigger_energy(self):
        # at 0.32 mW a 0.24 pJ trigger still fires on half energy, so
        # basis-mismatched slots would click and could be sifted
        cfg = SessionConfig(
            n_slots=10,
            detectors=TemporalModel(tuple(default_curves())),
            attack=TimeShift(p_b=0.32, e_t=0.24, targets={"Z": ("D1", 1.0), "X": ("D1", 1.0)}),
        )
        with pytest.raises(FeasibilityError):
            validate_attack(cfg)

    def test_validation_happens_before_slots(self):
        with pytest.raises(FeasibilityError):
            run_session(sdb_config(n=10_000_000, mu_th=0.5))


class TestBreakeven:
    def test_single_detector_attack(self):
        eta = breakeven_transmittance(
            SingleDetectorBlinding(mu=1.0, mu_th=0.75),
            SessionConfig(n_slots=10, receiver=ONE_DETECTOR),
        )
        # honest gain is transmittance/4, so the crossing sits at the ratio
        # of the hand-enumerated attacked gain to the lossless honest gain
        gain, _, _, _ = hand_enumerate_single_detector()
        expected = min(1.0, float(gain / Fraction(1, 4)))
        assert eta == pytest.approx(expected, abs=1e-9)

    def test_honest_versus_honest(self):
        assert breakeven_transmittance(None, SessionConfig(n_slots=10)) == 1.0

    def test_clickless_attack(self):
        eta = breakeven_transmittance(
            SingleDetectorBlinding(mu=1.0, mu_th=1.5),
            SessionConfig(n_slots=10, receiver=ONE_DETECTOR),
        )
        assert eta == 0.0

    def test_network_attack_breakeven_is_half(self):
        # the deviation attack clicks in half of all slots; honest lossless
        # gain is 1, so the rates cross exactly at transmittance 1/2
        eta = breakeven_transmittance(
            PhaseDeviation(delta_phi_e=PI / 18, mu=1.0, mu_th=0.99),
            SessionConfig(n_slots=10, receiver=ReceiverConfig(phi_b=PI / 36)),
        )
        assert eta == pytest.approx(0.5, abs=1e-9)
