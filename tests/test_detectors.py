import math

import numpy as np
import pytest

from ddiqkd.detectors import (
    BlindedModel,
    CurveFileError,
    DetectorResponseCurve,
    TemporalModel,
    ThresholdModel,
    blinded_click_probability,
    curve_map,
    default_curves,
    load_curves,
    temporal_click_probability,
)
from ddiqkd.optics import ValidationError


@pytest.fixture(scope="module")
def curves():
    return curve_map(default_curves())


def threshold_clicks(energy, mu_th):
    """ThresholdModel's click probabilities for one energy (or array of them)."""
    return ThresholdModel(mu_th).click_probs(np.asarray(energy, dtype=float), pulses=())


class TestThresholdClick:
    def test_full_energy_clicks(self):
        mu = 1.0
        assert threshold_clicks(mu, 0.75 * mu) == 1.0

    def test_half_energy_silent(self):
        mu = 1.0
        assert threshold_clicks(mu / 2, 0.75 * mu) == 0.0

    def test_zero_energy_never_clicks(self):
        for mu_th in (1e-9, 0.5, 100.0):
            assert threshold_clicks(0.0, mu_th) == 0.0

    def test_threshold_is_inclusive(self):
        assert threshold_clicks(0.75, 0.75) == 1.0

    def test_validation(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError):
                ThresholdModel(bad)

    def test_scores_a_whole_table(self):
        energies = np.array([[[0.0, 0.5, 0.75, 1.0]] * 4] * 4)
        probs = ThresholdModel(0.75).click_probs(energies, pulses=())
        assert probs.shape == (4, 4, 4)
        assert np.array_equal(probs, np.broadcast_to([0.0, 0.0, 1.0, 1.0], (4, 4, 4)))


def test_curve_models_need_every_port():
    for model in (BlindedModel, TemporalModel):
        assert len(model().curves) == 4  # the bundled fixture by default
        with pytest.raises(ValidationError):
            model(tuple(default_curves()[:3]))


class TestBlindedClickProbability:
    def test_published_point_low_power(self, curves):
        # near 0.2 mW / 0.1 pJ the first detector responds, the second does not
        assert blinded_click_probability(curves["D1"], 0.2, 0.1) > 0
        assert blinded_click_probability(curves["D2"], 0.2, 0.1) == 0.0

    def test_published_point_high_power(self, curves):
        # near 0.56 mW / 0.19 pJ the roles reverse
        assert blinded_click_probability(curves["D2"], 0.56, 0.19) > 0
        assert blinded_click_probability(curves["D1"], 0.56, 0.19) == 0.0

    def test_zero_energy(self, curves):
        for curve in curves.values():
            assert blinded_click_probability(curve, 0.3, 0.0) == 0.0

    def test_monotone_in_trigger_energy(self, curves):
        rng = np.random.default_rng(3)
        for _ in range(300):
            curve = curves[rng.choice(list(curves))]
            lo, hi = curve.power_range()
            p_b = rng.uniform(lo, hi)
            e = np.sort(rng.uniform(0.0, 0.5, 2))
            assert blinded_click_probability(curve, p_b, e[0]) <= blinded_click_probability(
                curve, p_b, e[1]
            )

    def test_linear_interpolation_between_thresholds(self, curves):
        curve = curves["D1"]
        e_never, e_always = curve.e_never(0.2), curve.e_always(0.2)
        mid = 0.5 * (e_never + e_always)
        assert blinded_click_probability(curve, 0.2, mid) == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_curve_equals_threshold_click(self):
        mu_th = 0.4
        curve = DetectorResponseCurve(
            detector="DX",
            never_points=((0.1, mu_th), (0.5, mu_th)),
            always_points=((0.1, mu_th), (0.5, mu_th)),
            time_window=(0.0, 1.0),
        )
        energies = np.array([0.0, 0.1, 0.39, 0.4, 0.41, 1.0])
        expected = threshold_clicks(energies, mu_th)
        for e, want in zip(energies, expected):
            assert blinded_click_probability(curve, 0.3, e) == want
        assert np.array_equal(blinded_click_probability(curve, 0.3, energies), expected)

    def test_arrays_match_scalars(self, curves):
        curve = curves["D2"]
        lo, hi = curve.power_range()
        powers = np.linspace(lo, hi, 9)[:, None]
        energies = np.linspace(0.0, 0.4, 41)
        probs = blinded_click_probability(curve, powers, energies)
        assert probs.shape == (9, 41)
        assert 0.0 < probs.mean() < 1.0
        for (k, j), p in np.ndenumerate(probs):
            scalar = blinded_click_probability(curve, powers[k, 0], energies[j])
            assert isinstance(scalar, float) and scalar == p

    def test_power_out_of_range(self, curves):
        with pytest.raises(ValidationError):
            blinded_click_probability(curves["D1"], 0.05, 0.1)
        with pytest.raises(ValidationError):
            blinded_click_probability(curves["D1"], 0.7, 0.1)


class TestTemporalClick:
    def test_inside_own_window_only(self, curves):
        assert temporal_click_probability(curves["D1"], 0.32, 0.5, 1.0) == 1.0
        assert temporal_click_probability(curves["D2"], 0.32, 0.5, 1.0) == 0.0

    def test_midpoint_with_sure_energy(self, curves):
        t0, t1 = curves["D1"].time_window
        energy = curves["D1"].e_always(0.32)
        assert temporal_click_probability(curves["D1"], 0.32, energy, 0.5 * (t0 + t1)) == 1.0

    def test_after_window_end_never_clicks(self, curves):
        t_end = curves["D1"].time_window[1]
        assert temporal_click_probability(curves["D1"], 0.32, 100.0, t_end + 1.0) == 0.0

    def test_fractional_probability_in_window(self, curves):
        curve = curves["D1"]
        mid = 0.5 * (curve.e_never(0.2) + curve.e_always(0.2))
        assert temporal_click_probability(curve, 0.2, mid, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_negative_energy_rejected(self, curves):
        with pytest.raises(ValidationError):
            temporal_click_probability(curves["D1"], 0.32, -0.1, 1.0)

    def test_arrays_match_scalars(self, curves):
        curve = curves["D1"]
        t0, t1 = curve.time_window
        energies = np.linspace(0.0, 0.3, 7)
        times = np.array([t0 - 1.0, t0, 0.5 * (t0 + t1), t1, t1 + 1.0])[:, None]
        probs = temporal_click_probability(curve, 0.32, energies, times)
        assert probs.shape == (5, 7)
        for (k, j), p in np.ndenumerate(probs):
            scalar = temporal_click_probability(curve, 0.32, energies[j], times[k, 0])
            assert isinstance(scalar, float) and scalar == p


class TestLoadCurves:
    def test_bundled_fixture(self):
        loaded = default_curves()
        assert [c.detector for c in loaded] == ["D1", "D2", "D3", "D4"]
        for c in loaded:
            assert c.time_window[0] < c.time_window[1]

    def test_crossing_thresholds_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "detector,kind,P_B_mW,E_pJ\n"
            "D1,never,0.1,0.30\n"
            "D1,never,0.2,0.30\n"
            "D1,always,0.1,0.10\n"
            "D1,always,0.2,0.10\n"
            "D1,window,0.0,1.0\n"
        )
        with pytest.raises(CurveFileError):
            load_curves(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(CurveFileError):
            load_curves(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("detector,kind,P_B_mW,E_pJ\n")
        with pytest.raises(CurveFileError):
            load_curves(path)

    def test_unsorted_powers_rejected(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text(
            "detector,kind,P_B_mW,E_pJ\n"
            "D1,never,0.3,0.10\n"
            "D1,never,0.1,0.10\n"
            "D1,always,0.1,0.20\n"
            "D1,always,0.3,0.20\n"
            "D1,window,0.0,1.0\n"
        )
        with pytest.raises(CurveFileError):
            load_curves(path)

    def test_missing_window_rejected(self, tmp_path):
        path = tmp_path / "nowin.csv"
        path.write_text(
            "detector,kind,P_B_mW,E_pJ\n"
            "D1,never,0.1,0.10\n"
            "D1,always,0.1,0.20\n"
        )
        with pytest.raises(CurveFileError):
            load_curves(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "kind.csv"
        path.write_text("detector,kind,P_B_mW,E_pJ\nD1,sometimes,0.1,0.1\n")
        with pytest.raises(CurveFileError):
            load_curves(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("a,b,c,d\nD1,never,0.1,0.1\n")
        with pytest.raises(CurveFileError):
            load_curves(path)

    def test_non_finite_values_rejected(self, tmp_path):
        rows = ["D1,never,0.1,nan", "D1,always,0.1,0.20", "D1,window,0.0,1.0"]
        for bad in (rows, [rows[0].replace("nan", "0.1"), rows[1], "D1,window,0.0,inf"]):
            path = tmp_path / "nonfinite.csv"
            path.write_text("detector,kind,P_B_mW,E_pJ\n" + "\n".join(bad) + "\n")
            with pytest.raises(CurveFileError):
                load_curves(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CurveFileError):
            load_curves(tmp_path / "nope.csv")

    def test_empty_window_rejected(self):
        with pytest.raises(CurveFileError):
            DetectorResponseCurve(
                detector="DX",
                never_points=((0.1, 0.1),),
                always_points=((0.1, 0.2),),
                time_window=(1.0, 1.0),
            )
