import math

import numpy as np
import pytest

from ddiqkd.attacks import (
    EvePulse,
    FeasibilityError,
    PhaseDeviation,
    SingleDetectorBlinding,
    TimeShift,
    WavelengthBS,
    expected_click_pair,
    feasible_mu_window,
    forge_pulse,
    orthogonal_click_pair,
    phase_basis,
    phase_deviation_energies,
    phase_index,
    plan_asymmetric_threshold,
    plan_time_shift,
    select_operating_point,
    threshold_window,
)
from ddiqkd.detectors import (
    DetectorResponseCurve,
    blinded_click_probability,
    curve_map,
    default_curves,
    load_curves,
)
from ddiqkd.optics import ValidationError
from ddiqkd.protocol import _EVE_BRANCH
from ddiqkd.receiver import BB84_PHASES, balanced_port_amplitudes

PI = math.pi


class TestPhaseHelpers:
    def test_index_and_bit(self):
        assert [phase_index(p) for p in BB84_PHASES] == [0, 1, 2, 3]
        assert [phase_basis(p) for p in BB84_PHASES] == ["Z", "X", "Z", "X"]
        assert phase_index(2 * PI) == 0
        assert phase_index(-PI / 2) == 3

    def test_non_protocol_phase_rejected(self):
        with pytest.raises(ValidationError):
            phase_index(0.3)



class TestEveMeasure:
    """Eve's BB84 measurement, as the outcome tensor's (sender, branch) law."""

    def test_eigenstate_is_deterministic(self):
        # in the sender's basis (chosen with probability 1/2) Eve reads the
        # sender's phase and never its basis partner
        for t in range(4):
            assert _EVE_BRANCH[t, t] == 0.5
            assert _EVE_BRANCH[t, (t + 2) % 4] == 0.0

    def test_conjugate_basis_is_unbiased(self):
        for t in range(4):
            assert _EVE_BRANCH[t, (t + 1) % 4] == _EVE_BRANCH[t, (t + 3) % 4] == 0.25
        assert np.array_equal(_EVE_BRANCH.sum(axis=1), np.ones(4))


class TestForgePulse:
    def test_plain_blinding_pulse(self):
        pulse = forge_pulse(SingleDetectorBlinding(mu=1.0, mu_th=0.75), 0.0)
        assert pulse == EvePulse(mu=1.0, phi_e=0.0)
        assert pulse.gamma == 0.5 and pulse.splitting is None
        # total resent energy is 2*mu
        total = np.sum(np.abs(balanced_port_amplitudes(pulse.mu, pulse.phi_e, 0.0)) ** 2)
        assert total == pytest.approx(2.0, abs=1e-12)

    def test_phase_deviation_offsets_phase(self):
        strategy = PhaseDeviation(delta_phi_e=PI / 18, mu=1.0, mu_th=0.99)
        pulse = forge_pulse(strategy, PI / 2)
        assert pulse.phi_e == pytest.approx(PI / 2 + PI / 18, abs=1e-15)

    def test_wavelength_pulse_carries_splitting(self):
        strategy = WavelengthBS(gamma=0.2, t1=0.44, t2=0.46, mu=1.0, mu_th=0.89)
        pulse = forge_pulse(strategy, PI)
        assert pulse.gamma == 0.2
        assert pulse.splitting == (0.44, 0.46)

    def test_time_shift_requires_resolution(self):
        with pytest.raises(FeasibilityError):
            forge_pulse(TimeShift(p_b=0.32, e_t=0.13), 0.0)

    def test_pulse_validation(self):
        with pytest.raises(ValidationError):
            EvePulse(mu=-1.0, phi_e=0.0)
        with pytest.raises(ValidationError):
            EvePulse(mu=1.0, phi_e=0.0, gamma=1.5)


class TestFeasibleMuWindow:
    def test_deviation_energies_leave_a_window(self):
        mu = 1.0
        assert feasible_mu_window(0.998 * mu, 0.982 * mu) == (0.982 * mu, 0.998 * mu)

    def test_half_to_full_window(self):
        mu = 2.0
        assert feasible_mu_window(mu, mu / 2) == (mu / 2, mu)

    def test_degenerate_is_none(self):
        assert feasible_mu_window(0.7, 0.7) is None

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            feasible_mu_window(-1.0, 0.0)


class TestPhaseDeviationEnergies:
    def test_agrees_with_amplitude_route(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            mu = rng.uniform(0.0, 5.0)
            pe, pb = rng.uniform(0, 2 * PI, 2)
            cosine = phase_deviation_energies(mu, pe, pb)
            amps = np.abs(balanced_port_amplitudes(mu, pe, pb)) ** 2
            assert np.max(np.abs(cosine - amps)) < 1e-12

    def test_deviation_fixture_energies(self):
        mu = 1.0
        e = phase_deviation_energies(mu, PI / 2 + PI / 18, PI / 2 + PI / 36)
        assert e[0] == pytest.approx(0.998 * mu, abs=0.001 * mu)
        assert e[3] == pytest.approx(0.982 * mu, abs=0.001 * mu)

    def test_opposite_nominal_phase_swaps_pair(self):
        mu = 1.0
        e = phase_deviation_energies(mu, 1.5 * PI + PI / 18, PI / 2 + PI / 36)
        # second hot pair: the sum-phase detector gets the low energy,
        # the difference-phase detector the high one
        assert e[1] == pytest.approx(0.982 * mu, abs=0.001 * mu)
        assert e[2] == pytest.approx(0.998 * mu, abs=0.001 * mu)

    def test_no_deviation_recovers_grid_row(self):
        e = phase_deviation_energies(1.0, 0.0, 0.0)
        assert np.allclose(e, [1.0, 1.0, 0.0, 0.0], atol=1e-12)


def deviation_energy_table(mu, delta_e, delta_b):
    table = np.zeros((4, 4, 4))
    for i, pe in enumerate(BB84_PHASES):
        for j, pb in enumerate(BB84_PHASES):
            table[i, j] = phase_deviation_energies(mu, pe + delta_e, pb + delta_b)
    return table


class TestThresholdWindow:
    def test_single_active_detector_window(self):
        table = deviation_energy_table(1.0, 0.0, 0.0)
        window = threshold_window(table, (True, False, False, False), False)
        assert window == pytest.approx((0.5, 1.0), abs=1e-12)

    def test_all_active_plain_blinding_has_no_window(self):
        table = deviation_energy_table(1.0, 0.0, 0.0)
        assert threshold_window(table, (True,) * 4, False) is None

    def test_deviation_window(self):
        table = deviation_energy_table(1.0, PI / 18, PI / 36)
        low, high = threshold_window(table, (True,) * 4, True)
        assert low == pytest.approx(0.9829629131445341, abs=1e-12)
        assert high == pytest.approx(0.9980973490458728, abs=1e-12)

    def test_wavelength_window(self):
        from ddiqkd.receiver import general_port_amplitudes

        table = np.zeros((4, 4, 4))
        for i, pe in enumerate(BB84_PHASES):
            for j, pb in enumerate(BB84_PHASES):
                table[i, j] = np.abs(general_port_amplitudes(1.0, pe, 0.2, 0.44, 0.46, pb)) ** 2
        low, high = threshold_window(table, (True,) * 4, True)
        assert low == pytest.approx(0.8790368, abs=1e-7)
        assert high == pytest.approx(0.9030368, abs=1e-7)


class TestClickPairs:
    def test_expected_pairs(self):
        assert expected_click_pair("Z") == ("D1", "D2")
        assert expected_click_pair("X") == ("D1", "D4")

    def test_orthogonal_pairs(self):
        assert orthogonal_click_pair("Z") == ("D3", "D4")
        assert orthogonal_click_pair("X") == ("D2", "D3")

    def test_unknown_basis_rejected(self):
        for pair in (expected_click_pair, orthogonal_click_pair):
            with pytest.raises(ValidationError):
                pair("Q")


class TestSelectOperatingPoint:
    def test_first_detector_over_second(self):
        point = select_operating_point(default_curves(), [("D1", "D2")])
        assert point is not None
        assert point[0] == pytest.approx(0.2, abs=0.05)
        assert point[1] == pytest.approx(0.1, abs=0.02)

    def test_second_detector_over_first(self):
        point = select_operating_point(default_curves(), [("D2", "D1")])
        assert point is not None
        assert point[0] == pytest.approx(0.56, abs=0.05)
        assert point[1] == pytest.approx(0.19, abs=0.02)

    def test_identical_curves_have_no_point(self):
        base = default_curves()[0]
        twin = DetectorResponseCurve(
            detector="D2",
            never_points=base.never_points,
            always_points=base.always_points,
            time_window=base.time_window,
        )
        assert select_operating_point({"D1": base, "D2": twin}, [("D1", "D2")]) is None

    def test_returned_points_reverify(self):
        cmap = curve_map(default_curves())
        constraint_sets = [
            [("D1", "D2")],
            [("D2", "D1")],
            [("D3", "D4")],
            [("D1", "D2"), ("D3", "D4")],
            [("D2", "D1"), ("D4", "D3")],
            [("D1", "D4"), ("D3", "D2")],
        ]
        for constraints in constraint_sets:
            point = select_operating_point(cmap, constraints)
            if point is None:
                continue
            for i, j in constraints:
                assert blinded_click_probability(cmap[i], *point) == 1.0
                assert blinded_click_probability(cmap[j], *point) == 0.0

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValidationError):
            select_operating_point(default_curves(), [("D1", "D9")])


def scalar_operating_point(cmap, constraints, step=0.005):
    """Oracle: the point-by-point (P_B, E_T) grid search, one scalar click
    evaluation at a time, keeping the first strictly larger margin."""
    involved = {cmap[d].detector: cmap[d] for pair in constraints for d in pair}.values()
    pb_lo = max(c.power_range()[0] for c in involved)
    pb_hi = min(c.power_range()[1] for c in involved)
    if pb_lo > pb_hi:
        return None
    et_hi = max(y for c in involved for _, y in c.always_points) + step

    def grid(lo, hi):
        pts = lo + step * np.arange(int((hi - lo) / step + 1e-9) + 1)
        return pts if pts[-1] >= hi - 1e-12 else np.append(pts, hi)

    best, best_margin = None, -np.inf
    for pb in grid(pb_lo, pb_hi):
        for et in grid(0.0, et_hi):
            margin, ok = np.inf, True
            for i, j in constraints:
                if blinded_click_probability(cmap[i], pb, et) != 1.0:
                    ok = False
                    break
                if blinded_click_probability(cmap[j], pb, et) != 0.0:
                    ok = False
                    break
                margin = min(margin, et - cmap[i].e_always(pb), cmap[j].e_never(pb) - et)
            if ok and margin > best_margin:
                best_margin, best = margin, (float(pb), float(et))
    return best


PORTS = ("D1", "D2", "D3", "D4")
SINGLE_CONSTRAINTS = [[(i, j)] for i in PORTS for j in PORTS if i != j]
PAIRED_CONSTRAINTS = [
    [("D1", "D2"), ("D3", "D4")],
    [("D2", "D1"), ("D4", "D3")],
    [("D1", "D4"), ("D3", "D2")],
    [("D4", "D1"), ("D2", "D3")],
]


class TestSelectOperatingPointOracle:
    @pytest.mark.parametrize(
        "constraints",
        SINGLE_CONSTRAINTS + PAIRED_CONSTRAINTS,
        ids=lambda c: ",".join(f"{i}>{j}" for i, j in c),
    )
    def test_array_search_returns_the_scalar_point(self, constraints):
        cmap = curve_map(default_curves())
        assert select_operating_point(cmap, constraints) == scalar_operating_point(
            cmap, constraints
        )

    def test_both_searches_find_nothing_on_identical_curves(self, tmp_path):
        lines = ["detector,kind,P_B_mW,E_pJ"]
        for det in ("D1", "D2"):
            lines += [
                f"{det},never,0.1,0.10",
                f"{det},never,0.6,0.10",
                f"{det},always,0.1,0.20",
                f"{det},always,0.6,0.20",
                f"{det},window,0.0,1.0",
            ]
        path = tmp_path / "same.csv"
        path.write_text("\n".join(lines) + "\n")
        cmap = curve_map(load_curves(path))
        assert scalar_operating_point(cmap, [("D1", "D2")]) is None
        assert select_operating_point(cmap, [("D1", "D2")]) is None


class TestPlanners:
    def test_asymmetric_plan_is_static_and_clean(self):
        plan = plan_asymmetric_threshold(default_curves())
        assert plan is not None
        assert plan.schedule is None
        assert (plan.p_b, plan.e_t) == (0.56, 0.19)
        cmap = curve_map(default_curves())
        clicked = {
            d for d in cmap if blinded_click_probability(cmap[d], plan.p_b, plan.e_t) == 1.0
        }
        silent_half = all(
            blinded_click_probability(cmap[d], plan.p_b, plan.e_t / 2) == 0.0 for d in cmap
        )
        assert silent_half
        # one winner in each hot pair, both bases
        for basis in ("Z", "X"):
            for pair in (expected_click_pair(basis), orthogonal_click_pair(basis)):
                assert len(clicked.intersection(pair)) == 1

    def test_time_shift_plan_targets_and_energies(self):
        plan = plan_time_shift(default_curves())
        cmap = curve_map(default_curves())
        assert set(plan.targets) == {"Z", "X"}
        for basis, (det, t) in plan.targets.items():
            assert det in expected_click_pair(basis)
            t0, t1 = cmap[det].time_window
            assert t0 <= t <= t1
            for other, curve in cmap.items():
                if other != det:
                    a, b = curve.time_window
                    assert not (a <= t <= b)
            assert blinded_click_probability(cmap[det], plan.p_b, plan.e_t) == 1.0
            assert blinded_click_probability(cmap[det], plan.p_b, plan.e_t / 2) == 0.0

    def test_time_shift_infeasible_with_identical_windows(self):
        same_window = tuple(
            DetectorResponseCurve(
                detector=c.detector,
                never_points=c.never_points,
                always_points=c.always_points,
                time_window=(0.0, 2.0),
            )
            for c in default_curves()
        )
        with pytest.raises(FeasibilityError):
            plan_time_shift(same_window)
