"""The outcome tensor against a brute-force oracle.

The oracle walks the discrete choice tree one branch at a time: every
(sender phase, Eve basis, measurement branch, Bob phase) combination, every
photon landing or loss, and every click pattern the per-port probabilities
allow, looking key bits up in ``KEY_CORRECTION`` directly.  It shares only
the port-probability tables with the program, so it checks the tensor's
weights, its indicators and its key-bit map.
"""

import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddiqkd.attacks import BASES
from ddiqkd.cli import load_session_config
from ddiqkd.detectors import IdealDetectors
from ddiqkd.protocol import (
    KEY_CORRECTION,
    SessionConfig,
    SessionStats,
    _honest_table,
    _pulse_tables,
    enumerate_exact,
    validate_attack,
)
from ddiqkd.receiver import OUTCOME_BY_DETECTOR, ReceiverConfig

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class Accumulator:
    """Probability-weighted tallies; each sum is rounded once, by ``math.fsum``,
    so the oracle adds no rounding error of its own beyond its terms."""

    def __init__(self) -> None:
        self.terms = {name: [] for name in ("gain", "double", "sifted", "errors", "eve_match")}
        self.hist = [[], [], [], []]

    def add(self, weight, ti, bj, ei, pattern) -> None:
        fired = [d for d in range(4) if pattern[d]]
        if len(fired) > 1:
            self.terms["double"].append(weight)
            return
        if not fired:
            return
        det = fired[0]
        self.terms["gain"].append(weight)
        self.hist[det].append(weight)
        if ti % 2 != bj % 2:
            return
        self.terms["sifted"].append(weight)
        outcome = OUTCOME_BY_DETECTOR[det]
        alice = (ti // 2) ^ KEY_CORRECTION[(BASES[ti % 2], outcome)]
        bob = bj // 2
        if alice != bob:
            self.terms["errors"].append(weight)
        if ei is not None and ((ei // 2) ^ KEY_CORRECTION[(BASES[bj % 2], outcome)]) == bob:
            self.terms["eve_match"].append(weight)

    def stats(self, attacked: bool) -> SessionStats:
        total = {name: math.fsum(terms) for name, terms in self.terms.items()}
        sifted = total["sifted"]
        return SessionStats(
            n_slots=None,
            gain=total["gain"],
            sifted_rate=sifted,
            qber=total["errors"] / sifted if sifted else 0.0,
            double_click_rate=total["double"],
            bell_histogram=tuple(math.fsum(terms) for terms in self.hist),
            eve_knowledge=(total["eve_match"] / sifted if sifted else 0.0) if attacked else None,
        )


def pattern_branches(probs):
    """Expand per-detector click probabilities into weighted click patterns."""
    fixed = [bool(p == 1.0) for p in probs]
    free = [d for d, p in enumerate(probs) if 0.0 < p < 1.0]
    if not free:
        yield 1.0, fixed
        return
    for bits in itertools.product((False, True), repeat=len(free)):
        w = 1.0
        pattern = list(fixed)
        for d, b in zip(free, bits):
            pattern[d] = b
            w *= probs[d] if b else 1.0 - probs[d]
        if w > 0.0:
            yield w, pattern


def brute_force_exact(cfg: SessionConfig) -> SessionStats:
    cfg = validate_attack(cfg)
    acc = Accumulator()
    active = cfg.receiver.active_detectors
    if cfg.attack is None:
        table = _honest_table(cfg)
        eta = cfg.channel_transmittance * cfg.detectors.efficiency
        d = cfg.detectors.dark_count_prob
        for ti in range(4):
            for bj in range(4):
                w_ab = 1.0 / 16.0
                landings = [(eta * table[ti, bj, k], k) for k in range(4)]
                landings.append((1.0 - eta, None))
                for p_land, det in landings:
                    if p_land == 0.0:
                        continue
                    base = [False] * 4
                    if det is not None and active[det]:
                        base[det] = True
                    if d == 0.0:
                        acc.add(w_ab * p_land, ti, bj, None, base)
                        continue
                    dark_p = [d if active[k] else 0.0 for k in range(4)]
                    for w_dark, darks in pattern_branches(dark_p):
                        pattern = [a or b for a, b in zip(base, darks)]
                        acc.add(w_ab * p_land * w_dark, ti, bj, None, pattern)
        return acc.stats(attacked=False)

    _, probs, _ = _pulse_tables(cfg)
    for ti in range(4):
        for basis_idx in range(2):
            if ti % 2 == basis_idx:
                branches = [(1.0, ti)]
            else:
                branches = [(0.5, basis_idx), (0.5, basis_idx + 2)]
            for w_m, ei in branches:
                for bj in range(4):
                    w = (1.0 / 4.0) * 0.5 * w_m * (1.0 / 4.0)
                    for w_p, pattern in pattern_branches(list(probs[ei, bj])):
                        acc.add(w * w_p, ti, bj, ei, pattern)
    return acc.stats(attacked=True)


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_configs_match_the_oracle_exactly(path):
    cfg = load_session_config(path)
    assert enumerate_exact(cfg) == brute_force_exact(cfg)


# subnormal probabilities carry too few significant bits for any ratio of
# them, such as the qber, to agree within a fixed tolerance
unit = st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False)
splitting = st.floats(min_value=0.01, max_value=0.99)
masks = st.tuples(*[st.booleans()] * 4).filter(any)


@settings(max_examples=150, deadline=None)
@given(
    t1=splitting,
    t2=splitting,
    phi_b=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    active=masks,
    efficiency=unit,
    dark=st.floats(min_value=0.0, max_value=0.5, allow_subnormal=False),
    transmittance=st.floats(min_value=1e-6, max_value=1.0),
)
def test_random_honest_receivers_match_the_oracle(
    t1, t2, phi_b, active, efficiency, dark, transmittance
):
    cfg = SessionConfig(
        n_slots=10,
        channel_transmittance=transmittance,
        receiver=ReceiverConfig(t1=t1, t2=t2, phi_b=phi_b, active_detectors=active),
        detectors=IdealDetectors(efficiency=efficiency, dark_count_prob=dark),
    )
    tensor, oracle = enumerate_exact(cfg), brute_force_exact(cfg)
    assert tensor.n_slots is oracle.n_slots is None
    assert tensor.eve_knowledge is oracle.eve_knowledge is None
    for name in ("gain", "sifted_rate", "qber", "double_click_rate"):
        assert abs(getattr(tensor, name) - getattr(oracle, name)) <= 1e-15, name
    assert np.max(np.abs(np.subtract(tensor.bell_histogram, oracle.bell_histogram))) <= 1e-15
