"""Tracing from outside the program: wrappers installed around public functions.

Three kinds of wrapper:

* ``span``: a timed call recorded as a span (id, name, start, end, parent,
  op id) and kept in memory until the run writes them out;
* ``hot``: a timed call that is aggregated but not recorded, for functions
  called thousands of times per op, where one record per call would cost
  more memory than the work it measures;
* ``count``: a call counter with no clock reads, for leaves so cheap that
  two clock reads would distort them.

Self time is the duration of a timed call minus the time its timed children
cover.  Aggregates are keyed by (function, op key, calling function) so that
ratios such as click evaluations per operating-point search are measured
where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter_ns

#: (module, function, wrapper kind) for every traced function.
TRACED = (
    ("cli", "main", "span"),
    ("cli", "cmd_session", "span"),
    ("cli", "cmd_verify", "span"),
    ("cli", "cmd_breakeven", "span"),
    ("cli", "cmd_opsearch", "span"),
    ("cli", "load_session_config", "span"),
    ("protocol", "run_session", "span"),
    ("protocol", "validate_attack", "span"),
    ("protocol", "enumerate_exact", "span"),
    ("protocol", "breakeven_transmittance", "span"),
    ("attacks", "select_operating_point", "span"),
    ("attacks", "plan_asymmetric_threshold", "span"),
    ("attacks", "plan_time_shift", "span"),
    ("detectors", "default_curves", "span"),
    ("detectors", "blinded_click_probability", "hot"),
    ("receiver", "general_port_amplitudes", "hot"),
    ("receiver", "propagated_port_amplitudes", "hot"),
    ("optics", "propagate", "hot"),
    ("attacks", "forge_pulse", "count"),
    ("detectors", "temporal_click_probability", "count"),
    ("receiver", "balanced_port_amplitudes", "count"),
    ("optics", "single_photon_probabilities", "count"),
)


class Tracer:
    """Spans and per-call aggregates of one traced run, held in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int | None, int]] = []
        #: (name, op key, calling span name) -> [calls, self ns, inclusive ns]
        self.stats: dict[tuple[str, str, str | None], list[int]] = {}
        self.op_id = 0
        self.op_key = ""
        self._stack: list[list] = []  # [span id, name, child ns] per open call
        self._next_id = 0

    def _bump(self, name: str, caller: str | None, self_ns: int, incl_ns: int) -> None:
        key = (name, self.op_key, caller)
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0, 0]
        entry[0] += 1
        entry[1] += self_ns
        entry[2] += incl_ns

    def timed(self, name: str, fn, record: bool):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[2] += dur
                self._bump(name, parent[1] if parent else None, dur - frame[2], dur)
                if record:
                    self.spans.append(
                        (span_id, name, start, end, parent[0] if parent else None, self.op_id)
                    )

        return wrapper

    def counter(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._bump(name, stack[-1][1] if stack else None, 0, 0)
            return fn(*args, **kwargs)

        return wrapper

    def take(self) -> dict[tuple[str, str, str | None], list[int]]:
        """The aggregates gathered since the last call, then reset."""
        stats, self.stats = self.stats, {}
        return stats

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span_id,name,start_ns,end_ns,parent_id,op_id\n")
            for span_id, name, start, end, parent, op_id in self.spans:
                fh.write(f"{span_id},{name},{start},{end},{'' if parent is None else parent},{op_id}\n")


@contextmanager
def patched(replacements: dict[object, object]):
    """Rebind every ``ddiqkd`` module attribute that holds a key of
    ``replacements`` (functions imported by name are bound in several
    modules), and restore them all on exit."""
    by_id = {id(fn): wrapper for fn, wrapper in replacements.items()}
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "ddiqkd" and not mod_name.startswith("ddiqkd."):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in by_id:
                undo.append((module, attr, value))
                setattr(module, attr, by_id[id(value)])
    try:
        yield
    finally:
        for module, attr, value in reversed(undo):
            setattr(module, attr, value)


def _original(module: str, name: str):
    return getattr(importlib.import_module(f"ddiqkd.{module}"), name)


@contextmanager
def tracing(tracer: Tracer):
    """Install ``tracer``'s wrappers around every function in ``TRACED``."""
    replacements = {}
    for module, name, kind in TRACED:
        fn = _original(module, name)
        label = f"{module}.{name}"
        if kind == "count":
            replacements[fn] = tracer.counter(label, fn)
        else:
            replacements[fn] = tracer.timed(label, fn, record=kind == "span")
    with patched(replacements):
        yield


class MemoryProbe:
    """Largest tracemalloc peak seen inside any ``protocol.run_session`` call."""

    def __init__(self) -> None:
        self.peak_bytes = 0

    @contextmanager
    def installed(self):
        fn = _original("protocol", "run_session")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        with patched({fn: wrapper}):
            yield
