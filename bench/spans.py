"""Span tracing of tfqkd's public functions, installed from outside ``src/``.

Each wrapped call records one span (name, start, end, parent span) and,
where a layer has a natural unit of work, a count of it.  Spans are kept in
memory and summarised when the worker finishes.  Wrappers only time and
count: they pass arguments and results through unchanged, so the CLI's
output bytes are the same with tracing on or off.

A wrapper replaces the original in every ``tfqkd`` namespace that holds it
(``from .x import f`` copies the name), so calls made through
``optimizer.capacity`` or ``cli.run_mc`` are seen as well.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _size_of(position: int, keyword: str):
    def count(args, kwargs):
        value = kwargs[keyword] if keyword in kwargs else args[position]
        return int(np.size(value))
    return count


def _photons(args, kwargs):
    config = kwargs["config"] if "config" in kwargs else args[0]
    return int(config.photons)


# span name -> (module, attribute; "Class.method" for methods, work counter)
# Methods take ``self`` first, so their argument positions start at 1.
TARGETS = {
    "pulse_math.build_spectrum": ("tfqkd.pulse_math", "build_spectrum", None),
    "pulse_math.truncated_pulse_fourier": ("tfqkd.pulse_math", "truncated_pulse_fourier", _size_of(2, "w")),
    "pulse_math.cumulative": ("tfqkd.pulse_math", "TruncatedSpectrum.cumulative", _size_of(1, "w")),
    "pulse_math.cached_spectrum": ("tfqkd.pulse_math", "cached_spectrum", None),
    "pulse_math.bin_mass": ("tfqkd.pulse_math", "TruncatedSpectrum.bin_mass", None),
    "channel.p_second_correct": ("tfqkd.channel", "p_second_correct", None),
    "channel.p_correct": ("tfqkd.channel", "p_correct", None),
    "channel.p_wrong": ("tfqkd.channel", "p_wrong", None),
    "channel.mixed_bob_matrix": ("tfqkd.channel", "mixed_bob_matrix", None),
    "channel.eve_matrix": ("tfqkd.channel", "eve_matrix", None),
    "infotheory.capacity": ("tfqkd.infotheory", "capacity", None),
    "infotheory.mutual_info_single": ("tfqkd.infotheory", "mutual_info_single", _size_of(0, "matrix")),
    "optimizer.optimize_point": ("tfqkd.optimizer", "optimize_point", None),
    "optimizer.c_surface": ("tfqkd.optimizer", "c_surface", None),
    "optimizer.u_functional": ("tfqkd.optimizer", "u_functional", None),
    "optimizer.minimize_beta": ("tfqkd.optimizer", "minimize_beta", None),
    "oracle.run_mc": ("tfqkd.oracle", "run_mc", _photons),
    "oracle.compare_empirical": ("tfqkd.oracle", "compare_empirical", None),
    "oracle.dft_spectrum_oracle": ("tfqkd.oracle", "dft_spectrum_oracle", None),
    "oracle.dft_density": ("tfqkd.oracle", "DftSpectrum.density", _size_of(1, "w")),
    "cli.main": ("tfqkd.cli", "main", None),
}


class Tracer:
    """In-memory span recorder for one single-threaded worker."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, work units)
        self._stack = []

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            units = work(args, kwargs) if work is not None else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, units)

        return traced

    def install(self):
        """Replace every target in each ``tfqkd`` namespace that holds it."""
        modules = [mod for key, mod in sys.modules.items() if key == "tfqkd" or key.startswith("tfqkd.")]
        for name, (module_name, attr, work) in TARGETS.items():
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, self.wrap(name, cls.__dict__[method], work))
                continue
            original = getattr(module, attr)
            traced = self.wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def summary(self) -> dict:
        """Per-layer calls, work units, self time and total time.

        Self time is a span's duration minus the time its direct child
        spans cover.  Total time counts only spans with no ancestor of the
        same name, so a re-entrant layer is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {name: {"calls": 0, "units": 0, "self_s": 0.0, "total_s": 0.0} for name in TARGETS}
        for i, (name, start, end, parent, units) in enumerate(spans):
            row = stats[name]
            row["calls"] += 1
            row["units"] += units
            row["self_s"] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                row["total_s"] += end - start
        return stats
