"""Spans around nomasim's public functions, recorded from outside the library.

`Tracer.installed` rebinds each traced function, in every loaded nomasim module
that holds it, to a wrapper that records a span: name, start, end and the
enclosing span. Spans stay in memory until `write_spans`. A span's self time
is its duration minus that of its direct children, so time spent in a child
layer is charged to the child.
"""

from __future__ import annotations

import functools
import gzip
import math
import os
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# Span names start with their layer. Functions missing from the library are
# skipped, so a removed function reads as zero calls.
FUNCTIONS = (
    ("channel.draw_cluster", "nomasim.channel", "draw_cluster"),
    ("channel.compute_detection_vector", "nomasim.channel", "compute_detection_vector"),
    ("rates.noma_user_rates", "nomasim.rates", "noma_user_rates"),
    ("rates.noma_user_rate", "nomasim.rates", "noma_user_rate"),
    ("rates.noma_sum_rate", "nomasim.rates", "noma_sum_rate"),
    ("rates.oma_user_rates", "nomasim.rates", "oma_user_rates"),
    ("rates.oma_sum_rate", "nomasim.rates", "oma_sum_rate"),
    ("rates.oma_optimal_dof", "nomasim.rates", "oma_optimal_dof"),
    ("rates.optimal_dof_fractions", "nomasim.rates", "optimal_dof_fractions"),
    ("rates.oma_sum_upper_bound", "nomasim.rates", "oma_sum_upper_bound"),
    ("rates.extend_split", "nomasim.rates", "extend_split"),
    ("rates.jain_index", "nomasim.rates", "jain_index"),
    ("rates.cluster_size_rate_delta", "nomasim.rates", "cluster_size_rate_delta"),
    ("rates.sic_feasibility_check", "nomasim.rates", "sic_feasibility_check"),
    ("rates.two_user_gap", "nomasim.rates", "two_user_gap"),
    ("rates.two_user_gap_maximizer", "nomasim.rates", "two_user_gap_maximizer"),
    ("admission.greedy_admit", "nomasim.admission", "greedy_admit"),
    ("admission.exhaustive_admit", "nomasim.admission", "exhaustive_admit"),
    ("admission.cumulative_power_closed_form", "nomasim.admission", "cumulative_power_closed_form"),
    ("experiments.make_sweep", "nomasim.experiments", "make_sweep"),
    ("experiments.run_sweep", "nomasim.experiments", "run_sweep"),
    ("experiments.write_csv", "nomasim.experiments", "write_csv"),
    ("experiments.write_metadata", "nomasim.experiments", "write_metadata"),
    ("verify.run_verification", "nomasim.verify", "run_verification"),
)

# AdmissionInstance construction: `from_db` converts targets, `__post_init__`
# validates. Both count as the instance span family.
INSTANCE_VALIDATE = "admission.instance.validate"
INSTANCE_FROM_DB = "admission.instance.from_db"

OPERATION = "bench.operation"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder plus the counters its hooks accumulate."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced nomasim function for the duration of the block."""
        undo = []
        try:
            for name, module, attr in FUNCTIONS:
                original = getattr(sys.modules.get(module), attr, None)
                if original is None:
                    continue
                wrapped = self.wrap(name, original, _HOOKS.get(name))
                _rebind(original, wrapped)
                undo.append(functools.partial(_rebind, wrapped, original))
            cls = getattr(sys.modules.get("nomasim.admission"), "AdmissionInstance", None)
            post_init = getattr(cls, "__dict__", {}).get("__post_init__")
            if post_init is not None:
                cls.__post_init__ = self.wrap(INSTANCE_VALIDATE, post_init)
                undo.append(functools.partial(setattr, cls, "__post_init__", post_init))
            from_db = getattr(cls, "__dict__", {}).get("from_db")
            if isinstance(from_db, classmethod):
                cls.from_db = classmethod(self.wrap(INSTANCE_FROM_DB, from_db.__func__))
                undo.append(functools.partial(setattr, cls, "from_db", from_db))
            yield
        finally:
            for step in reversed(undo):
                step()


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "nomasim" or name.startswith("nomasim.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _count_greedy(tracer, args, kwargs, result):
    tracer.count("admission.admitted", result.admitted_count)
    tracer.count("admission.requested", len(result.power_coefficients))


def _count_subsets(tracer, args, kwargs, result):
    # The enumeration walks subset sizes from n down and stops at the first
    # size with a feasible subset, the optimal count k: sum_{s=k..n} C(n, s).
    n, k = len(result.power_coefficients), result.admitted_count
    tracer.count("admission.subsets_visited", sum(math.comb(n, s) for s in range(k, n + 1)))


def _count_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    tracer.count("experiments.bytes_written", os.path.getsize(path))


def _count_checks(tracer, args, kwargs, result):
    tracer.count("verify.checks_passed", sum(1 for r in result if r.passed))
    tracer.count("verify.instances", sum(r.trials for r in result))


_HOOKS = {
    "admission.greedy_admit": _count_greedy,
    "admission.exhaustive_admit": _count_subsets,
    "experiments.write_csv": _count_bytes,
    "experiments.write_metadata": _count_bytes,
    "verify.run_verification": _count_checks,
}


def write_spans(tracer: Tracer, path) -> None:
    """Gzipped CSV, one line per span: id, parent id, name, start and end in ns."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("span,parent,name,start_ns,end_ns\n")
        for i in range(len(tracer.start)):
            fh.write(
                f"{i},{tracer.parent[i]},{tracer.names[tracer.name_id[i]]},{tracer.start[i]},{tracer.end[i]}\n"
            )


def self_times(tracer: Tracer) -> dict[str, tuple[int, float, int]]:
    """Per span name: calls, total self seconds, and calls from another layer."""
    n = len(tracer.start)
    if n == 0:
        return {}
    names = np.frombuffer(tracer.name_id, dtype=np.int64)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    duration = np.frombuffer(tracer.end, dtype=np.int64) - np.frombuffer(tracer.start, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=n)
    own = duration - child
    layers = [layer_of(x) for x in tracer.names]
    parent_layer = np.array([layers[names[p]] if p >= 0 else "" for p in parent])
    own_layer = np.array([layers[i] for i in names])
    entering = parent_layer != own_layer
    calls = np.bincount(names, minlength=len(tracer.names))
    selfs = np.bincount(names, weights=own, minlength=len(tracer.names))
    entries = np.bincount(names[entering], minlength=len(tracer.names))
    return {
        name: (int(calls[i]), float(selfs[i]) / 1e9, int(entries[i]))
        for i, name in enumerate(tracer.names)
    }
