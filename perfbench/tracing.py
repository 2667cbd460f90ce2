"""Spans around the calls into each tritcirc module, recorded from outside.

``Tracer.install()`` replaces each public function named in TARGETS by a
wrapper in every ``tritcirc`` module namespace that binds it (a function
imported with ``from .gates import dump_json`` is bound in ``cli`` as well as
in ``gates``), plus two methods on their classes.  A span is (item, name,
start, end, parent); spans stay in memory until ``write``.  A layer's self
time is its span time minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter


def _count_terms(tracer, args, result):
    tracer.counts["weyl.expand_terms"] += len(result.terms)


def _count_merge(tracer, args, result):
    tracer.counts["decompose.merge_gates_in"] += len(args[0])
    tracer.counts["decompose.merge_gates_out"] += len(result)


def _count_built(tracer, args, result):
    tracer.counts["qaoa.gates_built"] += len(result)


def _record_problem(tracer, args, result):
    tracer.problems.add(args[0])


def _unitary_bytes(tracer, args, result):
    tracer.counts["sim.unitary_bytes"] += len(args[0]) * 9 ** args[0].num_qutrits * 16


def _apply_bytes(tracer, args, result):
    tracer.counts["sim.apply_bytes"] += len(args[1]) * 3 ** args[1].num_qutrits * 16


def _row_ops(tracer, args, result):
    tracer.counts["routing.row_ops"] += len(result.row_ops)


# (module, function, span name, hook run on the result)
TARGETS = [
    ("tritcirc.cli", "main", "cli", None),
    ("tritcirc.gates", "circuit_to_dict", "gates.write", None),
    ("tritcirc.gates", "dump_json", "gates.write", None),
    ("tritcirc.gates", "load_json", "gates.read", None),
    ("tritcirc.gates", "circuit_from_dict", "gates.read", None),
    ("tritcirc.gates", "inverse_circuit", "gates.inverse", None),
    ("tritcirc.weyl", "expand_closed_form", "weyl.expand", _count_terms),
    ("tritcirc.decompose", "decompose_gellmann", "decompose.gellmann", None),
    ("tritcirc.decompose", "decompose_weyl", "decompose.weyl", None),
    ("tritcirc.decompose", "merge_cx_ladders", "decompose.merge", _count_merge),
    ("tritcirc.decompose", "count_gates", "decompose.count", None),
    ("tritcirc.qaoa", "build_qaoa_circuit", "qaoa.build", _count_built),
    ("tritcirc.qaoa", "basis_cost_values", "qaoa.cost_values", _record_problem),
    ("tritcirc.qaoa", "cost_expectation", "qaoa.expectation", None),
    ("tritcirc.sim", "circuit_unitary", "sim.unitary", _unitary_bytes),
    ("tritcirc.sim", "apply_circuit", "sim.apply", _apply_bytes),
    ("tritcirc.sim", "phase_distance", "sim.distance", None),
    ("tritcirc.routing", "parity_map_from_dict", "routing.parse", None),
    ("tritcirc.routing", "topology_from_dict", "routing.parse", None),
    ("tritcirc.routing", "gf3_is_invertible", "routing.invertible", None),
    ("tritcirc.routing", "steiner_gauss_synthesize", "routing.synth", _row_ops),
    ("tritcirc.routing", "steiner_tree", "routing.steiner_tree", None),
    ("tritcirc.routing", "decreasing_steiner_tree", "routing.decreasing_tree", None),
    ("tritcirc.routing", "apply_circuit_to_trits", "routing.replay", None),
]
# (module, class, method, span name); a span name of None only counts calls.
METHODS = [
    ("tritcirc.routing", "TernaryParityMap", "apply", "routing.apply"),
    ("tritcirc.routing", "Topology", "neighbors", None),
]
CALL_COUNTS = {"qaoa.cost_values", "sim.unitary", "routing.invertible",
               "routing.steiner_tree", "routing.decreasing_tree", "routing.replay"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.problems: set = set()
        self.item = -1
        self._patches: list = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (self.item, name, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _count_calls(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tritcirc" or n.startswith("tritcirc."))]
        for module_name, attr, name, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, name, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            wrapper = (self._wrap(original, name, None) if name
                       else self._count_calls(original, f"routing.{attr}_calls"))
            self._patches.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def self_times(self) -> dict[str, float]:
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: Counter = Counter()
        for (_, name, start, end, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for _, name, _, _, _ in self.spans)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer figures per round of the mix: self times, counts, ratios."""
    self_times = tracer.self_times()
    calls = tracer.calls()
    out = {}
    for name in sorted({t[2] for t in TARGETS} | {m[3] for m in METHODS if m[3]}):
        metric = "cli.self_s" if name == "cli" else f"{name}_s"
        out[metric] = self_times.get(name, 0.0) / rounds
    for name in sorted(CALL_COUNTS):
        out[f"{name}_calls"] = calls[name] / rounds
    for key in ("weyl.expand_terms", "decompose.merge_gates_in",
                "decompose.merge_gates_out", "qaoa.gates_built", "sim.unitary_bytes",
                "sim.apply_bytes", "routing.row_ops", "routing.neighbors_calls"):
        out[key] = tracer.counts[key] / rounds
    merged_in = tracer.counts["decompose.merge_gates_in"]
    out["decompose.merge_kept_ratio"] = (
        tracer.counts["decompose.merge_gates_out"] / merged_in if merged_in else 0.0)
    problems = len(tracer.problems)
    out["qaoa.cost_values_per_problem"] = (
        calls["qaoa.cost_values"] / rounds / problems if problems else 0.0)
    return out
