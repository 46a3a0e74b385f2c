"""Spans around the public calls of each bracketflow layer, from outside the package.

``Tracer.install`` wraps the functions where the package uses them (modules
import names by value, so ``closure.bracket`` and ``cli.bracket`` are patched,
not ``trig_fields.bracket``) and ``uninstall`` puts the originals back.
Spans are kept in memory as ``[name, start, end, parent]`` and turned into the
per-layer metrics by ``layer_metrics``.
"""
from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import Counter

FLOW_SPANS = ("flows.flow_states", "steering.greedy_flow", "steering.apply_flow")

# (metric, unit) in the order they are reported; every one is in BENCHMARK.json
LAYER_METRICS = (
    ("trig_fields.bracket_calls", "count"), ("trig_fields.bracket_s", "s"),
    ("closure.closure_calls", "count"), ("closure.closure_s", "s"),
    ("closure.eliminate_s", "s"), ("closure.solve_calls", "count"),
    ("closure.solve_s", "s"),
    ("flows.flow_states_calls", "count"), ("flows.flow_states_s", "s"),
    ("flows.replay_s", "s"), ("flows.residual_s", "s"),
    ("steering.steer_s", "s"), ("steering.log_s", "s"),
    ("steering.greedy_flow_calls", "count"), ("steering.greedy_flow_s", "s"),
    ("steering.apply_flow_s", "s"), ("steering.self_s", "s"),
    ("steering.word_steps", "count"),
    ("convex.body_calls", "count"), ("convex.lp_calls", "count"), ("convex.lp_s", "s"),
    ("convex.vertices_s", "s"), ("convex.separate_s", "s"),
    ("convex.separate_peak_mb", "MB"), ("convex.cone_s", "s"), ("convex.mackey_s", "s"),
    ("convex.minkowski_calls", "count"),
    ("cli.self_s", "s"), ("cli.artifact_bytes", "bytes"),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.separate_peak = 0
        self._stack: list = []
        self._saved: list = []

    # -- recording

    def begin(self, name: str) -> int:
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name_of):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return wrapper

    def _counted(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _steer(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts["steering.word_steps"] += len(result.word)
            return result
        return wrapper

    def _peak_memory(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.separate_peak = max(self.separate_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return wrapper

    # -- patching

    def _patch(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper(getattr(owner, attr)))

    def install(self):
        # bracketflow/__init__.py rebinds the attribute ``closure`` to the
        # function, so the modules are taken from sys.modules
        closure, flows, steering, convex, cli = (
            sys.modules[f"bracketflow.{name}"]
            for name in ("closure", "flows", "steering", "convex", "cli"))

        def named(name):
            return lambda fn: self._spanned(fn, lambda a, k: name)

        def flow_kind(args, kwargs):
            return "steering.greedy_flow" if kwargs.get("checkpoints") else "steering.apply_flow"

        for owner in (closure, cli):
            self._patch(owner, "bracket", named("trig_fields.bracket"))
        for owner in (steering, cli):
            self._patch(owner, "closure", named("closure.closure"))
        self._patch(steering, "solve_combination", named("closure.solve_combination"))
        self._patch(flows, "flow_states", named("flows.flow_states"))
        self._patch(steering, "flow_states", lambda fn: self._spanned(fn, flow_kind))
        for owner in (steering, cli):
            self._patch(owner, "apply_word", named("flows.apply_word"))
        self._patch(cli, "commutator_flow_residual", named("flows.residual"))
        self._patch(steering, "flow_logarithm", named("steering.flow_logarithm"))
        self._patch(cli, "steer", lambda fn: named("steering.steer")(self._steer(fn)))
        self._patch(convex.ConvexBody, "__post_init__", named("convex.body"))
        self._patch(convex.ConvexBody, "vertices", named("convex.vertices"))
        self._patch(convex, "linprog", named("convex.linprog"))
        for owner in (convex, cli):
            self._patch(owner, "separate",
                        lambda fn: named("convex.separate")(self._peak_memory(fn)))
            self._patch(owner, "minkowski",
                        lambda fn: self._counted(fn, "convex.minkowski_calls"))
        self._patch(cli, "cone_extremal_point", named("convex.cone"))
        self._patch(cli, "mackey_cauchy_diagnostic", named("convex.mackey"))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, artifact_bytes: int) -> dict:
    """Per-layer totals over every span the tracer holds."""
    spans = tracer.spans
    total, calls, self_time = Counter(), Counter(), Counter()
    child_time = Counter()
    for name, start, end, parent in spans:
        total[name] += end - start
        calls[name] += 1
        if parent is not None:
            child_time[parent] += end - start
    for i, (name, start, end, _) in enumerate(spans):
        self_time[name] += end - start - child_time[i]
    return {
        "trig_fields.bracket_calls": calls["trig_fields.bracket"],
        "trig_fields.bracket_s": total["trig_fields.bracket"],
        "closure.closure_calls": calls["closure.closure"],
        "closure.closure_s": total["closure.closure"],
        "closure.eliminate_s": self_time["closure.closure"],
        "closure.solve_calls": calls["closure.solve_combination"],
        "closure.solve_s": total["closure.solve_combination"],
        "flows.flow_states_calls": sum(calls[n] for n in FLOW_SPANS),
        "flows.flow_states_s": sum(total[n] for n in FLOW_SPANS),
        "flows.replay_s": total["flows.apply_word"],
        "flows.residual_s": total["flows.residual"],
        "steering.steer_s": total["steering.steer"],
        "steering.log_s": total["steering.flow_logarithm"],
        "steering.greedy_flow_calls": calls["steering.greedy_flow"],
        "steering.greedy_flow_s": total["steering.greedy_flow"],
        "steering.apply_flow_s": total["steering.apply_flow"],
        "steering.self_s": self_time["steering.steer"],
        "steering.word_steps": tracer.counts["steering.word_steps"],
        "convex.body_calls": calls["convex.body"],
        "convex.lp_calls": calls["convex.linprog"],
        "convex.lp_s": total["convex.linprog"],
        "convex.vertices_s": total["convex.vertices"],
        "convex.separate_s": total["convex.separate"],
        "convex.separate_peak_mb": tracer.separate_peak / 2 ** 20,
        "convex.cone_s": total["convex.cone"],
        "convex.mackey_s": total["convex.mackey"],
        "convex.minkowski_calls": tracer.counts["convex.minkowski_calls"],
        "cli.self_s": self_time["cli.op"],
        "cli.artifact_bytes": artifact_bytes,
    }
