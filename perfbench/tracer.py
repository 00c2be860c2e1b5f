"""Per-layer tracing installed from outside the library.

``Tracer.install`` replaces the public functions of each ``baseswap`` module
with timing wrappers, in every module namespace that bound the same
function object (``baseswap.pipeline.find_triad`` is a separate binding from
``baseswap.reductions.find_triad``).  ``Matroid.rank`` and three
``Multigraph`` methods get aggregate counters instead of spans, because a
remark solve makes about a million rank calls.

A wrapped call's self time is its duration minus the time of the wrapped
calls nested in it; rank calls count as nested calls too.  Spans are kept in
memory as (id, name, start, end, parent id) and written out by the caller.
While ``active`` is False every wrapper calls straight through.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
import types
from collections import defaultdict

MODULES = (
    "matroid", "exchange", "union", "reductions", "graphic", "structure",
    "sums", "special", "pipeline", "io",
)
RANK_BACKENDS = (
    "GraphicMatroid", "Gf2Matroid", "SumMatroid", "MinorMatroid", "DualMatroid",
    "FanoMatroid",
)
MULTIGRAPH_METHODS = ("contract_edges", "restrict", "delete_edges")
TRACE_KINDS = (
    "identity", "delete_uncovered", "contract_common", "rank_le2", "graphic",
    "cographic", "tight_split", "triad", "two_sum", "three_sum", "bfs",
)
FINDERS = ("find_nontrivial_tight_set", "find_triad", "find_triangle")
# called once per exchange step; counted without a span each
NO_SPAN = {"exchange.is_valid_exchange", "exchange.apply_step"}


class Tracer:
    def __init__(self, max_spans: int = 200_000):
        self.active = False
        self.max_spans = max_spans
        self.stack = []  # frames: [nested seconds, span id]
        self.spans = []
        self.dropped_spans = 0
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._next_id = 0
        self._restore = []

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name, fn, span=True, on_args=None, on_result=None):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_args is not None:
                args, kwargs = on_args(args, kwargs)
            stack = tracer.stack
            parent = stack[-1][1] if stack else -1
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += (t1 - t0) - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0
                if span:
                    if len(tracer.spans) < tracer.max_spans:
                        tracer.spans.append((span_id, name, t0, t1, parent))
                    else:
                        tracer.dropped_spans += 1
            if on_result is not None:
                result = on_result(result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    def _wrap_rank(self, original):
        tracer = self
        perf = time.perf_counter
        names = {}

        def rank(m, subset):
            if not tracer.active:
                return original(m, subset)
            cls = type(m).__name__
            name = names.get(cls)
            if name is None:
                name = names[cls] = "matroid.rank." + cls
            s = subset if isinstance(subset, frozenset) else frozenset(subset)
            if s not in m._rank_cache:
                tracer.counts["matroid.rank.misses." + cls] += 1
            stack = tracer.stack
            frame = [0.0, stack[-1][1] if stack else -1]
            stack.append(frame)
            t0 = perf()
            try:
                return original(m, s)
            finally:
                t1 = perf()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += (t1 - t0) - frame[0]
                if stack:
                    stack[-1][0] += t1 - t0

        rank.__traced__ = original
        return rank

    # -- installation -------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from baseswap.matroid import Matroid, Multigraph

        loaded = [mod for key, mod in sys.modules.items() if key == "baseswap" or key.startswith("baseswap.")]
        for short in MODULES:
            mod = sys.modules[f"baseswap.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not isinstance(fn, types.FunctionType):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self.wrap(name, fn, span=name not in NO_SPAN, **self._hooks(name))
                for other in loaded:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            self._set(other, other_attr, wrapped)
        self._set(Matroid, "rank", self._wrap_rank(Matroid.rank))
        for meth in MULTIGRAPH_METHODS:
            original = getattr(Multigraph, meth)
            self._set(Multigraph, meth, self.wrap(f"matroid.Multigraph.{meth}", original, span=False))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _hooks(self, name: str) -> dict:
        counts = self.counts
        short = name.split(".", 1)[1]
        if short in FINDERS:
            def found(result, _key=f"{name}.found"):
                if result is not None:
                    counts[_key] += 1
                return result
            return {"on_result": found}
        if name == "reductions.reduce_triad":
            def lift(red):
                red.lift = self.wrap("reductions.reduce_triad.lift", red.lift)
                return red
            return {"on_result": lift}
        if name == "exchange.bfs_oracle":
            def unreachable(result):
                if isinstance(result, str):
                    counts["exchange.bfs_oracle.unreachable"] += 1
                return result
            return {"on_result": unreachable}
        if name == "exchange.apply_and_validate":
            def steps(args, kwargs):
                seq = args[1] if len(args) > 1 else kwargs["seq"]
                counts["exchange.apply_and_validate.steps"] += len(seq)
                return args, kwargs
            return {"on_args": steps}
        if name in ("sums.three_sum_white", "sums.three_sum_gabow"):
            # the recursion back into the engine becomes a child span, so the
            # 3-sum's self time excludes it
            def recurse(args, kwargs):
                args = list(args)
                if "recurse" in kwargs:
                    kwargs["recurse"] = self.wrap("pipeline.engine", kwargs["recurse"])
                else:
                    args[-1] = self.wrap("pipeline.engine", args[-1])
                return tuple(args), kwargs
            return {"on_args": recurse}
        return {}

    # -- readings ------------------------------------------------------------

    def snapshot(self) -> dict:
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update({f"{k}.self_s": v for k, v in self.self_s.items()})
        out.update(self.counts)
        return out


def live_rank_cache_entries() -> int:
    """Rank-cache entries held by live matroids, found by a gc scan."""
    from baseswap.matroid import Matroid

    gc.collect()
    return sum(
        len(obj._rank_cache)
        for obj in gc.get_objects()
        if isinstance(obj, Matroid) and isinstance(getattr(obj, "_rank_cache", None), dict)
    )


def per_layer_names() -> list:
    """Every per-layer metric name, in BENCHMARK.json order."""
    names = []
    for b in RANK_BACKENDS:
        names += [f"matroid.rank.calls.{b}", f"matroid.rank.misses.{b}", f"matroid.rank.self_s.{b}"]
    names += ["matroid.rank.hit_ratio", "matroid.rank.calls", "matroid.rank_cache.entries"]
    for meth in MULTIGRAPH_METHODS:
        names += [f"matroid.Multigraph.{meth}.calls", f"matroid.Multigraph.{meth}.self_s"]
    names += [
        "exchange.apply_and_validate.calls", "exchange.apply_and_validate.steps",
        "exchange.apply_and_validate.self_s", "exchange.bfs_oracle.calls",
        "exchange.bfs_oracle.self_s", "exchange.bfs_oracle.unreachable",
        "exchange.is_valid_exchange.calls",
        "union.matroid_union_partition.calls", "union.matroid_union_partition.self_s",
    ]
    for fn in FINDERS:
        names += [f"reductions.{fn}.calls", f"reductions.{fn}.found", f"reductions.{fn}.self_s"]
    names += [
        "reductions.reduce_triad.calls", "reductions.reduce_triad.self_s",
        "reductions.reduce_triad.lift.self_s",
    ]
    for fn in ("split_on_tight_set", "delete_uncovered", "contract_common", "solve_rank_le2"):
        names += [f"reductions.{fn}.calls", f"reductions.{fn}.self_s"]
    for fn in ("solve_graphic_white", "solve_graphic_gabow"):
        names += [f"graphic.{fn}.calls", f"graphic.{fn}.self_s"]
    for fn in ("structure_minor", "gf2_view", "compose_structures", "find_triad_fast", "find_triangle_fast"):
        names += [f"structure.{fn}.calls", f"structure.{fn}.self_s"]
    for fn in ("merge_two_sum", "split_two_sum_pair", "three_sum_white", "three_sum_gabow"):
        names += [f"sums.{fn}.calls", f"sums.{fn}.self_s"]
    names += ["pipeline.solve_white.self_s", "pipeline.solve_gabow.self_s"]
    names += [f"pipeline.trace.{kind}" for kind in TRACE_KINDS]
    names += ["io.parse_instance.self_s", "io.parse_tree.self_s"]
    names += [
        "trace.ops_per_s.traced", "trace.ops_per_s.untraced", "trace.overhead_ratio",
        "trace.top_self_share",
    ]
    return names


def per_layer_values(snap: dict, extra: dict) -> dict:
    """Per-layer readings of one traced pass from a tracer snapshot."""
    def get(key):
        return snap.get(key, 0)

    out = {}
    total_calls = 0
    total_misses = 0
    for key, value in snap.items():
        if key.startswith("matroid.rank.") and key.endswith(".calls"):
            total_calls += value
        if key.startswith("matroid.rank.misses."):
            total_misses += value
    for b in RANK_BACKENDS:
        out[f"matroid.rank.calls.{b}"] = get(f"matroid.rank.{b}.calls")
        out[f"matroid.rank.misses.{b}"] = get(f"matroid.rank.misses.{b}")
        out[f"matroid.rank.self_s.{b}"] = get(f"matroid.rank.{b}.self_s")
    out["matroid.rank.hit_ratio"] = (total_calls - total_misses) / total_calls if total_calls else 0.0
    out["matroid.rank.calls"] = total_calls
    for name in per_layer_names():
        if name in out or name in extra:
            continue
        out[name] = get(name)
    out.update(extra)
    return out
