"""In-memory span recorder for the traced benchmark run.

Tracing works from outside the library: `install` rebinds the names that
the calling modules look up (module globals such as `oft.microworld.posterior`,
and methods such as `World.demand`) to wrappers that record one span per
call. Nothing under `src/` changes, and the wrappers return exactly what the
wrapped function returns, so traced and untraced runs produce the same
outputs.

A span is `[name, start, end, parent, op]`: `parent` is the index of the
enclosing span (or None) and `op` the id of the benchmark operation it ran
under. Spans stay in memory until the run ends. A span's self time is its
duration minus the durations of its direct children; spans nest because the
benchmark is one thread.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter

from workload import tree_nodes


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(float)  # (op, counter name) -> total
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def wrap(self, name, fn, count=None, rename=None):
        """Wrapper that records a span named `name` around each call.

        `count(result, args)` returns {counter: increment} for the counters
        kept beside the span; `rename(exc)` picks the span name when the call
        raises (it may return None to keep `name`).
        """
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = [name, perf_counter(), None, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                if rename is not None:
                    span[0] = rename(exc) or name
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if count is not None:
                for key, inc in count(result, args).items():
                    counts[(self.op, key)] += inc
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, **kw):
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------

    def layer_totals(self, scales):
        """Per span name: total self seconds, calls, and the ops that made it.

        Self times are multiplied by the host-speed scale of their op.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        ops = defaultdict(set)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            self_s[name] += ((end - start) - child[i]) * scales.get(op, 1.0)
            calls[name] += 1
            ops[name].add(op)
        return self_s, calls, ops

    def counter(self, key):
        """Total of one counter and the number of ops that touched it."""
        total, ops = 0.0, set()
        for (op, name), value in self.counts.items():
            if name == key:
                total += value
                ops.add(op)
        return total, ops


def _file_bytes(_result, args):
    return {"jsonl.bytes": os.path.getsize(args[1])}


def _dropped(result, args):
    return {"physio.pupil_read": len(args[0]), "physio.pupil_dropped": len(args[0]) - len(result)}


def _forest_nodes(result, _args):
    return {"effortclass.rf_train.nodes": sum(map(tree_nodes, result.trees))}


def install(rec: Recorder) -> None:
    """Rebind every traced entry point of the library to a span wrapper."""
    from oft import (
        adapt, dfaplan, effortclass, fusion, microworld, physio, pipeline, regulation,
    )
    from oft.errors import InfeasibleError

    def read_ticks(path):
        # the reader is a generator; the span covers its consumption
        return iter(list(original_read_ticks(path)))

    original_read_ticks = regulation.read_ticks_jsonl
    rec._undo.append((regulation, "read_ticks_jsonl", original_read_ticks))
    regulation.read_ticks_jsonl = rec.wrap("regulation.read_ticks", read_ticks)

    p = rec.patch
    # closed loop: the per-tick layers, looked up from microworld
    p(microworld.World, "tick", "microworld.tick")
    p(microworld.World, "demand", "microworld.demand")
    p(microworld.World, "windowed_performance", "microworld.windowed_performance")
    p(microworld, "generate_beats", "microworld.generate_physio")
    p(microworld, "generate_pupil", "microworld.generate_physio")
    p(microworld, "run_scenario", "microworld.run_scenario")
    for owner in (microworld, pipeline):
        p(owner, "task_difficulty", "taskload.task_difficulty")
        p(owner, "fuzzify", "fusion.fuzzify")
    p(microworld, "spatial_entropy", "taskload.spatial_entropy")
    p(microworld, "performance_index", "taskload.performance_index")
    for owner in (microworld, fusion):
        p(owner, "posterior", "fusion.posterior")
        p(owner, "mwl_level", "fusion.mwl_level")
    p(adapt.AdaptationEngine, "step", "adapt.step",
      count=lambda result, _args: {"adapt.commands": len(result)})
    p(regulation.ActivityTracker, "ingest", "regulation.ingest",
      count=lambda result, _args: {"regulation.events": result[1] is not None})
    for owner in (pipeline, fusion, regulation):
        p(owner, "dump_jsonl", "jsonl.dump", count=_file_bytes)
    p(pipeline, "spearman", "pipeline.spearman")
    # offline monitor
    p(physio, "read_beats_csv", "physio.read")
    p(physio, "read_pupil_csv", "physio.read")
    p(pipeline, "read_demand_csv", "pipeline.read_demand")
    p(physio, "per_second_frames", "physio.per_second_frames")
    p(physio, "sdnn", "physio.sdnn")
    p(physio, "cleanse_pupil", "physio.cleanse_pupil", count=_dropped)
    p(pipeline, "monitor_offline", "pipeline.monitor_offline")
    p(pipeline, "fuse", "fusion.fuse")
    p(pipeline, "write_monitor_outputs", "pipeline.write_outputs")
    p(pipeline, "write_manifest", "pipeline.write_outputs")
    # decision layers
    p(dfaplan.AllocationModel, "solve", "dfaplan.solve.feasible",
      rename=lambda exc: "dfaplan.solve.infeasible" if isinstance(exc, InfeasibleError) else None)
    p(effortclass, "rf_train", "effortclass.rf_train", count=_forest_nodes)
    p(effortclass.ForestModel, "predict", "effortclass.forest_predict")
    p(effortclass, "knn_predict", "effortclass.knn_predict")
    p(effortclass, "cross_validate", "effortclass.cross_validate")
