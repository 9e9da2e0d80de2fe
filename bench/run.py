#!/usr/bin/env python3
"""Benchmark of the oft library: one workload per process, closed loop.

    python3 bench/run.py --workload closed_loop --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it imports `oft` from `src/`.
The workload's inputs come from `--seed` alone. One thread calls the
library, and each operation starts when the previous one returns. The
workload's fixed operation list (a "pass") is repeated until `--seconds`
have passed; the first pass always completes, and every later pass must
reproduce the first pass's outputs exactly.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
traced run, whose passes alternate untraced and traced, starting untraced
(see spans.py). Earlier lines are a readable report that also names the
workload-specific figures and input properties.
Exit code 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workload import p90

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("closed_loop", "monitor_replay", "decision")
SETUP_REPEATS = 5
# Set-up runs in a fresh interpreter, which calibrates itself: it may run on
# another core than this process, at another speed.
SETUP_CODE = (
    "import sys, time\n"
    f"sys.path.insert(0, {str(BENCH)!r})\n"
    "from run import calibrate\n"
    "before = calibrate()\n"
    "t0 = time.perf_counter()\n"
    "import oft\n"
    "oft.MwlNetwork.default()\n"
    "oft.default_bike_model()\n"
    "elapsed = time.perf_counter() - t0\n"
    "print(elapsed, before, calibrate())\n"
)
OFT_MODULES = (
    "oft", "oft.errors", "oft.jsonl", "oft.physio", "oft.regulation", "oft.taskload",
    "oft.fusion", "oft.effortclass", "oft.cocom", "oft.dfaplan", "oft.adapt",
    "oft.microworld", "oft.pipeline",
)
SELF_TIMED = (
    "microworld.run_scenario", "microworld.tick", "microworld.demand",
    "microworld.windowed_performance", "microworld.generate_physio",
    "taskload.spatial_entropy", "taskload.performance_index", "taskload.task_difficulty",
    "fusion.fuzzify", "fusion.posterior", "fusion.mwl_level", "fusion.fuse",
    "adapt.step", "regulation.ingest", "regulation.read_ticks", "jsonl.dump",
    "pipeline.spearman", "pipeline.read_demand", "pipeline.monitor_offline",
    "pipeline.write_outputs", "physio.read", "physio.per_second_frames", "physio.sdnn",
    "physio.cleanse_pupil", "effortclass.cross_validate", "effortclass.rf_train",
    "effortclass.forest_predict", "effortclass.knn_predict",
)
COUNTED_CALLS = (
    "taskload.spatial_entropy", "fusion.posterior", "fusion.fuse", "physio.sdnn",
    "effortclass.knn_predict",
)
PER_OP_COUNTERS = (("adapt.commands", "count"), ("regulation.events", "count"), ("jsonl.bytes", "B"))
# The host's speed drifts by a quarter or more over tens of seconds, which
# swamps the differences the benchmark exists to show. Every timed interval
# is therefore bracketed by a fixed pure-Python calibration task and scaled to
# the host speed at which that task takes CALIBRATION_REF_S:
#     reported = measured * CALIBRATION_REF_S / mean(task before, task after)
# The task mixes arithmetic with object allocation, which tracked the
# library's own slowdowns better than arithmetic alone. It does not touch
# oft, so a change to the library cannot move it.
CALIBRATION_REF_S = 0.003


def calibrate() -> float:
    """Seconds taken by the fixed calibration task right now."""
    start = perf_counter()
    acc = 0
    for i in range(16_000):
        acc += i * i % 7
    floats = [float(i) for i in range(20_000)]
    table = {i: str(i) for i in range(6_500)}
    elapsed = perf_counter() - start
    del floats, table
    return elapsed


def timed(fn):
    """(result, scaled seconds, scale) of one call bracketed by calibrations."""
    before = calibrate()
    start = perf_counter()
    try:
        result = fn()
    finally:
        elapsed = perf_counter() - start
        scale = CALIBRATION_REF_S / ((before + calibrate()) / 2.0)
    return result, elapsed * scale, scale


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(trace: bool):
    """Median set-up time over fresh interpreters, plus import costs if traced.

    Set-up is `import oft`, MwlNetwork.default() and default_bike_model(),
    timed and scaled inside each child. A first, untimed child warms the
    bytecode and file caches.
    """
    env = _child_env()

    def child(*flags):
        return subprocess.run([sys.executable, *flags, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)

    def scaled(out):
        elapsed, before, after = map(float, out.stdout.split()[-3:])
        scale = CALIBRATION_REF_S / ((before + after) / 2.0)
        return elapsed * scale, scale

    child()
    times = [scaled(child())[0] for _ in range(SETUP_REPEATS)]
    imports = {}
    if trace:
        out = child("-X", "importtime")
        _, scale = scaled(out)
        for line in out.stderr.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in OFT_MODULES:
                imports[parts[2]] = int(parts[1]) / 1e6 * scale
    return statistics.median(times), times, imports


def measure(workload, seconds, recorder):
    """Run passes over the workload's ops until `seconds` have gone by.

    Returns per-op untraced and traced scaled times, the scale of each
    traced op, the first pass's infos, the attempted and failed counts, and
    the failure messages.
    """
    import spans

    ops = workload.ops
    untraced = [[] for _ in ops]
    traced = [[] for _ in ops]
    scales = {}
    infos = [None] * len(ops)
    reference = [None] * len(ops)
    attempted = failed = 0
    failures = []

    def one(i, pass_no, tracing):
        nonlocal attempted, failed
        op = ops[i]
        attempted += 1
        if tracing:
            recorder.op = (pass_no, i)
        try:
            output, elapsed, scale = timed(op.run)
        except Exception:  # a raised error is a failed operation, not the end of the run
            failed += 1
            failures.append(f"pass {pass_no} op {i} ({op.kind}) raised:\n{traceback.format_exc()}")
            return
        finally:
            if recorder is not None:
                recorder.op = None
        if tracing:
            scales[(pass_no, i)] = scale
        (traced if tracing else untraced)[i].append(elapsed)
        problems, digest, info = op.inspect(output, pass_no == 0)
        if pass_no == 0:
            reference[i], infos[i] = digest, info
        elif digest != reference[i]:
            problems.append("output differs from the first pass")
        if problems:
            failed += 1
            failures.append(f"pass {pass_no} op {i} ({op.kind}): " + "; ".join(problems[:5]))

    deadline = perf_counter() + seconds
    pass_no = 0
    # a traced run alternates untraced and traced passes, starting untraced,
    # so that the tracing overhead is measured within the run; the third pass
    # gives an untraced sample that is not the op's first, cold call
    min_passes = 3 if recorder is not None else 1
    while pass_no < min_passes or perf_counter() < deadline:
        tracing = recorder is not None and pass_no % 2 == 1
        if tracing:
            spans.install(recorder)
        for i in range(len(ops)):
            if pass_no >= min_passes and perf_counter() >= deadline:
                break
            one(i, pass_no, tracing)
        if tracing:
            recorder.uninstall()
        pass_no += 1
    if not any(len(u) + len(t) > 1 for u, t in zip(untraced, traced)):
        one(0, pass_no, False)  # every run re-checks at least one output
    return untraced, traced, scales, infos, attempted, failed, failures


def end_to_end(workload, untraced, infos, setup_s, attempted, failed):
    # Each op's samples are reduced to their median first, so that the
    # percentiles weigh every op of the pass once, however many passes fit.
    medians = {}
    for op, samples in zip(workload.ops, untraced):
        if samples:
            medians.setdefault(op.kind, []).append(statistics.median(samples))
    primary = medians[workload.primary]
    every = [m for ms in medians.values() for m in ms]
    quality, report = workload.summarize([i for i in infos if i is not None], medians)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_ratio": (1.0 - failed / attempted, "ratio"),
        "op_p50_ms": (statistics.median(primary) * 1e3, "ms"),
        "op_p90_ms": (p90(primary) * 1e3, "ms"),
        "ops_per_s": (len(every) / sum(every), "1/s"),
        "quality": (quality, "score"),
    }
    samples = sum(len(t) for op, t in zip(workload.ops, untraced) if op.kind == workload.primary)
    counts = {
        "op_p50_ms": f"{len(primary)} ops, {samples} samples",
        "op_p90_ms": f"{len(primary)} ops, {samples} samples",
        "ops_per_s": f"{len(every)} ops, {sum(map(len, untraced))} samples",
        "success_ratio": attempted,
    }
    report["fail_ratio"] = (failed / attempted, "ratio", attempted)
    return metrics, counts, report


def per_layer(workload, recorder, untraced, traced, scales, report, imports):
    self_s, calls, span_ops = recorder.layer_totals(scales)
    metrics = {}
    for name in SELF_TIMED:
        n = len(span_ops.get(name, ()))
        metrics[f"{name}.self_s"] = (self_s[name] / n if n else 0.0, "s")
    for name in COUNTED_CALLS:
        n = len(span_ops.get(name, ()))
        metrics[f"{name}.calls"] = (calls[name] / n if n else 0.0, "count")
    for outcome in ("feasible", "infeasible"):
        name = f"dfaplan.solve.{outcome}"
        n = calls[name]
        metrics[f"{name}_s"] = (self_s[name] / n if n else 0.0, "s")
    for key, unit in PER_OP_COUNTERS:
        total, ops = recorder.counter(key)
        metrics[key] = (total / len(ops) if ops else 0.0, unit)
    nodes, _ = recorder.counter("effortclass.rf_train.nodes")
    trainings = calls["effortclass.rf_train"]
    metrics["effortclass.rf_train.nodes"] = (nodes / trainings if trainings else 0.0, "count")
    read, _ = recorder.counter("physio.pupil_read")
    dropped, _ = recorder.counter("physio.pupil_dropped")
    metrics["physio.dropped_ratio"] = (dropped / read if read else 0.0, "ratio")
    # input facts of the workload, zero where the workload has none
    for metric, key, unit in (
        ("microworld.history_items", "history_items_mean", "count"),
        ("dfaplan.pot_size_mean", "pot_size_mean", "count"),
        ("dfaplan.infeasible_ratio", "infeasible_share", "ratio"),
        ("dfaplan.subsets_enumerated", "subsets_per_search", "count"),
    ):
        metrics[metric] = (report[key][0] if key in report else 0.0, unit)
    for module in OFT_MODULES:
        metrics[f"import.{module}.cumulative_s"] = (imports.get(module, 0.0), "s")
    ratios = [statistics.median(t) / statistics.median(u[1:] or u) - 1.0
              for u, t in zip(untraced, traced) if u and t]
    metrics["trace.overhead_ratio"] = (statistics.median(ratios) if ratios else 0.0, "ratio")
    missing = [name for name in workload.layers if not span_ops.get(name)]
    return metrics, missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oft" / "__init__.py").is_file():
        print(f"bench: no oft package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    try:
        setup_s, setup_samples, imports = measure_setup(trace)
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"bench: the set-up interpreter failed: {exc}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import importlib

    import oft
    import spans

    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        module = importlib.import_module(args.workload)
        net, bike = oft.MwlNetwork.default(), oft.default_bike_model()
        workload = module.build(args.seed, work, net, bike)
        recorder = spans.Recorder() if trace else None
        untraced, traced, scales, infos, attempted, failed, failures = measure(
            workload, args.seconds, recorder)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    if not any(op.kind == workload.primary and t for op, t in zip(workload.ops, untraced)):
        print(f"bench: no {workload.primary} operation succeeded; nothing to report", file=sys.stderr)
        return 1
    metrics, counts, report = end_to_end(workload, untraced, infos, setup_s, attempted, failed)
    missing = []
    if trace:
        layer_metrics, missing = per_layer(workload, recorder, untraced, traced, scales, report,
                                           imports)
        for name in missing:
            print(f"FAILED traced run recorded no span for layer {name}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"  ops per pass {len(workload.ops)}, attempted {attempted}, failed {failed}")
    print("end-to-end:")
    counts["setup_s"] = len(setup_samples)
    for name, (value, unit) in metrics.items():
        n = counts.get(name)
        print(f"  {name:<34} {value:>14.6g} {unit:<6}" + (f" n={n}" if n else ""))
    print(f"{args.workload} figures and input properties (first pass):")
    for name, (value, unit, n) in report.items():
        print(f"  {name:<34} {value:>14.6g} {unit:<6} n={n}")
    if trace:
        print("per-layer (traced passes; times and counts per operation that reaches the layer):")
        for name, (value, unit) in layer_metrics.items():
            print(f"  {name:<44} {value:>14.6g} {unit}")
        shown = layer_metrics
    else:
        shown = metrics
    result = {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in shown.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
