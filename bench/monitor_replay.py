"""monitor_replay: the `oft monitor` library path over one-hour recordings.

Setup writes the recordings from the seed: beats, 4 Hz pupil samples with
blinks, invalid flags and dropouts, activity ticks and demand counts, all
driven by one latent load trace per recording. None of it comes from the
microworld, so this workload has no scene or entropy work. One operation is
the four readers, monitor_offline, write_monitor_outputs and write_manifest.
Recordings alternate between session and reference pupil normalisation.
"""

from __future__ import annotations

import csv
import json
import math
from functools import partial

import numpy as np

from oft import physio, pipeline, regulation
from workload import Op, Workload, sha256

RECORDING_S = 3600
RECORDINGS_PER_PASS = 12
PUPIL_HZ = 4
REFERENCE = (3.45, 0.45)  # the simulator's default pupil reference
TASKS = ("ReadMessage", "DrawZone", "ManageEmptyZone", "DetectVehicle", "InspectLock", "Neutralize")
OUTPUTS = ("mwl.jsonl", "events.jsonl", "report.json", "manifest.json")

LAYERS = (
    "physio.read", "regulation.read_ticks", "pipeline.read_demand",
    "physio.per_second_frames", "physio.sdnn", "physio.cleanse_pupil",
    "pipeline.monitor_offline", "fusion.fuse", "fusion.posterior", "fusion.fuzzify",
    "regulation.ingest", "taskload.task_difficulty", "pipeline.write_outputs", "jsonl.dump",
)


def _latent(rng, duration):
    """Piecewise-linear load with a knot every five minutes.

    The knots are evenly spaced levels from 0.1 to 0.9 in a random order, so
    every recording spans the same range of load.
    """
    knots_t = np.arange(0, duration + 300, 300, dtype=float)
    knots = rng.permutation(np.linspace(0.1, 0.9, len(knots_t)))
    return np.interp(np.arange(duration, dtype=float), knots_t, knots)


def write_recording(rng, folder, duration=RECORDING_S):
    """Write one recording; returns its paths, latent load and input facts."""
    folder.mkdir(parents=True, exist_ok=True)
    load = _latent(rng, duration)

    def at(t):
        return load[min(int(t), duration - 1)]

    beats, t = [], 0.0
    while t < duration:
        rr = float(min(max(800.0 * (1.0 - 0.2 * at(t)) * (1.0 + 0.03 * rng.standard_normal()), 300.0), 2000.0))
        beats.append((t, rr))
        t += rr / 1000.0

    ts = np.arange(duration * PUPIL_HZ) / PUPIL_HZ
    mm = 3.0 + 1.5 * load[(ts).astype(int)] + 0.1 * rng.standard_normal(len(ts))
    mm[rng.random(len(ts)) < 0.005] = 0.0  # blinks
    valid = rng.random(len(ts)) >= 0.02
    keep = np.ones(len(ts), dtype=bool)
    for start in rng.integers(0, duration - 10, size=12):  # tracker dropouts of 2-6 s
        keep[(ts >= start) & (ts < start + rng.integers(2, 7))] = False
    clean = keep & valid & (mm >= 2.0) & (mm <= 8.0)
    seconds_with_pupil = len(np.unique(ts[clean].astype(int)))

    paths = {name: folder / name for name in ("beats.csv", "pupil.csv", "ticks.jsonl", "demand.csv")}
    with open(paths["beats.csv"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "rr_ms"])
        w.writerows((repr(round(t, 4)), repr(round(rr, 3))) for t, rr in beats)
    with open(paths["pupil.csv"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "pupil_mm", "valid"])
        w.writerows((repr(float(t)), repr(round(float(v), 4)), int(ok))
                    for t, v, ok, k in zip(ts, mm, valid, keep) if k)
    with open(paths["ticks.jsonl"], "w") as fh:
        # task activity and compliance are sticky two-state chains whose
        # on-share follows the load: more tasks engaged, fewer handled well
        perf = 1.0
        active = dict.fromkeys(TASKS, 0)
        handled = dict.fromkeys(TASKS, 1)
        for t in range(duration):
            L = float(load[t])
            perf = min(max(0.97 * perf + 0.03 * (1.05 - 0.9 * L) + 0.02 * rng.standard_normal(), 0.0), 1.0)
            for task in TASKS:
                if rng.random() < 0.05:
                    active[task] = int(rng.random() < 0.25 + 0.6 * L)
                if rng.random() < 0.05:
                    handled[task] = int(rng.random() < 0.97 - 0.5 * L)
            ot = {task: handled[task] for task in TASKS if active[task]}
            fh.write(json.dumps({"t": t, "at": active, "ot": ot, "perf": round(perf, 6)}) + "\n")
    with open(paths["demand.csv"], "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t_s", "n1", "n2", "entropy"])
        for t in range(duration):
            n1 = int(rng.poisson(1.0 + 16.0 * float(load[t])))
            n2 = int(rng.poisson(0.3 + 4.0 * float(load[t])))
            entropy = 0.0 if n1 < 2 else round(math.log(min(n1, 64)) * float(rng.uniform(0.6, 0.95)), 6)
            w.writerow([t, n1, n2, entropy])
    facts = {
        "pupil_dropped": float(1.0 - clean[keep].mean()),
        "pupil_empty_seconds": duration - seconds_with_pupil,
        "beats": len(beats),
        "pupil_samples": int(keep.sum()),
    }
    return paths, load, facts


def _replay(paths, out, normalization, net):
    beats = physio.read_beats_csv(paths["beats.csv"])
    pupil = physio.read_pupil_csv(paths["pupil.csv"])
    ticks = list(regulation.read_ticks_jsonl(paths["ticks.jsonl"]))
    demand = pipeline.read_demand_csv(paths["demand.csv"])
    result = pipeline.monitor_offline(
        beats, pupil, ticks, demand=demand, net=net, normalization=normalization,
        reference=REFERENCE if normalization == "reference" else None,
    )
    pipeline.write_monitor_outputs(result, out)
    pipeline.write_manifest(out / "manifest.json", "monitor",
                            {"normalization": normalization, "demand": True},
                            inputs=list(paths.values()))
    return result


def _inspect(out, load, facts, normalization, result, _first):
    problems = []
    levels = np.asarray([s.level for s in result.states])
    if len(levels) != len(load):
        problems.append(f"{len(levels)} states for {len(load)} ticks")
    if levels.size and not (levels.min() >= 1 and levels.max() <= 5):
        problems.append("level outside 1..5")
    with open(out / "mwl.jsonl", "rb") as fh:
        lines = sum(1 for _ in fh)
    if lines != len(load):
        problems.append(f"mwl.jsonl has {lines} lines for {len(load)} ticks")
    rho = pipeline.spearman(levels, load) if len(levels) == len(load) else float("nan")
    digest = tuple(sha256(out / name) for name in OUTPUTS)
    info = dict(facts, rho=rho, normalization=normalization)
    return problems, digest, info


def _summarize(infos, times):
    rho = float(np.median([i["rho"] for i in infos]))
    n = len(infos)
    replays = times["replay"]
    report = {
        "replay_rate": (RECORDING_S * len(replays) / sum(replays), "s/s", len(replays)),
        "replay_level_rho": (rho, "rho", n),
        "pupil_dropped_share": (float(np.mean([i["pupil_dropped"] for i in infos])), "ratio", n),
        "pupil_empty_seconds": (float(np.mean([i["pupil_empty_seconds"] for i in infos])), "s", n),
        "beats_per_recording": (float(np.mean([i["beats"] for i in infos])), "count", n),
        "pupil_samples_per_recording": (float(np.mean([i["pupil_samples"] for i in infos])), "count", n),
    }
    return rho, report


def build(seed, work, net, _bike):
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(RECORDINGS_PER_PASS):
        normalization = ("session", "reference")[i % 2]
        paths, load, facts = write_recording(rng, work / f"rec{i}")
        out = work / f"out{i}"
        ops.append(Op("replay", partial(_replay, paths, out, normalization, net),
                      partial(_inspect, out, load, facts, normalization)))
    return Workload("replay", ops, _summarize, LAYERS)
