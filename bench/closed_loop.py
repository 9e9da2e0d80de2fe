"""closed_loop: the compliance sweep, as `oft simulate` plus `oft endtoend`.

Each session seed is drawn from the workload seed and runs twice, with
adaptation off and on, as a 1200 s `degrading-overload` session. One
operation is run_scenario, write_run_log to a file, and the Spearman
correlation of the fused level against the scripted load. Cost per
simulated second is flat in session length, so the sweep grows by seeds,
not by length.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from oft import microworld, pipeline
from workload import Op, Workload, sha256

SESSION_S = 1200
SEEDS_PER_PASS = 16
# the log rounds each of the five posterior entries to 9 decimals, so a
# posterior that sums to 1 within 1e-9 reads back within 1e-9 + 5 * 0.5e-9
POSTERIOR_TOL = 1e-9 + 2.5e-9

LAYERS = (
    "microworld.run_scenario", "microworld.tick", "microworld.demand",
    "microworld.windowed_performance", "microworld.generate_physio",
    "taskload.spatial_entropy", "taskload.performance_index", "taskload.task_difficulty",
    "fusion.fuzzify", "fusion.posterior", "fusion.mwl_level", "adapt.step",
    "regulation.ingest", "jsonl.dump", "pipeline.spearman",
)


def _session(config, log, net):
    result = microworld.run_scenario(config, net=net)
    pipeline.write_run_log(result, log)
    rho = pipeline.spearman(result.levels, result.latent)
    return result, rho


def _inspect(config, log, output, _first):
    result, rho = output
    problems = []
    if not (np.all(result.levels >= 1) and np.all(result.levels <= 5)):
        problems.append("level outside 1..5")
    active: set = set()
    ticks = assisted = 0
    for rec in result.records:
        kind = rec["record"]
        if kind == "assistance":
            (active.add if rec["active"] else active.discard)(rec["directive"])
        elif kind == "tick":
            ticks += 1
            assisted += bool(active)
            if not 1 <= rec["level"] <= 5:
                problems.append(f"t={rec['t']}: level {rec['level']}")
            if abs(sum(rec["posterior"]) - 1.0) > POSTERIOR_TOL:
                problems.append(f"t={rec['t']}: posterior sums to {sum(rec['posterior'])!r}")
    if ticks != config.duration_s:
        problems.append(f"{ticks} tick records for {config.duration_s} s")
    if not -1.0 <= rho <= 1.0:
        problems.append(f"spearman {rho} outside [-1, 1]")
    info = {
        "dfa": config.dfa,
        "compliance": result.compliance,
        "rho": rho,
        "history_items": result.summary["messages"] + result.summary["vehicles"],
        "assisted_share": assisted / max(ticks, 1),
    }
    return problems, (sha256(log), result.compliance, rho), info


def _summarize(infos, times):
    off = [i["compliance"] for i in infos if not i["dfa"]]
    on = [i["compliance"] for i in infos if i["dfa"]]
    level_rho = float(np.median([i["rho"] for i in infos]))
    items = [i["history_items"] for i in infos]
    assisted = [i["assisted_share"] for i in infos if i["dfa"]]
    sessions = times["session"]
    report = {
        "sim_rate": (SESSION_S * len(sessions) / sum(sessions), "s/s", len(sessions)),
        "compliance_gain": (float(np.median(on) - np.median(off)), "ratio", len(infos)),
        "level_rho": (level_rho, "rho", len(infos)),
        "history_items_mean": (float(np.mean(items)), "count", len(items)),
        "history_items_max": (float(np.max(items)), "count", len(items)),
        "assisted_tick_share": (float(np.mean(assisted)), "ratio", len(assisted)),
    }
    return level_rho, report


def build(seed, work, net, _bike):
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=SEEDS_PER_PASS)]
    ops = []
    for s in seeds:
        for dfa in (False, True):
            config = microworld.ScenarioConfig(
                duration_s=SESSION_S, phase_split_s=SESSION_S // 2, seed=s,
                operator="degrading-overload", dfa=dfa,
            )
            log = work / f"run-{s}-{'on' if dfa else 'off'}.jsonl"
            ops.append(Op("session", partial(_session, config, log, net),
                          partial(_inspect, config, log)))
    return Workload("session", ops, _summarize, LAYERS)
