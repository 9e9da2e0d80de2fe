"""Acceptance gate: ten end-of-build checks, one verdict line each.

Each test prints a single `[criterion NN] name: PASS/FAIL` line straight to
the terminal (bypassing capture) and then asserts, so a plain pytest run
shows the whole scorecard even with -q.
"""

import itertools
import json
import statistics
import time
from dataclasses import replace
from importlib.resources import as_file, files
from pathlib import Path

import numpy as np
import pytest

from conftest import blob_dataset, make_pupil
from test_dfaplan import random_model, ref_solve
from test_fusion import posterior_by_joint_enumeration, random_net
from test_regulation import reference_events, tick_from_states

from oft import adapt, physio
from oft.cli import main
from oft.cocom import ControlMode, TankTrace, code_mode, read_roster_csv, transitions
from oft.dfaplan import InfeasibleError, load_model
from oft.errors import DataError
from oft.fusion import MwlNetwork, mwl_level, posterior
from oft.effortclass import fit_model
from oft.jsonl import load_jsonl
from oft.microworld import ScenarioConfig, compare_compliance, run_scenario
from oft.pipeline import endtoend_report
from oft.regulation import ActivityTracker

BIKE = str(Path(__file__).resolve().parents[1] / "examples" / "bike.json")


def verdict(capsys, num, name, failures, elapsed=None):
    ok = not failures
    clock = f" ({elapsed:.2f} s)" if elapsed is not None else ""
    with capsys.disabled():
        print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{clock}", flush=True)
    assert ok, f"criterion {num:02d} {name}: " + "; ".join(failures)


def check(failures, condition, message):
    if not condition:
        failures.append(message)


def test_criterion_01_bicycle_allocation_exact(capsys):
    failures = []
    t0 = time.perf_counter()

    assert main(["dfa", "check", "--model", BIKE, "--situations", "S1,S4,S6"]) == 0
    out = capsys.readouterr().out
    check(failures, "feasible: yes" in out, "S1,S4,S6 not reported feasible")

    assert main(["dfa", "solve", "--model", BIKE, "--situations", "S1,S4,S6",
                 "--criterion", "rider_load"]) == 0
    out = capsys.readouterr().out
    check(failures, "F1-H F1-M F4-H" in out and "cost 3" in out,
          f"rider_load solution wrong: {out!r}")

    assert main(["dfa", "solve", "--model", BIKE, "--situations", "S1,S4,S6",
                 "--criterion", "energy"]) == 0
    out = capsys.readouterr().out
    check(failures, "F1-H F4-H" in out and "cost 0" in out,
          f"energy solution wrong: {out!r}")

    code = main(["dfa", "check", "--model", BIKE, "--situations", "S2,S7,S8"])
    captured = capsys.readouterr()
    check(failures, code == 4, f"S2,S7,S8 check exited {code}, wanted 4")
    check(failures, "feasible: no" in captured.out, "joint situations not flagged infeasible")
    check(failures, "F2" in captured.out, "conflict does not name the F2 function")

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 1.0, f"CLI round took {elapsed:.3f} s, budget 1 s")

    # exact structures through the library, same model file
    model = load_model(BIKE)
    reqs = model.min_config(["S1", "S4", "S6"])
    check(failures, sorted(str(r) for r in reqs) == ["F1-H", "F4-H"],
          f"min config mismatch: {[str(r) for r in reqs]}")
    pot = model.pot(["S1", "S4", "S6"])
    check(failures, sorted(str(e) for e in pot.entries)
          == ["F1-H", "F1-M if F1-H", "F3-M", "F4-H"],
          f"pot mismatch: {[str(e) for e in pot.entries]}")
    sol = model.solve(["S1", "S4", "S6"], "rider_load")
    check(failures, set(sol.couples) == {"F1-H", "F1-M", "F4-H"} and sol.cost == 3.0,
          f"rider_load optimum mismatch: {sol}")
    sol = model.solve(["S1", "S4", "S6"], "energy")
    check(failures, set(sol.couples) == {"F1-H", "F4-H"} and sol.cost == 0.0,
          f"energy optimum mismatch: {sol}")
    try:
        model.solve(["S2", "S7", "S8"], "energy")
        failures.append("joint solve did not raise")
    except InfeasibleError as exc:
        core = (exc.report or {}).get("core", [])
        check(failures, any("F2" in line for line in core),
              f"unsat core does not name F2: {core}")

    verdict(capsys, 1, "bicycle allocation, exact and under a second", failures, elapsed)


def test_criterion_02_solver_matches_brute_force(capsys):
    failures = []
    rng = np.random.default_rng(777)
    solved = infeasible = 0
    for i in range(500):
        model = random_model(rng)
        sids = list(model.situations)
        criterion = next(iter(model.costs))
        expect = ref_solve(model, sids, criterion)
        try:
            got = model.solve(sids, criterion)
        except InfeasibleError:
            got = None
        if expect is None:
            infeasible += 1
            check(failures, got is None, f"model {i}: solver found {got}, oracle says infeasible")
            continue
        solved += 1
        if got is None:
            failures.append(f"model {i}: solver infeasible, oracle found {expect}")
            continue
        cost, key = expect
        check(failures, tuple(sorted(got.couples)) == key,
              f"model {i}: couples {got.couples} != {key}")
        check(failures, abs(got.cost - cost) < 1e-12,
              f"model {i}: cost {got.cost} != {cost}")
        if failures:
            break
    check(failures, solved >= 100 and infeasible >= 10,
          f"generator imbalance: {solved} solved, {infeasible} infeasible")
    verdict(capsys, 2, "solver == brute force on 500 random models", failures)


def test_criterion_03_regulation_matches_rules_exhaustively(capsys):
    failures = []
    states = (None, 0, 1)
    perfs = (0.0, 1.0)
    worlds = [
        (states[w % 3], states[(w // 3) % 3], perfs[w // 9]) for w in range(18)
    ]
    mismatches = 0
    total = 0
    for combo in itertools.product(range(18), repeat=4):
        rows = [worlds[w] for w in combo]
        state_rows = [(sa, sb) for sa, sb, _ in rows]
        perf_seq = [p for _, _, p in rows]
        tracker = ActivityTracker()
        for t, st in enumerate(state_rows):
            tracker.ingest(tick_from_states(t, st), perf_seq[t])
        got = {e.t: e.kind.name for e in tracker.events}
        nps = [sum(1 for s in st if s is not None) for st in state_rows]
        cps = [sum(1 for s in st if s == 1) for st in state_rows]
        expect = reference_events(nps, cps, perf_seq)
        total += 1
        if got != expect:
            mismatches += 1
            if mismatches <= 3:
                failures.append(f"trace {combo}: {got} != {expect}")
    check(failures, total == 18 ** 4, f"enumerated {total} traces, wanted {18 ** 4}")
    check(failures, mismatches == 0, f"{mismatches} mismatching traces")
    verdict(capsys, 3, "regulation coder == literal rules over all length-4 two-task traces",
            failures)


def test_criterion_04_signal_conditioning_tolerances(capsys):
    failures = []
    rng = np.random.default_rng(2024)

    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 250))
        window = rng.uniform(300.0, 1200.0, size=n)
        expect = statistics.stdev(window[-100:])
        worst = max(worst, abs(physio.sdnn(window) - expect))
    check(failures, worst <= 1e-9, f"sdnn worst abs error {worst:.3e} > 1e-9")

    for _ in range(50):
        n = int(rng.integers(10, 300))
        diam = rng.uniform(1.0, 9.0, size=n)
        valid = rng.random(n) < 0.9
        series = make_pupil(diam, valid=valid)
        once = physio.cleanse_pupil(series)
        twice = physio.cleanse_pupil(once)
        same = (np.array_equal(once.timestamps, twice.timestamps)
                and np.array_equal(once.diameters_mm, twice.diameters_mm))
        check(failures, same, "cleansing is not idempotent")
        inside = np.all((once.diameters_mm >= 2.0) & (once.diameters_mm <= 8.0))
        check(failures, inside, "cleansed sample out of the 2..8 mm band")
        if failures:
            break

    for _ in range(100):
        values = rng.standard_normal(int(rng.integers(3, 500))) * rng.uniform(0.5, 50)
        z = physio.normalize(values).values
        check(failures, abs(float(np.mean(z))) <= 1e-9, "z mean off 0 beyond 1e-9")
        check(failures, abs(float(np.std(z, ddof=1)) - 1.0) <= 1e-9, "z std off 1 beyond 1e-9")
        if failures:
            break

    fs = 10.0
    t = np.arange(0.0, 600.0, 1.0 / fs)
    mid = slice(len(t) // 4, 3 * len(t) // 4)

    passed = physio.bandpass(t, np.sin(2 * np.pi * 0.05 * t), 0.01, 0.3)
    amp = (passed[mid].max() - passed[mid].min()) / 2.0
    check(failures, abs(amp - 1.0) <= 0.10, f"0.05 Hz amplitude {amp:.4f} off unity by >10%")

    rejected = physio.bandpass(t, np.sin(2 * np.pi * 1.0 * t), 0.01, 0.3)
    peak = float(np.max(np.abs(rejected[mid])))
    check(failures, peak <= 10 ** (-20.0 / 20.0), f"1 Hz residual {peak:.4f}, wanted >=20 dB down")

    flat = physio.bandpass(t, np.full_like(t, 2.0), 0.01, 0.3)
    check(failures, float(np.max(np.abs(flat[mid]))) < 1e-6, "DC leaks through the band")

    verdict(capsys, 4, "signal conditioning at stated tolerances", failures)


def test_criterion_05_fusion_correctness(capsys):
    failures = []
    rng = np.random.default_rng(31)

    for _ in range(200):
        net = random_net(rng, [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 4)))])
        evidence = {
            name: {lab: float(rng.random() + 0.01) for lab in labels}
            for name, (labels, _a) in net.children.items()
        }
        post = posterior(net, evidence)
        check(failures, abs(float(np.sum(post)) - 1.0) <= 1e-9, "posterior not normalized")
        scaled = {name: {k: 3.7 * v for k, v in lik.items()} for name, lik in evidence.items()}
        check(failures, np.allclose(post, posterior(net, scaled), atol=1e-12),
              "posterior not scale invariant")
        check(failures, np.allclose(post, posterior(net, dict(reversed(evidence.items()))), atol=1e-12),
              "posterior not order invariant")
        if failures:
            break

    for _ in range(100):
        net = random_net(rng, [2, 3])
        tables = [net.children["c0"][1], net.children["c1"][1]]
        liks = [rng.random(2) + 0.01, rng.random(3) + 0.01]
        evidence = {
            "c0": dict(zip(net.children["c0"][0], liks[0])),
            "c1": dict(zip(net.children["c1"][0], liks[1])),
        }
        expect = posterior_by_joint_enumeration(net.prior, tables, liks)
        got = posterior(net, evidence)
        check(failures, np.allclose(got, expect, atol=1e-12),
              "posterior != exhaustive joint enumeration")
        if failures:
            break

    load_order = {
        "constraint": ("td1", "td2", "td3"),
        "behaviour": ("none", "performance_oriented", "cost_oriented"),
        "performance": ("good", "degraded", "poor"),
        "effort": ("low", "medium", "high"),
    }
    net = MwlNetwork.default()

    def fused(ranks):
        ev = {child: {load_order[child][r]: 1.0} for child, r in ranks.items()}
        return mwl_level(posterior(net, ev))

    children = tuple(load_order)
    broken = 0
    for combo in itertools.product(range(3), repeat=4):
        ranks = dict(zip(children, combo))
        base = fused(ranks)
        for child in children:
            if ranks[child] < 2:
                bumped = dict(ranks, **{child: ranks[child] + 1})
                if fused(bumped) < base:
                    broken += 1
    check(failures, broken == 0, f"{broken} label bumps lowered the level")
    check(failures, fused({c: 0 for c in children}) == 1, "all-calm labels not level 1")
    check(failures, fused({c: 2 for c in children}) == 5, "all-loaded labels not level 5")

    verdict(capsys, 5, "fusion: normalized, invariant, exact, monotone", failures)


def test_criterion_06_effort_classifiers(capsys):
    failures = []
    t0 = time.perf_counter()
    X, y = blob_dataset(np.random.default_rng(2025), n_per=60, sigma=0.1, spread=3.0)

    memorizer = fit_model({"kind": "knn", "k": 1, "metric": "euclidean"}, X, y)
    train_acc = float(np.mean(memorizer.predict(X) == y))
    check(failures, train_acc == 1.0, f"1-nn train accuracy {train_acc}, wanted exactly 1.0")

    perm = np.random.default_rng(99).permutation(len(X))
    cut = int(0.75 * len(X))
    tr, te = perm[:cut], perm[cut:]

    knn = fit_model({"kind": "knn", "k": 5, "metric": "euclidean"}, X[tr], y[tr])
    knn_acc = float(np.mean(knn.predict(X[te]) == y[te]))
    check(failures, knn_acc >= 0.90, f"5-nn held-out accuracy {knn_acc:.3f} < 0.90")

    rf = fit_model({"kind": "rf", "trees": 23, "seed": 0}, X[tr], y[tr])
    rf_acc = float(np.mean(rf.predict(X[te]) == y[te]))
    check(failures, rf_acc >= 0.85, f"forest held-out accuracy {rf_acc:.3f} < 0.85")

    rf_again = fit_model({"kind": "rf", "trees": 23, "seed": 0}, X[tr], y[tr])
    check(failures, np.array_equal(rf.predict(X[te]), rf_again.predict(X[te])),
          "forest predictions differ across same-seed fits")
    knn_again = fit_model({"kind": "knn", "k": 5, "metric": "euclidean"}, X[tr], y[tr])
    check(failures, np.array_equal(knn.predict(X[te]), knn_again.predict(X[te])),
          "knn predictions differ across fits")

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 10.0, f"classifier round took {elapsed:.2f} s, budget 10 s")
    verdict(capsys, 6, "effort classifiers: memorization, held-out floors, determinism",
            failures, elapsed)


def test_criterion_07_control_mode_coding(capsys):
    failures = []

    def trace_between(lo, hi, n=120):
        t = np.linspace(0, 4 * np.pi, n)
        mid, amp = (lo + hi) / 2.0, (hi - lo) / 2.0
        return TankTrace(mid + amp * np.sin(t), mid + amp * np.cos(t))

    check(failures, code_mode(trace_between(2200, 2600)) is ControlMode.TACTICAL,
          "controlled 2200..2600 oscillation not TACTICAL")
    dipped = trace_between(2200, 2600)
    a = dipped.tank_a.copy()
    a[30] = 1900.0
    check(failures, code_mode(TankTrace(a, dipped.tank_b)) is ControlMode.SCRAMBLED,
          "1900 dip not SCRAMBLED")
    check(failures, code_mode(trace_between(2400, 2800)) is ControlMode.STRATEGIC,
          "compliant 2800 peak not STRATEGIC")
    shallow = trace_between(2200, 2600)
    b = shallow.tank_b.copy()
    b[40] = 1975.0
    check(failures, code_mode(TankTrace(shallow.tank_a, b)) is ControlMode.OPPORTUNISTIC,
          "1975 dip not OPPORTUNISTIC")

    rng = np.random.default_rng(8)
    for _ in range(200):
        trace = TankTrace(rng.uniform(1500, 3500, 90), rng.uniform(1500, 3500, 90))
        first = code_mode(trace)
        check(failures, isinstance(first, ControlMode), "coder not total")
        check(failures, code_mode(trace) is first, "coder not deterministic")
        if failures:
            break

    with as_file(files("oft.data").joinpath("cocom_roster.csv")) as path:
        rows = read_roster_csv(path)
    tm = transitions((low, high) for _n, low, high in rows)
    check(failures, tm.first_period_marginals.tolist() == [4, 3, 26, 23],
          f"low-demand marginals {tm.first_period_marginals.tolist()}")
    check(failures, tm.second_period_marginals.tolist() == [15, 10, 3, 28],
          f"high-demand marginals {tm.second_period_marginals.tolist()}")

    verdict(capsys, 7, "control-mode coding: fixtures, totality, bundled roster", failures)


def test_criterion_08_overload_tracking(capsys):
    failures = []
    t0 = time.perf_counter()
    report = endtoend_report(ScenarioConfig(operator="degrading-overload"))
    elapsed = time.perf_counter() - t0
    check(failures, report["spearman_level_vs_latent"] >= 0.5,
          f"level/latent spearman {report['spearman_level_vs_latent']} < 0.5")
    check(failures, report["spearman_level_vs_isa"] >= 0.4,
          f"level/self-rating spearman {report['spearman_level_vs_isa']} < 0.4")
    check(failures, elapsed < 10.0, f"20-minute scenario took {elapsed:.2f} s, budget 10 s")
    verdict(capsys, 8, "fused level tracks a degrading overload", failures, elapsed)


def test_criterion_09_assistance_helps(capsys):
    failures = []
    out = compare_compliance(range(20))
    check(failures, len(out["seeds"]) >= 20, "fewer than 20 seeds compared")
    check(failures, out["median_on"] >= out["median_off"],
          f"median compliance {out['median_on']:.4f} with aid "
          f"< {out['median_off']:.4f} without")

    probe = run_scenario(ScenarioConfig(operator="degrading-overload", seed=3, dfa=True))
    switch_ons = [r for r in probe.records if r["record"] == "assistance" and r["active"]]
    check(failures, switch_ons, "no assistance ever switched on in the probe run")
    check(failures, all(r["level"] >= 4 for r in switch_ons),
          "assistance switched on below level 4")

    tiers = [set(adapt.assistance_for_level(k)) for k in range(1, 6)]
    nested = all(a <= b for a, b in zip(tiers, tiers[1:]))
    check(failures, nested, "assistance tiers are not nested by level")

    verdict(capsys, 9, "closing the loop raises median compliance over 20 seeds", failures)


def test_criterion_10_reproducible_runs(capsys, tmp_path):
    failures = []

    logs = []
    for name in ("first.jsonl", "second.jsonl"):
        path = tmp_path / name
        assert main(["simulate", "--seed", "11", "--operator", "degrading-overload",
                     "--dfa", "on", "--log", str(path)]) == 0
        logs.append(path.read_bytes())
    capsys.readouterr()
    check(failures, logs[0] == logs[1], "simulate logs differ across identical runs")
    records = list(load_jsonl(tmp_path / "first.jsonl"))
    check(failures, records[0]["record"] == "config" and records[-1]["record"] == "summary",
          "run log missing config/summary framing")

    reports = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        assert main(["endtoend", "--seed", "11", "--report", str(path)]) == 0
        reports.append(path.read_bytes())
    capsys.readouterr()
    check(failures, reports[0] == reports[1], "endtoend reports differ across identical runs")

    verdict(capsys, 10, "same seed, same bytes, for simulate and endtoend", failures)
