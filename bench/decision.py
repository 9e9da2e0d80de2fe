"""decision: the allocation solver and effort cross-validation.

Neither layer runs inside the closed loop, and both are exponential or
pure-Python hot spots. One pass is 98 allocation queries on generated
models (pot sizes 8 to 14, every single-shot constraint kind plus one-of
groups, 4 in 14 of them infeasible by construction) interleaved with
four cross-validations on generated multi-subject frames: a 23-tree forest
with leave-subjects-out and a k=5 kNN with per-subject 75/25, on each of
two datasets.

The checks do not trust the solver: each solution is checked against the
constraints as documented, and up to pot size 10 it must equal the result of
an exhaustive search written here.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations

import numpy as np

from oft import dfaplan, effortclass
from oft.errors import InfeasibleError
from workload import Op, Workload, p90, tree_nodes

FUNCTIONS = tuple(f"F{i}" for i in range(1, 9))
RESOURCES = ("H", "M", "A")
SITUATIONS = ("S1", "S2")
# every pass has the same mix: per pot size, 10 feasible queries and 4
# infeasible ones, in a seeded order, so the latency percentiles compare
# like with like across seeds
POT_SIZES = tuple(range(8, 15))
FEASIBLE_PER_SIZE = 10
INFEASIBLE_PER_SIZE = 4
INFEASIBLE_KINDS = ("binary", "exclusive", "capacity", "conditional", "eliminated")
BRUTE_FORCE_MAX_POT = 10
# half the subjects are held out: the training set stays at 480 rows while
# the test set is large enough for a steady accuracy
SUBJECTS = 16
FRAMES_PER_SUBJECT = 60
HELD_OUT = 8
RF_SPEC = {"kind": "rf", "trees": 23}
KNN_SPEC = {"kind": "knn", "k": 5}

LAYERS = (
    "dfaplan.solve.feasible", "dfaplan.solve.infeasible", "effortclass.cross_validate",
    "effortclass.rf_train", "effortclass.forest_predict", "effortclass.knn_predict",
)


# ---------------------------------------------------------------------------
# allocation queries


class Query:
    """A generated allocation model with everything needed to check it."""

    def __init__(self, rng, pot_size, infeasible_kind=None):
        ids = [f"{f}-{r}" for f in FUNCTIONS for r in RESOURCES]
        picked = [ids[i] for i in rng.choice(len(ids), size=pot_size + 3, replace=False)]
        self.pot, extra = picked[:pot_size], picked[pot_size:]
        self.infeasible_kind = infeasible_kind
        g1, g2 = tuple(self.pot[0:2]), tuple(self.pot[2:4])
        n_expected = max(2, pot_size // 3)
        expected = self.pot[4:4 + n_expected]
        rest = self.pot[4 + n_expected:]  # optional everywhere, at least two
        in_s1 = expected[0::2] + [g1[0]]
        in_s2 = expected[1::2]
        if infeasible_kind == "eliminated":  # expected in S1, impossible in S2
            in_s1.append(extra[0])
        self.singles = set(expected) | ({extra[0]} if infeasible_kind == "eliminated" else set())
        self.required_groups = [g1]
        self.xor_groups = [g1, g2]

        costs = {c: float(rng.integers(1, 10)) for c in picked}
        for c in rest:
            costs[c] = float(rng.integers(-3, 7))  # some optional couples pay off
        # the disjunctive constraint forces a choice between g2[1] and the
        # pair rest[-1] + g2[0]; the witness takes g2[1]
        witness = set(expected) | {g1[0], g2[1]}
        resource = expected[0].split("-")[1]
        constraints = [
            {"kind": "binary", "couple": rest[0], "allowed": False},
            {"kind": "disjunctive", "couples": [g2[1], rest[-1]]},
            {"kind": "exclusive", "couples": [rest[-1], g2[1]]},
            {"kind": "capacity", "resource": resource,
             "max_functions": sum(c.endswith("-" + resource) for c in witness) + int(rng.integers(0, 2))},
            {"kind": "conditional", "couple": rest[-1], "requires": [g2[0]]},
        ]
        if infeasible_kind == "binary":
            constraints.append({"kind": "binary", "couple": expected[0], "allowed": False})
        elif infeasible_kind == "exclusive":
            constraints.append({"kind": "exclusive", "couples": [expected[0], expected[1]]})
        elif infeasible_kind == "capacity":
            on_r = sum(c.endswith("-" + resource) for c in expected)
            constraints.append({"kind": "capacity", "resource": resource, "max_functions": on_r - 1})
        elif infeasible_kind == "conditional":
            constraints.append({"kind": "conditional", "couple": expected[0], "requires": [extra[0]]})
        self.constraints = constraints
        self.costs = costs
        raw = {
            "functions": list(FUNCTIONS),
            "resources": list(RESOURCES),
            "couples": sorted(picked),
            "xor_groups": [list(g) for g in self.xor_groups],
            "constraints": constraints,
            "situations": {
                "S1": {"expected": in_s1, "optional": [c for c in picked if c not in in_s1]},
                "S2": {"expected": in_s2, "optional": [c for c in self.pot if c not in in_s2]},
            },
            "costs": {"load": costs},
        }
        self.model = dfaplan.model_from_dict(raw)
        if infeasible_kind is None and not self.admits(witness):
            raise AssertionError("generator: witness allocation is not admissible")

    def admits(self, chosen) -> bool:
        """The documented allocation rules, written independently of dfaplan."""
        chosen = set(chosen)
        if not chosen <= set(self.pot) or not self.singles <= chosen:
            return False
        if any(sum(c in chosen for c in g) != 1 for g in self.required_groups):
            return False
        if any(sum(c in chosen for c in g) > 1 for g in self.xor_groups):
            return False
        for con in self.constraints:
            kind = con["kind"]
            if kind == "binary" and not con["allowed"] and con["couple"] in chosen:
                return False
            if kind == "disjunctive" and not any(c in chosen for c in con["couples"]):
                return False
            if kind == "exclusive" and sum(c in chosen for c in con["couples"]) > 1:
                return False
            if kind == "capacity" and sum(
                c.split("-")[1] == con["resource"] for c in chosen
            ) > con["max_functions"]:
                return False
            if kind == "conditional" and con["couple"] in chosen and not all(
                r in chosen for r in con["requires"]
            ):
                return False
        return True

    def cost(self, chosen) -> float:
        return sum(self.costs[c] for c in chosen)

    def brute_force(self):
        """Cheapest admissible subset, ties to the smallest sorted id tuple."""
        best = None
        for size in range(len(self.pot) + 1):
            for subset in combinations(sorted(self.pot), size):
                if self.admits(subset):
                    key = (self.cost(subset), subset)
                    if best is None or key < best:
                        best = key
        return best


def _solve(query):
    try:
        solution = query.model.solve(SITUATIONS, "load")
    except InfeasibleError as exc:
        return ("infeasible", tuple((exc.report or {}).get("core", ())))
    return ("solved", solution.couples, solution.cost)


def _inspect_solve(query, output, first):
    problems = []
    if query.infeasible_kind is not None:
        if output[0] != "infeasible":
            problems.append(f"infeasible ({query.infeasible_kind}) model was solved: {output}")
        elif not output[1]:
            problems.append("infeasible answer carries an empty core")
    elif output[0] != "solved":
        problems.append("feasible model reported infeasible")
    else:
        _, couples, cost = output
        if not query.admits(couples):
            problems.append(f"solution {couples} breaks a requirement or constraint")
        if cost != query.cost(couples):
            problems.append(f"reported cost {cost} != {query.cost(couples)}")
    if first and len(query.pot) <= BRUTE_FORCE_MAX_POT:
        best = query.brute_force()
        if query.infeasible_kind is not None and best is not None:
            problems.append(f"generator: {query.infeasible_kind} model is feasible")
        if output[0] == "solved" and (best is None or (output[2], tuple(output[1])) != best):
            problems.append(f"solution {output[1:]} is not the exhaustive optimum {best}")
    info = {
        "op": "alloc",
        "pot": len(query.pot),
        "infeasible": query.infeasible_kind is not None,
        "cost": output[2] if output[0] == "solved" else 0.0,
    }
    return problems, output, info


# ---------------------------------------------------------------------------
# effort cross-validation


def make_frames(rng):
    """Binarized effort frames (hrv, pupil_z) for SUBJECTS subjects."""
    frames = []
    for s in range(SUBJECTS):
        hrv_base, pupil_offset = rng.normal(45.0, 3.0), rng.normal(0.0, 0.15)
        load = rng.uniform(0.0, 1.0, FRAMES_PER_SUBJECT)
        td = 1 + (load > 1 / 3).astype(int) + (load > 2 / 3).astype(int)
        hrv = hrv_base - 20.0 * load + rng.normal(0.0, 3.0, FRAMES_PER_SUBJECT)
        pupil = pupil_offset + 2.5 * load - 1.0 + rng.normal(0.0, 0.3, FRAMES_PER_SUBJECT)
        for h, p, label in zip(hrv, pupil, effortclass.binarize(td)):
            frames.append(effortclass.LabelledFrame(f"s{s}", (float(h), float(p)), int(label)))
    return frames


def _cross_validate(frames, scheme, spec, seed, held):
    return effortclass.cross_validate(frames, scheme, spec, seed=seed, test_subjects=held)


def _forest_check(frames, held):
    """Train a forest twice, with the same seed, on one cross-validation's
    training subjects; both must predict the same labels."""
    X = np.array([f.features for f in frames if f.subject not in held])
    y = np.array([f.label for f in frames if f.subject not in held])
    X_te = np.array([f.features for f in frames if f.subject in held])
    a = effortclass.fit_model(RF_SPEC, X, y)
    b = effortclass.fit_model(RF_SPEC, X, y)
    problems = []
    if not np.array_equal(a.predict(X_te), b.predict(X_te)):
        problems.append("retraining the forest with the same seed changed predictions")
    forest = {"rows": len(X), "trees": len(a.trees), "nodes": sum(map(tree_nodes, a.trees))}
    return problems, forest


def _inspect_cv(frames, held, spec, check_forest, output, first):
    problems = []
    if not 0.0 <= output.global_accuracy <= 1.0:
        problems.append(f"accuracy {output.global_accuracy} outside [0, 1]")
    if output.n_train + output.n_test != len(frames):
        problems.append(f"{output.n_train} + {output.n_test} rows for {len(frames)} frames")
    info = {"op": spec["kind"], "accuracy": output.global_accuracy}
    if first and check_forest:
        forest_problems, info["forest"] = _forest_check(frames, held)
        problems += forest_problems
    digest = (output.global_accuracy, sorted(output.per_class.items()), output.n_train, output.n_test)
    return problems, digest, info


def _summarize(infos, times):
    alloc = [i for i in infos if i["op"] == "alloc"]
    rf = [i for i in infos if i["op"] == "rf"]
    feasible = [i for i in alloc if not i["infeasible"]]
    cv_accuracy = float(np.mean([i["accuracy"] for i in rf]))
    pots = [i["pot"] for i in alloc]
    forests = [i["forest"] for i in rf if "forest" in i]
    alloc_ms = [t * 1e3 for t in times["alloc"]]
    report = {
        "alloc_p50_ms": (float(np.median(alloc_ms)), "ms", len(alloc_ms)),
        "alloc_p90_ms": (p90(alloc_ms), "ms", len(alloc_ms)),
        "forest_cv_s": (float(np.median(times["rf_cv"])), "s", len(times["rf_cv"])),
        "alloc_cost_total": (float(sum(i["cost"] for i in feasible)), "cost", len(feasible)),
        "cv_accuracy": (cv_accuracy, "ratio", len(rf)),
        "infeasible_share": (1.0 - len(feasible) / len(alloc), "ratio", len(alloc)),
        "pot_size_mean": (float(np.mean(pots)), "count", len(pots)),
        # computed, not counted: the exhaustive search visits 2^pot subsets
        "subsets_per_search": (float(np.mean([2.0**p for p in pots])), "count", len(pots)),
    }
    for size in POT_SIZES:
        report[f"pot_size_{size}_queries"] = (float(pots.count(size)), "count", len(pots))
    for key in ("rows", "trees", "nodes"):
        report[f"forest_{key}"] = (float(np.mean([f[key] for f in forests])), "count", len(forests))
    return cv_accuracy, report


def build(seed, _work, _net, _bike):
    rng = np.random.default_rng(seed)
    mix = []
    for k, size in enumerate(POT_SIZES):
        mix += [(size, None)] * FEASIBLE_PER_SIZE
        mix += [(size, INFEASIBLE_KINDS[(k + j) % len(INFEASIBLE_KINDS)])
                for j in range(INFEASIBLE_PER_SIZE)]
    ops = []
    for i in rng.permutation(len(mix)):
        query = Query(rng, *mix[i])
        ops.append(Op("alloc", partial(_solve, query), partial(_inspect_solve, query)))
    # spread the four cross-validations through the pass
    for k, dataset in enumerate((make_frames(rng), make_frames(rng))):
        subjects = sorted({f.subject for f in dataset})
        held = sorted(rng.choice(subjects, size=HELD_OUT, replace=False).tolist())
        cv_seed = int(rng.integers(0, 2**31 - 1))
        for j, (scheme, spec) in enumerate(
            (("leave-subjects-out", RF_SPEC), ("per-subject-75-25", KNN_SPEC))
        ):
            test_subjects = held if scheme == "leave-subjects-out" else None
            op = Op(f"{spec['kind']}_cv",
                    partial(_cross_validate, dataset, scheme, spec, cv_seed, test_subjects),
                    partial(_inspect_cv, dataset, held, spec, k == 0 and spec is RF_SPEC))
            ops.insert((2 * k + j + 1) * len(ops) // 5, op)
    return Workload("alloc", ops, _summarize, LAYERS)
