"""Allocation solver tests.

The solver is checked two ways: exact expectations on the packaged cycling
model, and equivalence against from-scratch brute-force references on
hundreds of randomly generated models, infeasible cores included. The
references below share no code with the implementation; they work directly
off the model's raw fields and try every subset of the pot.
"""

import dataclasses
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from oft import dfaplan
from oft.errors import ConfigError, DataError, InfeasibleError
from oft.jsonl import float_sum
from oft.dfaplan import (
    EXPECTED,
    IMPOSSIBLE,
    OPTIONAL,
    AllocationModel,
    ConstraintSpec,
    Couple,
    Requirement,
    default_bike_model,
    load_model,
    model_from_dict,
    optimize,
)


# ---------------------------------------------------------------------------
# brute-force reference


def ref_requirements(model, sids):
    expected = [
        cid
        for cid in [c.id for c in model.couples]
        if any(model.situations[s].get(cid) == EXPECTED for s in sids)
    ]
    reqs = []
    for cid in expected:
        group = next((tuple(g) for g in model.xor_groups if cid in g), None)
        req = group if group else (cid,)
        if req not in reqs:
            reqs.append(req)
    return reqs


def ref_pot(model, sids):
    return [
        c.id
        for c in model.couples
        if all(model.situations[s].get(c.id, IMPOSSIBLE) != IMPOSSIBLE for s in sids)
    ]


def ref_constraint_ok(con, chosen, history=None):
    """Whether `chosen` keeps `con`; without a history, antecedence is not
    checked (single-shot solving ignores it)."""
    if con.kind == "antecedence":
        return history is None or con.couple not in chosen or all(a in history for a in con.after)
    if con.kind == "binary":
        return con.allowed or con.couple not in chosen
    if con.kind == "disjunctive":
        return any(c in chosen for c in con.couples)
    if con.kind == "exclusive":
        return len([c for c in con.couples if c in chosen]) <= 1
    if con.kind == "capacity":
        return len([c for c in chosen if c.split("-", 1)[1] == con.resource]) <= con.max_functions
    if con.kind == "conditional":
        return con.couple not in chosen or all(r in chosen for r in con.requires)
    raise AssertionError(f"reference does not model {con.kind}")


def ref_solve(model, sids, criterion, history=None):
    """Enumerate every subset of the pot; None when nothing is admissible."""
    pot = ref_pot(model, sids)
    reqs = ref_requirements(model, sids)
    cost_table = model.costs[criterion]
    best = None
    for r in range(len(pot) + 1):
        for combo in itertools.combinations(pot, r):
            chosen = set(combo)
            if not all(sum(1 for c in req if c in chosen) == 1 for req in reqs):
                continue
            if not all(len([m for m in g if m in chosen]) <= 1 for g in model.xor_groups):
                continue
            if not all(ref_constraint_ok(con, chosen, history) for con in model.constraints):
                continue
            key = tuple(sorted(chosen))
            cost = float_sum(cost_table.get(c, 0.0) for c in key)
            if best is None or (cost, key) < best:
                best = (cost, key)
    return best


def ref_admissible(pot, reqs, constraints, xor_groups, history=None):
    """Admissibility of every subset of the pot at once: subset s holds
    pot[i] when bit i of s is set. Antecedence is checked only under a
    history."""
    subsets = np.arange(1 << len(pot))
    has = {c: (subsets >> i) & 1 for i, c in enumerate(pot)}

    def count(couples):
        return sum((has[c] for c in couples if c in has), np.zeros_like(subsets))

    ok = np.ones(len(subsets), dtype=bool)
    for req in reqs:
        ok &= count(req) == 1
    for group in xor_groups:
        ok &= count(group) <= 1
    for con in constraints:
        if con.kind == "binary":
            if not con.allowed:
                ok &= count([con.couple]) == 0
        elif con.kind == "disjunctive":
            ok &= count(con.couples) >= 1
        elif con.kind == "exclusive":
            ok &= count(con.couples) <= 1
        elif con.kind == "capacity":
            ok &= count([c for c in pot if c.split("-", 1)[1] == con.resource]) <= con.max_functions
        elif con.kind == "conditional":
            ok &= (count([con.couple]) == 0) | (count(con.requires) == len(con.requires))
        elif con.kind == "antecedence":
            if history is not None and not all(a in history for a in con.after):
                ok &= count([con.couple]) == 0
        else:
            raise AssertionError(f"reference does not model {con.kind}")
    return ok


def ref_optimum(model, sids, criterion):
    """ref_solve over the admissibility table, for pots too large to walk
    subset by subset; None when nothing is admissible."""
    pot = ref_pot(model, sids)
    ok = ref_admissible(pot, ref_requirements(model, sids), model.constraints, model.xor_groups)
    if not ok.any():
        return None
    table = model.costs[criterion]
    subsets = np.flatnonzero(ok)
    weights = np.array([table.get(c, 0.0) for c in pot])
    approx = sum(((subsets >> i) & 1) * w for i, w in enumerate(weights))
    best = None
    for s in subsets[approx <= approx.min() + 1e-9]:
        key = tuple(sorted(c for i, c in enumerate(pot) if s >> i & 1))
        cost = float_sum(table.get(c, 0.0) for c in key)
        if best is None or (cost, key) < best:
            best = (cost, key)
    return best


def ref_core(model, sids, history=None):
    """Deletion core: drop each requirement, then each constraint, then the
    one-of exclusion of each group, for good when the rest is still
    infeasible. Items are rendered as the solver reports them; without a
    history, antecedence constraints are left out, as the solver leaves
    them out."""
    pot = ref_pot(model, sids)
    constraints = [c for c in model.constraints if history is not None or c.kind != "antecedence"]
    items = [("req", r) for r in ref_requirements(model, sids)]
    items += [("con", c) for c in constraints] + [("xor", g) for g in model.xor_groups]

    def feasible(kept):
        return ref_admissible(
            pot,
            [x for tag, x in kept if tag == "req"],
            [x for tag, x in kept if tag == "con"],
            [x for tag, x in kept if tag == "xor"],
            history,
        ).any()

    keep = list(items)
    for item in items:
        trial = [it for it in keep if it is not item]
        if not feasible(trial):
            keep = trial
    render = {
        "req": " xor ".join,
        "con": str,
        "xor": lambda g: "exclusive: at most one of {" + ", ".join(g) + "}",
    }
    return [render[tag](x) for tag, x in keep]


def random_model(rng):
    """A small model exercising every single-shot constraint kind."""
    functions = tuple(f"F{i + 1}" for i in range(int(rng.integers(2, 5))))
    resources = tuple(("H", "M", "R")[: int(rng.integers(2, 4))])
    couples = tuple(
        Couple(f, r)
        for f in functions
        for r in resources
        if rng.random() < 0.6
    )
    if len(couples) < 2:
        couples = (Couple(functions[0], resources[0]), Couple(functions[-1], resources[-1]))
    cids = [c.id for c in couples]

    xor_groups = []
    for f in functions:
        members = [c.id for c in couples if c.function == f]
        if len(members) >= 2 and rng.random() < 0.4:
            xor_groups.append(tuple(members[:2]))

    situations = {}
    for i in range(int(rng.integers(1, 4))):
        entry = {}
        for cid in cids:
            roll = rng.random()
            if roll < 0.40:
                entry[cid] = EXPECTED
            elif roll < 0.75:
                entry[cid] = OPTIONAL
        situations[f"S{i + 1}"] = entry

    constraints = []
    for _ in range(int(rng.integers(0, 4))):
        kind = ("binary", "disjunctive", "exclusive", "capacity", "conditional")[
            int(rng.integers(0, 5))
        ]
        if kind == "binary":
            constraints.append(
                ConstraintSpec(kind="binary", couple=str(rng.choice(cids)), allowed=False)
            )
        elif kind in ("disjunctive", "exclusive"):
            k = min(len(cids), int(rng.integers(2, 4)))
            picks = tuple(str(c) for c in rng.choice(cids, size=k, replace=False))
            constraints.append(ConstraintSpec(kind=kind, couples=picks))
        elif kind == "capacity":
            constraints.append(
                ConstraintSpec(
                    kind="capacity",
                    resource=str(rng.choice(resources)),
                    max_functions=int(rng.integers(1, 3)),
                )
            )
        else:
            a, b = (str(c) for c in rng.choice(cids, size=2, replace=False))
            constraints.append(ConstraintSpec(kind="conditional", couple=a, requires=(b,)))

    # costs on a 0.25 grid so float summation cannot blur the comparison
    costs = {"w": {cid: float(rng.integers(-8, 21)) * 0.25 for cid in cids}}
    return AllocationModel(
        functions=functions,
        resources=resources,
        couples=couples,
        situations=situations,
        xor_groups=tuple(xor_groups),
        constraints=tuple(constraints),
        costs=costs,
    )


def random_pot_model(rng, pot_size, tag=""):
    """A one-situation model whose pot has exactly pot_size couples.

    Functions are F<tag>1, F<tag>2, ... and resources H<tag>, M<tag>,
    R<tag>, so models with distinct tags share nothing and can be merged.
    Costs sit on a 0.25 grid, so ties happen and sums are exact.
    """
    resources = tuple(r + tag for r in ("H", "M", "R"))
    functions = tuple(f"F{tag}{i + 1}" for i in range(pot_size // 3 + 1))
    couples = tuple(Couple(f, r) for f in functions for r in resources)
    cids = [c.id for c in couples]
    pot = [cids[i] for i in sorted(rng.choice(len(cids), size=pot_size, replace=False))]
    situation = {cid: EXPECTED if rng.random() < 0.25 else OPTIONAL for cid in pot}

    xor_groups = []
    for f in functions:
        members = [cid for cid in pot if cid.startswith(f + "-")]
        if len(members) >= 2 and rng.random() < 0.4:
            xor_groups.append(tuple(members[:2]))

    constraints = []
    for _ in range(int(rng.integers(1, 5))):
        kind = ("binary", "disjunctive", "exclusive", "capacity", "conditional")[
            int(rng.integers(0, 5))
        ]
        if kind == "binary":
            constraints.append(
                ConstraintSpec(kind="binary", couple=str(rng.choice(pot)), allowed=False)
            )
        elif kind in ("disjunctive", "exclusive"):
            picks = tuple(str(c) for c in rng.choice(pot, size=int(rng.integers(2, 4)), replace=False))
            constraints.append(ConstraintSpec(kind=kind, couples=picks))
        elif kind == "capacity":
            constraints.append(
                ConstraintSpec(
                    kind="capacity",
                    resource=str(rng.choice(resources)),
                    max_functions=int(rng.integers(1, 4)),
                )
            )
        else:
            a, b = (str(c) for c in rng.choice(pot, size=2, replace=False))
            constraints.append(ConstraintSpec(kind="conditional", couple=a, requires=(b,)))

    return AllocationModel(
        functions=functions,
        resources=resources,
        couples=couples,
        situations={"S1": situation},
        xor_groups=tuple(xor_groups),
        constraints=tuple(constraints),
        costs={"w": {cid: float(rng.integers(-8, 21)) * 0.25 for cid in cids}},
    )


def with_antecedence(model, rng):
    """The model with one or two antecedence constraints slipped in at
    random places among its constraints."""
    cids = [c.id for c in model.couples]
    constraints = list(model.constraints)
    for _ in range(int(rng.integers(1, 3))):
        size = min(len(cids), int(rng.integers(2, 4)))
        couple, *after = (str(c) for c in rng.choice(cids, size=size, replace=False))
        spec = ConstraintSpec(kind="antecedence", couple=couple, after=tuple(after))
        constraints.insert(int(rng.integers(0, len(constraints) + 1)), spec)
    return dataclasses.replace(model, constraints=tuple(constraints))


def merge_models(blocks):
    """One model holding every block; blocks must share no names."""
    return AllocationModel(
        functions=sum((b.functions for b in blocks), ()),
        resources=sum((b.resources for b in blocks), ()),
        couples=sum((b.couples for b in blocks), ()),
        situations={"S1": {k: v for b in blocks for k, v in b.situations["S1"].items()}},
        xor_groups=sum((b.xor_groups for b in blocks), ()),
        constraints=sum((b.constraints for b in blocks), ()),
        costs={"w": {k: v for b in blocks for k, v in b.costs["w"].items()}},
    )


# ---------------------------------------------------------------------------
# packaged cycling model


class TestBikeModel:
    def test_min_config_over_calm_situations(self):
        m = default_bike_model()
        reqs = m.min_config(["S1", "S4", "S6"])
        assert [str(r) for r in reqs] == ["F1-H", "F4-H"]

    def test_pot_over_calm_situations(self):
        m = default_bike_model()
        pot = m.pot(["S1", "S4", "S6"])
        assert [str(e) for e in pot.entries] == ["F1-H", "F1-M if F1-H", "F3-M", "F4-H"]

    def test_calm_situations_feasible(self):
        m = default_bike_model()
        assert m.check(["S1", "S4", "S6"]).feasible

    def test_min_rider_load_allocation(self):
        m = default_bike_model()
        sol = m.solve(["S1", "S4", "S6"], "rider_load")
        assert sol.couples == ("F1-H", "F1-M", "F4-H")
        assert sol.cost == pytest.approx(3.0)

    def test_min_energy_allocation(self):
        m = default_bike_model()
        sol = m.solve(["S1", "S4", "S6"], "energy")
        assert sol.couples == ("F1-H", "F4-H")
        assert sol.cost == pytest.approx(0.0)

    def test_demanding_situations_conflict_on_f2(self):
        m = default_bike_model()
        report = m.check(["S2", "S7", "S8"])
        assert not report.feasible
        assert len(report.conflicts) == 1
        text = str(report.conflicts[0])
        assert "F2-H xor F2-M" in text
        assert "F2-H impossible in {S7}" in text
        assert "F2-M impossible in {S8}" in text

    def test_demanding_situations_unsolvable_with_core(self):
        m = default_bike_model()
        with pytest.raises(InfeasibleError) as err:
            m.solve(["S2", "S7", "S8"], "energy")
        assert err.value.report["core"] == ["F2-H xor F2-M"]

    def test_packaged_file_matches_example_copy(self):
        from importlib.resources import files

        packaged = files("oft.data").joinpath("bike.json").read_bytes()
        example = Path(__file__).resolve().parents[1] / "examples" / "bike.json"
        with open(example, "rb") as fh:
            assert fh.read() == packaged

    def test_unknown_situation(self):
        with pytest.raises(DataError, match="S99"):
            default_bike_model().check(["S1", "S99"])

    def test_unknown_criterion_lists_known_ones(self):
        with pytest.raises(ConfigError) as err:
            default_bike_model().solve(["S1"], "comfort")
        assert "energy" in str(err.value) and "rider_load" in str(err.value)


# ---------------------------------------------------------------------------
# reference equivalence


class TestReferenceEquivalence:
    def test_solver_matches_brute_force_on_random_models(self, rng):
        checked = 0
        infeasible = 0
        for _ in range(500):
            model = random_model(rng)
            sids = [
                s for s in model.situations if rng.random() < 0.7
            ] or [next(iter(model.situations))]
            want = ref_solve(model, sids, "w")
            if want is None:
                infeasible += 1
                with pytest.raises(InfeasibleError) as err:
                    model.solve(sids, "w")
                assert err.value.report["core"] == ref_core(model, sids)
            else:
                sol = model.solve(sids, "w")
                assert (sol.cost, sol.couples) == want
            checked += 1
        assert checked == 500
        assert infeasible > 10  # the generator must actually produce conflicts

    def test_solver_matches_brute_force_with_antecedence_under_a_history(self, rng):
        # an antecedence couple whose antecedents are not all in the history
        # is forced out, and switching that constraint off in the core's
        # trials must free it again
        infeasible = antecedence_in_core = 0
        for _ in range(300):
            model = with_antecedence(random_model(rng), rng)
            sids = [s for s in model.situations if rng.random() < 0.7] or list(model.situations)[:1]
            history = frozenset(c.id for c in model.couples if rng.random() < 0.5)
            want = ref_solve(model, sids, "w", history)
            if want is None:
                infeasible += 1
                with pytest.raises(InfeasibleError) as err:
                    model.solve(sids, "w", history=history)
                core = err.value.report["core"]
                assert core == ref_core(model, sids, history)
                antecedence_in_core += any(item.startswith("antecedence") for item in core)
            else:
                sol = model.solve(sids, "w", history=history)
                assert (sol.cost, sol.couples) == want
        assert infeasible > 10
        assert antecedence_in_core > 10

    def test_solver_matches_brute_force_on_pots_12_to_18(self, rng):
        infeasible = 0
        for pot_size in range(12, 19):
            for _ in range(6):
                model = random_pot_model(rng, pot_size)
                assert len(model.pot(["S1"]).couples) == pot_size
                want = ref_optimum(model, ["S1"], "w")
                if want is None:
                    infeasible += 1
                    with pytest.raises(InfeasibleError) as err:
                        model.solve(["S1"], "w")
                    assert err.value.report["core"] == ref_core(model, ["S1"])
                else:
                    sol = model.solve(["S1"], "w")
                    assert (sol.cost, sol.couples) == want
        assert 3 <= infeasible <= 30  # both outcomes must be exercised

    def test_pot_40_blocks_solve_to_the_union_of_block_optima(self, rng):
        # four independent 10-couple blocks; each cost gets its own binary
        # fraction, so no two subsets cost the same and the optimum is unique
        blocks, optima = [], []
        while len(blocks) < 4:
            block = random_pot_model(rng, 10, tag=str(len(blocks)))
            offset = 10 * len(blocks)
            pot = block.pot(["S1"]).couples
            costs = dict(block.costs["w"])
            for i, cid in enumerate(pot):
                costs[cid] += 2.0 ** -(offset + i + 1)
            block = dataclasses.replace(block, costs={"w": costs})
            best = ref_solve(block, ["S1"], "w")
            if best is not None:
                blocks.append(block)
                optima.append(best)
        model = merge_models(blocks)
        assert len(model.pot(["S1"]).couples) == 40
        t0 = time.perf_counter()
        sol = model.solve(["S1"], "w")
        elapsed = time.perf_counter() - t0
        assert sol.couples == tuple(sorted(c for _, key in optima for c in key))
        assert sol.cost == float_sum(cost for cost, _ in optima)
        assert elapsed < 1.0

        # the same pot with one block made infeasible: the core is that
        # block's own deletion core, every other block's items drop out
        while True:
            bad = random_pot_model(rng, 10, tag="3")
            if ref_solve(bad, ["S1"], "w") is None:
                break
        model = merge_models(blocks[:3] + [bad])
        assert len(model.pot(["S1"]).couples) == 40
        t0 = time.perf_counter()
        with pytest.raises(InfeasibleError) as err:
            model.solve(["S1"], "w")
        elapsed = time.perf_counter() - t0
        assert err.value.report["core"] == ref_core(bad, ["S1"])
        assert elapsed < 1.0

    def test_pot_shrinks_as_situations_accumulate(self, rng):
        for _ in range(80):
            model = random_model(rng)
            sids = list(model.situations)
            for k in range(1, len(sids) + 1):
                smaller = set(model.pot(sids[:k]).couples)
                if k > 1:
                    assert smaller <= prev
                prev = smaller

    def test_requirements_grow_as_situations_accumulate(self, rng):
        for _ in range(80):
            model = random_model(rng)
            sids = list(model.situations)
            prev = set()
            for k in range(1, len(sids) + 1):
                reqs = {r.couples for r in model.min_config(sids[:k])}
                assert prev <= reqs
                prev = reqs

    def test_feasible_unconstrained_models_always_solve_with_zero_costs(self, rng):
        solved = 0
        for _ in range(120):
            model = random_model(rng)
            if model.constraints:
                continue
            sids = list(model.situations)
            if not model.check(sids).feasible:
                continue
            bare = AllocationModel(
                functions=model.functions,
                resources=model.resources,
                couples=model.couples,
                situations=model.situations,
                xor_groups=model.xor_groups,
                costs={"zero": {c.id: 0.0 for c in model.couples}},
            )
            sol = bare.solve(sids, "zero")
            chosen = set(sol.couples)
            for req in ref_requirements(model, sids):
                assert sum(1 for c in req if c in chosen) == 1
            solved += 1
        assert solved > 10

    def test_solutions_are_admissible_post_hoc(self, rng):
        for _ in range(150):
            model = random_model(rng)
            sids = list(model.situations)
            try:
                sol = model.solve(sids, "w")
            except InfeasibleError:
                continue
            chosen = set(sol.couples)
            assert chosen <= set(ref_pot(model, sids))
            for req in ref_requirements(model, sids):
                assert sum(1 for c in req if c in chosen) == 1
            for con in model.constraints:
                assert ref_constraint_ok(con, chosen)
            for group in model.xor_groups:
                assert len([m for m in group if m in chosen]) <= 1


# ---------------------------------------------------------------------------
# behaviour of the pieces


def tiny_model(**kwargs):
    base = dict(
        functions=("A", "B"),
        resources=("H", "M"),
        couples=(Couple("A", "H"), Couple("A", "M"), Couple("B", "H")),
        situations={
            "S1": {"A-H": EXPECTED, "B-H": OPTIONAL},
            "S2": {"A-M": EXPECTED, "B-H": EXPECTED},
        },
        costs={"w": {"A-H": 1.0, "A-M": 2.0, "B-H": 0.5}},
    )
    base.update(kwargs)
    return AllocationModel(**base)


class TestConstraints:
    def test_forbidden_couple_excluded(self):
        m = tiny_model(constraints=(ConstraintSpec(kind="binary", couple="B-H", allowed=False),))
        sol = m.solve(["S1"], "w")
        assert "B-H" not in sol.couples

    def test_disjunctive_forces_a_pick(self):
        m = tiny_model(constraints=(ConstraintSpec(kind="disjunctive", couples=("B-H", "A-M")),))
        sol = m.solve(["S1"], "w")
        assert "B-H" in sol.couples  # cheaper than A-M

    def test_exclusive_blocks_pairs(self):
        m = tiny_model(
            constraints=(ConstraintSpec(kind="exclusive", couples=("A-H", "B-H")),),
            costs={"w": {"A-H": 1.0, "A-M": 2.0, "B-H": -5.0}},
        )
        sol = m.solve(["S1"], "w")
        # B-H would pay for itself but may not ride along with required A-H
        assert sol.couples == ("A-H",)

    def test_capacity_counts_per_resource(self):
        m = tiny_model(
            constraints=(ConstraintSpec(kind="capacity", resource="H", max_functions=1),),
            costs={"w": {"A-H": 1.0, "A-M": 2.0, "B-H": -5.0}},
        )
        sol = m.solve(["S1"], "w")
        assert len([c for c in sol.couples if c.endswith("-H")]) == 1

    def test_conditional_pulls_in_support(self):
        m = tiny_model(
            situations={"S1": {"A-H": EXPECTED, "A-M": OPTIONAL, "B-H": OPTIONAL}},
            constraints=(ConstraintSpec(kind="conditional", couple="B-H", requires=("A-M",)),),
            costs={"w": {"A-H": 1.0, "A-M": 2.0, "B-H": -10.0}},
        )
        sol = m.solve(["S1"], "w")
        assert set(sol.couples) >= {"B-H", "A-M"}

    def test_infeasible_core_is_minimal(self):
        m = tiny_model(constraints=(ConstraintSpec(kind="binary", couple="A-H", allowed=False),))
        with pytest.raises(InfeasibleError) as err:
            m.solve(["S1"], "w")
        assert sorted(err.value.report["core"]) == ["A-H", "binary: A-H forbidden"]

    def test_core_reruns_the_one_compiled_search(self, monkeypatch):
        built = []

        class Counted(dfaplan._Search):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(dfaplan, "_Search", Counted)
        m = tiny_model(constraints=(
            ConstraintSpec(kind="capacity", resource="M", max_functions=1),
            ConstraintSpec(kind="binary", couple="A-H", allowed=False),
            ConstraintSpec(kind="disjunctive", couples=("A-M", "B-H")),
        ))
        with pytest.raises(InfeasibleError) as err:
            m.solve(["S1"], "w")
        assert err.value.report["core"] == ["A-H", "binary: A-H forbidden"]
        assert len(built) == 1

    def test_tie_break_prefers_lexicographic_tuple(self):
        m = tiny_model(costs={"w": {"A-H": 1.0, "A-M": 1.0, "B-H": 0.0}})
        # B-H costs nothing either way; including it changes nothing, so the
        # smaller tuple (without extras it is still lexicographically larger)
        sol = m.solve(["S1"], "w")
        assert sol.couples == ("A-H",)

    @pytest.mark.usefixtures("sum_as_in_python_3_12")
    def test_cost_is_added_left_to_right_under_a_compensating_sum(self):
        # A-H, B-H, Z-H costs 0.1 + 0.2 + 0.3 = 0.6000000000000001 left to
        # right, against 0.3 + 0.3 = 0.6 for C-H, Z-H; a compensated sum
        # makes both 0.6, and the tie would go to the A-H tuple
        m = AllocationModel(
            functions=("A", "B", "C", "Z"),
            resources=("H",),
            couples=tuple(Couple(f, "H") for f in "ABCZ"),
            situations={"S1": {"Z-H": EXPECTED, "A-H": OPTIONAL, "B-H": OPTIONAL,
                               "C-H": OPTIONAL}},
            constraints=(
                ConstraintSpec(kind="disjunctive", couples=("A-H", "C-H")),
                ConstraintSpec(kind="exclusive", couples=("A-H", "C-H")),
                ConstraintSpec(kind="conditional", couple="A-H", requires=("B-H",)),
            ),
            costs={"w": {"A-H": 0.1, "B-H": 0.2, "C-H": 0.3, "Z-H": 0.3}},
        )
        sol = m.solve(["S1"], "w")
        assert (sol.couples, sol.cost) == (("C-H", "Z-H"), 0.6)
        assert ref_solve(m, ["S1"], "w") == (0.6, ("C-H", "Z-H"))


class TestModelOwnsItsTables:
    """A built model keeps copies of its situation and cost tables, viewed
    read-only, so nothing done to a dict after the build reaches a query."""

    def test_changing_the_dicts_passed_in_changes_nothing(self):
        situations = {"S1": {"A-H": EXPECTED, "B-H": OPTIONAL}, "S2": {"A-M": EXPECTED}}
        costs = {"w": {"A-H": 1.0, "A-M": 2.0, "B-H": -0.5}}
        m = tiny_model(situations=situations, costs=costs)
        want = (m.min_config(["S1"]), m.pot(["S1", "S2"]), m.solve(["S1"], "w"))
        costs["w"]["A-H"] = float("nan")
        costs["w"]["B-H"] = 5.0
        costs["x"] = {"A-H": float("nan")}
        situations["S1"]["A-M"] = "bogus"
        situations["S1"]["B-H"] = IMPOSSIBLE
        situations["S3"] = {"A-M": EXPECTED}
        assert (m.min_config(["S1"]), m.pot(["S1", "S2"]), m.solve(["S1"], "w")) == want
        assert m.solve(["S1"], "w").cost == 0.5
        assert set(m.costs) == {"w"} and set(m.situations) == {"S1", "S2"}

    def test_writing_through_the_fields_is_refused(self):
        m = default_bike_model()
        want = m.solve(["S1"], "rider_load")
        for table, key in ((m.costs, "rider_load"), (m.situations, "S1")):
            with pytest.raises(TypeError):
                table[key]["F1-H"] = "bogus"
            with pytest.raises(TypeError):
                table[key] = {}
            with pytest.raises(TypeError):
                del table[key]
        assert m.solve(["S1"], "rider_load") == want

    def test_a_rebuild_from_the_fields_is_validated(self):
        m = default_bike_model()
        costs = {c: dict(t) for c, t in m.costs.items()}
        assert dataclasses.replace(m, costs=costs) == m
        costs["rider_load"]["F1-H"] = float("nan")
        with pytest.raises(ConfigError, match="finite"):
            dataclasses.replace(m, costs=costs)
        situations = {s: {**t, "F1-H": "bogus"} for s, t in m.situations.items()}
        with pytest.raises(ConfigError, match="bad status"):
            dataclasses.replace(m, situations=situations)


class TestAntecedence:
    def model(self):
        return tiny_model(
            constraints=(ConstraintSpec(kind="antecedence", couple="B-H", after=("A-H",)),),
        )

    def test_sequence_respects_history(self):
        m = self.model()
        sols = m.solve_sequence([["S1"], ["S2"]], "w")
        assert "A-H" in sols[0].couples
        assert "B-H" in sols[1].couples  # allowed now, A-H is in the history

    def test_sequence_blocks_premature_pick(self):
        m = self.model()
        # S2 first: B-H is required but nothing has run yet
        with pytest.raises(InfeasibleError):
            m.solve_sequence([["S2"]], "w")

    def test_single_shot_warns_and_ignores(self):
        m = self.model()
        with pytest.warns(UserWarning, match="antecedence"):
            sol = m.solve(["S2"], "w")
        assert "B-H" in sol.couples

    def test_explicit_history_enforced(self):
        m = self.model()
        sol = m.solve(["S2"], "w", history=frozenset({"A-H"}))
        assert "B-H" in sol.couples
        with pytest.raises(InfeasibleError):
            m.solve(["S2"], "w", history=frozenset())


class TestBuiltModel:
    """What a model indexes when it is built, and that it stays as built."""

    def test_fields_are_frozen(self):
        m = tiny_model()
        for name in ("couples", "constraints", "xor_groups", "costs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, ())

    def test_couple_ids_keep_declaration_order(self):
        m = tiny_model(couples=(Couple("B", "H"), Couple("A", "M"), Couple("A", "H")))
        assert m.couple_ids == ("B-H", "A-M", "A-H")
        assert m.pot(["S1"]).couples == ("B-H", "A-H")

    def test_pot_lists_prerequisites_of_two_conditionals_in_declaration_order(self):
        m = tiny_model(
            situations={"S1": {"A-H": EXPECTED, "A-M": OPTIONAL, "B-H": OPTIONAL}},
            constraints=(
                ConstraintSpec(kind="conditional", couple="B-H", requires=("A-M",)),
                ConstraintSpec(kind="binary", couple="A-M", allowed=True),
                ConstraintSpec(kind="conditional", couple="B-H", requires=("A-H",)),
            ),
        )
        entries = {e.couple: e for e in m.pot(["S1"]).entries}
        assert entries["B-H"].conditions == ("A-M", "A-H")
        assert str(entries["B-H"]) == "B-H if A-M and A-H"
        assert entries["A-H"].conditions == ()

    def test_dashed_function_name_rejected(self):
        # the solver reads a couple's resource after the first dash of its
        # id, so F-1-H would escape the capacity limit on H
        with pytest.raises(ConfigError, match="'F-1'.*must not contain '-'"):
            AllocationModel(
                functions=("F-1", "F2"),
                resources=("H",),
                couples=(Couple("F-1", "H"), Couple("F2", "H")),
                situations={"S1": {"F-1-H": EXPECTED, "F2-H": EXPECTED}},
                constraints=(ConstraintSpec(kind="capacity", resource="H", max_functions=1),),
                costs={"w": {"F-1-H": 1.0, "F2-H": 1.0}},
            )
        undashed = AllocationModel(
            functions=("F1", "F2"),
            resources=("H",),
            couples=(Couple("F1", "H"), Couple("F2", "H")),
            situations={"S1": {"F1-H": EXPECTED, "F2-H": EXPECTED}},
            constraints=(ConstraintSpec(kind="capacity", resource="H", max_functions=1),),
            costs={"w": {"F1-H": 1.0, "F2-H": 1.0}},
        )
        with pytest.raises(InfeasibleError) as err:
            undashed.solve(["S1"], "w")
        assert err.value.report["core"] == ["F1-H", "F2-H", "capacity: H <= 1 function(s)"]


class TestModelValidation:
    def test_duplicate_couples(self):
        with pytest.raises(ConfigError):
            tiny_model(couples=(Couple("A", "H"), Couple("A", "H")))

    def test_undeclared_function(self):
        with pytest.raises(ConfigError):
            tiny_model(couples=(Couple("Z", "H"),), situations={}, costs={})

    def test_unknown_couple_in_situation(self):
        with pytest.raises(ConfigError):
            tiny_model(situations={"S1": {"Z-H": EXPECTED}})

    def test_unknown_status(self):
        with pytest.raises(ConfigError):
            tiny_model(situations={"S1": {"A-H": "mandatory"}})

    def test_xor_group_needs_two_members(self):
        with pytest.raises(ConfigError):
            tiny_model(xor_groups=(("A-H",),))

    def test_xor_groups_must_be_disjoint(self):
        with pytest.raises(ConfigError):
            tiny_model(xor_groups=(("A-H", "A-M"), ("A-M", "B-H")))

    def test_constraint_references_checked(self):
        with pytest.raises(ConfigError):
            tiny_model(constraints=(ConstraintSpec(kind="binary", couple="Z-Z", allowed=False),))
        with pytest.raises(ConfigError):
            tiny_model(constraints=(ConstraintSpec(kind="capacity", resource="Q", max_functions=1),))

    def test_costs_must_be_finite(self):
        with pytest.raises(ConfigError):
            tiny_model(costs={"w": {"A-H": float("nan"), "A-M": 0.0, "B-H": 0.0}})
        for cost in (True, "1", None):
            with pytest.raises(ConfigError, match="cost of A-H must be a finite number"):
                tiny_model(costs={"w": {"A-H": cost, "A-M": 0.0, "B-H": 0.0}})

    def test_pot_past_twenty_couples_solves(self):
        functions = tuple(f"F{i}" for i in range(1, 8))
        resources = ("H", "M", "R")
        couples = tuple(Couple(f, r) for f in functions for r in resources)
        m = AllocationModel(
            functions=functions,
            resources=resources,
            couples=couples,
            situations={"S1": {c.id: OPTIONAL for c in couples}},
            costs={"w": {c.id: 0.0 for c in couples}},
        )
        assert len(m.pot(["S1"]).couples) == 21
        sol = m.solve(["S1"], "w")
        assert sol.couples == ()
        assert sol.cost == 0.0

    def test_unknown_constraint_kind(self):
        with pytest.raises(ConfigError, match="exclusiv"):
            ConstraintSpec(kind="exclusiv", couples=("A-H", "B-H"))
        raw = {
            "functions": ["A", "B"],
            "resources": ["H"],
            "couples": ["A-H", "B-H"],
            "situations": {"S1": {"expected": ["A-H"], "optional": ["B-H"]}},
            "constraints": [{"kind": "exclusiv", "couples": ["A-H", "B-H"]}],
            "costs": {"w": {"A-H": 1.0, "B-H": 2.0}},
        }
        with pytest.raises(ConfigError, match="unknown constraint kind"):
            model_from_dict(raw)

    def test_allowed_must_be_a_boolean(self):
        for allowed in ("false", "true", 0, 1, None):
            with pytest.raises(ConfigError, match="allowed"):
                ConstraintSpec(kind="binary", couple="B-H", allowed=allowed)
        raw = {
            "functions": ["A", "B"],
            "resources": ["H"],
            "couples": ["A-H", "B-H"],
            "situations": {"S1": {"expected": ["A-H"], "optional": ["B-H"]}},
            "constraints": [{"kind": "binary", "couple": "B-H", "allowed": "false"}],
            "costs": {"w": {"A-H": 1.0, "B-H": -2.0}},
        }
        with pytest.raises(ConfigError, match="allowed"):
            model_from_dict(raw)
        raw["constraints"][0]["allowed"] = False
        assert model_from_dict(raw).solve(["S1"], "w").couples == ("A-H",)

    def test_max_functions_must_be_a_non_negative_integer(self):
        for limit in ("1", 1.0, True, False, -1):
            with pytest.raises(ConfigError, match="max_functions"):
                ConstraintSpec(kind="capacity", resource="H", max_functions=limit)
        for limit in (0, 2, np.int64(3)):
            assert ConstraintSpec(kind="capacity", resource="H", max_functions=limit).max_functions == limit


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

# constraints of examples/bike.json, each with one fault: a null or missing
# couple id, or a field its kind does not read; the last one is at fault
BIKE_CONDITIONAL = {"kind": "conditional", "couple": "F1-M", "requires": ["F1-H"]}
BAD_CONSTRAINTS = {
    "null prerequisite": (
        [{"kind": "conditional", "couple": "F1-M", "requires": [None]}],
        "conditional constraint: requires must be a list of couple ids"),
    "null disjunct": (
        [BIKE_CONDITIONAL, {"kind": "disjunctive", "couples": [None]}],
        "disjunctive constraint: couples must be a list of couple ids"),
    "binary without a couple": (
        [BIKE_CONDITIONAL, {"kind": "binary", "allowed": False}],
        "binary constraint: couple must be a couple id, got None"),
    "null exclusive member": (
        [BIKE_CONDITIONAL, {"kind": "exclusive", "couples": ["F2-H", None]}],
        "exclusive constraint: couples must be a list of couple ids"),
    "prerequisites as a string": (
        [{"kind": "conditional", "couple": "F1-M", "requires": "F1-H"}],
        "conditional constraint: requires must be a list of couple ids"),
    "a field of another kind": (
        [{"kind": "conditional", "couple": "F1-M", "requires": ["F1-H"], "after": ["F4-H"]}],
        "conditional constraint: takes no after"),
}


class TestConstraintFields:
    @pytest.mark.parametrize("case", BAD_CONSTRAINTS)
    def test_constructor_refuses(self, case):
        constraints, message = BAD_CONSTRAINTS[case]
        with pytest.raises(ConfigError) as info:
            ConstraintSpec(**constraints[-1])
        assert str(info.value) == message

    @pytest.mark.parametrize("case", BAD_CONSTRAINTS)
    def test_model_file_refuses(self, case):
        raw = json.loads((EXAMPLES / "bike.json").read_text())
        raw["constraints"], message = BAD_CONSTRAINTS[case]
        with pytest.raises(ConfigError) as info:
            model_from_dict(raw)
        assert str(info.value) == message

    def test_model_file_refuses_a_key_no_constraint_has(self):
        raw = json.loads((EXAMPLES / "bike.json").read_text())
        raw["constraints"] = [{"kind": "conditional", "couple": "F1-M", "require": ["F1-H"]}]
        with pytest.raises(ConfigError, match="allocation model: .*'require'"):
            model_from_dict(raw)

    @pytest.mark.parametrize("fields", [
        {"kind": "binary", "couple": "A-H", "allowed": False},
        {"kind": "disjunctive", "couples": ["A-H", "B-H"]},
        {"kind": "exclusive", "couples": ["A-H", "B-H"]},
        {"kind": "capacity", "resource": "H", "max_functions": 1},
        {"kind": "conditional", "couple": "A-H", "requires": ["B-H"]},
        {"kind": "antecedence", "couple": "A-H", "after": ["B-H"]},
    ])
    def test_each_kind_takes_the_fields_it_reads(self, fields):
        spec = ConstraintSpec(**fields)
        assert {key: getattr(spec, key) for key in fields} == {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in fields.items()}

    def test_a_field_at_its_default_is_not_set(self):
        assert (ConstraintSpec(kind="exclusive", couples=["A-H"], requires=[], allowed=True)
                == ConstraintSpec(kind="exclusive", couples=("A-H",)))
        with pytest.raises(ConfigError, match="binary constraint: takes no couples, requires"):
            ConstraintSpec(kind="binary", couple="A-H", couples=["A-H"], requires=["B-H"])


class TestModelFiles:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_model(tmp_path / "nope.json")

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{]")
        with pytest.raises(ConfigError):
            load_model(path)

    def test_model_from_dict_round_trip(self):
        raw = json.loads(json.dumps({
            "functions": ["A", "B"],
            "resources": ["H"],
            "couples": ["A-H", "B-H"],
            "situations": {"S1": {"expected": ["A-H"], "optional": ["B-H"]}},
            "costs": {"w": {"A-H": 1.0, "B-H": 2.0}},
        }))
        m = model_from_dict(raw)
        assert [str(r) for r in m.min_config(["S1"])] == ["A-H"]
        assert m.solve(["S1"], "w").couples == ("A-H",)

    def test_duplicate_status_listing_rejected(self):
        raw = {
            "functions": ["A"],
            "resources": ["H"],
            "couples": ["A-H"],
            "situations": {"S1": {"expected": ["A-H"], "optional": ["A-H"]}},
            "costs": {},
        }
        with pytest.raises(ConfigError):
            model_from_dict(raw)

    def test_malformed_couple_id(self):
        raw = {
            "functions": ["A"],
            "resources": ["H"],
            "couples": ["AH"],
            "situations": {},
            "costs": {},
        }
        with pytest.raises(ConfigError):
            model_from_dict(raw)


def test_optimize_requires_requirement_hit_exactly_once():
    # a requirement grouping two couples accepts one pick but not both, even
    # when picking both would be cheaper
    pot_model = tiny_model(
        situations={
            "S1": {"A-H": EXPECTED, "A-M": OPTIONAL, "B-H": OPTIONAL},
            "S2": {"A-H": OPTIONAL, "A-M": EXPECTED, "B-H": EXPECTED},
        },
        xor_groups=(("A-H", "A-M"),),
    )
    reqs = pot_model.min_config(["S1", "S2"])
    assert any(len(r.couples) == 2 for r in reqs)
    sol = optimize(
        reqs,
        pot_model.pot(["S1", "S2"]),
        (),
        {"A-H": -1.0, "A-M": -1.0, "B-H": 0.0},
    )
    assert len(set(sol.couples) & {"A-H", "A-M"}) == 1
