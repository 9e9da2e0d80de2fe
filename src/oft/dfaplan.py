"""Function-allocation planning over situation-dependent couple statuses.

A model declares functions, resources, and the allocatable couples
(function-resource pairs). Every elementary situation assigns each couple a
status: expected (must be covered there), optional (may help), or
impossible (ruled out there); couples not listed in a situation are
impossible in it. A compound situation is a set of elementary ids.

    min_config: couples expected in at least one member situation. Couples
                that share a declared exactly-one group enter as a single
                one-of requirement.
    pot:        couples that are not impossible in any member situation,
                annotated with their conditional prerequisites.
    feasible:   every requirement can be met from the pot.
    optimize:   cheapest subset S with requirements met, min_config-style
                coverage, S inside the pot, and all constraints satisfied.

The solver is an exact depth-first branch-and-bound over the pot, taken in
sorted couple-id order, with constraint propagation at every step and no
limit on the pot size. Cost ties go to the lexicographically smallest
couple-id tuple, and a solution's cost is its couples' costs added left to
right in that sorted order by jsonl.float_sum (builtin sum() compensates
from Python 3.12 on), so results are deterministic and equal, to the bit, to
what trying every subset of the pot would give. When nothing is admissible,
the unsatisfiable core is found by deletion: each requirement, then each
constraint, in declaration order, is dropped for good if the rest still
conflicts. Every trial re-runs the one compiled search with the dropped
items switched off, so the core is the one a new search per trial gives.

Constraint kinds: "binary" (a couple forced out via allowed=false),
"disjunctive" (at least one of a set), "exclusive" (at most one of a set),
"capacity" (per-resource limit on allocated couples), "conditional" (a
couple drags prerequisites in), and "antecedence" (a couple is admissible
only after its antecedents were allocated in an earlier step of a scenario
sequence).

An AllocationModel is frozen. Building one copies its situation and cost
tables, validates the copies and indexes, once, what every query reads: the
couple ids in declaration order, each couple's one-of group and conditional
prerequisites, and the constraints the solver gets (the declared ones plus
one "exclusive" per one-of group).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ConfigError, DataError, InfeasibleError
from .jsonl import DATA, config_errors, float_sum, is_finite_number, is_integer, load_json, number

EXPECTED, OPTIONAL, IMPOSSIBLE = "expected", "optional", "impossible"

# the fields each constraint kind reads besides `kind`; it leaves the others
# at their defaults
CONSTRAINT_FIELDS = {
    "binary": ("couple", "allowed"),
    "disjunctive": ("couples",),
    "exclusive": ("couples",),
    "capacity": ("resource", "max_functions"),
    "conditional": ("couple", "requires"),
    "antecedence": ("couple", "after"),
}
CONSTRAINT_KINDS = tuple(CONSTRAINT_FIELDS)


@dataclass(frozen=True)
class Couple:
    """One allocatable function-resource pair, e.g. F1-H."""

    function: str
    resource: str

    @property
    def id(self) -> str:
        return f"{self.function}-{self.resource}"


@dataclass(frozen=True)
class Requirement:
    """Cover obligation: one couple, or exactly one of several."""

    couples: tuple

    def __str__(self):
        return " xor ".join(self.couples)


@dataclass(frozen=True)
class PotEntry:
    couple: str
    conditions: tuple = ()

    def __str__(self):
        if self.conditions:
            return f"{self.couple} if " + " and ".join(self.conditions)
        return self.couple


@dataclass(frozen=True)
class PotResult:
    entries: tuple
    eliminated: dict  # couple id -> tuple of situations where it is impossible

    @property
    def couples(self) -> tuple:
        return tuple(e.couple for e in self.entries)


@dataclass(frozen=True)
class Conflict:
    requirement: Requirement
    eliminated: dict  # couple id -> situations that ruled it out

    def __str__(self):
        parts = []
        for couple in self.requirement.couples:
            where = ", ".join(self.eliminated.get(couple, ()))
            parts.append(f"{couple} impossible in {{{where}}}" if where else couple)
        return f"requirement {self.requirement} unsatisfiable: " + "; ".join(parts)


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    conflicts: tuple


@dataclass(frozen=True)
class Solution:
    couples: tuple  # sorted couple ids
    cost: float


@dataclass(frozen=True)
class ConstraintSpec:
    """One declared constraint: its kind and the fields that kind reads
    (CONSTRAINT_FIELDS). Lists of couple ids are kept as tuples. A missing
    or non-string couple id, or a field its kind does not read, is a
    ConfigError."""

    kind: str
    couples: tuple = ()
    couple: Optional[str] = None
    requires: tuple = ()
    after: tuple = ()
    resource: Optional[str] = None
    max_functions: Optional[int] = None
    allowed: bool = True

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in CONSTRAINT_FIELDS):
            raise ConfigError(
                f"unknown constraint kind {self.kind!r}; known kinds are {', '.join(CONSTRAINT_KINDS)}"
            )
        what = f"{self.kind} constraint"
        reads = CONSTRAINT_FIELDS[self.kind]
        with config_errors(what):
            for name in ("couples", "requires", "after"):  # JSON lists of couple ids
                ids = getattr(self, name)
                if isinstance(ids, (str, bytes, Mapping)) or not all(isinstance(c, str) for c in ids):
                    raise ConfigError(f"{what}: {name} must be a list of couple ids")
                object.__setattr__(self, name, tuple(ids))
            unread = [f.name for f in fields(self)[1:]
                      if f.name not in reads and getattr(self, f.name) != f.default]
        if unread:
            raise ConfigError(f"{what}: takes no {', '.join(unread)}")
        if "couple" in reads and not isinstance(self.couple, str):
            raise ConfigError(f"{what}: couple must be a couple id, got {self.couple!r}")
        if not isinstance(self.allowed, bool):
            raise ConfigError(f"{what}: allowed must be true or false, got {self.allowed!r}")
        n = self.max_functions
        if n is not None and not (is_integer(n) and n >= 0):
            raise ConfigError(f"{what}: max_functions must be a non-negative integer, got {n!r}")

    def __str__(self):
        if self.kind == "binary":
            state = "allowed" if self.allowed else "forbidden"
            return f"binary: {self.couple} {state}"
        if self.kind == "disjunctive":
            return "disjunctive: at least one of {" + ", ".join(self.couples) + "}"
        if self.kind == "exclusive":
            return "exclusive: at most one of {" + ", ".join(self.couples) + "}"
        if self.kind == "capacity":
            return f"capacity: {self.resource} <= {self.max_functions} function(s)"
        if self.kind == "conditional":
            return f"conditional: {self.couple} requires " + " and ".join(self.requires)
        return f"antecedence: {self.couple} after " + " and ".join(self.after)


@dataclass(frozen=True)
class AllocationModel:
    """A validated allocation model, frozen once built.

    Building it checks every couple, situation, one-of group, constraint
    and cost table, and indexes what the queries read: `couple_ids` in
    declaration order, each couple's one-of group, each couple's
    conditional prerequisites in declaration order, and the solver's
    constraints (the declared ones, then one "exclusive" per one-of group,
    in group order). A function name may not contain "-": the solver finds
    a couple's resource after the first dash of its id, so a couple F-1-H
    would escape a capacity limit on H. A check that fails, or an argument
    of another shape, is a ConfigError.

    `situations` and `costs` are read-only views of copies of the dicts
    given, inner tables included, so changing those dicts after the build
    changes no query's result.
    """

    functions: tuple
    resources: tuple
    couples: tuple  # of Couple, in declaration order
    situations: Mapping  # situation id -> {couple id: status}; unlisted couples impossible
    xor_groups: tuple = ()
    constraints: tuple = ()
    costs: Mapping = field(default_factory=dict)  # criterion -> {couple id: cost}

    def __post_init__(self):
        with config_errors("allocation model"):
            situations = {sid: dict(statuses) for sid, statuses in self.situations.items()}
            costs = {criterion: dict(table) for criterion, table in self.costs.items()}
            ids = tuple(c.id for c in self.couples)
            if len(set(ids)) != len(ids):
                raise ConfigError("model: duplicate couples")
            known = set(ids)
            for c in self.couples:
                if c.function not in self.functions or c.resource not in self.resources:
                    raise ConfigError(f"model: couple {c.id} uses undeclared function or resource")
                if "-" in c.function:
                    raise ConfigError(f"model: function name {c.function!r} must not contain '-'")
            for sid, statuses in situations.items():
                for cid, status in statuses.items():
                    if cid not in known:
                        raise ConfigError(f"situation {sid}: unknown couple {cid}")
                    if status not in (EXPECTED, OPTIONAL, IMPOSSIBLE):
                        raise ConfigError(f"situation {sid}: bad status {status!r} for {cid}")
            group_of = {}
            for group in self.xor_groups:
                if len(group) < 2:
                    raise ConfigError("model: one-of groups need at least 2 couples")
                for cid in group:
                    if cid not in known:
                        raise ConfigError(f"one-of group: unknown couple {cid}")
                    if cid in group_of:
                        raise ConfigError(f"one-of groups must be disjoint, {cid} repeats")
                    group_of[cid] = tuple(group)
            prerequisites = {}
            for con in self.constraints:
                for cid in (*con.couples, con.couple, *con.requires, *con.after):
                    if cid is not None and cid not in known:
                        raise ConfigError(f"constraint {con}: unknown couple {cid}")
                if con.kind == "capacity":
                    if con.resource not in self.resources or con.max_functions is None:
                        raise ConfigError(f"constraint {con}: bad capacity spec")
                elif con.kind == "conditional":
                    prerequisites[con.couple] = (*prerequisites.get(con.couple, ()), *con.requires)
            for criterion, table in costs.items():
                for cid, value in table.items():
                    if cid not in known:
                        raise ConfigError(f"costs[{criterion}]: unknown couple {cid}")
                    if not is_finite_number(value):
                        raise ConfigError(f"costs[{criterion}]: cost of {cid} must be a finite number")
                # so that no sum of some of the costs, in any order, overflows
                if not math.isfinite(float_sum(map(abs, table.values()))):
                    raise ConfigError(f"costs[{criterion}]: the costs add up past the largest float")
        # the queries read the copies, the fields are read-only views of them
        # (read through the views, a solve of the bundled model took 4% longer)
        object.__setattr__(self, "_situations", situations)
        object.__setattr__(self, "_costs", costs)
        object.__setattr__(self, "situations", _read_only(situations))
        object.__setattr__(self, "costs", _read_only(costs))
        object.__setattr__(self, "couple_ids", ids)
        object.__setattr__(self, "_group_of", group_of)
        object.__setattr__(self, "_prerequisites", prerequisites)
        object.__setattr__(self, "_solver_constraints", (
            *self.constraints,
            *(ConstraintSpec(kind="exclusive", couples=tuple(group)) for group in self.xor_groups),
        ))

    def _check_situations(self, situation_ids: Sequence[str]) -> list:
        """(situation id, status table) for each named situation."""
        sids = tuple(situation_ids)
        unknown = [s for s in sids if s not in self._situations]
        if unknown:
            raise DataError(f"unknown situation(s): {', '.join(unknown)}")
        return [(s, self._situations[s]) for s in sids]

    # -- core operations ---------------------------------------------------

    def min_config(self, situation_ids: Sequence[str]) -> tuple:
        """Requirements from couples expected in any member situation."""
        tables = self._check_situations(situation_ids)
        requirements = {}  # a one-of group enters once, at its first expected couple
        for cid in self.couple_ids:
            if any(table.get(cid) == EXPECTED for _, table in tables):
                group = self._group_of.get(cid, (cid,))
                requirements.setdefault(group, Requirement(couples=group))
        return tuple(requirements.values())

    def pot(self, situation_ids: Sequence[str]) -> PotResult:
        """Couples not impossible anywhere, plus who eliminated the rest."""
        tables = self._check_situations(situation_ids)
        entries = []
        eliminated = {}
        for cid in self.couple_ids:
            ruled_out = tuple(s for s, table in tables if table.get(cid, IMPOSSIBLE) == IMPOSSIBLE)
            if ruled_out:
                eliminated[cid] = ruled_out
            else:
                entries.append(PotEntry(couple=cid, conditions=self._prerequisites.get(cid, ())))
        return PotResult(entries=tuple(entries), eliminated=eliminated)

    def check(self, situation_ids: Sequence[str]) -> FeasibilityReport:
        return check_feasible(self.min_config(situation_ids), self.pot(situation_ids))

    def solve(
        self,
        situation_ids: Sequence[str],
        criterion: str,
        history: Optional[Iterable[str]] = None,
    ) -> Solution:
        if criterion not in self._costs:
            raise ConfigError(
                f"unknown cost criterion {criterion!r}; model defines {sorted(self._costs)}"
            )
        return optimize(
            self.min_config(situation_ids),
            self.pot(situation_ids),
            self._solver_constraints,
            self._costs[criterion],
            history=history,
        )

    def solve_sequence(self, steps: Sequence[Sequence[str]], criterion: str) -> list:
        """Solve a scenario step by step, honouring antecedence constraints."""
        history: set = set()
        solutions = []
        for step in steps:
            solution = self.solve(step, criterion, history=frozenset(history))
            solutions.append(solution)
            history.update(solution.couples)
        return solutions


def _read_only(tables: dict) -> MappingProxyType:
    """A read-only view of {key: table dict}, each table viewed read-only too."""
    return MappingProxyType({key: MappingProxyType(table) for key, table in tables.items()})


def check_feasible(min_config: Sequence[Requirement], pot: PotResult) -> FeasibilityReport:
    """Every requirement needs at least one of its couples in the pot."""
    available = set(pot.couples)
    conflicts = []
    for req in min_config:
        if not any(c in available for c in req.couples):
            conflicts.append(
                Conflict(
                    requirement=req,
                    eliminated={c: pot.eliminated.get(c, ()) for c in req.couples},
                )
            )
    return FeasibilityReport(feasible=not conflicts, conflicts=tuple(conflicts))


def optimize(
    min_config: Sequence[Requirement],
    pot: PotResult,
    constraints: Sequence[ConstraintSpec],
    costs: Mapping[str, float],
    history: Optional[Iterable[str]] = None,
) -> Solution:
    """Cheapest admissible subset of the pot covering all requirements.

    An exact depth-first branch-and-bound over the pot in sorted couple-id
    order (see _Search), for pots of any size. Ties on cost go to the
    smallest sorted couple-id tuple, and the cost is summed over that tuple
    in order, so the result is the one an enumeration of every subset would
    give. When nothing passes, raises InfeasibleError with a minimal
    unsatisfiable core, found by deletion (see _unsat_core).
    """
    active = []
    for con in constraints:
        if con.kind == "antecedence" and history is None:
            warnings.warn(
                f"ignoring antecedence constraint on {con.couple}: no scenario history",
                stacklevel=2,
            )
            continue
        active.append(con)
    hist = None if history is None else frozenset(history)

    search = _Search(min_config, pot.couples, active, hist, costs)
    best = search.run()
    if best is None:
        core = _unsat_core(search, [*min_config, *active])
        raise InfeasibleError(
            "no allocation satisfies the requirements and constraints",
            report={"core": [str(item) for item in core]},
        )
    return Solution(couples=best[1], cost=best[0])


_FREE = -1


class _Search:
    """Branch-and-bound over the pot, indexed in sorted couple-id order.

    Compiling turns requirements and constraints into cardinality groups
    (lo <= chosen members <= hi): a requirement is exactly one of its
    couples, "exclusive" at most one, "disjunctive" at least one, and
    "capacity" at most max_functions of the couples on its resource. A
    "conditional" couple gets a prerequisite list. A forbidden "binary"
    couple, a conditional one whose prerequisite is outside the pot, and an
    "antecedence" couple whose antecedents are not all in the history are
    forced out. Each group, forced-out couple and prerequisite keeps its
    item, so that a run can switch items off for the unsatisfiable core.

    Every decision propagates to a fixpoint: a group at its upper limit
    pushes its free members out, a group that needs all its live members
    pulls them in, a chosen couple pulls its prerequisites in, and a couple
    left out pushes out the couples that require it. A group outside its
    limits is a contradiction. The counters behind these rules are updated
    as couples are decided and restored from a trail on backtracking.

    The search branches on the smallest free index, so everything below it
    is decided; it tries first the value that keeps the cost bound. The
    bound is the cost so far plus the negative costs still free, where a
    group admitting at most one couple counts only its cheapest free member
    (that member's cost even when positive, if the group needs one), less a
    slack that covers float rounding. A node is pruned when the bound
    exceeds the incumbent's cost, or equals it while the couples chosen so
    far already sort every completion after the incumbent's couple-id
    tuple. Leaves compare (cost, sorted ids) with the cost summed over the
    sorted ids, as the exhaustive definition does.
    """

    def __init__(self, min_config, pot_couples, constraints, history, costs):
        self.ids = ids = tuple(sorted(pot_couples))
        index = {c: i for i, c in enumerate(ids)}
        # items are numbered: the requirements, then the constraints
        self.groups = groups = [([index[c] for c in req.couples if c in index], 1, 1, item)
                                for item, req in enumerate(min_config)]
        self.forced_out = []  # (couple index, item)
        self.edges = []  # (couple index, prerequisite index, item)
        for item, con in enumerate(constraints, len(groups)):
            kind = con.kind
            if kind == "binary":
                if not con.allowed and con.couple in index:
                    self.forced_out.append((index[con.couple], item))
            elif kind == "disjunctive":
                groups.append(([index[c] for c in con.couples if c in index], 1, math.inf, item))
            elif kind == "exclusive":
                groups.append(([index[c] for c in con.couples if c in index], 0, 1, item))
            elif kind == "capacity":
                # couple ids are FUNCTION-RESOURCE with a dash-free function part
                on_resource = [i for i, c in enumerate(ids) if c.split("-", 1)[1] == con.resource]
                groups.append((on_resource, 0, con.max_functions, item))
            elif kind == "conditional":
                if con.couple in index:
                    i = index[con.couple]
                    for r in con.requires:
                        if r in index:
                            self.edges.append((i, index[r], item))
                        else:
                            self.forced_out.append((i, item))
            elif kind == "antecedence":
                if (
                    history is not None
                    and con.couple in index
                    and not all(a in history for a in con.after)
                ):
                    self.forced_out.append((index[con.couple], item))
        self.members = [m for m, _, _, _ in groups]
        self.member_of = [[] for _ in ids]
        for g, members in enumerate(self.members):
            for i in members:
                self.member_of[i].append(g)

        self.costs = costs
        self.weight = weight = [costs.get(c, 0.0) for c in ids]
        self.slack = _rounding_slack(weight)
        # Disjoint groups that admit at most one couple: the cost bound counts
        # only the cheapest free member of each, and other couples' negative
        # costs.
        self.single_pick = []  # (members by rising cost, whether one must be picked)
        picked_once = set()
        for members, lo, hi, _ in groups:
            if hi < 2 and members and picked_once.isdisjoint(members):
                picked_once.update(members)
                self.single_pick.append((sorted(set(members), key=weight.__getitem__), lo >= 1))
        self.loose = [0.0 if i in picked_once else min(w, 0.0) for i, w in enumerate(weight)]

    def _reset(self, off) -> Optional[list]:
        """Clear the per-run state and switch off the items numbered in `off`:
        their groups admit any count, their couples are not forced out and
        their prerequisite edges are left out. Returns the decisions forced
        before any branching, or None on a contradiction."""
        self.val = [_FREE] * len(self.ids)
        self.n_in = [0] * len(self.groups)
        self.n_live = [len(m) for m in self.members]
        self.trail = []
        self.partial = 0.0  # cost of the chosen couples
        self.neg = float_sum(self.loose)  # negative cost still free outside single-pick groups
        self.chosen = 0  # bit i stands for ids[i]
        self.requires, self.required_by = [[] for _ in self.ids], [[] for _ in self.ids]
        for i, j, item in self.edges:
            if item not in off:
                self.requires[i].append(j)
                self.required_by[j].append(i)
        self.lo, self.hi = [], []
        queue = [(i, 0) for i, item in self.forced_out if item not in off]
        for members, lo, hi, item in self.groups:
            if item in off:
                lo, hi = 0, math.inf
            elif len(members) < lo:
                return None
            if hi < 1:
                queue += [(j, 0) for j in members]
            if len(members) - 1 < lo:
                queue += [(j, 1) for j in members]
            self.lo.append(lo)
            self.hi.append(hi)
        return queue

    def run(self, off=None) -> Optional[tuple]:
        """The best (cost, sorted couple ids), or None when infeasible.

        With `off`, a set of item numbers, those items are switched off and
        the search stops at the first admissible subset.
        """
        queue = self._reset(off or ())
        ids, val, costs, weight = self.ids, self.val, self.costs, self.weight
        n = len(ids)
        if queue is None or not self._propagate(queue):
            return None

        best = None
        best_chosen = 0
        stack = []  # (index, value left to try or None, state before the decision)
        k = 0
        while True:
            while k < n and val[k] != _FREE:
                k += 1
            expand = False
            if k == n:
                key = tuple(ids[i] for i in range(n) if val[i] == 1)
                if off is not None:
                    return (0.0, key)
                cost = float_sum(costs.get(c, 0.0) for c in key)
                if best is None or (cost, key) < best:
                    best, best_chosen = (cost, key), self.chosen
            elif best is None or not self._dominated(best[0], best_chosen):
                # the value that keeps the bound first; an id tuple with k in
                # it sorts before one that skips k for a later couple
                first = 0 if weight[k] > 0 else 1
                state = self._state()
                stack.append((k, 1 - first, state))
                expand = self._propagate([(k, first)])
            while not expand and stack:
                k, alt, state = stack.pop()
                self._restore(state)
                if alt is not None:
                    stack.append((k, None, state))
                    expand = self._propagate([(k, alt)])
            if not expand:
                return best

    def _state(self) -> tuple:
        return (len(self.trail), self.partial, self.neg, self.chosen)

    def _restore(self, state: tuple) -> None:
        mark, self.partial, self.neg, self.chosen = state
        val, trail, member_of = self.val, self.trail, self.member_of
        n_in, n_live = self.n_in, self.n_live
        while len(trail) > mark:
            i = trail.pop()
            if val[i]:
                for g in member_of[i]:
                    n_in[g] -= 1
            else:
                for g in member_of[i]:
                    n_live[g] += 1
            val[i] = _FREE

    def _propagate(self, queue: list) -> bool:
        """Apply the queued decisions and everything they imply; False on a
        contradiction. The counters stay consistent either way, for _restore."""
        val, weight, loose, trail = self.val, self.weight, self.loose, self.trail
        members, member_of, lo, hi = self.members, self.member_of, self.lo, self.hi
        n_in, n_live = self.n_in, self.n_live
        ok = True
        while queue and ok:
            i, v = queue.pop()
            if val[i] != _FREE:
                ok = val[i] == v
                continue
            val[i] = v
            trail.append(i)
            w = weight[i]
            self.neg -= loose[i]
            if v:
                self.partial += w
                self.chosen |= 1 << i
                for g in member_of[i]:
                    count = n_in[g] = n_in[g] + 1
                    if count > hi[g]:
                        ok = False
                    elif count + 1 > hi[g]:
                        queue += [(j, 0) for j in members[g] if val[j] == _FREE]
                queue += [(j, 1) for j in self.requires[i]]
            else:
                for g in member_of[i]:
                    count = n_live[g] = n_live[g] - 1
                    if count < lo[g]:
                        ok = False
                    elif count - 1 < lo[g]:
                        queue += [(j, 1) for j in members[g] if val[j] == _FREE]
                queue += [(j, 0) for j in self.required_by[i]]
        return ok

    def _dominated(self, best_cost: float, best_chosen: int) -> bool:
        """No completion of the current node can beat the incumbent."""
        val, weight = self.val, self.weight
        bound = self.partial + self.neg
        for members, needs_one in self.single_pick:
            for j in members:
                if val[j] == _FREE:
                    if needs_one or weight[j] < 0:
                        bound += weight[j]
                    break
        bound -= self.slack
        if bound != best_cost:
            return bound > best_cost
        # No completion is cheaper, so one must sort before the incumbent.
        # The incumbent is an earlier leaf: it parted from this node at a
        # branch below the current index, and both agree on every index
        # before that branch. So the chosen couples decide the order unless
        # it hinges on whether a free couple is picked, and then the node
        # stays.
        return not _sorts_before(self.chosen, best_chosen)


def _sorts_before(a: int, b: int) -> bool:
    """Whether index set a, as a sorted tuple, is smaller than index set b."""
    diff = a ^ b
    if not diff:
        return False
    j = (diff & -diff).bit_length() - 1  # the smallest index in one set only
    if a >> j & 1:
        return b >> j != 0  # unless b ends there, a prefix of a
    return a >> j == 0  # when a ends there, a prefix of b


def _rounding_slack(weights) -> float:
    """How far a float sum of some of the weights, in any order, may fall
    below the value the search's running bound computes for it.

    Zero when every such sum is exact: all weights are multiples of one
    power-of-two fraction and no sum can outgrow the 53-bit mantissa.
    """
    magnitude = math.fsum(abs(w) for w in weights)
    if not math.isfinite(magnitude):
        return math.inf
    denominator = max((w.as_integer_ratio()[1] for w in weights), default=1)
    if denominator <= 2**53 and magnitude * denominator <= 2**53:
        return 0.0
    return (len(weights) + 1) * magnitude * 2.0**-50


def _unsat_core(search: _Search, items: list) -> list:
    """Greedy minimal subset of the search's items (its requirements, then
    its constraints) that still conflicts.

    Each item, in that order, is switched off for good when the search with
    what is left finds no admissible subset of the pot.
    """
    off = set()
    for item in range(len(items)):
        if search.run(off | {item}) is None:
            off.add(item)
    return [obj for item, obj in enumerate(items) if item not in off]


# ---------------------------------------------------------------------------
# model files


def load_model(path: str | Path) -> AllocationModel:
    return model_from_dict(load_json(path, "allocation model"))


def model_from_dict(raw: Mapping) -> AllocationModel:
    with config_errors("allocation model"):
        couples = []
        for cid in raw["couples"]:
            function, _, resource = cid.partition("-")
            if not function or not resource:
                raise ConfigError(f"couple id {cid!r} must look like FUNCTION-RESOURCE")
            couples.append(Couple(function=function, resource=resource))
        situations = {}
        for sid, spec in raw["situations"].items():
            statuses = {}
            for cid in spec.get("expected", []):
                statuses[cid] = EXPECTED
            for cid in spec.get("optional", []):
                if cid in statuses:
                    raise ConfigError(f"situation {sid}: {cid} both expected and optional")
                statuses[cid] = OPTIONAL
            situations[sid] = statuses
        return AllocationModel(
            functions=tuple(raw["functions"]),
            resources=tuple(raw["resources"]),
            couples=tuple(couples),
            situations=situations,
            xor_groups=tuple(tuple(g) for g in raw.get("xor_groups", [])),
            constraints=tuple(ConstraintSpec(**c) for c in raw.get("constraints", [])),
            costs={
                criterion: {cid: number(v) for cid, v in table.items()}
                for criterion, table in raw.get("costs", {}).items()
            },
        )


def default_bike_model() -> AllocationModel:
    return load_model(DATA / "bike.json")
