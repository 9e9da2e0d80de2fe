"""Workload fusion: fuzzy discretization of continuous indicators plus a
small naive-fusion network over a five-level workload variable.

The network has one root (workload level 1..5) and independent child
indicators, each a labelled discrete variable with a conditional table
P(label | level). The prior is a tuple of five floats, each table a tuple
of five rows of floats: no numpy. Evidence is a mapping {variable: {label:
weight}}, one soft likelihood per child (non-negative weights, not
necessarily normalized); the posterior is exact:

    post(k)  proportional to  prior(k) * prod_children sum_l lik(l) * cpt[k, l]

Children without evidence drop out (their labels marginalize to 1), and a
label that evidence leaves out has likelihood 0. Every sum and product is
taken in Python floats in a fixed order (children in the evidence's order,
labels in table order, levels 1..5), never by a BLAS kernel, so a posterior
is the same bits on every CPU and numpy build. `fuzzify` gives one
child's likelihood from a reading: only the labels with nonzero weight, one
label on a plateau of the partition, two inside an overlap.

`posterior` returns the five level probabilities as a tuple of Python
floats. `fuse` packages one second's result as an `MwlState`: the second,
that tuple, and the level `mwl_level` reads from it. The state keeps
nothing of the evidence it was fused from.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, NoReturn, Sequence

from .errors import ConfigError, DataError
from .jsonl import DATA, config_errors, dump_jsonl, float_sum, load_json, number

N_LEVELS = 5


@dataclass(frozen=True)
class FuzzyPartition:
    """Trapezoidal partition of a real interval into ordered labels.

    Labels are listed in ascending order of the variable. Between adjacent
    labels sits an overlap interval [lo, hi] where membership crossfades
    linearly; outside the overlaps exactly one label holds with weight 1.
    Memberships therefore always sum to 1 on the domain. Arguments of any
    other shape are a ConfigError.
    """

    variable: str
    labels: tuple
    domain: tuple
    overlaps: tuple

    def __post_init__(self):
        what = f"partition {self.variable}"
        with config_errors(what):
            labels = _labels(self.labels, what)
            overlaps = tuple((number(lo), number(hi)) for lo, hi in map(_list, _list(self.overlaps)))
            domain = tuple(map(number, _list(self.domain)))
            if len(domain) != 2:
                raise ConfigError(f"{what}: domain must be [low, high]")
            if len(overlaps) != len(labels) - 1:
                raise ConfigError(f"{what}: need {len(labels) - 1} overlaps, got {len(overlaps)}")
            lo_dom, hi_dom = domain
            if not lo_dom < hi_dom:  # NaN too
                raise ConfigError(f"{what}: empty domain")
            cursor = lo_dom
            for lo, hi in overlaps:
                if not (cursor <= lo < hi <= hi_dom):
                    raise ConfigError(f"{what}: overlaps must be increasing and inside the domain")
                if hi - lo == math.inf:
                    raise ConfigError(f"{what}: overlap ({lo}, {hi}) is too wide")
                cursor = hi
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "overlaps", overlaps)


def fuzzify(x: float, partition: FuzzyPartition) -> dict:
    """The labels of `partition` with nonzero weight at `x`, in label order:
    one variable's likelihood, ready for `posterior`.

    The weights are positive and finite and sum to 1 up to rounding: inside
    an overlap `up` lies in [0, 1], because the overlap is narrower than the
    largest float. A non-finite reading is a DataError; one outside the
    domain is clamped to it with a warning.
    """
    if not math.isfinite(x):
        raise DataError(f"partition {partition.variable}: reading {x} is not finite")
    lo_dom, hi_dom = partition.domain
    if x < lo_dom or x > hi_dom:
        warnings.warn(
            f"partition {partition.variable}: {x} outside domain, clamped", stacklevel=2
        )
        x = min(max(x, lo_dom), hi_dom)
    labels = partition.labels
    for i, (lo, hi) in enumerate(partition.overlaps):
        if x <= lo:
            return {labels[i]: 1.0}
        if x < hi:
            up = float((x - lo) / (hi - lo))
            if up == 0.0:
                return {labels[i]: 1.0}
            if up == 1.0:
                return {labels[i + 1]: 1.0}
            return {labels[i]: 1.0 - up, labels[i + 1]: up}
    return {labels[-1]: 1.0}


def _list(values) -> tuple:
    """`values` as a tuple; a string ("abc") or a mapping iterates, but is no
    list, and gives ()."""
    return () if isinstance(values, (str, bytes, Mapping)) else tuple(values)


def _labels(values, what: str) -> tuple:
    """`values`, a list of unique labels, at least one."""
    labels = _list(values)
    if not labels or len(set(labels)) != len(labels):
        raise ConfigError(f"{what}: labels must be a non-empty list of unique labels")
    return labels


def _distribution(values, size: int, what: str) -> tuple:
    """`values`, a list of `size` numbers, each >= 0 and summing to 1 within 1e-9."""
    row = tuple(map(number, _list(values)))
    total = float_sum(row)
    if len(row) != size or not (all(p >= 0.0 for p in row) and abs(total - 1.0) <= 1e-9):
        raise ConfigError(f"{what} must be a distribution of {size} entries (>= 0, sum 1)")
    return row


@dataclass(frozen=True)
class MwlNetwork:
    """Five-level workload root with independent labelled child indicators.

    `prior` is a tuple of five floats, level 1 first; a child's table is a
    tuple of five row tuples of floats, row k being P(label | level k + 1).
    `children` and `partitions` are read-only views of copies. A partition
    named after a child gives labels of that child.
    """

    prior: tuple
    children: Mapping  # name -> (labels tuple, table)
    partitions: Mapping = field(default_factory=dict)  # variable -> FuzzyPartition

    def __post_init__(self):
        with config_errors("workload network"):
            prior = _distribution(self.prior, N_LEVELS, "prior")
            children = {}
            for name, (labels, table) in self.children.items():
                labels = _labels(labels, f"child {name}")
                rows = tuple(_distribution(row, len(labels), f"child {name}: row") for row in table)
                if len(rows) != N_LEVELS:
                    raise ConfigError(f"child {name}: table must have {N_LEVELS} rows")
                children[name] = (labels, rows)
            partitions = dict(self.partitions)
            for var, partition in partitions.items():
                if var in children:
                    unknown = [label for label in partition.labels if label not in children[var][0]]
                    if unknown:
                        raise ConfigError(
                            f"partition {var}: labels {unknown} are not labels of child {var}")
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "children", MappingProxyType(children))
        object.__setattr__(self, "partitions", MappingProxyType(partitions))
        object.__setattr__(self, "_columns", {  # what posterior reads: each label's column
            name: dict(zip(labels, zip(*rows))) for name, (labels, rows) in children.items()})

    @classmethod
    def from_dict(cls, raw: Mapping) -> "MwlNetwork":
        """The network a parsed JSON document describes; a document of any
        other shape, with an unusable value, or with a partition key other
        than labels, domain and overlaps, is a ConfigError."""
        with config_errors("workload network config"):
            children = {name: (s["labels"], s["cpt"]) for name, s in raw["children"].items()}
            partitions = {var: FuzzyPartition(var, **spec)
                          for var, spec in raw.get("partitions", {}).items()}
            return cls(prior=raw["prior"], children=children, partitions=partitions)

    @classmethod
    def load(cls, path: str | Path) -> "MwlNetwork":
        return cls.from_dict(load_json(path, "workload network config"))

    @classmethod
    def default(cls) -> "MwlNetwork":
        return cls.load(DATA / "mwl_net.json")


def posterior(net: MwlNetwork, evidence: Mapping[str, Mapping[str, float]]) -> tuple:
    """Exact posterior over the five levels given evidence {variable: {label:
    weight}}, as a tuple of five floats, level 1 first.

    The children's terms multiply in the mapping's order. A child's term
    sum_l lik(l) * cpt[k, l] adds the labels in table order, left to right
    from 0.0 in Python floats (jsonl.float_sum's rule, unrolled over the five
    levels); a label the evidence leaves out, or weighs 0, adds +0.0 and is
    skipped. The five products are then summed left to right.
    Up to rounding, the posterior is invariant under the children's order
    and under positive scaling of any likelihood. Raises
    DataError for an unknown variable or label, a weight that is not a
    finite number >= 0, evidence with zero mass under the model (an empty or
    all-zero likelihood has none), or so much mass that it overflows.
    """
    p1, p2, p3, p4, p5 = net.prior
    try:
        for variable, likelihood in evidence.items():
            columns = net._columns.get(variable)
            if columns is None:
                raise DataError(f"evidence for unknown variable {variable!r}")
            if len(likelihood) == 1:
                # the other terms of the sum are +0.0, so this is the same bits
                ((label, weight),) = likelihood.items()
                column = columns.get(label)
                if column is None or not 0.0 <= weight < math.inf:
                    _refuse(variable, likelihood, columns)
                weight = float(weight)
                c1, c2, c3, c4, c5 = column
                c1, c2, c3, c4, c5 = c1 * weight, c2 * weight, c3 * weight, c4 * weight, c5 * weight
            else:
                if not likelihood.keys() <= columns.keys():
                    _refuse(variable, likelihood, columns)
                for weight in likelihood.values():
                    if not 0.0 <= weight < math.inf:
                        _refuse(variable, likelihood, columns)
                # in table order, left to right; a label left out adds +0.0
                c1 = c2 = c3 = c4 = c5 = 0.0
                for label, (d1, d2, d3, d4, d5) in columns.items():
                    weight = likelihood.get(label)
                    if weight:
                        weight = float(weight)
                        c1 += d1 * weight
                        c2 += d2 * weight
                        c3 += d3 * weight
                        c4 += d4 * weight
                        c5 += d5 * weight
            p1, p2, p3, p4, p5 = p1 * c1, p2 * c2, p3 * c3, p4 * c4, p5 * c5
    except OverflowError:  # float() of an integer past the floats, which passes the check
        from decimal import Decimal

        raise DataError(f"evidence for {variable!r}: likelihood {Decimal(int(weight)):.3e} "
                        "is past the float range") from None
    # left to right, the order in which numpy sums five entries
    total = p1 + p2 + p3 + p4 + p5
    if total <= 0.0:
        raise DataError("evidence has zero probability under the model")
    if not total < math.inf:  # inf, or NaN from an overflowed term times a zero one
        raise DataError("evidence likelihoods overflow; scale them down")
    return (p1 / total, p2 / total, p3 / total, p4 / total, p5 / total)


def _refuse(variable: str, likelihood: Mapping, columns: Mapping) -> NoReturn:
    """The DataError for one child's evidence that `posterior` cannot take:
    first an unknown label, then a weight that is not a finite number >= 0."""
    if not likelihood.keys() <= columns.keys():
        unknown = sorted(likelihood.keys() - columns.keys())
        raise DataError(f"evidence for {variable!r} names unknown labels {unknown}")
    for weight in likelihood.values():
        if not 0.0 <= weight < math.inf:
            raise DataError(f"evidence for {variable!r}: likelihood {weight!r} "
                            "is not a finite number >= 0")


def mwl_level(post: Sequence[float]) -> int:
    """Level 1..5 with the highest posterior; exact ties go to the higher level."""
    if len(post) != N_LEVELS:
        raise ValueError(f"posterior must have {N_LEVELS} entries")
    level, best = 0, -math.inf
    for k, p in enumerate(post, start=1):
        if p >= best:
            level, best = k, p
        elif not p < best:  # NaN
            raise ValueError("posterior has no maximum")
    return level


class MwlState(NamedTuple):
    """Fused workload at one second."""

    t: int
    posterior: tuple
    level: int


def fuse(net: MwlNetwork, t: int, evidence: Mapping[str, Mapping[str, float]]) -> MwlState:
    post = posterior(net, evidence)
    return tuple.__new__(MwlState, (t, post, mwl_level(post)))  # unchecked: no __new__ frame


def write_states_jsonl(states: Iterable[MwlState], path: str | Path) -> None:
    dump_jsonl(({"t": t, "posterior": post, "level": level} for t, post, level in states), path)
