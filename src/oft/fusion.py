"""Workload fusion: fuzzy discretization of continuous indicators plus a
small naive-fusion network over a five-level workload variable.

The network has one root (workload level 1..5) and independent child
indicators, each a labelled discrete variable with a conditional table
P(label | level). Evidence is a mapping {variable: {label: weight}}, one
soft likelihood per child (non-negative weights, not necessarily
normalized); the posterior is exact:

    post(k)  proportional to  prior(k) * prod_children sum_l lik(l) * cpt[k, l]

Children without evidence drop out (their labels marginalize to 1), and a
label that evidence leaves out has likelihood 0. `fuzzify` gives one
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
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .jsonl import DATA, dump_jsonl, load_json

N_LEVELS = 5


@dataclass(frozen=True)
class FuzzyPartition:
    """Trapezoidal partition of a real interval into ordered labels.

    Labels are listed in ascending order of the variable. Between adjacent
    labels sits an overlap interval [lo, hi] where membership crossfades
    linearly; outside the overlaps exactly one label holds with weight 1.
    Memberships therefore always sum to 1 on the domain.
    """

    variable: str
    labels: tuple
    domain: tuple
    overlaps: tuple

    def __post_init__(self):
        labels = tuple(self.labels)
        overlaps = tuple((float(lo), float(hi)) for lo, hi in self.overlaps)
        lo_dom, hi_dom = float(self.domain[0]), float(self.domain[1])
        if len(set(labels)) != len(labels) or not labels:
            raise ConfigError(f"partition {self.variable}: labels must be unique and non-empty")
        if len(overlaps) != len(labels) - 1:
            raise ConfigError(
                f"partition {self.variable}: need {len(labels) - 1} overlaps, got {len(overlaps)}"
            )
        if lo_dom >= hi_dom:
            raise ConfigError(f"partition {self.variable}: empty domain")
        cursor = lo_dom
        for lo, hi in overlaps:
            if not (cursor <= lo < hi <= hi_dom):
                raise ConfigError(
                    f"partition {self.variable}: overlaps must be increasing and inside the domain"
                )
            if hi - lo == math.inf:
                raise ConfigError(f"partition {self.variable}: overlap ({lo}, {hi}) is too wide")
            cursor = hi
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "domain", (lo_dom, hi_dom))
        object.__setattr__(self, "overlaps", overlaps)

    def membership(self, x: float) -> dict:
        """Label weights for a reading, every label listed; a finite reading
        outside the domain is clamped to it with a warning, a non-finite one
        is a DataError."""
        weights = dict.fromkeys(self.labels, 0.0)
        weights.update(fuzzify(x, self))
        return weights


def fuzzify(x: float, partition: FuzzyPartition) -> dict:
    """The labels of `partition.membership(x)` with nonzero weight, in label
    order: one variable's likelihood, ready for `posterior`.

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


@dataclass(frozen=True)
class MwlNetwork:
    """Five-level workload root with independent labelled child indicators."""

    prior: np.ndarray
    children: dict  # name -> (labels tuple, cpt ndarray of shape (5, len(labels)))
    partitions: dict = field(default_factory=dict)  # variable -> FuzzyPartition

    def __post_init__(self):
        prior = np.asarray(self.prior, dtype=float)
        if prior.shape != (N_LEVELS,):
            raise ConfigError(f"prior must have {N_LEVELS} entries")
        if np.any(prior < 0) or abs(prior.sum() - 1.0) > 1e-9:
            raise ConfigError("prior must be a distribution (non-negative, sums to 1)")
        children = {}
        for name, (labels, cpt) in self.children.items():
            labels = tuple(labels)
            cpt = np.asarray(cpt, dtype=float)
            if len(set(labels)) != len(labels) or not labels:
                raise ConfigError(f"child {name}: labels must be unique and non-empty")
            if cpt.shape != (N_LEVELS, len(labels)):
                raise ConfigError(
                    f"child {name}: table must be {N_LEVELS}x{len(labels)}, got {cpt.shape}"
                )
            if np.any(cpt < 0) or np.any(np.abs(cpt.sum(axis=1) - 1.0) > 1e-9):
                raise ConfigError(f"child {name}: every row must be a distribution")
            children[name] = (labels, cpt)
        object.__setattr__(self, "prior", prior)
        object.__setattr__(self, "children", children)
        # what posterior reads per piece of evidence, as Python floats: the
        # prior, and for each child every label's table column
        object.__setattr__(self, "_prior", prior.tolist())
        object.__setattr__(self, "_columns", {
            name: {label: cpt[:, i].tolist() for i, label in enumerate(labels)}
            for name, (labels, cpt) in children.items()
        })

    @classmethod
    def from_dict(cls, raw: Mapping) -> "MwlNetwork":
        try:
            children = {
                name: (tuple(spec["labels"]), np.asarray(spec["cpt"], dtype=float))
                for name, spec in raw["children"].items()
            }
            partitions = {
                var: FuzzyPartition(
                    variable=var,
                    labels=tuple(spec["labels"]),
                    domain=tuple(spec["domain"]),
                    overlaps=tuple(tuple(o) for o in spec["overlaps"]),
                )
                for var, spec in raw.get("partitions", {}).items()
            }
            prior = np.asarray(raw["prior"], dtype=float)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"workload network config: {exc}") from exc
        return cls(prior=prior, children=children, partitions=partitions)

    @classmethod
    def load(cls, path: str | Path) -> "MwlNetwork":
        return cls.from_dict(load_json(path, "workload network config"))

    @classmethod
    def default(cls) -> "MwlNetwork":
        return cls.load(DATA / "mwl_net.json")


def posterior(net: MwlNetwork, evidence: Mapping[str, Mapping[str, float]]) -> tuple:
    """Exact posterior over the five levels given evidence {variable: {label:
    weight}}, as a tuple of five floats, level 1 first.

    The children's terms multiply in the mapping's order. Invariant under
    that order and under positive scaling of any likelihood. Raises
    DataError for an unknown variable or label, a weight that is not a
    finite number >= 0, evidence with zero mass under the model (an empty or
    all-zero likelihood has none), or so much mass that it overflows.
    """
    p1, p2, p3, p4, p5 = net._prior
    for variable, likelihood in evidence.items():
        columns = net._columns.get(variable)
        if columns is None:
            raise DataError(f"evidence for unknown variable {variable!r}")
        if not likelihood.keys() <= columns.keys():
            unknown = sorted(likelihood.keys() - columns.keys())
            raise DataError(f"evidence for {variable!r} names unknown labels {unknown}")
        for weight in likelihood.values():
            if not 0.0 <= weight < math.inf:
                raise DataError(
                    f"evidence for {variable!r}: likelihood {weight!r} is not a finite number >= 0"
                )
        if len(likelihood) == 1:
            # the other terms of cpt @ lik are +0.0, so this is the same bits
            ((label, weight),) = likelihood.items()
            weight = float(weight)
            c1, c2, c3, c4, c5 = columns[label]
            c1, c2, c3, c4, c5 = c1 * weight, c2 * weight, c3 * weight, c4 * weight, c5 * weight
        else:
            labels, cpt = net.children[variable]
            lik = np.array([likelihood.get(label, 0.0) for label in labels], dtype=float)
            c1, c2, c3, c4, c5 = cpt.dot(lik).tolist()
        p1, p2, p3, p4, p5 = p1 * c1, p2 * c2, p3 * c3, p4 * c4, p5 * c5
    # left to right, the order in which numpy sums five entries
    total = p1 + p2 + p3 + p4 + p5
    if total <= 0.0:
        raise DataError("evidence has zero probability under the model")
    if not total < math.inf:  # inf, or NaN from an overflowed term times a zero one
        raise DataError("evidence likelihoods overflow; scale them down")
    return (p1 / total, p2 / total, p3 / total, p4 / total, p5 / total)


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
    return MwlState(t, post, mwl_level(post))


def write_states_jsonl(states: Iterable[MwlState], path: str | Path) -> None:
    dump_jsonl((s._asdict() for s in states), path)
