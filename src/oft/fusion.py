"""Workload fusion: fuzzy discretization of continuous indicators plus a
small naive-fusion network over a five-level workload variable.

The network has one root (workload level 1..5) and independent child
indicators, each a labelled discrete variable with a conditional table
P(label | level). Observations enter as soft evidence (a non-negative
likelihood per label, not necessarily normalized); the posterior is exact:

    post(k)  proportional to  prior(k) * prod_children sum_l lik(l) * cpt[k, l]

Children without evidence drop out (their labels marginalize to 1), and a
label that evidence leaves out has likelihood 0. Evidence from `fuzzify`
lists only the labels with nonzero weight: one label on a plateau of the
partition, two inside an overlap.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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
        weights.update(self._nonzero(x))
        return weights

    def _nonzero(self, x: float) -> dict:
        """The labels of `membership` with nonzero weight, in label order.

        The weights are positive and finite and sum to 1 up to rounding:
        inside an overlap `up` lies in [0, 1], because the overlap is
        narrower than the largest float.
        """
        if not math.isfinite(x):
            raise DataError(f"partition {self.variable}: reading {x} is not finite")
        lo_dom, hi_dom = self.domain
        if x < lo_dom or x > hi_dom:
            warnings.warn(
                f"partition {self.variable}: {x} outside domain, clamped", stacklevel=3
            )
            x = min(max(x, lo_dom), hi_dom)
        labels = self.labels
        for i, (lo, hi) in enumerate(self.overlaps):
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
class SoftEvidence:
    """Likelihood weights over one child variable's labels."""

    variable: str
    likelihood: Mapping[str, float]

    def __post_init__(self):
        lik = {str(k): float(v) for k, v in self.likelihood.items()}
        if not lik:
            raise DataError(f"evidence for {self.variable}: empty likelihood")
        if not all(math.isfinite(v) for v in lik.values()):
            raise DataError(f"evidence for {self.variable}: non-finite likelihood")
        if any(v < 0 for v in lik.values()):
            raise DataError(f"evidence for {self.variable}: negative likelihood")
        if all(v == 0 for v in lik.values()):
            raise DataError(f"evidence for {self.variable}: all-zero likelihood")
        object.__setattr__(self, "likelihood", lik)

    @classmethod
    def hard(cls, variable: str, label: str) -> "SoftEvidence":
        return cls(variable, {label: 1.0})


def fuzzify(x: float, partition: FuzzyPartition) -> SoftEvidence:
    """Turn a continuous reading into soft evidence via the partition.

    The evidence lists only the labels with nonzero membership. Those
    weights are positive and finite by construction, so the checks of
    SoftEvidence are skipped; the reading itself is checked (a non-finite
    one is a DataError, one outside the domain is clamped with a warning).
    """
    ev = object.__new__(SoftEvidence)
    object.__setattr__(ev, "variable", partition.variable)
    object.__setattr__(ev, "likelihood", partition._nonzero(x))
    return ev


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


def posterior(net: MwlNetwork, evidence: Iterable[SoftEvidence]) -> np.ndarray:
    """Exact posterior over the five levels given soft evidence.

    Invariant under evidence order and under positive scaling of any
    likelihood vector. Raises if two pieces of evidence target one variable
    or if the combined evidence has zero mass under the model, or so much
    that it overflows.
    """
    seen = set()
    p1, p2, p3, p4, p5 = net._prior
    for ev in evidence:
        variable, likelihood = ev.variable, ev.likelihood
        if variable in seen:
            raise DataError(f"duplicate evidence for variable {variable!r}")
        seen.add(variable)
        columns = net._columns.get(variable)
        if columns is None:
            raise DataError(f"evidence for unknown variable {variable!r}")
        if not likelihood.keys() <= columns.keys():
            unknown = sorted(likelihood.keys() - columns.keys())
            raise DataError(f"evidence for {variable!r} names unknown labels {unknown}")
        if len(likelihood) == 1:
            # the other terms of cpt @ lik are +0.0, so this is the same bits
            ((label, weight),) = likelihood.items()
            c1, c2, c3, c4, c5 = columns[label]
            c1, c2, c3, c4, c5 = c1 * weight, c2 * weight, c3 * weight, c4 * weight, c5 * weight
        else:
            labels, cpt = net.children[variable]
            lik = np.array([likelihood.get(label, 0.0) for label in labels])
            c1, c2, c3, c4, c5 = (cpt @ lik).tolist()
        p1, p2, p3, p4, p5 = p1 * c1, p2 * c2, p3 * c3, p4 * c4, p5 * c5
    # left to right, the order in which numpy sums five entries
    total = p1 + p2 + p3 + p4 + p5
    if total <= 0.0:
        raise DataError("evidence has zero probability under the model")
    if total == math.inf:
        raise DataError("evidence likelihoods overflow; scale them down")
    return np.array([p1 / total, p2 / total, p3 / total, p4 / total, p5 / total])


def mwl_level(post: Sequence[float]) -> int:
    """Level 1..5 with the highest posterior; exact ties go to the higher level."""
    if isinstance(post, np.ndarray):
        post = post.tolist()
    if len(post) != N_LEVELS:
        raise ValueError(f"posterior must have {N_LEVELS} entries")
    level, best = 0, -math.inf
    for k, p in enumerate(post, start=1):
        if p >= best:
            level, best = k, p
        elif not p < best:  # NaN
            raise ValueError("posterior has no maximum")
    return level


@dataclass(frozen=True)
class MwlState:
    """Fused workload at one second."""

    t: int
    posterior: tuple
    level: int
    evidence: dict = field(default_factory=dict)  # variable -> likelihood dict


def fuse(net: MwlNetwork, t: int, evidence: Sequence[SoftEvidence]) -> MwlState:
    post = tuple(posterior(net, evidence).tolist())
    return MwlState(
        t=t,
        posterior=post,
        level=mwl_level(post),
        evidence={ev.variable: dict(ev.likelihood) for ev in evidence},
    )


def write_states_jsonl(states: Iterable[MwlState], path: str | Path) -> None:
    dump_jsonl(
        (
            {"t": s.t, "level": s.level, "posterior": list(s.posterior)}
            for s in states
        ),
        path,
    )
