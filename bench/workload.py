"""What a benchmark workload hands to the measuring loop in run.py."""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass
from typing import Any, Callable


@dataclass
class Op:
    """One closed-loop operation: the next starts when this one returns.

    `run` is the timed call into the library. `inspect(output, first)` is
    untimed and returns (problems, digest, info): a list of failed output
    checks, a value that every later pass must reproduce exactly, and facts
    about the input and output for the report. `first` is true on the first
    pass, where the costly checks run.
    """

    kind: str
    run: Callable[[], Any]
    inspect: Callable[[Any, bool], tuple]


@dataclass
class Workload:
    """A fixed operation list built from the seed, plus its read-outs.

    `primary` names the op kind whose latency is reported as op_p50_ms and
    op_p90_ms. `summarize(infos, times)` turns the first pass's infos and
    the per-op median times by kind into (quality, report), where report
    maps a figure's name to (value, unit, sample count). `layers` lists the
    span names the traced run must see.
    """

    primary: str
    ops: list
    summarize: Callable[[list, dict], tuple]
    layers: tuple


def p90(samples):
    """90th percentile, or the single sample when there is one."""
    return statistics.quantiles(samples, n=10)[8] if len(samples) > 1 else samples[0]


def tree_nodes(node) -> int:
    """Node count of one tree of an effortclass forest."""
    return 1 if "label" in node else 1 + tree_nodes(node["left"]) + tree_nodes(node["right"])


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()
