import importlib
import math
import os
from pathlib import Path

import numpy as np
import pytest

from oft.physio import PupilSeries, RRSeries


def src_env():
    """Environment for a child interpreter that imports oft from the source
    tree, whether or not the package is installed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def compensated_sum(iterable, /, start=0):
    """Builtin sum() as CPython 3.12 runs it (gh-100425): ints add exactly
    until the first float; from there exact Python floats add with Neumaier's
    compensation, ints in int range add as doubles, and any other item ends
    the float run with the compensation folded in."""
    items = iter(iterable)
    total = start
    for item in items:
        total = total + item
        if type(total) is float:
            break
    else:
        return total
    c = 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
            total = t
        elif type(item) is int and -2 ** 63 <= item < 2 ** 63:
            total += float(item)
        else:
            total = (total + c if c and math.isfinite(c) else total) + item
            for item in items:
                total = total + item
            return total
    return total + c if c and math.isfinite(c) else total


@pytest.fixture
def sum_as_in_python_3_12(monkeypatch):
    """Every oft module sees compensated_sum as its builtin sum()."""
    import oft

    for path in sorted(Path(oft.__file__).parent.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"oft.{path.stem}")
            monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


def job_item(task):
    """A fresh scene item for a hand-fed microworld job of `task`: a message,
    a vehicle, or None for a drone transfer."""
    from oft.microworld import Message, Vehicle

    if task in ("ReadMessage", "DrawZone"):
        return Message(arrive_t=0.0)
    if task == "ManageEmptyZone":
        return None
    return Vehicle(x=0.5, y=0.5)


def make_beats(rr_ms, t0=0.0):
    """Build an RRSeries from a list of intervals, deriving beat times cumulatively."""
    rr = np.asarray(rr_ms, dtype=float)
    t = t0 + np.cumsum(rr) / 1000.0
    return RRSeries(timestamps=t, intervals_ms=rr)


def make_pupil(diam_mm, hz=4.0, t0=0.0, valid=None):
    d = np.asarray(diam_mm, dtype=float)
    t = t0 + np.arange(len(d)) / hz
    if valid is None:
        valid = np.ones(len(d), dtype=bool)
    return PupilSeries(timestamps=t, diameters_mm=d, valid=np.asarray(valid, dtype=bool))


@pytest.fixture
def synth_streams(rng):
    """Ten minutes of plausible physiology: steady RR around 800 ms, pupil around 3.4 mm."""
    n_beats = 800
    rr = 800.0 + rng.normal(0.0, 40.0, n_beats)
    beats = make_beats(rr)
    n_p = int(600 * 4)
    pupil = make_pupil(3.4 + rng.normal(0.0, 0.12, n_p))
    return beats, pupil


def blob_dataset(rng, n_per=60, sigma=0.1, spread=3.0):
    """Three well separated gaussian blobs in 2-D, centers spread*3*sigma apart."""
    gap = spread * 3 * sigma
    centers = np.array([[0.0, 0.0], [gap, 0.0], [0.0, gap]])
    X, y = [], []
    for label, c in enumerate(centers):
        X.append(c + rng.normal(0.0, sigma, (n_per, 2)))
        y.append(np.full(n_per, label))
    return np.vstack(X), np.concatenate(y)
