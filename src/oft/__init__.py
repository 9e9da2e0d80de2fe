"""Operator functional-state monitoring and adaptive assistance.

The package follows the measurement chain end to end: physiological
feature framing (heart-beat spread, pupil size), activity regulation
detection, task-demand discretization, fuzzy-evidence fusion into a
five-level workload indicator, effort classifiers, control-mode coding,
situation-dependent function allocation, workload-triggered assistance,
and a deterministic surveillance microworld to exercise the whole loop.

The top level re-exports only the names of the README quickstart; import
everything else from its submodule (`oft.pipeline`, `oft.cocom`, ...).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .physio import PupilSeries, RRSeries, per_second_frames
from .fusion import MwlNetwork, fuzzify, mwl_level, posterior
from .dfaplan import default_bike_model
from .microworld import ScenarioConfig, run_scenario

__all__ = [
    "__version__",
    "RRSeries",
    "PupilSeries",
    "per_second_frames",
    "MwlNetwork",
    "fuzzify",
    "posterior",
    "mwl_level",
    "default_bike_model",
    "ScenarioConfig",
    "run_scenario",
]
