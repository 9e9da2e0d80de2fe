"""Operator functional-state monitoring and adaptive assistance.

The package follows the measurement chain end to end: physiological
feature framing (heart-beat spread, pupil size), activity regulation
detection, task-demand discretization, fuzzy-evidence fusion into a
five-level workload indicator, effort classifiers, control-mode coding,
situation-dependent function allocation, workload-triggered assistance,
and a deterministic surveillance microworld to exercise the whole loop.

The top level re-exports only the names of the README quickstart; import
everything else from its submodule (`oft.pipeline`, `oft.cocom`, ...).

`import oft` loads no submodule. Each re-exported name, and each submodule
reached as an attribute (`oft.physio`), loads its home module on first use
(PEP 562), so a caller pays only for the layers it touches:
`oft.MwlNetwork.default()` and `oft.default_bike_model()` load `fusion`,
`dfaplan`, `errors` and `jsonl`, and neither numpy nor the simulator or the
physiology modules.
"""

from __future__ import annotations

import sys

__version__ = "0.1.0"

# home submodule of each re-exported name
_HOMES = {
    "RRSeries": "physio",
    "PupilSeries": "physio",
    "per_second_frames": "physio",
    "MwlNetwork": "fusion",
    "fuzzify": "fusion",
    "posterior": "fusion",
    "mwl_level": "fusion",
    "default_bike_model": "dfaplan",
    "ScenarioConfig": "microworld",
    "run_scenario": "microworld",
}
__all__ = ["__version__", *_HOMES]

_SUBMODULES = (
    "adapt", "cli", "cocom", "dfaplan", "effortclass", "errors", "fusion", "jsonl",
    "microworld", "physio", "pipeline", "regulation", "taskload",
)


def __getattr__(name: str):
    home = _HOMES.get(name, name if name in _SUBMODULES else None)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, so that -X importtime reports it
    __import__(f"{__name__}.{home}")
    module = sys.modules[f"{__name__}.{home}"]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
