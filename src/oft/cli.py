"""Command line front end.

Subcommands cover the whole chain: physio (per-second feature frames),
monitor (offline fusion of recorded streams), classify (effort classifier
training, prediction, cross-validation), cocom (control-mode coding and
transition counts), dfa (function-allocation checks and solving), simulate
(the deterministic microworld), and endtoend (simulate, fuse, and score the
fused level against the scripted load and the periodic self-ratings).

Exit codes: 0 on success, 2 for configuration or argument problems, 3 for
bad input data, 4 when an allocation problem is infeasible. A warning
prints as one stderr line, `warning: <message>`, and leaves the exit code
as it is.

A settings JSON (via --config or the OFT_CONFIG environment variable) may
supply defaults: {"fusion_net": path, "pupil_reference": [mean_mm, sd_mm],
"hold_s": seconds}. Any other key is an error.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from . import __version__, physio
from .cocom import read_roster_csv, read_trace_csv, transitions, write_coded_csv, code_mode
from .dfaplan import check_feasible, default_bike_model, load_model as load_alloc_model
from .effortclass import (
    KINDS,
    METRICS,
    RF_TREES,
    SCHEMES,
    LabelledFrame,
    binarize,
    cross_validate,
    fit_model,
    frames_xy,
    load_model,
    read_dataset_csv,
    save_model,
)
from .errors import ConfigError, DataError, InfeasibleError
from .fusion import MwlNetwork
from .jsonl import DATA, dump_json, is_finite_number, load_json, write_csv
from .microworld import OPERATORS, ScenarioConfig, run_scenario
from .pipeline import (
    MONITOR_NORMALIZATIONS,
    endtoend_report,
    monitor_offline,
    read_demand_csv,
    write_manifest,
    write_monitor_outputs,
    write_run_log,
)
from .regulation import read_ticks_jsonl


#: The keys a settings file may hold; any other is a typo, not a default.
SETTINGS_KEYS = ("fusion_net", "pupil_reference", "hold_s")


def _settings_path(args):
    return args.config or os.environ.get("OFT_CONFIG")


def _settings(args) -> dict:
    path = _settings_path(args)
    if not path:
        return {}
    raw = load_json(path, "settings file")
    if not isinstance(raw, dict):
        raise ConfigError(f"settings file {path}: expected a JSON object")
    unknown = sorted(raw.keys() - SETTINGS_KEYS)
    if unknown:
        raise ConfigError(f"settings file {path}: unknown key {', '.join(map(repr, unknown))}; "
                          f"the keys are {', '.join(SETTINGS_KEYS)}")
    if "fusion_net" in raw and not isinstance(raw["fusion_net"], str):
        raise ConfigError(f"settings file {path}: fusion_net must be a path string")
    if "hold_s" in raw and not (is_finite_number(raw["hold_s"]) and raw["hold_s"] >= 0):
        raise ConfigError(f"settings file {path}: hold_s must be a finite number >= 0")
    ref = raw.get("pupil_reference")
    if "pupil_reference" in raw and not (
        isinstance(ref, list) and len(ref) == 2 and all(map(is_finite_number, ref)) and ref[1] > 0
    ):
        raise ConfigError(
            f"settings file {path}: pupil_reference must be [mean_mm, sd_mm], "
            "two finite numbers with sd_mm > 0"
        )
    return raw


def _settings_inputs(args, settings, fuses: bool) -> list:
    """The settings files that shape a command's output, for its manifest:
    the settings file in effect and, if the command fuses, its fusion_net."""
    path = _settings_path(args)
    files = [path] if path else []
    if fuses and "fusion_net" in settings:
        files.append(settings["fusion_net"])
    return files


def _given(args, *names) -> dict:
    """The optional arguments among `names` that were given, for a manifest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _network(settings: dict) -> MwlNetwork:
    if "fusion_net" in settings:
        return MwlNetwork.load(settings["fusion_net"])
    return MwlNetwork.default()


def _reference(args, settings):
    """`--reference`, else the settings' pupil_reference under `--normalization reference`,
    which needs one of the two."""
    if args.reference:
        return tuple(args.reference)
    if args.normalization == "reference":
        if "pupil_reference" not in settings:
            raise ConfigError("--normalization reference needs --reference MEAN_MM SD_MM "
                              "or pupil_reference in the settings file")
        mean_mm, sd_mm = settings["pupil_reference"]
        return (float(mean_mm), float(sd_mm))
    return None


# ---------------------------------------------------------------------------
# handlers


def _cmd_physio(args) -> int:
    settings = _settings(args)
    reference = _reference(args, settings)
    if args.normalization == "window" and not args.window:
        raise ConfigError("window normalization needs --window START END")
    beats = physio.read_beats_csv(args.beats)
    pupil = physio.read_pupil_csv(args.pupil)
    framed = physio.per_second_frames(
        beats,
        pupil,
        span=args.span,
        normalization=args.normalization,
        window=tuple(args.window) if args.window else None,
        reference=reference,
    )
    physio.write_frames_csv(framed, args.out)
    if args.jsonl:
        physio.write_frames_jsonl(framed, args.jsonl)
    if args.manifest:
        write_manifest(
            args.manifest,
            "physio",
            {
                "beats": args.beats,
                "pupil": args.pupil,
                "normalization": args.normalization,
                "span": args.span,
                **_given(args, "window", "reference"),
            },
            inputs=[args.beats, args.pupil, *_settings_inputs(args, settings, fuses=False)],
        )
    print(f"framed {len(framed.frames)} seconds -> {args.out}")
    return 0


def _cmd_monitor(args) -> int:
    settings = _settings(args)
    reference = _reference(args, settings)
    beats = physio.read_beats_csv(args.beats)
    pupil = physio.read_pupil_csv(args.pupil)
    ticks = list(read_ticks_jsonl(args.ticks))
    demand = read_demand_csv(args.demand) if args.demand else None
    result = monitor_offline(
        beats,
        pupil,
        ticks,
        demand=demand,
        net=_network(settings),
        normalization=args.normalization,
        reference=reference,
    )
    paths = write_monitor_outputs(result, args.out_dir)
    inputs = [args.beats, args.pupil, args.ticks] + ([args.demand] if args.demand else [])
    write_manifest(
        Path(args.out_dir) / "manifest.json",
        "monitor",
        {"normalization": args.normalization, "demand": bool(args.demand),
         **_given(args, "reference")},
        inputs=inputs + _settings_inputs(args, settings, fuses=True),
    )
    print(
        f"monitored {result.report['ticks']} s: mean level "
        f"{result.report['mean_level']}, compliance {result.report['compliance']} "
        f"-> {paths['report']}"
    )
    return 0


def _model_spec(args) -> dict:
    """The classifier of `--kind`, with its defaults for the flags not given;
    a flag the run does not use is an error. kNN training draws nothing, so
    `train --kind knn` takes no --seed; cv splits with it."""
    unused = ("trees",) if args.kind == "knn" else ("k", "metric")
    if args.kind == "knn" and args.classify_command == "train":
        unused += ("seed",)
    given = [f"--{name}" for name in unused if getattr(args, name) is not None]
    if given:
        raise ConfigError(f"--kind {args.kind} takes no {' or '.join(given)}")
    if args.kind == "knn":
        return {"kind": "knn", "k": 5 if args.k is None else args.k,
                "metric": "euclidean" if args.metric is None else args.metric}
    return {"kind": "rf", "trees": RF_TREES if args.trees is None else args.trees,
            "seed": _seed(args)}


def _seed(args) -> int:
    return 0 if args.seed is None else args.seed


def _labelled_frames(args) -> list:
    """The --data frames, labels folded to low/high unless --raw-labels."""
    frames = read_dataset_csv(args.data)
    if args.raw_labels:
        return frames
    labels = binarize([f.label for f in frames]).tolist()
    return [LabelledFrame(f.subject, f.features, label) for f, label in zip(frames, labels)]


def _cmd_classify_train(args) -> int:
    spec = _model_spec(args)
    frames = _labelled_frames(args)
    model = fit_model(spec, *frames_xy(frames))
    save_model(model, args.model_out)
    print(f"trained {args.kind} on {len(frames)} rows -> {args.model_out}")
    return 0


def _cmd_classify_predict(args) -> int:
    model = load_model(args.model)
    frames = read_dataset_csv(args.data)
    labels = model.predict(frames_xy(frames)[0])
    rows = ((i, frame.subject, int(label)) for i, (frame, label) in enumerate(zip(frames, labels)))
    write_csv(args.out, ("row", "subject", "label"), rows)
    print(f"predicted {len(frames)} rows -> {args.out}")
    return 0


def _cmd_classify_cv(args) -> int:
    spec = _model_spec(args)
    test_subjects = (None if args.test_subjects is None
                     else _ids(args.test_subjects, "--test-subjects", "subject"))
    report = cross_validate(
        _labelled_frames(args), args.scheme, spec, seed=_seed(args), test_subjects=test_subjects
    )
    payload = {
        "scheme": report.split,
        "accuracy": round(report.global_accuracy, 6),
        "per_class": {str(k): round(v, 6) for k, v in report.per_class.items()},
        "n_train": report.n_train,
        "n_test": report.n_test,
        "model": spec,
    }
    if args.report:
        dump_json(payload, args.report)
    print(
        f"{args.scheme}: accuracy {payload['accuracy']} "
        f"({report.n_train} train / {report.n_test} test)"
    )
    return 0


def _cmd_cocom_code(args) -> int:
    traces = read_trace_csv(args.trace)
    coded = [(period, code_mode(trace)) for period, trace in sorted(traces.items())]
    write_coded_csv(coded, args.out)
    for period, mode in coded:
        print(f"{period}: {mode.name}")
    return 0


def _cmd_cocom_transitions(args) -> int:
    rows = read_roster_csv(args.roster or DATA / "cocom_roster.csv")
    tm = transitions((low, high) for _name, low, high in rows)
    payload = {
        "participants": len(rows),
        "counts": tm.counts.tolist(),
        "first_period_marginals": tm.first_period_marginals.tolist(),
        "second_period_marginals": tm.second_period_marginals.tolist(),
        "adjacency_fraction": round(tm.adjacency_fraction, 6),
    }
    dump_json(payload, args.out)
    print(
        f"{len(rows)} participants, adjacency fraction "
        f"{payload['adjacency_fraction']} -> {args.out}"
    )
    return 0


def _alloc_model(args):
    if args.model:
        return load_alloc_model(args.model)
    return default_bike_model()


def _ids(text: str, flag: str, noun: str = "situation") -> list:
    """The comma-separated ids of a flag, blank items dropped; none is an error."""
    ids = [s.strip() for s in text.split(",") if s.strip()]
    if not ids:
        raise ConfigError(f"{flag} must name at least one {noun}")
    return ids


def _cmd_dfa_check(args) -> int:
    model = _alloc_model(args)
    sids = _ids(args.situations, "--situations")
    min_config = model.min_config(sids)
    pot = model.pot(sids)
    report = check_feasible(min_config, pot)
    print("min config:")
    for req in min_config:
        print(f"  {req}")
    if not min_config:
        print("  (empty)")
    print("pot:")
    for entry in pot.entries:
        print(f"  {entry}")
    if report.feasible:
        print("feasible: yes")
        return 0
    print("feasible: no")
    for conflict in report.conflicts:
        print(f"  {conflict}")
    return 4


def _cmd_dfa_solve(args) -> int:
    if args.steps is None and args.situations is None:
        raise ConfigError("dfa solve needs --situations or --steps")
    if args.steps is not None and args.situations is not None:
        raise ConfigError("dfa solve takes --situations or --steps, not both")
    model = _alloc_model(args)
    if args.steps is not None:
        steps = [_ids(chunk, "--steps") for chunk in args.steps.split(";") if chunk.strip()]
        if not steps:
            raise ConfigError("--steps must name at least one step")
        solutions = model.solve_sequence(steps, args.criterion)
        for i, sol in enumerate(solutions, start=1):
            print(f"step {i}: {' '.join(sol.couples)} (cost {sol.cost:g})")
        return 0
    sol = model.solve(_ids(args.situations, "--situations"), args.criterion)
    print(f"solution: {' '.join(sol.couples)} (cost {sol.cost:g})")
    return 0


def _scenario_config(args, settings) -> ScenarioConfig:
    kwargs = {
        "seed": args.seed,
        "operator": args.operator,
        "dfa": args.dfa == "on",
        "duration_s": args.duration,
        "phase_split_s": max(1, args.duration // 2),
    }
    if "hold_s" in settings:
        kwargs["hold_s"] = float(settings["hold_s"])
    return ScenarioConfig(**kwargs)


def _cmd_simulate(args) -> int:
    settings = _settings(args)
    config = _scenario_config(args, settings)
    result = run_scenario(config, net=_network(settings))
    write_run_log(result, args.log)
    if args.manifest:
        write_manifest(
            args.manifest,
            "simulate",
            {
                "seed": args.seed,
                "operator": args.operator,
                "dfa": args.dfa,
                "duration": args.duration,
            },
            inputs=_settings_inputs(args, settings, fuses=True),
        )
    s = result.summary
    print(
        f"simulated {config.duration_s} s ({config.operator}, seed {config.seed}): "
        f"compliance {s['compliance']}, performance {s['performance']}, "
        f"{s['neutralized']}/{s['vehicles']} vehicles neutralized -> {args.log}"
    )
    return 0


def _cmd_endtoend(args) -> int:
    settings = _settings(args)
    config = _scenario_config(args, settings)
    report = endtoend_report(config, net=_network(settings))
    if args.report:
        dump_json(report, args.report)
    print(
        f"level vs latent load: spearman {report['spearman_level_vs_latent']}; "
        f"level vs self-rating: spearman {report['spearman_level_vs_isa']}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse, except that `--flag=--` gives the flag the value '--'.

    argparse (Python 3.11) drops that '--' and stores [] for the flag,
    past its type and choices. Subcommand parsers are of this class too.
    """

    def _get_values(self, action, arg_strings):
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oft",
        description="operator functional-state monitoring and adaptive assistance",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--config",
        help="settings JSON; overrides the OFT_CONFIG environment variable",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("physio", help="frame beat and pupil streams into per-second features")
    p.add_argument("--beats", required=True, help="CSV t_s,rr_ms")
    p.add_argument("--pupil", required=True, help="CSV t_s,pupil_mm,valid")
    p.add_argument("--out", required=True, help="frames CSV to write")
    p.add_argument("--jsonl", help="also write frames JSONL with run metadata")
    p.add_argument("--normalization", default="session", choices=physio.NORMALIZATIONS)
    p.add_argument("--window", nargs=2, type=float, metavar=("START", "END"))
    p.add_argument("--reference", nargs=2, type=float, metavar=("MEAN_MM", "SD_MM"))
    p.add_argument("--span", type=int, default=physio.SDNN_SPAN)
    p.add_argument("--manifest", help="write a reproducibility manifest JSON")
    p.set_defaults(func=_cmd_physio)

    p = sub.add_parser("monitor", help="fuse recorded streams into workload levels")
    p.add_argument("--beats", required=True)
    p.add_argument("--pupil", required=True)
    p.add_argument("--ticks", required=True, help="activity JSONL: t, at, ot, perf")
    p.add_argument("--demand", help="optional CSV t_s,n1,n2,entropy")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--normalization", default="session", choices=MONITOR_NORMALIZATIONS)
    p.add_argument("--reference", nargs=2, type=float, metavar=("MEAN_MM", "SD_MM"))
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("classify", help="effort classifiers over feature frames")
    csub = p.add_subparsers(dest="classify_command", required=True)

    def _classifier_args(q):
        q.add_argument("--kind", default="knn", choices=KINDS)
        # None marks a flag not given, which another --kind must not get
        q.add_argument("--k", type=int, help="neighbours (knn; default 5)")
        q.add_argument("--metric", choices=METRICS, help="distance (knn; default euclidean)")
        q.add_argument("--trees", type=int, help=f"trees (rf; default {RF_TREES})")
        q.add_argument("--seed", type=int,
                       help="split seed (cv) and forest seed (rf); default 0")
        q.add_argument(
            "--raw-labels",
            action="store_true",
            help="keep 3-level labels instead of folding to low/high",
        )

    q = csub.add_parser("train", help="fit on a whole dataset and save the model")
    q.add_argument("--data", required=True, help="CSV subject,t_s,hrv,pupil_z,td")
    q.add_argument("--model-out", required=True)
    _classifier_args(q)
    q.set_defaults(func=_cmd_classify_train)

    q = csub.add_parser("predict", help="apply a saved model to a dataset")
    q.add_argument("--model", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--out", required=True, help="CSV row,subject,label")
    q.set_defaults(func=_cmd_classify_predict)

    q = csub.add_parser("cv", help="held-out accuracy under a split scheme")
    q.add_argument("--data", required=True)
    q.add_argument("--scheme", default="per-subject-75-25", choices=SCHEMES)
    q.add_argument("--test-subjects", help="comma-separated held-out subjects")
    q.add_argument("--report", help="write the accuracy report JSON here")
    _classifier_args(q)
    q.set_defaults(func=_cmd_classify_cv)

    p = sub.add_parser("cocom", help="control-mode coding from tank traces")
    csub = p.add_subparsers(dest="cocom_command", required=True)
    q = csub.add_parser("code", help="code each period of a trace CSV")
    q.add_argument("--trace", required=True, help="CSV t_s,tank_a,tank_b,period")
    q.add_argument("--out", required=True, help="CSV period,mode")
    q.set_defaults(func=_cmd_cocom_code)
    q = csub.add_parser("transitions", help="mode transition counts between two periods")
    q.add_argument("--roster", help="CSV participant,mode_low,mode_high (default: bundled)")
    q.add_argument("--out", required=True, help="JSON with counts and marginals")
    q.set_defaults(func=_cmd_cocom_transitions)

    p = sub.add_parser("dfa", help="situation-dependent function allocation")
    dsub = p.add_subparsers(dest="dfa_command", required=True)
    q = dsub.add_parser("check", help="min config, pot, and feasibility")
    q.add_argument("--model", help="allocation model JSON (default: bundled bicycle model)")
    q.add_argument("--situations", required=True, help="comma-separated situation ids")
    q.set_defaults(func=_cmd_dfa_check)
    q = dsub.add_parser("solve", help="cheapest admissible allocation")
    q.add_argument("--model", help="allocation model JSON (default: bundled bicycle model)")
    q.add_argument("--situations", help="comma-separated situation ids")
    q.add_argument("--criterion", required=True, help="cost table name from the model")
    q.add_argument(
        "--steps",
        help="scenario as semicolon-separated steps, e.g. 'S1,S4;S2' (enables antecedence)",
    )
    q.set_defaults(func=_cmd_dfa_solve)

    def _scenario_args(q, default_operator):
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--operator", default=default_operator, choices=OPERATORS)
        q.add_argument(
            "--dfa", choices=("on", "off"), default="off",
            help="close the loop with workload-triggered assistance",
        )
        q.add_argument("--duration", type=int, default=1200)

    p = sub.add_parser("simulate", help="run the deterministic microworld")
    _scenario_args(p, "diligent")
    p.add_argument("--log", required=True, help="run log JSONL to write")
    p.add_argument("--manifest", help="write a reproducibility manifest JSON")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("endtoend", help="simulate, fuse, and score level tracking")
    _scenario_args(p, "degrading-overload")
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=_cmd_endtoend)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            # one plain line per warning, without the source path and line
            # Python adds, so stderr does not change when the code does
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return int(args.func(args) or 0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        for line in (exc.report or {}).get("core", []):
            print(f"  core: {line}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # input readers raise DataError or ConfigError: an output failed
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
