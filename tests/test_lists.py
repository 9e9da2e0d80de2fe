"""Closed lists of names are written once, in the library, and read from there.

The assistance policy (`adapt.DEFAULT_RULES`) decides what each aid does
in the microworld through its stage of automation; the CLI offers the
library's own tuples as its choices.
"""

import argparse
import ast
from pathlib import Path

import numpy as np
import pytest

from oft import effortclass, microworld, physio, pipeline
from oft.adapt import DEFAULT_RULES, STAGES
from oft.cli import _build_parser, _model_spec
from oft.microworld import (
    MACHINE_ITEMS_PER_S,
    SERVICE_FACTOR,
    TASKS,
    ScenarioConfig,
    World,
    operator_script,
)
from conftest import job_item


def quiet_world():
    cfg = ScenarioConfig(duration_s=600, phase_split_s=300, operator="diligent")
    world = World(cfg, rng_spawn=np.random.default_rng(0), rng_operator=np.random.default_rng(1))
    world.arrival_rate = lambda t: 0.0
    return world


class TestAidsByStage:
    def test_every_rule_aids_a_task_of_the_world(self):
        for rule in DEFAULT_RULES:
            assert rule.task in TASKS, rule

    def test_every_stage_has_exactly_one_effect(self):
        for stage in STAGES:
            takes_over = stage == "action"
            assert takes_over != (stage in SERVICE_FACTOR), stage
        assert set(SERVICE_FACTOR) <= set(STAGES)

    def test_the_effects(self):
        assert MACHINE_ITEMS_PER_S == 2
        assert SERVICE_FACTOR == {"gathering": 0.6, "analysis": 0.5, "decision": 0.5}

    @pytest.mark.parametrize("rule", [r for r in DEFAULT_RULES if r.stage != "action"],
                             ids=lambda r: r.directive)
    def test_a_speed_up_scales_only_its_task(self, rule):
        mult = quiet_world()._service_multiplier
        aid = frozenset({rule.directive})
        assert mult(rule.task, aid) == SERVICE_FACTOR[rule.stage]
        for task in TASKS:
            if task != rule.task:
                assert mult(task, aid) == 1.0

    def test_speed_ups_of_one_task_multiply_in_rule_order(self):
        aids = [r for r in DEFAULT_RULES if r.task == "ManageEmptyZone" and r.stage != "action"]
        assert [r.stage for r in aids] == ["gathering", "decision"]
        mult = quiet_world()._service_multiplier(
            "ManageEmptyZone", frozenset(r.directive for r in aids))
        assert mult == 1.0 * 0.6 * 0.5

    @pytest.mark.parametrize("rule", [r for r in DEFAULT_RULES if r.stage == "action"],
                             ids=lambda r: r.directive)
    def test_a_takeover_takes_its_tasks_jobs(self, rule):
        world = quiet_world()
        for _ in range(MACHINE_ITEMS_PER_S + 1):
            # the operator never serves them
            world.add_job(rule.task, 0.0, 60.0, job_item(rule.task)).slipped = True
        world.tick(0, frozenset({rule.directive}))
        assert world.machine_done[rule.task] == MACHINE_ITEMS_PER_S
        assert sum(world.machine_done.values()) == MACHINE_ITEMS_PER_S

    def test_microworld_names_no_directive(self):
        directives = {r.directive for r in DEFAULT_RULES}
        tree = ast.parse(Path(microworld.__file__).read_text())
        named = {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and node.value in directives}
        assert named == set()


def _choices(argv):
    """dest -> choices of the subcommand that `argv` names."""
    parser = _build_parser()
    for name in argv:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return {a.dest: a.choices for a in parser._actions if a.choices is not None}


class TestCliOffersLibraryLists:
    def test_physio(self):
        assert _choices(["physio"])["normalization"] is physio.NORMALIZATIONS

    def test_monitor(self):
        assert _choices(["monitor"])["normalization"] is pipeline.MONITOR_NORMALIZATIONS
        assert set(pipeline.MONITOR_NORMALIZATIONS) <= set(physio.NORMALIZATIONS)

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_classify(self, command):
        choices = _choices(["classify", command])
        assert choices["kind"] is effortclass.KINDS
        assert choices["metric"] is effortclass.METRICS
        if command == "cv":
            assert choices["scheme"] is effortclass.SCHEMES

    @pytest.mark.parametrize("argv", [["train", "--model-out", "m.json"], ["cv"]])
    def test_classify_tree_default(self, argv):
        # the parser leaves --trees unset, so that --kind knn can reject it;
        # the forest's default tree count is the library's
        args = _build_parser().parse_args(["classify", *argv, "--data", "d.csv", "--kind", "rf"])
        assert args.trees is None and _model_spec(args)["trees"] == effortclass.RF_TREES

    @pytest.mark.parametrize("command", ["simulate", "endtoend"])
    def test_scenario(self, command):
        assert _choices([command])["operator"] is microworld.OPERATORS

    def test_every_operator_has_its_own_script(self):
        def behaviour(script):
            return (tuple(script.load(t) for t in (0.0, 600.0, 1200.0)),
                    script.service_factor(1.0), script.slip_probability(0.9),
                    script.shed_threshold)

        scripts = [operator_script(name) for name in microworld.OPERATORS]
        assert [s.name for s in scripts] == list(microworld.OPERATORS)
        assert len({behaviour(s) for s in scripts}) == len(scripts)

    def test_every_normalization_frames(self):
        beats = physio.RRSeries(np.arange(40) * 0.8, np.full(40, 800.0) + np.arange(40))
        pupil = physio.PupilSeries(np.arange(128) / 4.0, 3.0 + 0.01 * np.arange(128))
        extra = {"window": {"window": (0.0, 10.0)}, "reference": {"reference": (3.0, 0.5)}}
        for method in physio.NORMALIZATIONS:
            framed = physio.per_second_frames(beats, pupil, normalization=method,
                                              **extra.get(method, {}))
            assert framed.meta["normalization"] == method
