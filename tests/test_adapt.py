"""Assistance rules and the hysteresis engine."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oft import adapt
from oft.errors import ConfigError, DataError, SequencingError
from oft.adapt import (
    DEFAULT_RULES,
    STAGES,
    AdaptationEngine,
    AssistanceRule,
    assistance_for_level,
)


class TestRuleTable:
    def test_low_levels_get_nothing(self):
        for level in (1, 2, 3):
            assert assistance_for_level(level) == ()

    def test_level_four_gets_the_gathering_pair(self):
        assert assistance_for_level(4) == ("highlight_messages", "highlight_empty_zones")

    def test_level_five_gets_everything(self):
        assert len(assistance_for_level(5)) == 6

    def test_monotone_superset(self):
        for lo in range(1, 5):
            assert set(assistance_for_level(lo)) <= set(assistance_for_level(lo + 1))

    def test_out_of_range_level(self):
        with pytest.raises(ConfigError):
            assistance_for_level(0)
        with pytest.raises(ConfigError):
            assistance_for_level(6)

    def test_rule_validation(self):
        """The assistance table is fixed, so its validity is checked here."""
        for rule in DEFAULT_RULES:
            assert rule.stage in STAGES, rule
            assert rule.trigger_level in (1, 2, 3, 4, 5), rule
        directives = [r.directive for r in DEFAULT_RULES]
        assert len(set(directives)) == len(directives)

    def test_default_rules_name_known_stages(self):
        assert {r.stage for r in DEFAULT_RULES} == {"gathering", "analysis", "decision", "action"}


class TestEngine:
    def test_rising_edge_activates(self):
        eng = AdaptationEngine()
        assert eng.step(0.0, 3) == []
        cmds = eng.step(1.0, 4)
        assert [(c.directive, c.active) for c in cmds] == [
            ("highlight_messages", True),
            ("highlight_empty_zones", True),
        ]
        assert cmds[0].task == "ReadMessage"

    def test_steady_level_is_silent(self):
        eng = AdaptationEngine()
        eng.step(0.0, 4)
        assert eng.step(1.0, 4) == []
        assert eng.step(2.0, 4) == []
        assert eng.active == frozenset({"highlight_messages", "highlight_empty_zones"})

    def test_release_waits_for_hold(self):
        eng = AdaptationEngine(hold_s=5.0)
        eng.step(0.0, 4)
        for t in range(1, 6):
            assert eng.step(float(t), 3) == []  # t - 0 <= 5 throughout
        cmds = eng.step(6.0, 3)
        assert [(c.directive, c.active) for c in cmds] == [
            ("highlight_messages", False),
            ("highlight_empty_zones", False),
        ]

    def test_bounce_inside_hold_never_releases(self):
        eng = AdaptationEngine(hold_s=5.0)
        eng.step(0.0, 5)
        assert eng.step(2.0, 4) == []  # level-5 aids held, level-4 aids stay
        assert eng.step(4.0, 5) == []  # everything still active, nothing to re-announce
        assert len(eng.active) == 6

    def test_zero_hold_tracks_level_function(self):
        eng = AdaptationEngine(hold_s=0.0)
        stream = [(0.0, 5), (1.0, 3), (2.0, 4), (3.0, 1), (4.0, 5)]
        for t, level in stream:
            eng.step(t, level)
            assert eng.active == frozenset(assistance_for_level(level))

    def test_level_four_aids_survive_level_five(self):
        eng = AdaptationEngine()
        eng.step(0.0, 4)
        cmds = eng.step(1.0, 5)
        names = {c.directive for c in cmds}
        assert "highlight_messages" not in names  # already on
        assert "auto_inspect" in names

    def test_time_must_advance(self):
        eng = AdaptationEngine()
        eng.step(0.0, 3)
        with pytest.raises(SequencingError):
            eng.step(0.0, 3)
        with pytest.raises(SequencingError):
            eng.step(-1.0, 3)

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf"), True, "3.0", None],
                             ids=repr)
    def test_time_must_be_a_finite_number(self, t):
        """A refused time changes nothing: NaN once switched every aid on
        and then hid both time running backwards and every release."""
        eng, ref = AdaptationEngine(hold_s=5.0), AdaptationEngine(hold_s=5.0)
        with pytest.raises(DataError, match="^time must be a finite number, got "):
            eng.step(t, 5)
        assert eng.active == frozenset()
        eng.step(0.0, 5)
        ref.step(0.0, 5)
        with pytest.raises(DataError, match="^time must be a finite number, got "):
            eng.step(t, 3)
        for when, level in [(1.0, 3), (6.0, 3), (7.0, 1)]:
            assert eng.step(when, level) == ref.step(when, level)
            assert eng.active == ref.active
        assert eng.active == frozenset()
        with pytest.raises(SequencingError):
            eng.step(6.5, 3)

    def test_level_validated(self):
        eng = AdaptationEngine()
        with pytest.raises(ConfigError):
            eng.step(0.0, 0)

    @pytest.mark.parametrize("level", [4.5, True, "4", None])
    def test_level_is_an_integer(self, level):
        with pytest.raises(ConfigError, match="workload level must be 1..5"):
            AdaptationEngine().step(0.0, level)
        with pytest.raises(ConfigError, match="workload level must be 1..5"):
            assistance_for_level(level)

    def test_engine_and_scenario_share_one_default_hold(self):
        from oft.microworld import ScenarioConfig

        assert AdaptationEngine().hold_s == ScenarioConfig().hold_s == adapt.HOLD_S == 5.0

    def test_negative_hold_rejected(self):
        with pytest.raises(ConfigError):
            AdaptationEngine(hold_s=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), None, "5"])
    def test_non_finite_hold_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite number >= 0"):
            AdaptationEngine(hold_s=bad)


class TestReplay:
    LEVELS = [(float(t), lvl) for t, lvl in enumerate([1, 2, 4, 4, 5, 3, 3, 3, 3, 3, 3, 3, 2, 4])]

    def fold(self):
        eng = AdaptationEngine()
        commands = []
        for t, level in self.LEVELS:
            commands.extend(eng.step(t, level))
        return eng, commands

    def test_active_after_matches_engine_state(self):
        # applying the edges in order rebuilds the engine's active set
        eng, commands = self.fold()
        state = set()
        for cmd in commands:
            (state.add if cmd.active else state.discard)(cmd.directive)
        assert state == eng.active

    def test_commands_alternate_per_directive(self):
        _eng, commands = self.fold()
        last = {}
        for cmd in commands:
            assert last.get(cmd.directive) != cmd.active  # no repeated edges
            last[cmd.directive] = cmd.active


def hysteresis_oracle(rules, hold_s, stream):
    """Commands per step, from a declarative rule: a directive is on after
    the step at time t exactly when some level seen so far, at a time t0
    with t - t0 <= hold_s, reached its trigger. Each directive is judged on
    its own, and a step reports the directives whose state changed, in
    rule order."""
    out, seen, before = [], [], {r.directive: False for r in rules}
    for t, level in stream:
        seen.append((t, level))
        step = []
        for rule in rules:
            on = any(lvl >= rule.trigger_level and t - t0 <= hold_s for t0, lvl in seen)
            if on != before[rule.directive]:
                step.append((t, rule.directive, rule.task, on))
                before[rule.directive] = on
        out.append((step, frozenset(d for d, on in before.items() if on)))
    return out


@st.composite
def level_streams(draw):
    gaps = draw(st.lists(st.one_of(st.integers(1, 4).map(float), st.floats(0.01, 8.0)),
                         min_size=1, max_size=60))
    times, t = [], draw(st.one_of(st.integers(-10, 10).map(float), st.floats(-10.0, 10.0)))
    for gap in gaps:
        t += gap
        times.append(t)
    levels = draw(st.lists(st.integers(1, 5), min_size=len(times), max_size=len(times)))
    return list(zip(times, levels))


class TestHysteresisOracle:
    @settings(max_examples=300, deadline=None)
    @given(level_streams(),
           st.one_of(st.sampled_from([0.0, 1.0, 2.0, 2.5, 5.0]), st.floats(0.0, 12.0)),
           st.lists(st.integers(1, 5), min_size=1, max_size=6))
    def test_engine_matches_the_declarative_rule(self, stream, hold_s, triggers):
        rules = tuple(AssistanceRule(f"aid{i}", f"Task{i % 2}", "action", level)
                      for i, level in enumerate(triggers))
        for table in (DEFAULT_RULES, rules):
            oracle = hysteresis_oracle(table, hold_s, stream)
            with mock.patch.object(adapt, "DEFAULT_RULES", table):
                eng = AdaptationEngine(hold_s=hold_s)
                for (t, level), (want, active) in zip(stream, oracle):
                    got = eng.step(t, level)
                    assert [(c.t, c.directive, c.task, c.active) for c in got] == want
                    assert eng.active == active
