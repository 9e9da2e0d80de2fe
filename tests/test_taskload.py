"""Demand discretization, spatial entropy, difficulty rules, performance index."""

import json
import math
from itertools import product

import numpy as np
import pytest

from oft.errors import ConfigError, DataError
from oft.taskload import (
    ConstraintFrame,
    DifficultyRule,
    DiscretizedConstraints,
    discretize,
    load_difficulty_rules,
    performance_index,
    spatial_entropy,
    task_difficulty,
)


class TestDiscretize:
    @pytest.mark.parametrize(
        "n1,expected",
        [(0, "low"), (5, "low"), (6, "medium"), (11, "medium"), (12, "high"), (40, "high")],
    )
    def test_n1_cutpoints(self, n1, expected):
        assert discretize(ConstraintFrame(0, n1, 0, 0.0)).n1_level == expected

    @pytest.mark.parametrize("n2,expected", [(0, "low"), (2, "low"), (3, "high")])
    def test_n2_cutpoints(self, n2, expected):
        assert discretize(ConstraintFrame(0, 0, n2, 0.0)).n2_level == expected

    @pytest.mark.parametrize(
        "h,expected",
        [(0.0, "low"), (0.45, "low"), (0.46, "medium"), (1.0, "medium"), (1.01, "high")],
    )
    def test_entropy_cutpoints(self, h, expected):
        assert discretize(ConstraintFrame(0, 0, 0, h)).entropy_level == expected

    def test_all_boundaries_low(self):
        d = discretize(ConstraintFrame(0, 5, 2, 0.45))
        assert d == DiscretizedConstraints("low", "low", "low")

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            ConstraintFrame(0, -1, 0, 0.0)
        with pytest.raises(DataError):
            ConstraintFrame(0, 0, 0, -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entropy_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            ConstraintFrame(0, 12, 3, bad)


class TestSpatialEntropy:
    def test_four_distinct_cells_uniform(self):
        pts = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
        h = spatial_entropy(pts, bounds=(1.0, 1.0), grid=(2, 2))
        assert h == pytest.approx(math.log(4.0), abs=1e-12)

    def test_single_cell_is_zero(self):
        pts = [(0.1, 0.1)] * 7
        assert spatial_entropy(pts, bounds=(1.0, 1.0)) == 0.0

    def test_empty_is_zero(self):
        assert spatial_entropy([], bounds=(1.0, 1.0)) == 0.0

    def test_upper_bound_log_cells(self, rng):
        for _ in range(20):
            pts = rng.random((50, 2))
            h = spatial_entropy(pts, bounds=(1.0, 1.0), grid=(4, 4))
            assert 0.0 <= h <= math.log(16.0) + 1e-12

    def test_outside_positions_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            h = spatial_entropy([(1.5, 0.5), (0.99, 0.5)], bounds=(1.0, 1.0), grid=(2, 2))
        # both end up in the east column, same cell
        assert h == 0.0

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            spatial_entropy([(0.5, 0.5)], bounds=(0.0, 1.0))


class TestDifficulty:
    def test_saturated_demand_is_hard(self):
        assert task_difficulty(DiscretizedConstraints("high", "high", "medium")) == 3
        assert task_difficulty(DiscretizedConstraints("high", "high", "high")) == 3

    def test_minimum_demand_is_easy(self):
        assert task_difficulty(DiscretizedConstraints("low", "low", "low")) == 1

    @pytest.mark.parametrize(
        "combo",
        [("medium", "high", "medium"), ("high", "high", "low"), ("low", "low", "medium"),
         ("high", "low", "high")],
    )
    def test_everything_else_is_medium(self, combo):
        assert task_difficulty(DiscretizedConstraints(*combo)) == 2

    def test_default_table_is_total(self):
        for combo in product(("low", "medium", "high"), ("low", "high"),
                             ("low", "medium", "high")):
            assert task_difficulty(DiscretizedConstraints(*combo)) in (1, 2, 3)

    def test_monotone_in_each_input(self):
        """Raising any single demand level never lowers the default difficulty."""
        orders = {
            "n1": ("low", "medium", "high"),
            "n2": ("low", "high"),
            "entropy": ("low", "medium", "high"),
        }
        for combo in product(orders["n1"], orders["n2"], orders["entropy"]):
            base = task_difficulty(DiscretizedConstraints(*combo))
            for i, field in enumerate(("n1", "n2", "entropy")):
                order = orders[field]
                pos = order.index(combo[i])
                if pos + 1 < len(order):
                    raised = list(combo)
                    raised[i] = order[pos + 1]
                    assert task_difficulty(DiscretizedConstraints(*raised)) >= base

    def test_first_match_wins(self):
        rules = (
            DifficultyRule(td=1, n2=frozenset({"high"})),
            DifficultyRule(td=3),
        )
        assert task_difficulty(DiscretizedConstraints("high", "high", "high"), rules) == 1

    def test_non_total_table_rejected_at_load(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [{"td": 3, "n1": ["high"]}]}))
        with pytest.raises(ConfigError, match="not total"):
            load_difficulty_rules(path)

    def test_bad_level_name_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [{"td": 2, "n1": ["enormous"]}, {"td": 2}]}))
        with pytest.raises(ConfigError):
            load_difficulty_rules(path)

    def test_bad_td_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [{"td": 7}]}))
        with pytest.raises(ConfigError):
            load_difficulty_rules(path)

    def test_valid_table_loads(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"rules": [{"td": 2}]}))
        rules = load_difficulty_rules(path)
        assert task_difficulty(DiscretizedConstraints("low", "low", "low"), rules) == 2


class TestPerformanceIndex:
    def test_duration_extremes_average(self):
        # one instant kill, one at exactly the reference time
        out = performance_index([(10.0, 10.0), (20.0, 200.0)], [])
        assert out.p1 == pytest.approx(0.5)
        assert out.p2 == 1.0
        assert out.overall == pytest.approx(0.75)

    def test_slow_neutralization_floors_at_zero(self):
        out = performance_index([(0.0, 1000.0)], [])
        assert out.p1 == 0.0

    def test_message_budget_boundary_counts(self):
        out = performance_index([], [(0.0, 120.0), (0.0, 120.1), (0.0, None)])
        assert out.p2 == pytest.approx(1 / 3)

    def test_vacuous_components(self):
        out = performance_index([], [])
        assert (out.p1, out.p2, out.overall) == (1.0, 1.0, 1.0)

    def test_custom_weights(self):
        out = performance_index([(0.0, 90.0)], [(0.0, None)], weights=(0.3, 0.7))
        assert out.overall == pytest.approx(0.3 * 0.5 + 0.7 * 0.0)

    def test_weights_validated(self):
        with pytest.raises(ConfigError):
            performance_index([], [], weights=(0.5, 0.6))
        with pytest.raises(ConfigError):
            performance_index([], [], weights=(-0.2, 1.2))

    def test_causality_checked(self):
        with pytest.raises(DataError):
            performance_index([(50.0, 10.0)], [])

    def test_mean_matches_numpy(self, rng):
        detect = np.sort(rng.uniform(0, 500, 30))
        dur = rng.uniform(0, 400, 30)
        pairs = [(float(d), float(d + u)) for d, u in zip(detect, dur)]
        out = performance_index(pairs, [], t_ref_s=180.0)
        want = float(np.mean(np.maximum(0.0, 1.0 - dur / 180.0)))
        assert out.p1 == pytest.approx(want, abs=1e-12)
