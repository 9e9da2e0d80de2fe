"""Demand discretization, spatial entropy, difficulty grading, performance index."""

import math
from collections import Counter
from itertools import product

import numpy as np
import pytest

from oft.errors import DataError
from oft.taskload import (
    ENTROPY_GRID,
    ConstraintFrame,
    DiscretizedConstraints,
    discretize,
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
        h = spatial_entropy(pts)
        assert h == pytest.approx(math.log(4.0), abs=1e-12)

    def test_single_cell_is_zero(self):
        pts = [(0.1, 0.1)] * 7
        assert spatial_entropy(pts) == 0.0

    def test_empty_is_zero(self):
        assert spatial_entropy([]) == 0.0

    def test_upper_bound_log_cells(self, rng):
        for _ in range(20):
            pts = rng.random((50, 2))
            h = spatial_entropy(pts)
            assert 0.0 <= h <= math.log(64.0) + 1e-12

    @pytest.mark.parametrize("point", [(float("nan"), 0.5), (0.5, float("nan"))])
    def test_nan_position_rejected(self, point):
        with pytest.raises(DataError, match="NaN"):
            spatial_entropy([(0.2, 0.2), point])

    def test_equals_a_python_sum_bit_for_bit(self, rng):
        """The sum of p * log(p) over the occupied cells in cell order, in
        Python floats: no term goes through numpy's vectorised log."""
        rows, cols = ENTROPY_GRID

        def reference(points):
            counts = Counter(min(int(y * rows), rows - 1) * cols + min(int(x * cols), cols - 1)
                             for x, y in points)
            total = 0.0
            for cell in sorted(counts):
                p = counts[cell] / len(points)
                total += p * math.log(p)
            return -total + 0.0

        for _ in range(300):
            n = int(rng.integers(1, 120))
            # a spread layout occupies up to 64 cells; a clustered one a few
            scale = rng.choice([1.0, 0.3, 0.05])
            pts = (rng.random((n, 2)) * scale).tolist()
            assert spatial_entropy(pts).hex() == reference(pts).hex()
            assert spatial_entropy(np.array(pts)).hex() == reference(pts).hex()

    @pytest.mark.parametrize("flat", [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4]])
    def test_flat_coordinates_are_not_pairs(self, flat):
        with pytest.raises(DataError, match=r"^spatial_entropy: positions must be \(x, y\) pairs"):
            spatial_entropy(flat)

    def test_outside_positions_clamped_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            h = spatial_entropy([(1.5, 0.5), (0.99, 0.5)])
        # both end up in the east column, same cell
        assert h == 0.0


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

    # the pinned grade of every (n1, n2, entropy) level combination
    GRADES = {
        ("low", "low", "low"): 1,
        ("low", "low", "medium"): 2,
        ("low", "low", "high"): 2,
        ("low", "high", "low"): 2,
        ("low", "high", "medium"): 2,
        ("low", "high", "high"): 2,
        ("medium", "low", "low"): 2,
        ("medium", "low", "medium"): 2,
        ("medium", "low", "high"): 2,
        ("medium", "high", "low"): 2,
        ("medium", "high", "medium"): 2,
        ("medium", "high", "high"): 2,
        ("high", "low", "low"): 2,
        ("high", "low", "medium"): 2,
        ("high", "low", "high"): 2,
        ("high", "high", "low"): 2,
        ("high", "high", "medium"): 3,
        ("high", "high", "high"): 3,
    }

    def test_default_table_is_total(self):
        combos = list(product(("low", "medium", "high"), ("low", "high"),
                              ("low", "medium", "high")))
        assert set(combos) == set(self.GRADES)
        for combo in combos:
            assert task_difficulty(DiscretizedConstraints(*combo)) == self.GRADES[combo], combo

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

    def test_causality_checked(self):
        with pytest.raises(DataError):
            performance_index([(50.0, 10.0)], [])

    def test_mean_matches_numpy(self, rng):
        detect = np.sort(rng.uniform(0, 500, 30))
        dur = rng.uniform(0, 400, 30)
        pairs = [(float(d), float(d + u)) for d, u in zip(detect, dur)]
        out = performance_index(pairs, [])
        want = float(np.mean(np.maximum(0.0, 1.0 - dur / 180.0)))
        assert out.p1 == pytest.approx(want, abs=1e-12)
