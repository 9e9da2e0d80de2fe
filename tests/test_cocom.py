"""Control-mode coding of tank-supervision traces."""

from importlib.resources import as_file, files

import numpy as np
import pytest

from oft.errors import DataError
from oft.cocom import (
    MODE_ORDER,
    ControlMode,
    TankTrace,
    TransitionMatrix,
    code_mode,
    read_roster_csv,
    read_trace_csv,
    transitions,
    write_coded_csv,
)


def flat_pair(level, n=60):
    return TankTrace(np.full(n, float(level)), np.full(n, 2500.0))


def trace_between(lo, hi, n=120):
    """Both tanks oscillating over [lo, hi]."""
    t = np.linspace(0, 4 * np.pi, n)
    mid, amp = (lo + hi) / 2.0, (hi - lo) / 2.0
    return TankTrace(mid + amp * np.sin(t), mid + amp * np.cos(t))


class TestFixtureTraces:
    def test_controlled_oscillation_is_tactical(self):
        assert code_mode(trace_between(2200, 2600)) == ControlMode.TACTICAL

    def test_deep_undershoot_is_scrambled(self):
        tr = trace_between(2200, 2600)
        a = tr.tank_a.copy()
        a[30] = 1900.0
        assert code_mode(TankTrace(a, tr.tank_b)) == ControlMode.SCRAMBLED

    def test_high_margin_compliance_is_strategic(self):
        assert code_mode(trace_between(2400, 2800)) == ControlMode.STRATEGIC

    def test_shallow_dip_is_opportunistic(self):
        tr = trace_between(1975, 2500)
        assert code_mode(tr) == ControlMode.OPPORTUNISTIC


class TestBoundaries:
    @pytest.mark.parametrize(
        "level,mode",
        [
            (1949.9, ControlMode.SCRAMBLED),
            (1950.0, ControlMode.OPPORTUNISTIC),
            (1999.9, ControlMode.OPPORTUNISTIC),
        ],
    )
    def test_floor_side(self, level, mode):
        tr = trace_between(level, 2500)
        assert code_mode(tr) == mode

    @pytest.mark.parametrize(
        "peak,mode",
        [
            (2749.9, ControlMode.TACTICAL),
            (2750.0, ControlMode.STRATEGIC),
            (3000.0, ControlMode.STRATEGIC),
            (3000.1, ControlMode.TACTICAL),  # over the band but under the hard ceiling
            (3050.0, ControlMode.TACTICAL),
            (3050.1, ControlMode.SCRAMBLED),
        ],
    )
    def test_ceiling_side(self, peak, mode):
        tr = trace_between(2100, peak)
        assert code_mode(tr) == mode

    def test_either_tank_can_trip_the_coder(self):
        a = np.full(50, 2500.0)
        b = np.full(50, 2500.0)
        b[10] = 1900.0
        assert code_mode(TankTrace(a, b)) == ControlMode.SCRAMBLED

    def test_scrambled_beats_strategic_evidence(self):
        # a peak worthy of strategic does not rescue a scrambled undershoot
        tr = trace_between(1900, 2900)
        assert code_mode(tr) == ControlMode.SCRAMBLED


class TestTotality:
    def test_every_random_trace_gets_one_mode(self, rng):
        for _ in range(500):
            lo = rng.uniform(1800, 2500)
            hi = rng.uniform(lo, 3200)
            tr = trace_between(lo, hi, n=int(rng.integers(2, 80)))
            assert code_mode(tr) in MODE_ORDER

    def test_coding_is_pure(self):
        tr = trace_between(2100, 2900)
        assert code_mode(tr) == code_mode(tr)

    def test_empty_trace_rejected(self):
        with pytest.raises(DataError):
            TankTrace(np.array([]), np.array([]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            TankTrace(np.array([2500.0]), np.array([2500.0, 2500.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_levels_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            TankTrace(np.array([2500.0, bad]), np.array([2500.0, 2500.0]))
        with pytest.raises(DataError, match="finite"):
            TankTrace(np.array([2500.0, 2500.0]), np.array([bad, 2500.0]))


class TestTransitions:
    def test_counts_are_positional(self):
        pairs = [
            (ControlMode.TACTICAL, ControlMode.SCRAMBLED),
            (ControlMode.TACTICAL, ControlMode.SCRAMBLED),
            (ControlMode.STRATEGIC, ControlMode.STRATEGIC),
        ]
        tm = transitions(pairs)
        assert tm.counts[ControlMode.TACTICAL.value, ControlMode.SCRAMBLED.value] == 2
        assert tm.counts[ControlMode.STRATEGIC.value, ControlMode.STRATEGIC.value] == 1
        assert tm.counts.sum() == 3

    def test_marginals(self):
        pairs = [
            (ControlMode.TACTICAL, ControlMode.SCRAMBLED),
            (ControlMode.STRATEGIC, ControlMode.SCRAMBLED),
        ]
        tm = transitions(pairs)
        assert tm.first_period_marginals.tolist() == [0, 0, 1, 1]
        assert tm.second_period_marginals.tolist() == [2, 0, 0, 0]

    def test_diagonal_only_is_vacuously_adjacent(self):
        tm = transitions([(m, m) for m in MODE_ORDER])
        assert tm.adjacency_fraction == 1.0

    def test_single_step_transition(self):
        tm = transitions([(ControlMode.SCRAMBLED, ControlMode.OPPORTUNISTIC)])
        assert tm.adjacency_fraction == 1.0

    def test_long_jump_transition(self):
        tm = transitions([(ControlMode.SCRAMBLED, ControlMode.STRATEGIC)])
        assert tm.adjacency_fraction == 0.0

    def test_matrix_validation(self):
        with pytest.raises(DataError):
            TransitionMatrix(np.zeros((3, 3), dtype=int))
        with pytest.raises(DataError):
            TransitionMatrix(np.full((4, 4), -1))


class TestBundledRoster:
    def test_marginals_and_adjacency(self):
        with as_file(files("oft.data").joinpath("cocom_roster.csv")) as path:
            roster = read_roster_csv(path)
        assert len(roster) == 56
        tm = transitions((lo, hi) for _, lo, hi in roster)
        assert tm.first_period_marginals.tolist() == [4, 3, 26, 23]
        assert tm.second_period_marginals.tolist() == [15, 10, 3, 28]
        assert tm.adjacency_fraction == pytest.approx(17 / 28)

    def test_scrambled_participants_stay_scrambled(self):
        with as_file(files("oft.data").joinpath("cocom_roster.csv")) as path:
            roster = read_roster_csv(path)
        lows = [hi for _, lo, hi in roster if lo == ControlMode.SCRAMBLED]
        assert lows and all(hi == ControlMode.SCRAMBLED for hi in lows)


class TestFiles:
    def test_trace_round_trip(self, tmp_path):
        path = tmp_path / "traces.csv"
        rows = ["t_s,tank_a,tank_b,period"]
        rows += [f"{t},{2400 + 100 * (t % 3)},2500,low" for t in range(30)]
        rows += [f"{t},2500,{3100 if t == 5 else 2500},high" for t in range(30)]
        path.write_text("\n".join(rows) + "\n")
        traces = read_trace_csv(path)
        assert set(traces) == {"low", "high"}
        assert code_mode(traces["low"]) == ControlMode.TACTICAL
        assert code_mode(traces["high"]) == ControlMode.SCRAMBLED

    def test_trace_rows_sorted_by_time(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text(
            "t_s,tank_a,tank_b,period\n"
            "2,2600,2500,p\n"
            "0,2400,2500,p\n"
            "1,2500,2500,p\n"
        )
        tr = read_trace_csv(path)["p"]
        assert tr.tank_a.tolist() == [2400.0, 2500.0, 2600.0]

    def test_coded_csv(self, tmp_path):
        path = tmp_path / "coded.csv"
        write_coded_csv([("low", ControlMode.TACTICAL), ("high", ControlMode.SCRAMBLED)], path)
        text = path.read_text()
        assert "period,mode" in text
        assert "low,TACTICAL" in text
        assert "high,SCRAMBLED" in text

    def test_bad_roster_mode_name(self, tmp_path):
        path = tmp_path / "roster.csv"
        path.write_text("participant,mode_low,mode_high\np01,TACTICAL,RELAXED\n")
        with pytest.raises(DataError):
            read_roster_csv(path)

    def test_missing_trace_columns(self, tmp_path):
        path = tmp_path / "traces.csv"
        path.write_text("t_s,tank_a\n0,2500\n")
        with pytest.raises(DataError):
            read_trace_csv(path)

    def test_short_trace_row_is_a_bad_row(self, tmp_path):
        # the period field is missing, not a period named None
        path = tmp_path / "t.csv"
        path.write_text("t_s,tank_a,tank_b,period\n0,2400,2500,p\n1,2400,2500\n")
        with pytest.raises(DataError, match="bad row .*'period': None"):
            read_trace_csv(path)
