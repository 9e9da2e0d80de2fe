"""Signal feature tests: SDNN, pupil cleansing, normalization, band-pass."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oft.errors import DataError, DegenerateInputError, InsufficientDataError
from oft.physio import (
    PupilSeries,
    RRSeries,
    bandpass,
    cleanse_pupil,
    normalize,
    per_second_frames,
    sdnn,
)

from conftest import make_beats, make_pupil


def sdnn_oracle(rr, span=100):
    """Independent SDNN: stdlib sample stdev of the last `span` intervals."""
    tail = list(rr)[-span:]
    return statistics.stdev(tail)


class TestSdnn:
    def test_two_interval_example(self):
        # sqrt(((790-800)^2 + (810-800)^2) / 1) = sqrt(200)
        assert sdnn([790.0, 810.0]) == pytest.approx(math.sqrt(200.0), abs=1e-12)

    def test_matches_oracle_on_many_random_windows(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 300))
            rr = rng.uniform(300.0, 2000.0, n)
            assert sdnn(rr) == pytest.approx(sdnn_oracle(rr), abs=1e-9)

    def test_translation_invariance(self, rng):
        rr = rng.uniform(600.0, 1000.0, 120)
        assert sdnn(rr + 250.0) == pytest.approx(sdnn(rr), abs=1e-9)

    def test_only_last_span_intervals_count(self):
        noise = [1500.0, 300.0] * 25  # junk that must be ignored
        tail = [790.0, 810.0] * 50  # exactly 100 intervals
        assert sdnn(noise + tail) == pytest.approx(sdnn_oracle(tail), abs=1e-9)
        # and a shorter span window restricts further
        assert sdnn(noise + tail, span=10) == pytest.approx(sdnn_oracle(tail, span=10), abs=1e-9)

    def test_accepts_rrseries(self):
        beats = make_beats([800.0, 820.0, 780.0])
        assert sdnn(beats) == pytest.approx(sdnn_oracle([800.0, 820.0, 780.0]), abs=1e-9)

    def test_too_few_intervals(self):
        with pytest.raises(InsufficientDataError):
            sdnn([800.0])

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(DataError):
            sdnn([800.0, -5.0, 820.0])

    def test_bad_span(self):
        with pytest.raises(ValueError):
            sdnn([800.0, 820.0], span=1)


class TestCleansePupil:
    def test_range_boundaries_inclusive(self):
        p = make_pupil([2.0, 8.0, 1.99, 8.01, 1.5, 3.3])
        out = cleanse_pupil(p)
        assert list(out.diameters_mm) == [2.0, 8.0, 3.3]

    def test_invalid_flag_drops_in_range_sample(self):
        p = make_pupil([3.0, 3.1, 3.2], valid=[True, False, True])
        out = cleanse_pupil(p)
        assert list(out.diameters_mm) == [3.0, 3.2]

    def test_idempotent(self, rng):
        mm = rng.uniform(0.5, 9.5, 200)
        ok = rng.random(200) > 0.1
        once = cleanse_pupil(make_pupil(mm, valid=ok))
        twice = cleanse_pupil(once)
        assert np.array_equal(once.diameters_mm, twice.diameters_mm)
        assert np.array_equal(once.timestamps, twice.timestamps)

    def test_order_preserved(self):
        p = make_pupil([3.0, 9.0, 4.0, 1.0, 5.0])
        out = cleanse_pupil(p)
        assert list(out.diameters_mm) == [3.0, 4.0, 5.0]
        assert list(np.diff(out.timestamps) > 0) == [True, True]


class TestNormalize:
    def test_z_score_three_points(self):
        out = normalize([1.0, 2.0, 3.0])
        assert out.values == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)

    def test_z_score_output_stats(self, rng):
        x = rng.normal(5.0, 2.0, 400)
        z = normalize(x).values
        assert float(np.mean(z)) == pytest.approx(0.0, abs=1e-9)
        assert float(np.std(z, ddof=1)) == pytest.approx(1.0, abs=1e-9)

    def test_z_score_matches_stdlib(self, rng):
        x = rng.uniform(2.0, 8.0, 50)
        out = normalize(x)
        assert out.center == pytest.approx(statistics.fmean(x), abs=1e-9)
        assert out.scale == pytest.approx(statistics.stdev(x), abs=1e-9)

    def test_mean_ratio(self):
        out = normalize([2.0, 4.0], method="mean-ratio")
        assert out.values == pytest.approx([2.0 / 3.0, 4.0 / 3.0])
        assert float(np.mean(out.values)) == pytest.approx(1.0)

    def test_constant_input_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            normalize([4.2, 4.2, 4.2])

    def test_single_value_insufficient(self):
        with pytest.raises(InsufficientDataError):
            normalize([4.2])

    def test_zero_mean_ratio_degenerate(self):
        with pytest.raises(DegenerateInputError):
            normalize([-1.0, 1.0], method="mean-ratio")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            normalize([1.0, 2.0], method="median")


class TestBandpass:
    FS = 10.0

    def _sine(self, freq_hz, duration_s=600.0, amp=1.0):
        t = np.arange(0.0, duration_s, 1.0 / self.FS)
        return t, amp * np.sin(2.0 * np.pi * freq_hz * t)

    @staticmethod
    def _steady_amplitude(x):
        mid = x[len(x) // 4 : -len(x) // 4]
        return float(np.max(mid) - np.min(mid)) / 2.0

    def test_passband_preserves_slow_oscillation(self):
        t, x = self._sine(0.05)
        y = bandpass(t, x, 0.01, 0.3)
        assert self._steady_amplitude(y) == pytest.approx(1.0, rel=0.10)

    def test_stopband_rejects_fast_oscillation(self):
        t, x = self._sine(1.0)
        y = bandpass(t, x, 0.01, 0.3)
        # >= 20 dB down means residual amplitude <= 0.1
        assert self._steady_amplitude(y) <= 10 ** (-20.0 / 20.0)

    def test_dc_removed(self):
        t = np.arange(0.0, 120.0, 1.0 / self.FS)
        y = bandpass(t, np.full_like(t, 5.0), 0.01, 0.3)
        assert float(np.max(np.abs(y))) < 1e-6

    def test_mixed_signal_keeps_only_passband(self):
        t, slow = self._sine(0.05)
        _, fast = self._sine(1.0)
        y = bandpass(t, slow + fast + 3.0, 0.01, 0.3)
        # the surviving content should be close to the slow component alone
        mid = slice(len(t) // 4, -(len(t) // 4))
        assert float(np.sqrt(np.mean((y[mid] - slow[mid]) ** 2))) < 0.15

    def test_non_uniform_sampling_rejected(self):
        t = np.array([0.0, 0.1, 0.25, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9] * 30)
        t = np.cumsum(t + 0.05)
        with pytest.raises(DataError):
            bandpass(t, np.ones_like(t), 0.01, 0.3)

    def test_band_edges_validated(self):
        t = np.arange(0.0, 60.0, 0.1)
        with pytest.raises(ValueError):
            bandpass(t, np.zeros_like(t), 0.3, 0.01)
        with pytest.raises(ValueError):
            bandpass(t, np.zeros_like(t), 0.01, 6.0)  # above Nyquist for fs=10

    def test_too_short_for_padding(self):
        t = np.arange(0.0, 1.0, 0.1)
        with pytest.raises(InsufficientDataError):
            bandpass(t, np.ones_like(t), 0.01, 0.3)


class TestPerSecondFrames:
    def test_warmup_flag_clears_at_span(self):
        # 120 beats at exactly 1 Hz: beat k lands at t=k+1 seconds
        beats = make_beats([1000.0] * 120 + [990.0])
        pupil = make_pupil(np.linspace(3.0, 4.0, 4 * 122))
        out = per_second_frames(beats, pupil, span=100)
        flags = {f.t: f.warmup for f in out.frames}
        assert flags[50] is True
        assert flags[99] is False or flags[100] is False  # boundary second
        assert flags[110] is False

    def test_session_z_stats(self, synth_streams):
        beats, pupil = synth_streams
        out = per_second_frames(beats, pupil)
        zs = np.array([f.pupil_z for f in out.frames if f.pupil_z is not None])
        assert float(np.mean(zs)) == pytest.approx(0.0, abs=1e-9)
        assert float(np.std(zs, ddof=1)) == pytest.approx(1.0, abs=1e-9)

    def test_reference_normalization(self):
        beats = make_beats([800.0] * 20 + [900.0])
        pupil = make_pupil([3.5] * 40)
        out = per_second_frames(beats, pupil, normalization="reference", reference=(3.0, 0.5))
        zs = [f.pupil_z for f in out.frames if f.pupil_z is not None]
        assert zs and all(z == pytest.approx(1.0) for z in zs)
        assert out.meta["pupil_center_mm"] == 3.0

    def test_gap_second_has_no_pupil_feature(self, rng):
        mm = 3.4 + rng.normal(0.0, 0.1, 40)
        t = np.arange(40) / 4.0
        keep = (t < 3.0) | (t >= 4.0)  # silence second 3
        pupil = PupilSeries(t[keep], mm[keep], np.ones(int(np.sum(keep)), dtype=bool))
        beats = make_beats([800.0] * 13)
        out = per_second_frames(beats, pupil)
        by_t = {f.t: f for f in out.frames}
        assert by_t[3].pupil_z is None
        assert by_t[2].pupil_z is not None

    def test_empty_streams_rejected(self):
        beats = make_beats([800.0, 810.0])
        with pytest.raises(DataError, match="pupil"):
            per_second_frames(beats, make_pupil([]))
        with pytest.raises(DataError, match="beats"):
            per_second_frames(RRSeries(np.array([]), np.array([])), make_pupil([3.0] * 8))

    def test_all_samples_cleansed_away(self):
        beats = make_beats([800.0] * 5)
        pupil = make_pupil([1.0, 9.0, 1.2])
        with pytest.raises(DataError, match="cleansing"):
            per_second_frames(beats, pupil)

    def test_last_integer_second_is_framed(self):
        beats = RRSeries(np.array([0.0, 0.8, 1.6, 2.4]), np.array([800.0, 800.0, 810.0, 790.0]))
        pupil = PupilSeries(np.array([0.0, 1.0, 2.0, 3.0]), np.array([3.0, 3.2, 3.4, 3.9]))
        frames = per_second_frames(beats, pupil, normalization="reference",
                                   reference=(3.0, 0.5)).frames
        assert [f.t for f in frames] == [0, 1, 2, 3]
        assert frames[3].pupil_z == pytest.approx(1.8)
        # no beat after 2.4 s, so second 3 sees the same four intervals as second 2
        assert frames[3].hrv_sdnn_ms == frames[2].hrv_sdnn_ms

    def test_span_below_two_rejected(self):
        with pytest.raises(ValueError, match="span"):
            per_second_frames(make_beats([800.0] * 5), make_pupil([3.0] * 8), span=1)

    def test_window_normalization(self):
        beats = make_beats([800.0] * 12)
        # per-second means 3.0..3.4 inside the window, 4.0 after it
        mm = sum(([v] * 4 for v in (3.0, 3.1, 3.2, 3.3, 3.4)), []) + [4.0] * 20
        pupil = make_pupil(mm)
        out = per_second_frames(beats, pupil, normalization="window", window=(0.0, 5.0))
        assert out.meta["window_s"] == [0.0, 5.0]
        assert out.meta["pupil_center_mm"] == pytest.approx(3.2)


class TestVectorisedSdnn:
    """Full-span windows are framed in one pass; each must equal `sdnn` on it."""

    @pytest.mark.parametrize("span", [2, 3, 100, 257])
    @pytest.mark.parametrize("n_beats", [1, 2, 50, 600])
    def test_frames_equal_per_window_sdnn(self, rng, span, n_beats):
        rr = rng.uniform(300.0, 2000.0, n_beats)
        beats = make_beats(rr)
        pupil = make_pupil(3.4 + 0.1 * rng.standard_normal(4 * 1300))
        frames = per_second_frames(beats, pupil, span=span).frames
        counts = np.searchsorted(beats.timestamps, np.arange(1, len(frames) + 1), side="left")
        assert counts[-1] == n_beats
        for frame, n in zip(frames, counts.tolist()):
            want = sdnn(rr[max(0, n - span):n], span=span) if n >= 2 else None
            assert frame.hrv_sdnn_ms == want  # bit for bit
            assert frame.warmup == (n < span)


def frames_oracle(beat_ts, rr, pupil_ts, pupil_mm, valid, span, center, scale):
    """Per-second frames the slow way: (hrv, warmup, z) for every second."""
    kept = [(t, mm) for t, mm, ok in zip(pupil_ts, pupil_mm, valid) if ok and 2.0 <= mm <= 8.0]
    duration = max(1, math.floor(max(beat_ts[-1], kept[-1][0])) + 1)
    out = []
    for t in range(duration):
        seen = [v for bt, v in zip(beat_ts, rr) if bt < t + 1]
        hrv = statistics.stdev(seen[-span:]) if len(seen) >= 2 else None
        second = [mm for pt, mm in kept if t <= pt < t + 1]
        z = (statistics.fmean(second) - center) / scale if second else None
        out.append((hrv, len(seen) < span, z))
    return out


@st.composite
def physio_streams(draw):
    rr = draw(st.lists(st.floats(300.0, 2000.0), min_size=1, max_size=60))
    start = draw(st.floats(0.0, 2.0))
    beat_ts = list(start + np.cumsum(rr) / 1000.0 - rr[0] / 1000.0)
    pupil_ts = sorted(draw(st.lists(st.floats(0.0, 20.0), min_size=1, max_size=80)))
    n = len(pupil_ts)
    pupil_mm = draw(st.lists(
        st.one_of(st.floats(0.0, 10.0), st.just(float("nan"))), min_size=n, max_size=n))
    valid = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    span = draw(st.integers(2, 30))
    return beat_ts, rr, pupil_ts, pupil_mm, valid, span


class TestFramesProperty:
    @settings(max_examples=300, deadline=None)
    @given(physio_streams())
    def test_per_second_frames_matches_naive_reference(self, streams):
        beat_ts, rr, pupil_ts, pupil_mm, valid, span = streams
        beats = RRSeries(np.asarray(beat_ts), np.asarray(rr))
        pupil = PupilSeries(np.asarray(pupil_ts), np.asarray(pupil_mm), np.asarray(valid))
        if not any(ok and 2.0 <= mm <= 8.0 for mm, ok in zip(pupil_mm, valid)):
            with pytest.raises(DataError, match="cleansing"):
                per_second_frames(beats, pupil, span=span,
                                  normalization="reference", reference=(3.0, 0.5))
            return
        frames = per_second_frames(beats, pupil, span=span,
                                   normalization="reference", reference=(3.0, 0.5)).frames
        expected = frames_oracle(beat_ts, rr, pupil_ts, pupil_mm, valid, span, 3.0, 0.5)
        assert [f.t for f in frames] == list(range(len(expected)))
        for frame, (hrv, warmup, z) in zip(frames, expected):
            assert frame.warmup == warmup
            if hrv is None:
                assert frame.hrv_sdnn_ms is None
            else:
                assert frame.hrv_sdnn_ms == pytest.approx(hrv, rel=1e-9, abs=1e-9)
            if z is None:
                assert frame.pupil_z is None
            else:
                assert frame.pupil_z == pytest.approx(z, rel=1e-9, abs=1e-9)


class TestSeriesValidation:
    def test_beats_must_increase(self):
        with pytest.raises(DataError):
            RRSeries(np.array([0.8, 0.8]), np.array([800.0, 800.0]))

    def test_beat_intervals_positive(self):
        with pytest.raises(DataError):
            RRSeries(np.array([0.8, 1.6]), np.array([800.0, 0.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_beats_must_be_finite(self, bad):
        with pytest.raises(DataError, match="finite"):
            RRSeries(np.array([0.8, 1.6, 2.4]), np.array([800.0, bad, 800.0]))
        with pytest.raises(DataError, match="finite"):
            RRSeries(np.array([0.8, bad, 2.4]), np.array([800.0, 800.0, 800.0]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_pupil_timestamps_must_be_finite(self, bad):
        with pytest.raises(DataError, match="finite"):
            PupilSeries(np.array([0.0, bad, 0.5]), np.array([3.0, 3.1, 3.2]))

    def test_pupil_shape_mismatch(self):
        with pytest.raises(DataError):
            PupilSeries(np.array([0.0, 0.25]), np.array([3.0]))
