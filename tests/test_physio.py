"""Signal feature tests: SDNN, pupil cleansing, normalization, band-pass."""

import math
import statistics
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oft.errors import ConfigError, DataError, DegenerateInputError, InsufficientDataError
from oft.physio import (
    PupilSeries,
    RRSeries,
    bandpass,
    cleanse_pupil,
    normalize,
    per_second_frames,
    read_pupil_csv,
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

    def test_overflow_is_a_data_error_naming_sdnn(self):
        # the squared deviations overflow; numpy must not warn on the way
        with pytest.raises(DataError, match=r"^sdnn: .*\(inf ms\)"):
            sdnn([1e200, 1e200, 1e199])


class TestCleansePupil:
    def test_range_boundaries_inclusive(self):
        p = make_pupil([2.0, 8.0, 1.99, 8.01, 1.5, 3.3])
        out = cleanse_pupil(p)
        assert list(out.diameters_mm) == [2.0, 8.0, 3.3]

    def test_invalid_flag_drops_in_range_sample(self):
        p = make_pupil([3.0, 3.1, 3.2], valid=[True, False, True])
        out = cleanse_pupil(p)
        assert list(out.diameters_mm) == [3.0, 3.2]

    def test_valid_flag_values(self, tmp_path):
        path = tmp_path / "pupil.csv"
        flags = ["1", "true", "True", "0", "false", "False"]
        path.write_text("t_s,pupil_mm,valid\n" + "".join(f"{t},3.0,{f}\n" for t, f in enumerate(flags)))
        assert list(read_pupil_csv(path).valid) == [True] * 3 + [False] * 3

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

    def test_constant_input_is_degenerate(self):
        with pytest.raises(DegenerateInputError):
            normalize([4.2, 4.2, 4.2])

    def test_single_value_insufficient(self):
        with pytest.raises(InsufficientDataError):
            normalize([4.2])

    def test_overflow_is_a_data_error_naming_normalize(self):
        # a finite mean of 0.0 and an overflowed std would give all-zero z-scores
        with pytest.raises(DataError, match=r"^normalize: .*sample std inf"):
            normalize([1e308, -1e308, 0.0])


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

    @pytest.mark.parametrize("t,x,error,message", [
        ([0.0, 0.1, 0.2], [1.0, 2.0], DataError, "1-d and equal length"),
        ([0.0, 0.1], [1.0, 2.0], InsufficientDataError, "at least 3 samples"),
        ([0.3, 0.2, 0.1, 0.0], [1.0, 2.0, 3.0, 4.0], DataError, "strictly increasing"),
    ])
    def test_series_refused(self, t, x, error, message):
        with pytest.raises(error, match=message):
            bandpass(t, x, 0.01, 0.3)

    # scipy is the oracle: same design, same padding and initial states. The
    # two agree to within 1e-9 of the signal's largest magnitude for low
    # edges down to fs/1000 (the largest gap seen in 400 random draws was
    # 1e-12); a lower edge makes the filter ill-conditioned.
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(16, 1500),
        fs=st.floats(1.0, 200.0),
        low_share=st.floats(1e-3, 0.45),  # low edge over the sample rate
        width=st.floats(0.01, 1.0),  # how far the high edge is towards fs/2
        scale=st.floats(1e-3, 1e3),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scipy_sosfiltfilt(self, n, fs, low_share, width, scale, offset, seed):
        from scipy.signal import butter, sosfiltfilt

        t = np.arange(n) / fs
        x = offset + scale * np.random.default_rng(seed).normal(size=n)
        low = low_share * fs
        high = low + (0.499 * fs - low) * width
        rate = 1.0 / float(np.median(np.diff(t)))  # the rate bandpass reads from t
        want = sosfiltfilt(butter(2, [low, high], btype="bandpass", fs=rate, output="sos"), x)
        got = bandpass(t, x, low, high)
        assert got.shape == want.shape
        assert float(np.max(np.abs(got - want))) <= 1e-9 * float(np.max(np.abs(x)))

    def test_runs_without_scipy(self, monkeypatch):
        for name in ("scipy", "scipy.signal"):
            monkeypatch.setitem(sys.modules, name, None)  # any import of it fails
        t, x = self._sine(0.05, duration_s=120.0)
        assert self._steady_amplitude(bandpass(t, x, 0.01, 0.3)) > 0.5


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

    def test_overflowing_warmup_sdnn_names_the_second(self):
        # twelve beats, far fewer than the SDNN span, the last two with huge intervals
        beats = RRSeries(np.arange(12) * 0.8, np.array([800.0] * 10 + [1e200, 1e199]))
        pupil = make_pupil(np.linspace(3.0, 4.0, 40))
        with pytest.raises(DataError, match=r"^second \d+: SDNN is inf ms, not a finite number$"):
            per_second_frames(beats, pupil)

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

    @pytest.mark.parametrize("kwargs", [
        {"span": 1},
        {"normalization": "window"},
        {"normalization": "window", "window": (5.0, 2.0)},
        {"normalization": "window", "window": (2.0, 2.0)},
        {"normalization": "window", "window": (0.0, float("nan"))},
        {"normalization": "window", "window": (float("-inf"), 5.0)},
        {"normalization": "reference"},
        {"normalization": "reference", "reference": (3.0, 0.0)},
        {"normalization": "reference", "reference": (3.0, float("nan"))},
        {"normalization": "reference", "reference": (3.0, float("inf"))},
        {"normalization": "reference", "reference": (float("nan"), 0.5)},
        {"normalization": "median"},
    ])
    def test_bad_arguments_are_config_errors(self, kwargs):
        with pytest.raises(ConfigError):
            per_second_frames(make_beats([800.0] * 5), make_pupil([3.0, 3.2] * 4), **kwargs)

    def test_window_normalization(self):
        beats = make_beats([800.0] * 12)
        # per-second means 3.0..3.4 inside the window, 4.0 after it
        mm = sum(([v] * 4 for v in (3.0, 3.1, 3.2, 3.3, 3.4)), []) + [4.0] * 20
        pupil = make_pupil(mm)
        out = per_second_frames(beats, pupil, normalization="window", window=(0.0, 5.0))
        assert out.meta["window_s"] == [0.0, 5.0]
        assert out.meta["pupil_center_mm"] == pytest.approx(3.2)


    @pytest.mark.parametrize("normalization,window,seconds", [
        ("session", None, slice(None)),
        ("window", (10.0, 40.0), slice(10, 40)),
    ])
    def test_baseline_is_normalize_of_the_pool(self, rng, normalization, window, seconds):
        # one sample a second, so each second's mean is its sample
        mm = 3.4 + 0.1 * rng.standard_normal(60)
        out = per_second_frames(make_beats([800.0] * 80), make_pupil(mm, hz=1.0),
                                normalization=normalization, window=window)
        baseline = normalize(mm[seconds])
        assert out.meta["pupil_center_mm"] == baseline.center  # bit for bit
        assert out.meta["pupil_scale_mm"] == baseline.scale

    @pytest.mark.parametrize("mm,error", [([3.4], InsufficientDataError),
                                          ([3.4, 3.4, 3.4], DegenerateInputError)])
    def test_baseline_errors_keep_their_classes(self, mm, error):
        with pytest.raises(error):
            per_second_frames(make_beats([800.0] * 5), make_pupil(mm, hz=1.0))


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
    def test_beats_shape_mismatch(self):
        with pytest.raises(DataError, match="1-d and equal length"):
            RRSeries(np.array([0.8, 1.6]), np.array([800.0]))

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

    @pytest.mark.parametrize("flags", [
        ["0", "0"], [0.5, 2], [2, 0], [1.0, 0.0], ["true", "false"], [None, True], [[1], [0, 1]],
    ])
    def test_pupil_flags_outside_the_closed_set_are_refused(self, flags):
        with pytest.raises(DataError, match="^pupil: valid flags"):
            PupilSeries(np.array([0.0, 0.25]), np.array([3.0, 3.1]), flags)

    @pytest.mark.parametrize("flags", [
        [True, False], [1, 0], np.array([True, False]), np.array([1, 0], dtype=np.uint8),
        [np.int64(1), np.int64(0)], [np.True_, np.False_],
    ])
    def test_pupil_flags_are_booleans_or_0_and_1(self, flags):
        pupil = PupilSeries(np.array([0.0, 0.25]), np.array([3.0, 3.1]), flags)
        assert pupil.valid.dtype == bool and pupil.valid.tolist() == [True, False]


def pupil_means_oracle(pupil):
    """{second: np.mean of that second's cleansed diameters}, one second at
    a time: the per-second framing that the one-pass means replace."""
    clean = cleanse_pupil(pupil)
    ts, mm = clean.timestamps, clean.diameters_mm
    out = {}
    for t in range(int(math.floor(ts[-1])) + 1):
        second = mm[(ts >= t) & (ts < t + 1)]
        if len(second):
            out[t] = float(np.mean(second))
    return out


def framed_means(pupil):
    """Per-second pupil means as per_second_frames reports them: with the
    reference (0, 1) a z-score is the mean itself, bit for bit."""
    beats = RRSeries(np.array([0.0, 0.8]), np.array([800.0, 800.0]))
    frames = per_second_frames(beats, pupil, normalization="reference",
                               reference=(0.0, 1.0)).frames
    return {f.t: f.pupil_z for f in frames if f.pupil_z is not None}


class TestPupilMeans:
    """The one-pass per-second means equal np.mean over each second."""

    @pytest.mark.parametrize("hz", [1, 4, 10, 30, 60])
    def test_rates_with_gaps_and_jitter(self, rng, hz):
        n = 120 * hz
        ts = np.sort(np.arange(n) / hz + rng.uniform(0.0, 1.0 / hz, n))
        mm = rng.uniform(1.5, 8.5, n)  # some fall outside [2, 8] and are cleansed
        keep = np.ones(n, dtype=bool)
        for start in (10, 50, 51, 90):  # whole seconds without a sample
            keep[(ts >= start) & (ts < start + 1)] = False
        valid = rng.random(n) > 0.1
        pupil = PupilSeries(ts[keep], mm[keep], valid[keep])
        want = pupil_means_oracle(pupil)
        assert 10 not in want and 50 not in want
        assert framed_means(pupil) == want

    def test_second_lengths_around_the_pairwise_cutoff(self, rng):
        # second t holds t % 20 samples: none, one, 2 to 7, and 8 or more
        lengths = [t % 20 for t in range(60)]
        ts = np.concatenate([t + np.sort(rng.uniform(0.0, 1.0, n)) for t, n in enumerate(lengths)])
        pupil = PupilSeries(ts, rng.uniform(2.0, 8.0, len(ts)))
        want = pupil_means_oracle(pupil)
        assert sorted(want) == [t for t, n in enumerate(lengths) if n]
        assert framed_means(pupil) == want

    def test_samples_on_whole_seconds_and_repeated_times(self):
        ts = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 2.5, 4.0, 4.0])
        pupil = PupilSeries(ts, np.array([3.1, 3.3, 2.9, 4.4, 5.05, 7.7, 3.0, 3.6]))
        assert framed_means(pupil) == pupil_means_oracle(pupil)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 30.0), st.floats(2.0, 8.0)), min_size=1, max_size=200))
    def test_random_samples(self, samples):
        samples.sort()
        ts, mm = (np.array(col) for col in zip(*samples))
        pupil = PupilSeries(ts, mm)
        assert framed_means(pupil) == pupil_means_oracle(pupil)


class TestRecordingLength:
    def test_a_day_long_recording_is_framed(self):
        beats = RRSeries(np.array([0.0, 86_400.0]), np.array([800.0, 800.0]))
        pupil = PupilSeries(np.array([0.0, 86_399.5]), np.array([3.0, 3.2]))
        frames = per_second_frames(beats, pupil).frames
        assert frames[-1].t == 86_400

    @pytest.mark.parametrize("beat_end,pupil_end", [(86_400.5, 10.0), (10.0, 86_401.0),
                                                    (1.7e9, 1.7e9), (1e308, 5.0)])
    def test_past_one_day_is_a_data_error(self, beat_end, pupil_end):
        beats = RRSeries(np.array([0.0, beat_end]), np.array([800.0, 800.0]))
        pupil = PupilSeries(np.array([0.0, pupil_end]), np.array([3.0, 3.2]))
        with pytest.raises(DataError, match="past one day"):
            per_second_frames(beats, pupil)

    def test_cleansed_samples_do_not_count(self):
        beats = RRSeries(np.array([0.0, 5.0]), np.array([800.0, 800.0]))
        pupil = PupilSeries(np.array([0.0, 1.0, 1.7e9]), np.array([3.0, 3.2, 3.1]),
                            np.array([True, True, False]))
        assert len(per_second_frames(beats, pupil).frames) == 6
