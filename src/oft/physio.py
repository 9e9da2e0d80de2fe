"""Physiological signal features: RR-interval variability and pupil diameter.

Input contract
--------------
Beat series are (timestamp_s, rr_ms) pairs with finite, strictly increasing
timestamps and finite, positive intervals. Pupil series are (timestamp_s,
mm, valid) samples with finite, non-decreasing timestamps. Cleansing keeps
valid samples with diameters in [2.0, 8.0] mm inclusive; everything else,
a NaN diameter included, is dropped, never interpolated. Array arguments
are read by `jsonl.numeric_array`: dtype, dimensions and finiteness.

SDNN is the sample (N-1) standard deviation of the last `span` intervals
(default 100 beats). Z-scores also use the sample standard deviation, so a
z-scored series has sample mean 0 and sample std 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    InsufficientDataError,
)
from .jsonl import dump_jsonl, numeric_array, read_csv, write_csv

PUPIL_MIN_MM = 2.0
PUPIL_MAX_MM = 8.0
SDNN_SPAN = 100
#: Pupil z baselines: the whole recording, a [start, end) window or a (mean, std) reference.
NORMALIZATIONS = ("session", "window", "reference")
# latest timestamp a framed recording may reach (one day); framing allocates per second
MAX_RECORDING_S = 86_400
# np.mean sums fewer values than this one by one, left to right from 0.0;
# longer runs are summed pairwise
_PAIRWISE_MIN = 8
# windows per vectorised SDNN pass; bounds the copy of the windows in memory
_SDNN_BLOCK = 128


@dataclass(frozen=True)
class RRSeries:
    """Beat-to-beat intervals in ms, stamped with beat times in seconds."""

    timestamps: np.ndarray
    intervals_ms: np.ndarray

    def __post_init__(self):
        ts = numeric_array(self.timestamps, "beats: timestamps", ndim=1, finite=True)
        rr = numeric_array(self.intervals_ms, "beats: RR intervals", ndim=1, finite=True)
        if ts.shape != rr.shape:
            raise DataError("beats: timestamps and intervals must be 1-d and equal length")
        if len(ts) and np.any(np.diff(ts) <= 0):
            raise DataError("beats: timestamps must be strictly increasing")
        if np.any(rr <= 0):
            raise DataError("beats: RR intervals must be positive")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "intervals_ms", rr)

    def __len__(self):
        return len(self.intervals_ms)


@dataclass(frozen=True)
class PupilSeries:
    """Pupil diameter samples in mm with a per-sample validity flag."""

    timestamps: np.ndarray
    diameters_mm: np.ndarray
    valid: np.ndarray = None

    def __post_init__(self):
        ts = numeric_array(self.timestamps, "pupil: timestamps", ndim=1, finite=True)
        mm = numeric_array(self.diameters_mm, "pupil: diameters")
        ok = np.ones(len(ts), dtype=bool) if self.valid is None else _valid_flags(self.valid)
        if not ts.shape == mm.shape == ok.shape:
            raise DataError("pupil: timestamps, diameters and flags must be 1-d and equal length")
        if len(ts) and np.any(np.diff(ts) < 0):
            raise DataError("pupil: timestamps must be non-decreasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "diameters_mm", mm)
        object.__setattr__(self, "valid", ok)

    def __len__(self):
        return len(self.diameters_mm)


def _valid_flags(valid) -> np.ndarray:
    """Validity flags from a closed set, as the CSV reader takes them:
    booleans, or the integers 0 and 1 (numpy's too)."""
    try:
        ok = np.asarray(valid)
    except ValueError as exc:  # a ragged nesting
        raise DataError(f"pupil: valid flags: {exc}") from exc
    kind = ok.dtype.kind
    if kind == "b" or not ok.size or kind in "iu" and np.all((ok == 0) | (ok == 1)):
        return ok.astype(bool, copy=False)
    first = ok.ravel()[:3].tolist()
    raise DataError(f"pupil: valid flags must be booleans or 0 and 1, got {first}")


@dataclass(frozen=True)
class NormalizedSeries:
    """Z-scored values plus the mean and sample std that produced them."""

    values: np.ndarray
    center: float
    scale: float


@dataclass
class FeatureFrame:
    """One second of derived features."""

    t: int
    hrv_sdnn_ms: Optional[float]
    pupil_z: Optional[float]
    warmup: bool


@dataclass
class PhysioFrames:
    frames: list[FeatureFrame]
    meta: dict = field(default_factory=dict)


def cleanse_pupil(series: PupilSeries) -> PupilSeries:
    """Drop invalid samples and diameters outside [2.0, 8.0] mm (inclusive).

    Idempotent: applying it twice equals applying it once. Sample order is
    preserved and nothing is interpolated.
    """
    mm = series.diameters_mm
    keep = series.valid & (mm >= PUPIL_MIN_MM) & (mm <= PUPIL_MAX_MM)
    return PupilSeries(
        timestamps=series.timestamps[keep],
        diameters_mm=mm[keep],
        valid=series.valid[keep],
    )


def sdnn(window, span: int = SDNN_SPAN) -> float:
    """Sample standard deviation of the last `span` RR intervals (ms).

    `window` may be an RRSeries or a plain interval sequence. Fewer than
    `span` intervals fall back to all of them; fewer than 2 is an error,
    and so are intervals so large that the SDNN overflows.
    """
    if span < 2:
        raise ConfigError(f"sdnn: span must be >= 2, got {span}")
    rr = window.intervals_ms if isinstance(window, RRSeries) else window
    rr = numeric_array(rr, "sdnn: RR intervals", ndim=1, finite=True)
    if np.any(rr <= 0):
        raise DataError("sdnn: RR intervals must be positive")
    tail = rr[-span:]
    if len(tail) < 2:
        raise InsufficientDataError(
            f"sdnn: need at least 2 intervals, got {len(tail)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports an overflow
        value = float(np.std(tail, ddof=1))
    if not math.isfinite(value):
        raise DataError(f"sdnn: the RR intervals overflow the SDNN ({value!r} ms)")
    return value


def normalize(values) -> NormalizedSeries:
    """Z-score a value sequence: (x - mean) / sample std.

    The output has sample mean 0 and sample std 1. Values so large that
    the mean or the std overflows are a DataError.
    """
    x = numeric_array(values, "z-score: values", ndim=1, finite=True)
    if len(x) < 2:
        raise InsufficientDataError("z-score: need at least 2 values")
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports an overflow
        center = float(np.mean(x))
        scale = float(np.std(x, ddof=1))
    if not (math.isfinite(center) and math.isfinite(scale)):
        raise DataError(f"normalize: the values overflow the z-score (mean {center!r}, "
                        f"sample std {scale!r})")
    if scale == 0.0:
        raise DegenerateInputError("z-score: zero variance input")
    return NormalizedSeries((x - center) / scale, center, scale)


def bandpass(timestamps, values, low_hz: float, high_hz: float) -> np.ndarray:
    """Zero-phase band-pass of a uniformly sampled series.

    Order-2 Butterworth applied forward and backward (second-order
    sections), so the passband is preserved without phase shift and DC is
    removed. Non-uniform timestamps are rejected rather than silently
    resampled. The design and the filtering are those of scipy.signal's
    `butter(2, [low_hz, high_hz], "bandpass", fs=fs, output="sos")` and
    `sosfiltfilt`, written with numpy and Python floats; the results agree
    to rounding.
    """
    t = numeric_array(timestamps, "bandpass: timestamps", ndim=1, finite=True)
    x = numeric_array(values, "bandpass: values", ndim=1, finite=True)
    if t.shape != x.shape:
        raise DataError("bandpass: timestamps and values must be 1-d and equal length")
    if len(t) < 3:
        raise InsufficientDataError("bandpass: need at least 3 samples")
    dt = np.diff(t)
    dt0 = float(np.median(dt))
    if dt0 <= 0:
        raise DataError("bandpass: timestamps must be strictly increasing")
    if np.max(np.abs(dt - dt0)) > 1e-6 * dt0:
        raise DataError(
            "bandpass: non-uniform sampling detected; resample to a fixed rate first"
        )
    fs = 1.0 / dt0
    if not (0.0 < low_hz < high_hz < fs / 2.0):
        raise ValueError(
            f"bandpass: need 0 < low < high < fs/2, got low={low_hz}, high={high_hz}, fs={fs:g}"
        )
    sos = _butter_bandpass(low_hz, high_hz, fs)
    padlen = 3 * (2 * len(sos) + 1)
    if len(x) <= padlen:
        raise InsufficientDataError(
            f"bandpass: need more than {padlen} samples for edge padding, got {len(x)}"
        )
    # odd extension at both ends, then forward and backward passes that
    # start from the steady state of a step to the first value
    ext = np.concatenate((2 * x[0] - x[padlen:0:-1], x, 2 * x[-1] - x[-2:-padlen - 2:-1]))
    zi = _step_states(sos)
    y = _sosfilt(sos, ext.tolist(), zi, float(ext[0]))
    y = _sosfilt(sos, y[::-1], zi, y[-1])
    return np.array(y[::-1][padlen:-padlen])


def _butter_bandpass(low_hz: float, high_hz: float, fs: float) -> list:
    """Second-order sections (b0, b1, b2, a1, a2) of the order-2 Butterworth
    band-pass, by the bilinear transform, in the order and with the zero
    pairing that scipy.signal.zpk2sos gives them."""
    # the band edges prewarped, with the sample rate normalised to 2
    lo, hi = (4.0 * math.tan(math.pi * (2.0 * f / fs) / 2.0) for f in (low_hz, high_hz))
    bw, wo = hi - lo, math.sqrt(lo * hi)
    # the analog low-pass prototype's upper pole, moved to its two band-pass
    # poles; the other two are their conjugates
    p = -cmath.exp(-0.25j * math.pi) * bw / 2.0
    root = cmath.sqrt(p * p - wo * wo)
    poles = [(4.0 + s) / (4.0 - s) for s in (p + root, p - root)]
    # the four zeros are 1, 1, -1 and -1; the gain is the bilinear
    # transform's, bw^2 * 16 over the product of (4 - pole) for the four poles
    gain = bw * bw * 16.0 / (abs(4.0 - p - root) * abs(4.0 - p + root)) ** 2
    # the pole pair nearest the unit circle goes last, with the two zeros
    # nearest to it
    last, first = sorted(poles, key=lambda z: abs(1.0 - abs(z)))
    near = 1.0 if abs(last - 1.0) <= abs(last + 1.0) else -1.0
    return [
        (gain, 2.0 * near * gain, gain, -2.0 * first.real, abs(first) ** 2),
        (1.0, -2.0 * near, 1.0, -2.0 * last.real, abs(last) ** 2),
    ]


def _step_states(sos: list) -> list:
    """Each section's state after a unit step has settled (sosfilt_zi)."""
    states, scale = [], 1.0
    for b0, b1, b2, a1, a2 in sos:
        z0 = (b1 - a1 * b0 + b2 - a2 * b0) / (1.0 + a1 + a2)
        states.append((scale * z0, scale * (b2 - a2 * b0 - a2 * z0)))
        scale *= (b0 + b1 + b2) / (1.0 + a1 + a2)
    return states


def _sosfilt(sos: list, x: list, states: list, x0: float) -> list:
    """x through the sections in direct form II transposed, each section
    starting from its state times x0."""
    y = list(x)
    for (b0, b1, b2, a1, a2), (s0, s1) in zip(sos, states):
        s0, s1 = s0 * x0, s1 * x0
        for n, v in enumerate(y):
            out = b0 * v + s0
            s0 = b1 * v - a1 * out + s1
            s1 = b2 * v - a2 * out
            y[n] = out
    return y


def _norm_stats(per_sec, method, window, reference):
    """Resolve the (center, scale) pair used for per-second pupil z-scores."""
    if method not in NORMALIZATIONS:
        raise ConfigError(f"per_second_frames: unknown normalization method {method!r}; "
                          f"choose one of {NORMALIZATIONS}")
    if window is not None and method != "window":
        raise ConfigError(f"per_second_frames: {method!r} normalization takes no window")
    if reference is not None and method != "reference":
        raise ConfigError(f"per_second_frames: {method!r} normalization takes no reference")
    if method == "reference":
        if reference is None:
            raise ConfigError("per_second_frames: reference normalization needs (mean, std)")
        center, scale = float(reference[0]), float(reference[1])
        if not (math.isfinite(center) and math.isfinite(scale) and scale > 0):
            raise ConfigError("per_second_frames: reference needs a finite mean and a finite std > 0")
        return center, scale
    if method == "window":
        if window is None:
            raise ConfigError("per_second_frames: window normalization needs (start_s, end_s)")
        lo, hi = window
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ConfigError("per_second_frames: window needs finite bounds with start < end")
        pool = [v for t, v in per_sec.items() if lo <= t < hi]
    else:  # session
        pool = list(per_sec.values())
    baseline = normalize(pool)
    return baseline.center, baseline.scale


def _full_span_sdnn(rr: np.ndarray, counts: np.ndarray, span: int) -> dict:
    """SDNN of rr[n - span:n] for every distinct count n >= span, as {n: ms}.

    One np.std per block of windows gives the same bits as `sdnn` on each
    window alone: every row is reduced on its own, in the same order.
    """
    ends = np.unique(counts[counts >= span])
    if len(ends) == 0:
        return {}
    windows = np.lib.stride_tricks.sliding_window_view(rr, span)
    values = [
        np.std(windows[ends[i:i + _SDNN_BLOCK] - span], axis=1, ddof=1)
        for i in range(0, len(ends), _SDNN_BLOCK)
    ]
    return dict(zip(ends.tolist(), np.concatenate(values).tolist()))


def _pupil_means(clean: PupilSeries, edges: np.ndarray) -> dict:
    """Mean diameter of every second [edges[t], edges[t+1]) with samples, as
    {t: mm}, the same bits as np.mean over each second's samples.

    The seconds with fewer than _PAIRWISE_MIN samples are summed together,
    one sample position at a time, so each is summed left to right from 0.0
    as np.mean sums it (jsonl.float_sum's rule, over numpy rows); longer
    seconds go through np.mean.
    """
    bounds = np.searchsorted(clean.timestamps, edges, side="left")
    starts, counts = bounds[:-1], np.diff(bounds)
    mm = clean.diameters_mm
    sums = np.zeros(len(counts))
    short = counts < _PAIRWISE_MIN
    for k in range(int(counts[short].max(initial=0))):
        rows = np.flatnonzero(short & (counts > k))
        sums[rows] += mm[starts[rows] + k]
    means = sums / np.maximum(counts, 1)
    for t in np.flatnonzero(~short).tolist():
        means[t] = np.mean(mm[starts[t]:bounds[t + 1]])
    seconds = np.flatnonzero(counts)
    return dict(zip(seconds.tolist(), means[seconds].tolist()))


def per_second_frames(
    beats: RRSeries,
    pupil: PupilSeries,
    *,
    span: int = SDNN_SPAN,
    normalization: str = "session",
    window: Optional[tuple[float, float]] = None,
    reference: Optional[tuple[float, float]] = None,
) -> PhysioFrames:
    """Per-second feature frames: rolling SDNN plus normalized pupil size.

    A frame covers [t, t+1), for t from 0 through the second of the last
    beat or pupil sample. SDNN at t uses the last `span` intervals of all
    beats seen so far; frames computed from fewer than `span` beats are
    flagged as warm-up. The pupil feature is the z-score of that second's
    mean diameter; the z baseline is the whole session by default, a fixed
    [start, end) window, or externally supplied (mean, std) reference stats.
    A window or reference given to a normalization that does not use it is
    a ConfigError.
    A recording whose last framed timestamp is past MAX_RECORDING_S, or a
    second whose SDNN or pupil z is not finite (huge intervals overflow the
    SDNN, a tiny reference std the z), is a DataError.
    """
    if len(beats) == 0:
        raise DataError("stream 'beats' is empty")
    if len(pupil) == 0:
        raise DataError("stream 'pupil' is empty")
    clean = cleanse_pupil(pupil)
    if len(clean) == 0:
        raise DataError("stream 'pupil' has no valid samples after cleansing")

    if span < 2:
        raise ConfigError(f"per_second_frames: span must be >= 2, got {span}")
    end = max(beats.timestamps[-1], clean.timestamps[-1])
    if end > MAX_RECORDING_S:
        raise DataError(
            f"recording ends at {end:g} s, past one day ({MAX_RECORDING_S} s); "
            "timestamps must be seconds from the start of the recording"
        )
    duration = max(int(math.floor(end)) + 1, 1)

    edges = np.arange(duration + 1)
    pupil_sec = _pupil_means(clean, edges)

    center, scale = _norm_stats(pupil_sec, normalization, window, reference)

    beat_counts = np.searchsorted(beats.timestamps, edges[1:], side="left")
    frames: list[FeatureFrame] = []
    # huge intervals overflow the SDNN: the check below reports it, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        full_sdnn = _full_span_sdnn(beats.intervals_ms, beat_counts, span)
        for t, n_beats in enumerate(beat_counts.tolist()):
            if n_beats >= span:
                hrv = full_sdnn[n_beats]
            elif n_beats >= 2:
                try:
                    hrv = sdnn(beats.intervals_ms[:n_beats], span=span)
                except DataError:  # RRSeries holds finite positive intervals: the SDNN overflowed
                    hrv = math.inf
            else:
                hrv = None
            z = (pupil_sec[t] - center) / scale if t in pupil_sec else None
            if hrv is not None and not math.isfinite(hrv):
                raise DataError(f"second {t}: SDNN is {hrv!r} ms, not a finite number")
            if z is not None and not math.isfinite(z):
                raise DataError(f"second {t}: pupil z is {z!r}, not a finite number")
            frames.append(FeatureFrame(t=t, hrv_sdnn_ms=hrv, pupil_z=z, warmup=n_beats < span))

    meta = {
        "normalization": normalization,
        "pupil_center_mm": center,
        "pupil_scale_mm": scale,
        "sdnn_span": span,
    }
    if window is not None:
        meta["window_s"] = [float(window[0]), float(window[1])]
    return PhysioFrames(frames=frames, meta=meta)


# ---------------------------------------------------------------------------
# file formats


def read_beats_csv(path: str | Path) -> RRSeries:
    """Read a beats CSV with header t_s,rr_ms."""
    rows = read_csv(path, "beats", ("t_s", "rr_ms"), lambda t_s, rr_ms: (float(t_s), float(rr_ms)))
    # the copy gives each column its own contiguous array
    ts, rr = np.array(rows, dtype=float).reshape(-1, 2).T.copy()
    return RRSeries(ts, rr)


# the values of a pupil row's valid flag; any other is a bad row
_VALID_FLAGS = {"1": True, "true": True, "True": True, "0": False, "false": False, "False": False}


def read_pupil_csv(path: str | Path) -> PupilSeries:
    """Read a pupil CSV with header t_s,pupil_mm,valid."""
    rows = read_csv(
        path, "pupil", ("t_s", "pupil_mm", "valid"),
        lambda t_s, pupil_mm, valid: (float(t_s), float(pupil_mm), _VALID_FLAGS[valid.strip()]),
    )
    ts, mm, ok = np.array(rows, dtype=float).reshape(-1, 3).T.copy()
    return PupilSeries(ts, mm, ok.astype(bool))


def write_frames_csv(result: PhysioFrames, path: str | Path) -> None:
    write_csv(path, ("t_s", "hrv_sdnn_ms", "pupil_z"), (
        (f.t, "" if f.hrv_sdnn_ms is None else repr(f.hrv_sdnn_ms),
         "" if f.pupil_z is None else repr(f.pupil_z)) for f in result.frames
    ))


def write_frames_jsonl(result: PhysioFrames, path: str | Path) -> None:
    records = [{"meta": result.meta}]
    records.extend(
        {"t": f.t, "hrv_sdnn_ms": f.hrv_sdnn_ms, "pupil_z": f.pupil_z, "warmup": f.warmup}
        for f in result.frames
    )
    dump_jsonl(records, path)
