"""Physiological signal features: RR-interval variability and pupil diameter.

Input contract
--------------
Beat series are (timestamp_s, rr_ms) pairs with finite, strictly increasing
timestamps and finite, positive intervals. Pupil series are (timestamp_s,
mm, valid) samples with finite, non-decreasing timestamps. Cleansing keeps
valid samples with diameters in [2.0, 8.0] mm inclusive; everything else,
a NaN diameter included, is dropped, never interpolated.

SDNN is the sample (N-1) standard deviation of the last `span` intervals
(default 100 beats). Z-scores also use the sample standard deviation, so a
z-scored series has sample mean 0 and sample std 1.
"""

from __future__ import annotations

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
from .jsonl import dump_jsonl, read_csv, write_csv

PUPIL_MIN_MM = 2.0
PUPIL_MAX_MM = 8.0
SDNN_SPAN = 100
# windows per vectorised SDNN pass; bounds the copy of the windows in memory
_SDNN_BLOCK = 128


@dataclass(frozen=True)
class RRSeries:
    """Beat-to-beat intervals in ms, stamped with beat times in seconds."""

    timestamps: np.ndarray
    intervals_ms: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        rr = np.asarray(self.intervals_ms, dtype=float)
        if ts.shape != rr.shape or ts.ndim != 1:
            raise DataError("beats: timestamps and intervals must be 1-d and equal length")
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(rr))):
            raise DataError("beats: timestamps and RR intervals must be finite")
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
        ts = np.asarray(self.timestamps, dtype=float)
        mm = np.asarray(self.diameters_mm, dtype=float)
        ok = (
            np.ones(len(ts), dtype=bool)
            if self.valid is None
            else np.asarray(self.valid, dtype=bool)
        )
        if not (ts.shape == mm.shape == ok.shape) or ts.ndim != 1:
            raise DataError("pupil: timestamps, diameters and flags must be 1-d and equal length")
        if not np.all(np.isfinite(ts)):
            raise DataError("pupil: timestamps must be finite")
        if len(ts) and np.any(np.diff(ts) < 0):
            raise DataError("pupil: timestamps must be non-decreasing")
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "diameters_mm", mm)
        object.__setattr__(self, "valid", ok)

    def __len__(self):
        return len(self.diameters_mm)


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
    `span` intervals fall back to all of them; fewer than 2 is an error.
    """
    if span < 2:
        raise ConfigError(f"sdnn: span must be >= 2, got {span}")
    rr = window.intervals_ms if isinstance(window, RRSeries) else np.asarray(window, dtype=float)
    if np.any(rr <= 0):
        raise DataError("sdnn: RR intervals must be positive")
    tail = rr[-span:]
    if len(tail) < 2:
        raise InsufficientDataError(
            f"sdnn: need at least 2 intervals, got {len(tail)}"
        )
    return float(np.std(tail, ddof=1))


def normalize(values) -> NormalizedSeries:
    """Z-score a value sequence: (x - mean) / sample std.

    The output has sample mean 0 and sample std 1.
    """
    x = np.asarray(values, dtype=float)
    if len(x) < 2:
        raise InsufficientDataError("z-score: need at least 2 values")
    center = float(np.mean(x))
    scale = float(np.std(x, ddof=1))
    if scale == 0.0:
        raise DegenerateInputError("z-score: zero variance input")
    return NormalizedSeries((x - center) / scale, center, scale)


def bandpass(timestamps, values, low_hz: float, high_hz: float) -> np.ndarray:
    """Zero-phase band-pass of a uniformly sampled series.

    Order-2 Butterworth applied forward and backward (second-order
    sections), so the passband is preserved without phase shift and DC is
    removed. Non-uniform timestamps are rejected rather than silently
    resampled.
    """
    t = np.asarray(timestamps, dtype=float)
    x = np.asarray(values, dtype=float)
    if t.shape != x.shape or t.ndim != 1:
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
    # scipy is imported here, so that importing the package does not load it
    from scipy.signal import butter, sosfiltfilt

    fs = 1.0 / dt0
    if not (0.0 < low_hz < high_hz < fs / 2.0):
        raise ValueError(
            f"bandpass: need 0 < low < high < fs/2, got low={low_hz}, high={high_hz}, fs={fs:g}"
        )
    sos = butter(2, [low_hz, high_hz], btype="bandpass", fs=fs, output="sos")
    padlen = 3 * (2 * sos.shape[0] + 1)
    if len(x) <= padlen:
        raise InsufficientDataError(
            f"bandpass: need more than {padlen} samples for edge padding, got {len(x)}"
        )
    return sosfiltfilt(sos, x)


def _norm_stats(per_sec, method, window, reference):
    """Resolve the (center, scale) pair used for per-second pupil z-scores."""
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
    elif method == "session":
        pool = list(per_sec.values())
    else:
        raise ConfigError(f"per_second_frames: unknown normalization method {method!r}")
    if len(pool) < 2:
        raise InsufficientDataError("pupil normalization: need at least 2 per-second means")
    arr = np.asarray(pool, dtype=float)
    scale = float(np.std(arr, ddof=1))
    if scale == 0.0:
        raise DegenerateInputError("pupil normalization: zero variance in baseline")
    return float(np.mean(arr)), scale


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
    duration = max(int(math.floor(max(beats.timestamps[-1], clean.timestamps[-1]))) + 1, 1)

    edges = np.arange(duration + 1)
    pupil_edges = np.searchsorted(clean.timestamps, edges, side="left").tolist()
    pupil_sec: dict[int, float] = {}
    for t in range(duration):
        lo, hi = pupil_edges[t], pupil_edges[t + 1]
        if hi > lo:
            pupil_sec[t] = float(np.mean(clean.diameters_mm[lo:hi]))

    center, scale = _norm_stats(pupil_sec, normalization, window, reference)

    beat_counts = np.searchsorted(beats.timestamps, edges[1:], side="left")
    full_sdnn = _full_span_sdnn(beats.intervals_ms, beat_counts, span)
    frames: list[FeatureFrame] = []
    for t, n_beats in enumerate(beat_counts.tolist()):
        if n_beats >= span:
            hrv = full_sdnn[n_beats]
        elif n_beats >= 2:
            hrv = sdnn(beats.intervals_ms[:n_beats], span=span)
        else:
            hrv = None
        z = (pupil_sec[t] - center) / scale if t in pupil_sec else None
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


def read_pupil_csv(path: str | Path) -> PupilSeries:
    """Read a pupil CSV with header t_s,pupil_mm,valid."""
    rows = read_csv(
        path, "pupil", ("t_s", "pupil_mm", "valid"),
        lambda t_s, pupil_mm, valid: (float(t_s), float(pupil_mm),
                                      valid.strip() in ("1", "true", "True")),
    )
    ts, mm, ok = np.array(rows, dtype=float).reshape(-1, 3).T.copy()
    return PupilSeries(ts, mm, ok)


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
