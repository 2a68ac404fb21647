"""Fundamental-frequency estimation and pitch-track alignment.

The tracker searches each centered analysis frame for the lag that
minimizes the cumulative mean normalized difference of the signal, the
normalization that makes the decision independent of amplitude scaling.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import StftConfig, Waveform, _center_pad
from .errors import (
    EmptyTrackError,
    FrameRateMismatchError,
    InvalidConfigError,
    InvalidRateError,
    TrackLengthWarning,
)

F0_MIN = 50.0  # Hz; the lowest f0 the tracker reports
F0_MAX = 550.0  # Hz; the highest
VOICING_THRESHOLD = 0.3  # a frame is voiced when its normalized-difference minimum is below this


def lags(sr: int, frame_length: int) -> tuple:
    """(lag_min, lag_max), the period range in samples that the tracker searches at sr."""
    if sr < 2 * F0_MAX:
        raise InvalidConfigError(f"sample rate {sr} is below 2 * f0_max {F0_MAX}")
    lag_max = int(sr / F0_MIN)
    if lag_max >= frame_length:
        raise InvalidConfigError(
            f"frame_length {frame_length} cannot hold a full period"
            f" of f0_min {F0_MIN}"
        )
    return max(2, math.ceil(sr / F0_MAX)), lag_max


@dataclass(frozen=True)
class PitchTrack:
    """Per-frame voicing flags and f0 estimates in Hz; f0 is 0 where unvoiced."""

    f0: np.ndarray
    voiced: np.ndarray
    frame_rate: float

    def __post_init__(self):
        f0 = np.asarray(self.f0, dtype=np.float64)
        voiced = np.asarray(self.voiced, dtype=bool)
        if f0.ndim != 1 or voiced.shape != f0.shape:
            raise InvalidConfigError("f0 and voiced must be 1-D arrays of equal length")
        if not np.all(np.isfinite(f0)) or np.any(f0 < 0):
            raise InvalidConfigError("f0 values must be finite and non-negative")
        if np.any(f0[~voiced] != 0.0):
            raise InvalidConfigError("unvoiced frames must carry f0 == 0")
        if self.frame_rate <= 0:
            raise InvalidRateError(f"frame rate must be positive, got {self.frame_rate}")
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "voiced", voiced)

    def __len__(self):
        return len(self.f0)


_CHUNK_FRAMES = 16  # frames whose difference functions share one pass over the samples
_LAG_BLOCK = 32  # lags per pass; bounds the work buffer (lags x chunk span)


def _cmnd_frames(padded: np.ndarray, n_frames: int, hop: int, lag_max: int, window: int):
    """Yield the cumulative mean normalized difference, lags 0..lag_max, per frame.

    Frame t starts at padded[t * hop]; its difference at lag k sums
    (x[j] - x[j + k]) ** 2 over the window samples j of that frame.
    Neighbouring frames overlap, so each squared difference is computed
    once per chunk of frames, and each frame's window is then summed on
    its own as one contiguous reduction, exactly as for a single frame.
    """
    buf = np.empty((_LAG_BLOCK, (_CHUNK_FRAMES - 1) * hop + window))
    lags = np.arange(1, lag_max + 1, dtype=np.float64)
    for t0 in range(0, n_frames, _CHUNK_FRAMES):
        n = min(_CHUNK_FRAMES, n_frames - t0)
        span = (n - 1) * hop + window
        x = padded[t0 * hop : t0 * hop + span + lag_max]
        shifted = sliding_window_view(x, span)  # shifted[k] = x[k : k + span]
        d = np.empty((n, lag_max + 1))
        for k0 in range(0, lag_max + 1, _LAG_BLOCK):
            k1 = min(k0 + _LAG_BLOCK, lag_max + 1)
            sq = buf[: k1 - k0, :span]
            np.subtract(x[:span], shifted[k0:k1], out=sq)
            np.square(sq, out=sq)
            d[:, k0:k1] = sliding_window_view(sq, window, axis=1)[:, ::hop].sum(axis=2).T
        csum = np.cumsum(d[:, 1:], axis=1)
        cmnd = np.ones_like(d)
        np.divide(d[:, 1:] * lags, csum, out=cmnd[:, 1:], where=csum > 0.0)
        yield from cmnd


def extract_pitch(w: Waveform, cfg: StftConfig | None = None) -> PitchTrack:
    """Estimate per-frame f0 on the frames of stft(w, cfg): win_length and hop_length.

    A frame is voiced when the normalized-difference minimum falls below
    VOICING_THRESHOLD and the refined f0 lies inside [F0_MIN, F0_MAX].
    """
    cfg = cfg or StftConfig()
    sr = w.sample_rate
    lag_min, lag_max = lags(sr, cfg.win_length)
    window = cfg.win_length - lag_max
    padded = _center_pad(w.samples, cfg.win_length)
    n_frames = 1 + (len(padded) - cfg.win_length) // cfg.hop_length
    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    cmnds = _cmnd_frames(padded, n_frames, cfg.hop_length, lag_max, window)
    for t, cmnd in enumerate(cmnds):
        region = cmnd[lag_min : lag_max + 1]
        below = np.flatnonzero(region < VOICING_THRESHOLD)
        if len(below):
            # first dip under the threshold, walked down to its bottom
            k = int(below[0]) + lag_min
            while k + 1 <= lag_max and cmnd[k + 1] < cmnd[k]:
                k += 1
        else:
            k = int(np.argmin(region)) + lag_min
        if cmnd[k] >= VOICING_THRESHOLD:
            continue
        shift = 0.0
        if k < lag_max:
            y0, y1, y2 = cmnd[k - 1], cmnd[k], cmnd[k + 1]
            denom = y0 - 2.0 * y1 + y2
            if abs(denom) > 1e-12:
                shift = min(0.5, max(-0.5, 0.5 * (y0 - y2) / denom))
        freq = sr / (k + shift)
        if F0_MIN <= freq <= F0_MAX:
            voiced[t] = True
            f0[t] = freq
    return PitchTrack(f0, voiced, sr / cfg.hop_length)


def _truncate(track: PitchTrack, n: int) -> PitchTrack:
    return PitchTrack(track.f0[:n], track.voiced[:n], track.frame_rate)


def align_tracks(ref: PitchTrack, hyp: PitchTrack) -> tuple:
    """Truncate two tracks to their common length.

    Warns when the lengths differ by more than 10% of the longer track.
    """
    if len(ref) == 0 or len(hyp) == 0:
        raise EmptyTrackError("cannot align an empty pitch track")
    if not math.isclose(ref.frame_rate, hyp.frame_rate, rel_tol=1e-9):
        raise FrameRateMismatchError(
            f"frame rates differ: {ref.frame_rate} vs {hyp.frame_rate}"
        )
    n1, n2 = len(ref), len(hyp)
    if abs(n1 - n2) / max(n1, n2) > 0.10:
        warnings.warn(
            TrackLengthWarning(f"track lengths {n1} and {n2} differ by more than 10%")
        )
    n = min(n1, n2)
    return _truncate(ref, n), _truncate(hyp, n)
