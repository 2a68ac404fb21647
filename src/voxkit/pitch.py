"""Fundamental-frequency estimation and pitch-track alignment.

The tracker searches each centered analysis frame for the lag that
minimizes the cumulative mean normalized difference of the signal, the
normalization that makes the decision independent of amplitude scaling.

The difference function is computed as YIN splits it (de Cheveigne and
Kawahara, 2002): two windowed energies minus twice a cross-correlation
that comes from FFTs, for a batch of frames at a time. Its rounding
differs from the sum of squared differences that defines it, so f0 agrees
with that definition to a relative 1e-12, not bit for bit; the voicing
decisions agree unless a value lies within rounding of its threshold.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dsp import _CHUNK_FRAMES, StftConfig, Waveform, _frame_chunks
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


def _energies(frames: np.ndarray, window: int) -> np.ndarray:
    """e(k), the sum of frames[:, k : k + window] ** 2, for lags k = 0..size - window.

    The lags fall into blocks of window lags from 0. In a block that starts
    at b0, e(k) is the suffix sum of the squares over [k, b0 + window),
    one reversed cumulative sum per block, plus for k > b0 the prefix sum
    over [b0 + window, k + window), one forward cumulative sum per block.
    Each sums only the squares that the block's lags read.
    """
    n, size = frames.shape
    lag_max = size - window
    sq = np.square(frames)
    energy = np.empty((n, lag_max + 1))
    for b0 in range(0, lag_max + 1, window):
        b1 = min(b0 + window, lag_max + 1)
        suffix = np.cumsum(sq[:, b0 : b0 + window][:, ::-1], axis=1)[:, ::-1]
        energy[:, b0:b1] = suffix[:, : b1 - b0]
        energy[:, b0 + 1 : b1] += np.cumsum(sq[:, b0 + window : b1 - 1 + window], axis=1)
    return energy


def _cmnd(frames: np.ndarray, window: int) -> np.ndarray:
    """The cumulative mean normalized difference of each frame, lags 0..lag_max.

    A frame holds window + lag_max samples x; its difference at lag k sums
    (x[j] - x[j + k]) ** 2 over the window samples j. That is
    e(0) + e(k) - 2 r(k), where e(k) sums x ** 2 over [k, k + window) and
    r(k) is the cross-correlation of the frame's first window samples with
    the whole frame, taken from FFTs of the frame's length, which is long
    enough that no lag wraps around.

    The difference is unchanged by a constant offset, so each frame first
    has one of its own samples, its middle one in sorted order, subtracted:
    a constant frame then becomes exact zeros, a mostly silent one keeps
    its zeros, and a DC offset does not swamp the rest in the subtraction.
    Each e(k) is the sum of two cumulative sums of non-negative terms
    (_energies), never a difference of prefix sums, so quiet audio next to
    loud audio keeps its relative precision.
    """
    n, size = frames.shape
    lag_max = size - window
    frames = frames - np.partition(frames, size // 2, axis=1)[:, size // 2, None]
    spec = np.fft.rfft(frames[:, :window], n=size, axis=1)
    np.conjugate(spec, out=spec)
    spec *= np.fft.rfft(frames, axis=1)
    r = np.fft.irfft(spec, n=size, axis=1)[:, 1 : lag_max + 1]
    energy = _energies(frames, window)
    d = energy[:, :1] + energy[:, 1:] - 2.0 * r
    np.maximum(d, 0.0, out=d)
    csum = np.cumsum(d, axis=1)
    cmnd = np.ones((n, lag_max + 1))
    np.divide(d * np.arange(1, lag_max + 1), csum, out=cmnd[:, 1:], where=csum > 0.0)
    return cmnd


def _decide(cmnd: np.ndarray, sr: int, lag_min: int, lag_max: int) -> tuple:
    """(f0, voiced) of each CMND row, all rows at once.

    The dip is the first lag under VOICING_THRESHOLD walked down to its
    bottom, the first lag at or after it that is lag_max or whose right
    neighbour is not lower; without such a lag it is the argmin. Its
    parabolic refinement is applied elementwise with the scalar rules.
    """
    rows = np.arange(len(cmnd))
    region = cmnd[:, lag_min : lag_max + 1]
    below = region < VOICING_THRESHOLD
    has_dip = below.any(axis=1)
    first = below.argmax(axis=1) + lag_min
    bottom = np.ones(cmnd.shape, dtype=bool)
    bottom[:, :-1] = ~(cmnd[:, 1:] < cmnd[:, :-1])
    bottom &= np.arange(lag_max + 1) >= first[:, None]
    k = np.where(has_dip, bottom.argmax(axis=1), region.argmin(axis=1) + lag_min)
    y0 = cmnd[rows, k - 1]
    y1 = cmnd[rows, k]
    y2 = cmnd[rows, np.minimum(k + 1, lag_max)]
    denom = y0 - 2.0 * y1 + y2
    refine = (k < lag_max) & (np.abs(denom) > 1e-12)
    shift = np.zeros(len(cmnd))
    shift[refine] = np.minimum(
        0.5, np.maximum(-0.5, 0.5 * (y0[refine] - y2[refine]) / denom[refine])
    )
    freq = sr / (k + shift)
    voiced = (y1 < VOICING_THRESHOLD) & (F0_MIN <= freq) & (freq <= F0_MAX)
    return np.where(voiced, freq, 0.0), voiced


def extract_pitch(w: Waveform, cfg: StftConfig = StftConfig()) -> PitchTrack:
    """Estimate per-frame f0 on the frames of stft(w, cfg): win_length and hop_length.

    A frame is voiced when the normalized-difference minimum falls below
    VOICING_THRESHOLD and the refined f0 lies inside [F0_MIN, F0_MAX].
    """
    sr = w.sample_rate
    lag_min, lag_max = lags(sr, cfg.win_length)
    window = cfg.win_length - lag_max
    chunks = _frame_chunks(w.samples, cfg.win_length, cfg.hop_length, _CHUNK_FRAMES)
    f0, voiced = zip(*(_decide(_cmnd(frames, window), sr, lag_min, lag_max) for frames in chunks))
    return PitchTrack(np.concatenate(f0), np.concatenate(voiced), sr / cfg.hop_length)


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
