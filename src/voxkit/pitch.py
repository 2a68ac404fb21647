"""Fundamental-frequency estimation and pitch-track alignment.

The tracker searches each centered analysis frame for the lag that
minimizes the cumulative mean normalized difference of the signal, the
normalization that makes the decision independent of amplitude scaling.
"""

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import Waveform, _center_pad
from .errors import (
    EmptyTrackError,
    FrameRateMismatchError,
    InvalidConfigError,
    InvalidRateError,
    ParseError,
    TrackLengthWarning,
)
from .serialize import write_tsv


@dataclass(frozen=True)
class PitchConfig:
    """Analysis parameters for the pitch tracker.

    frame_length and hop_length mirror the spectrogram framing so a pitch
    track lines up frame-for-frame with features of the same signal.
    """

    frame_length: int = 1024
    hop_length: int = 256
    f0_min: float = 50.0
    f0_max: float = 550.0
    voicing_threshold: float = 0.3

    def __post_init__(self):
        if self.frame_length <= 0 or self.hop_length <= 0:
            raise InvalidConfigError("frame_length and hop_length must be positive")
        if self.hop_length > self.frame_length:
            raise InvalidConfigError(
                f"hop_length {self.hop_length} exceeds frame_length {self.frame_length}"
            )
        if not 0.0 < self.f0_min < self.f0_max:
            raise InvalidConfigError(
                f"need 0 < f0_min < f0_max, got {self.f0_min} and {self.f0_max}"
            )
        if self.voicing_threshold <= 0.0:
            raise InvalidConfigError(
                f"voicing_threshold must be positive, got {self.voicing_threshold}"
            )


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


def extract_pitch(w: Waveform, cfg: PitchConfig | None = None) -> PitchTrack:
    """Estimate per-frame f0; track length matches the spectrogram frame count.

    A frame is voiced when the normalized-difference minimum falls below the
    voicing threshold and the refined f0 lies inside [f0_min, f0_max].
    """
    cfg = cfg or PitchConfig()
    sr = w.sample_rate
    if sr < 2 * cfg.f0_max:
        raise InvalidConfigError(f"sample rate {sr} is below 2 * f0_max {cfg.f0_max}")
    lag_max = int(sr / cfg.f0_min)
    lag_min = max(2, math.ceil(sr / cfg.f0_max))
    if lag_max >= cfg.frame_length:
        raise InvalidConfigError(
            f"frame_length {cfg.frame_length} cannot hold a full period of f0_min {cfg.f0_min}"
        )
    window = cfg.frame_length - lag_max
    padded = _center_pad(w.samples, cfg.frame_length)
    n_frames = 1 + (len(padded) - cfg.frame_length) // cfg.hop_length
    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    cmnds = _cmnd_frames(padded, n_frames, cfg.hop_length, lag_max, window)
    for t, cmnd in enumerate(cmnds):
        region = cmnd[lag_min : lag_max + 1]
        below = np.flatnonzero(region < cfg.voicing_threshold)
        if len(below):
            # first dip under the threshold, walked down to its bottom
            k = int(below[0]) + lag_min
            while k + 1 <= lag_max and cmnd[k + 1] < cmnd[k]:
                k += 1
        else:
            k = int(np.argmin(region)) + lag_min
        if cmnd[k] >= cfg.voicing_threshold:
            continue
        shift = 0.0
        if k < lag_max:
            y0, y1, y2 = cmnd[k - 1], cmnd[k], cmnd[k + 1]
            denom = y0 - 2.0 * y1 + y2
            if abs(denom) > 1e-12:
                shift = min(0.5, max(-0.5, 0.5 * (y0 - y2) / denom))
        freq = sr / (k + shift)
        if cfg.f0_min <= freq <= cfg.f0_max:
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


def save_pitch_tsv(track: PitchTrack, path) -> None:
    """Write a track as TSV with a frame-rate comment line."""
    write_tsv(
        path,
        ("frame", "f0_hz", "voiced"),
        zip(range(len(track)), track.f0.tolist(), track.voiced.astype(int).tolist()),
        comment=f"frame_rate: {float(track.frame_rate)!r}",
    )


def load_pitch_tsv(path) -> PitchTrack:
    """Read a track written by save_pitch_tsv."""
    frame_rate = None
    f0 = []
    voiced = []
    header_seen = False
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("# frame_rate:"):
                frame_rate = float(line.split(":", 1)[1])
            continue
        if not header_seen:
            if line != "frame\tf0_hz\tvoiced":
                raise ParseError(f"unexpected header {line!r}", line=lineno)
            header_seen = True
            continue
        cells = line.split("\t")
        if len(cells) != 3:
            raise ParseError(f"expected 3 fields, got {len(cells)}", line=lineno)
        try:
            f0.append(float(cells[1]))
            voiced.append(bool(int(cells[2])))
        except ValueError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if frame_rate is None or not header_seen:
        raise ParseError("missing frame-rate comment or header line")
    return PitchTrack(np.array(f0), np.array(voiced, dtype=bool), frame_rate)
