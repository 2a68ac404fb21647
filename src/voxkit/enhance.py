"""Waveform cleanup: mixing, activity labeling, silence compression, leveling."""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dsp import Waveform
from .errors import (
    AllSilenceError,
    AllZeroError,
    ClippingWarning,
    EmptySignalError,
    InvalidConfigError,
    LengthMismatchError,
    RateMismatchError,
)

VAD_SAMPLE_RATES = (8000, 16000, 22050, 44100, 48000)
PEAK_TARGET = 0.95  # headroom below full scale after normalization
VAD_FRAME_MS = 10.0  # VAD frame duration
MAX_INTERNAL_SILENCE_MS = 300.0  # longest pause trim_and_compress keeps
COMFORT_NOISE_LEVEL_DB = -60.0  # RMS of the comfort-noise fill, dBFS


@dataclass(frozen=True)
class DryWetConfig:
    """How much of the original signal to keep in an enhanced mix."""

    dry: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.dry <= 1.0:
            raise InvalidConfigError(f"dry must lie in [0, 1], got {self.dry}")


def _check_pair(noisy: Waveform, enhanced: Waveform) -> None:
    """Raise unless the two signals share a sample rate and a length."""
    if noisy.sample_rate != enhanced.sample_rate:
        raise RateMismatchError(
            f"sample rates differ: {noisy.sample_rate} vs {enhanced.sample_rate}"
        )
    if len(noisy) != len(enhanced):
        raise LengthMismatchError(f"lengths differ: {len(noisy)} vs {len(enhanced)}")


def dry_wet_mix(noisy: Waveform, enhanced: Waveform, cfg: DryWetConfig | None = None) -> Waveform:
    """Blend dry * noisy + (1 - dry) * enhanced and clip to [-1, 1].

    A small dry share masks artifacts the enhancer introduces. Warns with
    the clipped-sample count when clipping occurs.
    """
    cfg = cfg or DryWetConfig()
    _check_pair(noisy, enhanced)
    mixed = cfg.dry * noisy.samples + (1.0 - cfg.dry) * enhanced.samples
    clipped = np.clip(mixed, -1.0, 1.0)
    n_clipped = int(np.count_nonzero(clipped != mixed))
    if n_clipped:
        warnings.warn(ClippingWarning(f"{n_clipped} samples clipped to [-1, 1]"))
    return Waveform(clipped, noisy.sample_rate)


@dataclass(frozen=True)
class VadConfig:
    """Energy-threshold voice activity detection parameters, over VAD_FRAME_MS frames.

    Aggressiveness L widens the smoothing window to 2L+1 frames (a frame
    survives only if its whole window is above threshold) and drops speech
    runs shorter than L+1 frames, so higher levels keep strictly fewer
    speech frames.
    """

    energy_threshold_db: float = -45.0
    aggressiveness: int = 0

    def __post_init__(self):
        if self.aggressiveness not in (0, 1, 2, 3):
            raise InvalidConfigError(
                f"aggressiveness must be 0, 1, 2, or 3, got {self.aggressiveness}"
            )
        if math.isnan(self.energy_threshold_db):
            raise InvalidConfigError("energy_threshold_db must not be NaN")


@dataclass(frozen=True)
class FrameLabels:
    """Per-frame speech flags, one per VAD_FRAME_MS frame."""

    speech: np.ndarray

    def __post_init__(self):
        speech = np.asarray(self.speech, dtype=bool)
        if speech.ndim != 1 or len(speech) == 0:
            raise InvalidConfigError("labels must be a non-empty 1-D array")
        object.__setattr__(self, "speech", speech)

    def __len__(self):
        return len(self.speech)


def frame_length_samples(sample_rate: int) -> int:
    """Samples per VAD_FRAME_MS frame (10 ms at 22050 Hz rounds to 220)."""
    return max(1, int(round(sample_rate * VAD_FRAME_MS / 1000.0)))


def _frame_powers(samples: np.ndarray, flen: int) -> np.ndarray:
    n = len(samples)
    n_frames = (n + flen - 1) // flen
    power = np.empty(n_frames)
    full = n // flen
    if full:
        power[:full] = (samples[: full * flen].reshape(full, flen) ** 2).mean(axis=1)
    if n_frames > full:
        power[full] = (samples[full * flen :] ** 2).mean()
    return power


def _runs(mask: np.ndarray, value: bool) -> list:
    """Half-open [start, end) spans where mask == value."""
    edges = np.flatnonzero(np.diff(mask.astype(np.int8))) + 1
    bounds = np.concatenate(([0], edges, [len(mask)]))
    return [
        (int(bounds[k]), int(bounds[k + 1]))
        for k in range(len(bounds) - 1)
        if mask[bounds[k]] == value
    ]


def check_vad_rate(sr: int) -> None:
    """Raise InvalidConfigError unless vad_label accepts audio at sample rate sr."""
    if sr not in VAD_SAMPLE_RATES:
        raise InvalidConfigError(f"sample rate {sr} not in {VAD_SAMPLE_RATES}; resample first")


def vad_label(w: Waveform, cfg: VadConfig | None = None) -> FrameLabels:
    """Label frames as speech by mean-power threshold in dBFS, then smooth."""
    cfg = cfg or VadConfig()
    check_vad_rate(w.sample_rate)
    if len(w) == 0:
        raise EmptySignalError("cannot label an empty signal")
    flen = frame_length_samples(w.sample_rate)
    power = _frame_powers(w.samples, flen)
    with np.errstate(divide="ignore"):
        level_db = 10.0 * np.log10(power)  # silence becomes -inf, below any threshold
    speech = level_db > cfg.energy_threshold_db
    level = cfg.aggressiveness
    if level:
        padded = np.pad(speech, level, constant_values=True)
        speech = sliding_window_view(padded, 2 * level + 1).all(axis=1)
        for start, end in _runs(speech, True):
            if end - start < level + 1:
                speech[start:end] = False
    return FrameLabels(speech)


@dataclass(frozen=True)
class SilencePolicy:
    """What fills internal silence that trim_and_compress shortens."""

    fill: str = "zeros"

    def __post_init__(self):
        if self.fill not in ("zeros", "comfort_noise"):
            raise InvalidConfigError(
                f"fill must be 'zeros' or 'comfort_noise', got {self.fill!r}"
            )


def _fill_samples(n: int, policy: SilencePolicy, seed: int) -> np.ndarray:
    if policy.fill == "zeros" or n == 0:
        return np.zeros(n)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    rms = math.sqrt(float((noise**2).mean()))
    target = 10.0 ** (COMFORT_NOISE_LEVEL_DB / 20.0)
    return noise * (target / max(rms, np.finfo(np.float64).tiny))


def trim_and_compress(
    w: Waveform,
    labels: FrameLabels,
    policy: SilencePolicy | None = None,
    seed: int = 0,
) -> Waveform:
    """Drop edge silence and cap internal silence runs at MAX_INTERNAL_SILENCE_MS.

    Internal silence strictly longer than the cap is replaced by exactly
    the cap's worth of fill; runs at or under the cap are kept verbatim.
    """
    policy = policy or SilencePolicy()
    flen = frame_length_samples(w.sample_rate)
    n = len(w.samples)
    if len(labels) != (n + flen - 1) // flen:
        raise LengthMismatchError(
            f"{len(labels)} labels do not cover {n} samples at {flen} samples per frame"
        )
    if not labels.speech.any():
        raise AllSilenceError("every frame is labeled silence")
    cap = int(round(MAX_INTERNAL_SILENCE_MS / 1000.0 * w.sample_rate))
    spans = _runs(labels.speech, True)
    pieces = []
    prev_end = None
    for start, end in spans:
        if prev_end is not None:
            gap = w.samples[prev_end * flen : min(start * flen, n)]
            if len(gap) > cap:
                pieces.append(_fill_samples(cap, policy, seed))
            else:
                pieces.append(gap)
        pieces.append(w.samples[start * flen : min(end * flen, n)])
        prev_end = end
    return Waveform(np.concatenate(pieces), w.sample_rate)


def estimate_snr(noisy: Waveform, enhanced: Waveform) -> float:
    """Enhanced-power to residual-power ratio in dB.

    The residual is noisy - enhanced. A zero residual returns +inf (and a
    zero enhanced signal -inf), so downstream filters can treat the values
    ordinarily.
    """
    _check_pair(noisy, enhanced)
    if len(noisy) == 0:
        raise EmptySignalError("cannot estimate SNR of empty signals")
    residual = noisy.samples - enhanced.samples
    p_residual = float((residual**2).sum())
    p_signal = float((enhanced.samples**2).sum())
    if p_residual == 0.0:
        return math.inf
    if p_signal == 0.0:
        return -math.inf
    return 10.0 * math.log10(p_signal / p_residual)


def normalize_volume(w: Waveform) -> Waveform:
    """Scale so the absolute peak sits at PEAK_TARGET."""
    if len(w) == 0:
        raise EmptySignalError("cannot normalize an empty signal")
    top = float(np.abs(w.samples).max())
    if top == 0.0:
        raise AllZeroError("cannot normalize an all-zero signal")
    return Waveform(w.samples * (PEAK_TARGET / top), w.sample_rate)
