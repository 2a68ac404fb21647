"""WAV file reading and writing."""

import struct
import warnings

import numpy as np
import scipy.io.wavfile

from .dsp import Waveform
from .errors import ClippingWarning, UnsupportedWavError


def read_wav(path) -> Waveform:
    """Read a mono RIFF file holding 16-bit or 32-bit-float PCM."""
    try:
        rate, data = scipy.io.wavfile.read(path)
    except (ValueError, struct.error) as exc:  # struct.error: cut inside the header
        raise UnsupportedWavError(f"{path}: {exc}") from None
    if data.ndim != 1:
        raise UnsupportedWavError(
            f"{path}: expected mono audio, got {data.shape[1]} channels"
        )
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise UnsupportedWavError(
            f"{path}: unsupported sample format {data.dtype}; "
            "expected 16-bit or 32-bit-float PCM"
        )
    return Waveform(samples, int(rate))


def write_wav(path, w: Waveform) -> None:
    """Write 16-bit PCM, clipping to [-1, 1] first."""
    clipped = np.clip(w.samples, -1.0, 1.0)
    n_clipped = int(np.count_nonzero(clipped != w.samples))
    if n_clipped:
        warnings.warn(ClippingWarning(f"{path}: {n_clipped} samples clipped on write"))
    scipy.io.wavfile.write(path, int(w.sample_rate), np.round(clipped * 32767.0).astype(np.int16))
