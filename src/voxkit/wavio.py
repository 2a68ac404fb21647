"""WAV file reading and writing.

voxkit reads little-endian RIFF WAVE files holding one channel of 16-bit PCM or
32-bit IEEE float samples, tagged as such or as WAVE_FORMAT_EXTENSIBLE. It writes
mono 16-bit PCM behind a 44-byte header.
"""

import struct
import warnings

import numpy as np

from .dsp import Waveform
from .errors import ClippingWarning, TruncatedWavWarning, UnsupportedWavError

PCM, IEEE_FLOAT, EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# An EXTENSIBLE fmt chunk names its format by a GUID: a 4-byte format tag, then this.
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample): the sample dtype and the value of full scale.
SAMPLE_FORMATS = {(PCM, 16): ("<i2", 32768.0), (IEEE_FLOAT, 32): ("<f4", 1.0)}


def _sample_format(path, fmt: bytes) -> tuple:
    """(rate, dtype, full scale) from the body of a fmt chunk."""
    if len(fmt) < 16:
        raise UnsupportedWavError(f"{path}: malformed WAV header")
    tag, channels, rate, byte_rate, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == EXTENSIBLE and fmt[28:40] == GUID_TAIL:
        (tag,) = struct.unpack_from("<I", fmt, 24)
    width = -(-bits // 8)  # bytes per sample
    if 0 in (channels, rate) or block_align != channels * width or byte_rate != rate * block_align:
        raise UnsupportedWavError(f"{path}: malformed WAV header")
    if channels != 1:
        raise UnsupportedWavError(f"{path}: expected mono audio, got {channels} channels")
    if (tag, bits) not in SAMPLE_FORMATS:
        raise UnsupportedWavError(
            f"{path}: unsupported sample format, tag {tag:#06x} with {bits} bits; "
            "expected 16-bit PCM or 32-bit float"
        )
    return rate, *SAMPLE_FORMATS[tag, bits]


def read_wav(path) -> Waveform:
    """Read a WAV file of a kind voxkit accepts; any other raises UnsupportedWavError.

    A file that ends inside its data chunk is read as the whole samples it holds,
    with a TruncatedWavWarning. Chunks other than fmt and data are skipped.
    """
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise UnsupportedWavError(f"{path}: not a RIFF WAVE file")
    offset, sample_format = 12, None
    while True:
        if len(data) < offset + 8:
            raise UnsupportedWavError(f"{path}: file ends before the data chunk")
        chunk_id, size = struct.unpack_from("<4sI", data, offset)
        offset += 8
        if chunk_id == b"data":
            break
        if chunk_id == b"fmt ":
            if len(data) < offset + size:
                raise UnsupportedWavError(f"{path}: malformed WAV header")
            sample_format = _sample_format(path, data[offset : offset + size])
        offset += size + size % 2  # an odd-sized chunk is followed by a pad byte
    if sample_format is None:
        raise UnsupportedWavError(f"{path}: no fmt chunk before the data chunk")
    rate, dtype, full_scale = sample_format
    width = np.dtype(dtype).itemsize
    n = min(size, len(data) - offset) // width
    if n < size // width:
        warnings.warn(TruncatedWavWarning(
            f"{path}: file ends inside the data chunk; read {n} of {size // width} samples"
        ))
    samples = np.frombuffer(data, dtype, count=n, offset=offset).astype(np.float64)
    samples /= full_scale
    return Waveform(samples, rate)


def write_wav(path, w: Waveform) -> None:
    """Write 16-bit PCM, clipping to [-1, 1] first."""
    clipped = np.clip(w.samples, -1.0, 1.0)
    n_clipped = int(np.count_nonzero(clipped != w.samples))
    if n_clipped:
        warnings.warn(ClippingWarning(f"{path}: {n_clipped} samples clipped on write"))
    pcm = np.round(clipped * 32767.0).astype("<i2").tobytes()
    rate = int(w.sample_rate)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(pcm), b"WAVE",
        b"fmt ", 16, PCM, 1, rate, 2 * rate, 2, 16,
        b"data", len(pcm),
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(pcm)
