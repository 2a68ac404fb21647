"""WAV file reading and writing.

voxkit reads little-endian RIFF WAVE files holding one channel of 16-bit PCM or
32-bit IEEE float samples, tagged as such or as WAVE_FORMAT_EXTENSIBLE. It writes
mono 16-bit PCM behind a 44-byte header.
"""

import errno
import os
import struct
import warnings

import numpy as np

from .dsp import BLOCK_SAMPLES, Waveform
from .errors import ClippingWarning, TruncatedWavWarning, UnsupportedWavError

PCM, IEEE_FLOAT, EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# An EXTENSIBLE fmt chunk names its format by a GUID: a 4-byte format tag, then this.
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bits per sample): the sample dtype and the value of full scale.
SAMPLE_FORMATS = {(PCM, 16): ("<i2", 32768.0), (IEEE_FLOAT, 32): ("<f4", 1.0)}
# write_wav's byte rate, 2 * rate, must fit the header's unsigned 32-bit field.
MAX_WRITE_RATE = (2**32 - 1) // 2


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
    if "\0" in str(path):  # open would raise ValueError, which is no per-file failure
        raise FileNotFoundError(errno.ENOENT, "no file name holds a NUL byte", str(path))
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
    with np.errstate(invalid="ignore"):  # a signaling NaN, which Waveform rejects below
        samples = np.frombuffer(data, dtype, count=n, offset=offset).astype(np.float64)
    samples /= full_scale
    return Waveform(samples, rate)


def write_wav(path, w: Waveform) -> None:
    """Write 16-bit PCM, clipping to [-1, 1] first.

    A rate above MAX_WRITE_RATE raises UnsupportedWavError before the file is opened. The
    samples are scaled and rounded BLOCK_SAMPLES at a time into the int16 data, so only the
    clipping of an out-of-range signal makes a whole float copy. A write that raises, at
    Ctrl-C too, removes the file it opened, so no cut WAV is left; a failed open removes none.
    """
    rate = int(w.sample_rate)
    if rate > MAX_WRITE_RATE:
        raise UnsupportedWavError(
            f"{path}: sample rate {rate} Hz does not fit a 16-bit WAV header; "
            f"the most is {MAX_WRITE_RATE} Hz"
        )
    x = w.samples
    if len(x) and (x.min() < -1.0 or x.max() > 1.0):
        clipped = np.clip(x, -1.0, 1.0)
        n_clipped = np.count_nonzero(clipped != x)
        warnings.warn(ClippingWarning(f"{path}: {n_clipped} samples clipped on write"))
        x = clipped
    pcm = np.empty(len(x), "<i2")
    scaled = np.empty(min(len(x), BLOCK_SAMPLES))
    for start in range(0, len(x), BLOCK_SAMPLES):
        block = scaled[: len(x) - start]
        np.multiply(x[start : start + BLOCK_SAMPLES], 32767.0, out=block)
        pcm[start : start + len(block)] = np.round(block, out=block)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + pcm.nbytes, b"WAVE",
        b"fmt ", 16, PCM, 1, rate, 2 * rate, 2, 16,
        b"data", pcm.nbytes,
    )
    f = open(path, "wb")
    try:
        with f:  # closing flushes, so it can fail too
            f.write(header)
            f.write(pcm)
    except BaseException:
        os.unlink(path)
        raise
