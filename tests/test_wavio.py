import errno
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import failing_open, peak_bytes, speechlike
from oracles import read_wav_scipy, write_wav_scipy
from voxkit import wavio
from voxkit.dsp import BLOCK_SAMPLES, Waveform
from voxkit.errors import (
    ClippingWarning,
    InvalidConfigError,
    TruncatedWavWarning,
    UnsupportedWavError,
)


def test_int16_round_trip(tmp_path):
    path = tmp_path / "t.wav"
    x = np.sin(2 * np.pi * 220 * np.arange(2205) / 22050) * 0.5
    wavio.write_wav(path, Waveform(x, 22050))
    back = wavio.read_wav(path)
    assert back.sample_rate == 22050
    assert back.samples.dtype == np.float64
    # 16-bit quantization bounds the error by one step
    np.testing.assert_allclose(back.samples, x, atol=1.0 / 32767)


def test_reads_float32(tmp_path):
    path = tmp_path / "f.wav"
    x = np.linspace(-0.25, 0.25, 400, dtype=np.float32)
    write_wav_scipy(path, 16000, x)
    back = wavio.read_wav(path)
    assert back.sample_rate == 16000
    np.testing.assert_allclose(back.samples, x.astype(np.float64), atol=1e-7)


def test_reads_int16_scaling(tmp_path):
    path = tmp_path / "i.wav"
    write_wav_scipy(path, 8000, np.array([-32768, 0, 16384], dtype=np.int16))
    back = wavio.read_wav(path)
    np.testing.assert_allclose(back.samples, [-1.0, 0.0, 0.5])


def test_a_signaling_nan_is_rejected_without_a_runtime_warning(tmp_path):
    # casting a signaling NaN to float64 raises numpy's invalid flag; the CLI would print that
    # warning on stderr under no utterance's id, besides the file's errors.tsv row
    path = tmp_path / "snan.wav"
    x = np.full(8, 0.25, dtype=np.float32)
    x.view(np.uint32)[3] = 0x7F800001
    write_wav_scipy(path, 16000, x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfigError, match="NaN or infinite"):
            wavio.read_wav(path)


def test_a_path_with_a_nul_byte_is_a_missing_file(tmp_path):
    # open raises ValueError for such a path; the CLI's runner catches OSError per utterance
    path = tmp_path / "a\0.wav"
    with pytest.raises(FileNotFoundError, match="no file name holds a NUL byte") as info:
        wavio.read_wav(path)
    assert info.value.filename == str(path)


def test_rejects_stereo(tmp_path):
    path = tmp_path / "s.wav"
    write_wav_scipy(path, 8000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(UnsupportedWavError, match="expected mono audio, got 2 channels"):
        wavio.read_wav(path)


def test_rejects_unsupported_dtype(tmp_path):
    path = tmp_path / "d.wav"
    write_wav_scipy(path, 8000, np.zeros(10, dtype=np.uint8))
    with pytest.raises(UnsupportedWavError, match="sample format"):
        wavio.read_wav(path)


def test_rejects_non_wav(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"not a riff file")
    with pytest.raises(UnsupportedWavError):
        wavio.read_wav(path)


@pytest.mark.parametrize("n_bytes", range(44))
def test_rejects_file_cut_inside_header(tmp_path, n_bytes):
    path = tmp_path / "cut.wav"
    wavio.write_wav(path, Waveform(np.zeros(100), 8000))
    path.write_bytes(path.read_bytes()[:n_bytes])
    with pytest.raises(UnsupportedWavError):
        wavio.read_wav(path)


# Byte 19 of the fmt chunk size, which then runs past the end of the file, the
# channel count at byte 22, and byte 16, which makes the fmt chunk 14 bytes.
@pytest.mark.parametrize("offset, value", [(19, 50), (22, 0), (16, 14)])
@pytest.mark.filterwarnings("ignore::voxkit.errors.TruncatedWavWarning")
def test_rejects_corrupt_header_field(tmp_path, offset, value):
    path = tmp_path / "bad.wav"
    wavio.write_wav(path, Waveform(np.zeros(100), 8000))
    data = bytearray(path.read_bytes())
    data[offset] = value
    path.write_bytes(data)
    with pytest.raises(UnsupportedWavError, match="bad.wav: malformed WAV header"):
        wavio.read_wav(path)


@pytest.fixture(scope="module")
def good_wav(tmp_path_factory):
    """(bytes of a 16-bit mono WAV, a path to write drawn variants to)."""
    root = tmp_path_factory.mktemp("drawn_wav")
    wavio.write_wav(root / "good.wav", Waveform(0.5 * np.sin(np.arange(400) / 3.0), 16000))
    return (root / "good.wav").read_bytes(), root / "drawn.wav"


@given(
    edits=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 255)), max_size=4),
    cut=st.none() | st.integers(0, 844),
)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::voxkit.errors.TruncatedWavWarning")
def test_corrupt_header_reads_or_raises_unsupported_wav(good_wav, edits, cut):
    data, path = good_wav
    data = bytearray(data[:cut])
    for offset, value in edits:
        if offset < len(data):
            data[offset] = value
    path.write_bytes(data)
    try:
        assert isinstance(wavio.read_wav(path), Waveform)
    except UnsupportedWavError:
        pass


def test_write_clips_and_warns(tmp_path):
    path = tmp_path / "c.wav"
    with pytest.warns(ClippingWarning, match="3 samples"):
        wavio.write_wav(path, Waveform(np.array([1.4, -2.0, 0.0, 1.01]), 8000))
    back = wavio.read_wav(path)
    assert np.abs(back.samples).max() <= 1.0
    assert back.samples[1] == pytest.approx(-1.0, abs=1e-4)


def test_write_in_range_is_silent(tmp_path):
    path = tmp_path / "ok.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wavio.write_wav(path, Waveform(np.array([0.0, 0.5, -1.0, 1.0]), 8000))


def test_write_rate_must_fit_the_byte_rate_field(tmp_path):
    # the header stores 2 * rate in 32 bits
    top = tmp_path / "top.wav"
    wavio.write_wav(top, Waveform(np.array([0.25, -0.5]), 2**31 - 1))
    back = wavio.read_wav(top)
    assert back.sample_rate == 2**31 - 1
    assert back.samples.tolist() == [8192 / 32768, -16384 / 32768]
    over = tmp_path / "over.wav"
    with pytest.raises(UnsupportedWavError, match=f"sample rate {2**31} Hz does not fit"):
        wavio.write_wav(over, Waveform(np.array([0.25, -0.5]), 2**31))
    assert not over.exists()


@pytest.mark.parametrize("error, fail_at", [
    (OSError(errno.ENOSPC, "No space left on device"), 2),  # the data, after the header
    (OSError(errno.ENOSPC, "No space left on device"), "close"),  # the flush of a full buffer
    (KeyboardInterrupt(), 1),
], ids=["data", "close", "interrupt"])
def test_a_failed_write_leaves_no_file(error, fail_at, tmp_path, monkeypatch):
    monkeypatch.setattr(wavio, "open", failing_open("f.wav", error, fail_at), raising=False)
    with pytest.raises(type(error)):
        wavio.write_wav(tmp_path / "f.wav", Waveform(np.zeros(100), 8000))
    assert list(tmp_path.iterdir()) == []


def test_a_failed_open_removes_nothing(tmp_path):
    (tmp_path / "d.wav").mkdir()
    with pytest.raises(IsADirectoryError):
        wavio.write_wav(tmp_path / "d.wav", Waveform(np.zeros(100), 8000))
    assert (tmp_path / "d.wav").is_dir()


@pytest.mark.parametrize("n_data_bytes", [0, 1, 57, 199])
def test_file_cut_inside_data_is_read_short_with_a_warning(tmp_path, n_data_bytes):
    path = tmp_path / "cut.wav"
    x = 0.5 * np.sin(np.arange(100) / 3.0)
    wavio.write_wav(path, Waveform(x, 8000))
    whole = wavio.read_wav(path).samples
    path.write_bytes(path.read_bytes()[: 44 + n_data_bytes])
    n = n_data_bytes // 2
    message = f"cut.wav: file ends inside the data chunk; read {n} of 100 samples"
    with pytest.warns(TruncatedWavWarning, match=message):
        back = wavio.read_wav(path)
    assert back.sample_rate == 8000
    assert back.samples.tobytes() == whole[:n].tobytes()


GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"  # KSDATAFORMAT_SUBTYPE_*


def _chunk(chunk_id, body):
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


@st.composite
def valid_wavs(draw):
    """The bytes of a mono WAV that voxkit reads: int16 or float32 samples under their own
    tag, with or without the cbSize field, or under EXTENSIBLE; and extra chunks of odd and
    even sizes before the fmt chunk, between it and the data chunk, and after the data."""
    tag, code, bits = draw(st.sampled_from([(1, "<i2", 16), (3, "<f4", 32)]))
    if tag == 1:
        values = st.integers(-32768, 32767)
    else:  # float32 samples may lie past full scale
        values = st.floats(-2.0, 2.0, width=32)
    samples = np.array(draw(st.lists(values, max_size=300)), dtype=code)
    rate = draw(st.integers(1, 192000))
    fmt = struct.pack("<HIIHH", 1, rate, rate * bits // 8, bits // 8, bits)
    layout = draw(st.sampled_from(["plain", "cb_size", "extensible"]))
    if layout == "extensible":
        fmt = struct.pack("<H", 0xFFFE) + fmt + struct.pack("<HHII", 22, bits, 4, tag) + GUID_TAIL
    else:
        fmt = struct.pack("<H", tag) + fmt + (b"\0\0" if layout == "cb_size" else b"")
    extras = st.lists(
        st.builds(_chunk, st.sampled_from([b"LIST", b"JUNK", b"fact", b"bext"]),
                  st.binary(max_size=9)),
        max_size=2,
    ).map(b"".join)
    body = b"WAVE" + draw(extras) + _chunk(b"fmt ", fmt) + draw(extras)
    body += _chunk(b"data", samples.tobytes()) + draw(extras)
    return b"RIFF" + struct.pack("<I", len(body)) + body


@given(data=valid_wavs())
@settings(max_examples=60, deadline=None)
def test_codec_matches_scipy_on_valid_files(tmp_path_factory, data):
    root = tmp_path_factory.mktemp("oracle")
    (root / "in.wav").write_bytes(data)
    w = wavio.read_wav(root / "in.wav")
    rate, samples = read_wav_scipy(root / "in.wav")
    assert w.sample_rate == rate
    assert w.samples.tobytes() == samples.tobytes()

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClippingWarning)
        wavio.write_wav(root / "ours.wav", w)
    pcm = np.round(np.clip(samples, -1.0, 1.0) * 32767.0).astype(np.int16)
    write_wav_scipy(root / "scipy.wav", rate, pcm)
    assert (root / "ours.wav").read_bytes() == (root / "scipy.wav").read_bytes()


@pytest.mark.parametrize("n", [1, BLOCK_SAMPLES - 1, BLOCK_SAMPLES, 2 * BLOCK_SAMPLES + 1])
@pytest.mark.parametrize("scale", [0.9, 1.2])
def test_write_in_blocks_equals_scaling_the_whole_signal(tmp_path, n, scale):
    samples = scale * np.sin(np.arange(n) * 0.37)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wavio.write_wav(tmp_path / "ours.wav", Waveform(samples, 16000))
    clipped = np.clip(samples, -1.0, 1.0)
    n_clipped = np.count_nonzero(clipped != samples)
    assert [str(w.message) for w in caught] == (
        [f"{tmp_path / 'ours.wav'}: {n_clipped} samples clipped on write"] if n_clipped else []
    )
    write_wav_scipy(tmp_path / "scipy.wav", 16000, np.round(clipped * 32767.0).astype(np.int16))
    assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()


def test_write_memory_is_the_int16_data_and_a_block(tmp_path):
    # 60 s at 22.05 kHz: the int16 data is 2.6 MB, where whole-signal float temporaries and a
    # bytes copy of the data would take about 24 B per sample.
    n = 60 * 22050
    w = Waveform(speechlike(n, 22050, 60), 22050)
    assert peak_bytes(wavio.write_wav, tmp_path / "long.wav", w) <= 2 * n + 300_000
