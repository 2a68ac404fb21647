import numpy as np
import pytest
import scipy.io.wavfile
from hypothesis import given, settings
from hypothesis import strategies as st

from voxkit import wavio
from voxkit.dsp import Waveform
from voxkit.errors import ClippingWarning, UnsupportedWavError


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
    scipy.io.wavfile.write(path, 16000, x)
    back = wavio.read_wav(path)
    assert back.sample_rate == 16000
    np.testing.assert_allclose(back.samples, x.astype(np.float64), atol=1e-7)


def test_reads_int16_scaling(tmp_path):
    path = tmp_path / "i.wav"
    scipy.io.wavfile.write(path, 8000, np.array([-32768, 0, 16384], dtype=np.int16))
    back = wavio.read_wav(path)
    np.testing.assert_allclose(back.samples, [-1.0, 0.0, 0.5])


def test_rejects_stereo(tmp_path):
    path = tmp_path / "s.wav"
    scipy.io.wavfile.write(path, 8000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(UnsupportedWavError, match="expected mono audio, got 2 channels"):
        wavio.read_wav(path)


def test_rejects_unsupported_dtype(tmp_path):
    path = tmp_path / "d.wav"
    scipy.io.wavfile.write(path, 8000, np.zeros(10, dtype=np.uint8))
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


# Header bytes whose corruption makes scipy raise outside ValueError: byte 19 of the
# fmt chunk size, which then reads past the header, and the channel count at byte 22.
@pytest.mark.parametrize("offset, value", [(19, 50), (22, 0)])
@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
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
@pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
def test_corrupt_header_reads_or_raises_unsupported_wav(good_wav, edits, cut):
    data, path = good_wav
    data = bytearray(data[:cut])
    for offset, value in edits:
        if offset < len(data):
            data[offset] = value
    path.write_bytes(data)
    try:
        assert isinstance(wavio.read_wav(path), Waveform)
    except (UnsupportedWavError, OSError):
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
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wavio.write_wav(path, Waveform(np.array([0.0, 0.5, -1.0, 1.0]), 8000))
