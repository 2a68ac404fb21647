import numpy as np
import pytest
import scipy.io.wavfile

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
