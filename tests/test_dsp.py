import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxkit import dsp
from voxkit.errors import (
    DimensionMismatchError,
    EmptySignalError,
    InvalidConfigError,
)

SR = 22050


def dft_frame_oracle(frame, fft_size):
    """Direct DFT magnitude of one windowed frame, no FFT."""
    n = np.arange(len(frame))
    bins = np.arange(fft_size // 2 + 1)
    basis = np.exp(-2j * np.pi * np.outer(bins, n) / fft_size)
    return np.abs(basis @ frame)


def dct2_ortho_oracle(x):
    """Orthonormal DCT-II by direct summation."""
    n = len(x)
    out = np.zeros(n)
    for k in range(n):
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * np.sum(x * np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n)))
    return out


def tone(freq, duration_s=1.0, sr=SR, amp=1.0):
    t = np.arange(int(duration_s * sr)) / sr
    return dsp.Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


class TestStft:
    def test_zero_signal_zero_magnitudes(self):
        w = dsp.Waveform(np.zeros(SR), SR)
        assert np.all(dsp.stft(w).frames == 0.0)

    def test_frame_count_for_window_length_signal(self):
        w = dsp.Waveform(np.ones(1024), SR)
        assert dsp.stft(w).n_frames == 5

    def test_frame_count_formula(self):
        for n in (300, 1024, 5000, 22050):
            w = dsp.Waveform(np.ones(n), SR)
            assert dsp.stft(w).n_frames == 1 + n // 256

    def test_1000hz_interior_argmax_bin_46(self):
        spec = dsp.stft(tone(1000.0))
        argmax = np.argmax(spec.frames[1:-1], axis=1)
        assert np.all(argmax == 46)

    def test_matches_direct_dft_oracle(self):
        w = tone(1000.0)
        spec = dsp.stft(w)
        padded = np.pad(w.samples, 512, mode="reflect")
        t = 40
        frame = padded[t * 256 : t * 256 + 1024] * dsp.hann_window(1024)
        oracle = dft_frame_oracle(frame, 1024)
        np.testing.assert_allclose(spec.frames[t], oracle, atol=1e-9)
        assert np.argmax(oracle) == 46

    def test_magnitude_scales_linearly(self):
        w = tone(330.0, 0.3)
        a = dsp.stft(w).frames
        b = dsp.stft(dsp.Waveform(3.0 * w.samples, SR)).frames
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-6, atol=1e-12)

    def test_empty_signal_rejected(self):
        w = dsp.Waveform(np.zeros(0), SR)
        with pytest.raises(EmptySignalError):
            dsp.stft(w)

    def test_bad_config_rejected(self):
        with pytest.raises(InvalidConfigError):
            dsp.StftConfig(fft_size=512, win_length=1024)
        with pytest.raises(InvalidConfigError):
            dsp.StftConfig(hop_length=2048)

    def test_istft_inverts_complex_stft(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8192) * 0.1
        cfg = dsp.StftConfig()
        y = dsp.istft(dsp._stft_complex(x, cfg), cfg)
        n = len(y)
        np.testing.assert_allclose(y, x[:n], atol=1e-10)

    def test_istft_rejects_wrong_bins(self):
        with pytest.raises(DimensionMismatchError):
            dsp.istft(np.zeros((4, 100), dtype=complex))


class TestMel:
    def test_filterbank_shape_and_coverage(self):
        fb = dsp.mel_filterbank(SR)
        assert fb.shape == (80, 513)
        assert np.all(fb >= 0.0)
        assert np.all(fb.sum(axis=1) > 0.0)

    def test_center_frequencies_monotone(self):
        centers = dsp.mel_center_frequencies(SR)
        assert len(centers) == 80
        assert np.all(np.diff(centers) > 0)
        assert centers[0] > 0.0
        assert centers[-1] < SR / 2

    def test_mel_scale_round_trip(self):
        f = np.linspace(0.0, SR / 2, 200)
        np.testing.assert_allclose(dsp.mel_to_hz(dsp.hz_to_mel(f)), f, atol=1e-6)

    def test_1000hz_peaks_at_nearest_center_band(self):
        centers = dsp.mel_center_frequencies(SR)
        nearest = int(np.argmin(np.abs(centers - 1000.0)))
        lm = dsp.log_mel(tone(1000.0))
        assert np.all(np.argmax(lm.frames, axis=1) == nearest)

    def test_zero_signal_hits_log_floor(self):
        w = dsp.Waveform(np.zeros(4096), SR)
        lm = dsp.log_mel(w)
        np.testing.assert_allclose(lm.frames, np.log(1e-10))

    def test_white_noise_above_floor(self):
        rng = np.random.default_rng(0)
        w = dsp.Waveform(0.3 * rng.standard_normal(SR), SR)
        assert np.all(dsp.log_mel(w).frames > np.log(1e-10))


class TestMfcc:
    def test_zero_signal_gives_zero_coefficients(self):
        w = dsp.Waveform(np.zeros(4096), SR)
        np.testing.assert_allclose(dsp.mfcc(w).frames, 0.0, atol=1e-12)

    def test_thirteen_columns(self):
        assert dsp.mfcc(tone(220.0, 0.3)).dim == 13

    def test_matches_direct_dct_oracle(self):
        # pins the transform convention on a hand-built frame, then checks
        # the pipeline applies exactly that transform to its log-mel output
        ramp = np.arange(1.0, 81.0)
        oracle = dct2_ortho_oracle(ramp)
        from scipy.fft import dct

        np.testing.assert_allclose(dct(ramp, type=2, norm="ortho"), oracle, atol=1e-9)

        w = tone(330.0, 0.25)
        lm = dsp.log_mel(w)
        expected = np.stack([dct2_ortho_oracle(row)[1:14] for row in lm.frames])
        np.testing.assert_allclose(dsp.mfcc(w).frames, expected, atol=1e-9)

    def test_too_many_coefficients_rejected(self):
        with pytest.raises(InvalidConfigError):
            dsp.mfcc(tone(220.0, 0.1), dsp.MelConfig(n_mels=10))  # 13 cepstra from 10 bands

    def test_cepstrum_check_needs_more_bands_than_coefficients(self):
        dsp.check_cepstrum(14)
        for n_mels in (13, 5):
            with pytest.raises(InvalidConfigError):
                dsp.check_cepstrum(n_mels)
        with pytest.raises(InvalidConfigError, match="must be smaller than n_mels 13"):
            dsp.mfcc(tone(220.0, 0.1), dsp.MelConfig(n_mels=13))

    @given(st.integers(0, 2**32 - 1), st.integers(600, 4000))
    @settings(max_examples=20, deadline=None)
    def test_finite_for_any_finite_input(self, seed, n):
        rng = np.random.default_rng(seed)
        w = dsp.Waveform(np.clip(rng.standard_normal(n), -1, 1), SR)
        frames = dsp.mfcc(w).frames
        assert frames.shape[1] == 13
        assert np.all(np.isfinite(frames))


class TestResample:
    def test_identity_when_rates_match(self):
        w = tone(220.0, 0.2)
        assert dsp.resample(w, SR) is w

    def test_length_scales(self):
        w = tone(220.0, 1.0, sr=16000)
        out = dsp.resample(w, SR)
        assert out.sample_rate == SR
        assert abs(len(out) - SR) <= 1

    def test_tone_survives(self):
        w = tone(440.0, 0.5, sr=44100, amp=0.5)
        out = dsp.resample(w, SR)
        spec = dsp.stft(out)
        peak_bin = np.argmax(spec.frames[5])
        peak_hz = peak_bin * SR / 1024
        assert abs(peak_hz - 440.0) < SR / 1024
