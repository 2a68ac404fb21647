"""The vectorized kernels against their scalar references, bit for bit.

dsp.dtw_align fills the cost grid one anti-diagonal at a time,
pitch.extract_pitch computes difference functions for chunks of frames,
and dsp.istft and dsp.griffin_lim overlap-add in strided chunks into
preallocated buffers; all must reproduce the row-major, per-frame and
whole-array arithmetic exactly, so every comparison here is ==, never a
tolerance.
"""

import warnings

import numpy as np
import pytest
from scipy.fft import dct

from oracles import (
    dtw_row_major,
    frame_signal_gather,
    griffin_lim_loop,
    istft_frame_loop,
    pitch_per_frame,
    stft_complex_gather,
)
from voxkit import dsp, metrics, pitch
from voxkit.errors import EmptySequenceError


def assert_same_alignment(a, b):
    out = dsp.dtw_align(a, b)
    path, cost = dtw_row_major(a, b)
    assert out.path == path
    assert np.float64(out.total_cost).tobytes() == np.float64(cost).tobytes()


class TestDtwWavefront:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (1, 7), (7, 1), (2, 2), (2, 9), (9, 2)])
    def test_degenerate_shapes(self, n1, n2):
        rng = np.random.default_rng(n1 * 10 + n2)
        assert_same_alignment(rng.standard_normal((n1, 3)), rng.standard_normal((n2, 3)))

    @pytest.mark.parametrize("dim", [13, 80])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_floats(self, dim, seed):
        rng = np.random.default_rng(seed)
        n1, n2 = rng.integers(20, 90, 2)
        assert_same_alignment(rng.standard_normal((n1, dim)), rng.standard_normal((n2, dim)))

    @pytest.mark.parametrize("seed", range(20))
    def test_tie_heavy_small_integers(self, seed):
        rng = np.random.default_rng(100 + seed)
        n1, n2 = rng.integers(1, 30, 2)
        dim = 1 + seed % 3
        a = rng.integers(0, 3, (n1, dim)).astype(float)
        b = rng.integers(0, 3, (n2, dim)).astype(float)
        assert_same_alignment(a, b)

    def test_constant_sequences_tie_everywhere(self):
        assert_same_alignment(np.zeros((12, 2)), np.zeros((17, 2)))

    @pytest.mark.parametrize("seed", range(10))
    def test_non_finite_frames_take_the_scalar_steps(self, seed):
        # NaN never wins a strict comparison, so the path stays the scalar
        # fill's; a NaN total may differ from the reference in its sign bit
        rng = np.random.default_rng(200 + seed)
        a, b = rng.standard_normal((9, 2)), rng.standard_normal((7, 2))
        for x in (a, b):
            hit = rng.random(x.shape) < 0.2
            x[hit] = rng.choice([np.nan, np.inf, -np.inf, 1e308], hit.sum())
        out = dsp.dtw_align(a, b)
        path, cost = dtw_row_major(a, b)
        assert out.path == path
        assert out.total_cost == cost or (np.isnan(out.total_cost) and np.isnan(cost))

    def test_time_warped_features(self):
        t = np.linspace(0.0, 1.0, 140)
        a = np.stack([np.sin(7 * t), np.cos(3 * t)], axis=1)
        b = np.stack([np.sin(7 * t**1.3), np.cos(3 * t**1.3)], axis=1)[::2]
        assert_same_alignment(a, b)


def speechlike(n_samples, sr, seed):
    """Harmonic glide with noise, its first third exact digital silence."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) / sr
    f0 = rng.uniform(90.0, 300.0)
    phase = 2 * np.pi * f0 * (t + 0.2 * t**2)
    x = 0.3 * np.sin(phase) + 0.1 * np.sin(2 * phase) + 0.01 * rng.standard_normal(n_samples)
    x[: n_samples // 3] = 0.0
    return x


def assert_same_track(x, sr, cfg):
    track = pitch.extract_pitch(dsp.Waveform(x, sr), cfg)
    f0, voiced = pitch_per_frame(x, sr, cfg)
    assert track.f0.tobytes() == f0.tobytes()
    assert track.voiced.tobytes() == voiced.tobytes()
    return track


class TestChunkedPitch:
    @pytest.mark.parametrize("n_frames", [1, 15, 16, 17, 33])
    def test_frame_counts_around_the_chunk_size(self, n_frames):
        cfg = dsp.StftConfig()
        n_samples = (n_frames - 1) * cfg.hop_length + 100
        track = assert_same_track(speechlike(n_samples, 22050, n_frames), 22050, cfg)
        assert len(track) == n_frames

    @pytest.mark.parametrize(
        "frame_length,hop_length",
        [(1024, 1), (1024, 1024), (1024, 300), (1000, 1000), (2048, 512)],
    )
    def test_hops(self, frame_length, hop_length):
        cfg = dsp.StftConfig(frame_length, frame_length, hop_length)
        x = speechlike(20 * hop_length + 77, 22050, hop_length)
        assert_same_track(x, 22050, cfg)

    @pytest.mark.parametrize("sr", [16000, 22050, 44100])
    def test_sample_rates(self, sr):
        cfg = dsp.StftConfig()
        track = assert_same_track(speechlike(int(0.4 * sr), sr, sr), sr, cfg)
        assert track.voiced.any() and not track.voiced.all()

    def test_all_silence_takes_the_zero_sum_branch(self):
        track = assert_same_track(np.zeros(5000), 22050, dsp.StftConfig())
        assert not track.voiced.any()


def cepstra(w, n_coeffs=13):
    """c1..c_n by the per-waveform path: the waveform's own STFT, log-mel and DCT."""
    return dct(dsp.log_mel(w).frames, type=2, norm="ortho", axis=1)[:, 1 : n_coeffs + 1]


def test_distortions_from_one_analysis_match_separate_ones():
    ref = dsp.Waveform(speechlike(9000, 22050, 6), 22050)
    hyp = dsp.Waveform(speechlike(8000, 22050, 7), 22050)
    ref_logm, hyp_logm = metrics.log_mel_pair(ref, hyp)
    assert dsp.mel_cepstrum(ref_logm).frames.tobytes() == cepstra(ref).tobytes()
    assert dsp.mfcc(ref).frames.tobytes() == cepstra(ref).tobytes()
    assert metrics.mcd(ref, hyp) == metrics.dtw_rmse(cepstra(ref), cepstra(hyp))[0]
    assert metrics.msd(ref, hyp) == metrics.dtw_rmse(
        dsp.log_mel(ref).frames, dsp.log_mel(hyp).frames
    )[0]


STFT_CONFIGS = {
    "default": dsp.StftConfig(),
    "fft2048-win1024": dsp.StftConfig(fft_size=2048, win_length=1024),
    "win1000-hop300": dsp.StftConfig(win_length=1000, hop_length=300),
    "hop-eq-win": dsp.StftConfig(hop_length=1024),
    "fft256-win200-hop80": dsp.StftConfig(fft_size=256, win_length=200, hop_length=80),
}


def magnitude(cfg, n_frames, seed):
    """|STFT| of a speech-like signal that frames into exactly n_frames."""
    x = speechlike(cfg.hop_length * (n_frames - 1), 22050, seed)
    spec = np.abs(dsp._stft_complex(x, cfg))
    assert spec.shape == (n_frames, cfg.n_bins)
    return spec


def griffin_lim(mag, cfg, n_iters, seed):
    spec = dsp.FeatureSeq(mag, 22050 / cfg.hop_length, "magnitude_spectrogram")
    return dsp.griffin_lim(spec, cfg, n_iters=n_iters, seed=seed).samples


@pytest.mark.parametrize("cfg", STFT_CONFIGS.values(), ids=STFT_CONFIGS.keys())
@pytest.mark.parametrize("n_frames", [2, 3, 401])
class TestStftRoundTrip:
    def test_istft(self, cfg, n_frames):
        rng = np.random.default_rng(n_frames)
        spec = rng.standard_normal((n_frames, cfg.n_bins)) + 1j * rng.standard_normal(
            (n_frames, cfg.n_bins)
        )
        assert dsp.istft(spec, cfg).tobytes() == istft_frame_loop(spec, cfg).tobytes()

    def test_stft(self, cfg, n_frames):
        x = speechlike(cfg.hop_length * (n_frames - 1) + 5, 22050, n_frames)
        assert dsp._stft_complex(x, cfg).tobytes() == stft_complex_gather(x, cfg).tobytes()

    # GRIFFIN_LIM_MOMENTUM is patched so that the kernel is checked without extrapolation too
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_griffin_lim(self, cfg, n_frames, momentum, monkeypatch):
        monkeypatch.setattr(dsp, "GRIFFIN_LIM_MOMENTUM", momentum)
        n_iters = 3 if n_frames > 3 else 6
        mag = magnitude(cfg, n_frames, seed=n_frames)
        expected, _ = griffin_lim_loop(mag, cfg, n_iters, 5, momentum)
        assert griffin_lim(mag, cfg, n_iters, 5).tobytes() == expected.tobytes()

    def test_griffin_lim_all_zero_magnitude(self, cfg, n_frames):
        mag = np.zeros((n_frames, cfg.n_bins))
        expected = istft_frame_loop(mag.astype(np.complex128), cfg)
        assert griffin_lim(mag, cfg, 4, 0).tobytes() == expected.tobytes()


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_griffin_lim_returns_an_earlier_best_iterate_intact(momentum, monkeypatch):
    # the best iterate's signal buffer must not be overwritten by the later ones
    monkeypatch.setattr(dsp, "GRIFFIN_LIM_MOMENTUM", momentum)
    cfg = dsp.StftConfig()
    mag = magnitude(cfg, 2, seed=1)
    expected, best_k = griffin_lim_loop(mag, cfg, 4, 1, momentum)
    assert best_k < 4
    assert griffin_lim(mag, cfg, 4, 1).tobytes() == expected.tobytes()


def recorded(fn, *args):
    """fn(*args) with the set of warning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, {str(w.message) for w in caught}


@pytest.mark.parametrize("cfg", STFT_CONFIGS.values(), ids=STFT_CONFIGS.keys())
def test_istft_non_finite_and_negative_zero_spectra(cfg):
    rng = np.random.default_rng(3)
    spec = rng.standard_normal((6, cfg.n_bins)) + 1j * rng.standard_normal((6, cfg.n_bins))
    spec[1, 3] = np.nan
    spec[2, 7] = np.inf
    spec[2, 8] = -np.inf
    spec[3, 9] = complex(0.0, -np.inf)
    spec[4:] = complex(-0.0, -0.0)
    out, out_warnings = recorded(dsp.istft, spec, cfg)
    expected, expected_warnings = recorded(istft_frame_loop, spec, cfg)
    assert out.tobytes() == expected.tobytes()
    assert out_warnings == expected_warnings
    assert np.isnan(out).any()


@pytest.mark.parametrize(
    "n_samples,win_length,hop_length",
    [(1, 1024, 256), (1, 7, 3), (100, 7, 3), (100, 9, 13), (1000, 1000, 300), (513, 64, 64)],
)
def test_frame_signal_matches_the_index_gather(n_samples, win_length, hop_length):
    x = np.random.default_rng(n_samples).standard_normal(n_samples)
    frames = dsp.frame_signal(x, win_length, hop_length)
    expected = frame_signal_gather(x, win_length, hop_length)
    assert frames.shape == expected.shape
    assert np.ascontiguousarray(frames).tobytes() == expected.tobytes()
    assert not frames.flags.writeable


@pytest.mark.parametrize("win_length", [1024, 1023])
@pytest.mark.parametrize("scale", [0.0, 1.0])
def test_griffin_lim_needs_two_frames_like_istft(win_length, scale):
    cfg = dsp.StftConfig(win_length=win_length)
    mag = np.full((1, cfg.n_bins), scale)
    with pytest.raises(EmptySequenceError, match="at least 2 frames"):
        griffin_lim(mag, cfg, 2, 0)
