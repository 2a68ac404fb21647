"""The vectorized kernels against their scalar references, bit for bit.

dsp.dtw_align fills the cost grid one anti-diagonal at a time and
pitch.extract_pitch computes difference functions for chunks of frames;
both must reproduce the row-major and per-frame arithmetic exactly, so
every comparison here is ==, never a tolerance.
"""

import numpy as np
import pytest
from scipy.fft import dct

from oracles import dtw_row_major, pitch_per_frame
from voxkit import dsp, metrics, pitch


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
        cfg = pitch.PitchConfig()
        n_samples = (n_frames - 1) * cfg.hop_length + 100
        track = assert_same_track(speechlike(n_samples, 22050, n_frames), 22050, cfg)
        assert len(track) == n_frames

    @pytest.mark.parametrize(
        "frame_length,hop_length",
        [(1024, 1), (1024, 1024), (1024, 300), (1000, 1000), (2048, 512)],
    )
    def test_hops(self, frame_length, hop_length):
        cfg = pitch.PitchConfig(frame_length=frame_length, hop_length=hop_length)
        x = speechlike(20 * hop_length + 77, 22050, hop_length)
        assert_same_track(x, 22050, cfg)

    @pytest.mark.parametrize("sr", [16000, 22050, 44100])
    def test_sample_rates(self, sr):
        cfg = pitch.PitchConfig()
        track = assert_same_track(speechlike(int(0.4 * sr), sr, sr), sr, cfg)
        assert track.voiced.any() and not track.voiced.all()

    def test_all_silence_takes_the_zero_sum_branch(self):
        track = assert_same_track(np.zeros(5000), 22050, pitch.PitchConfig())
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
