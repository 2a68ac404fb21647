"""The vectorized kernels against their scalar references.

dsp.dtw_align fills the cost grid in place one anti-diagonal at a time,
metrics.edit_counts holds its edit-distance grid as bit-parallel deltas and
backtraces over them, dsp.resample adds resample_poly's products in its
order through a sparse operator built once per rate pair, and dsp.stft,
dsp.istft and dsp.griffin_lim work dsp._CHUNK_FRAMES frames at a time
and overlap-add in strided chunks into preallocated buffers; all must
reproduce the cell-by-cell, per-frame and whole-array arithmetic exactly,
so those comparisons are ==, never a tolerance.
pitch.extract_pitch frames the signal in chunks that equal the whole
padded framing, sums YIN's energies exactly as the block cumulative sums
did, and makes its voicing decisions exactly as the per-frame loop does
on the same CMND rows, but takes the difference function from FFTs, so
its f0 is held to a relative tolerance against the pairwise-sum
definition (TestChunkedPitch). dsp.log_mel sums each mel band over its
nonzero bins only, and griffin_lim and spectral_convergence take norms as
chunk-by-chunk sums of squares; these reorder sums, so they are held to a
relative 1e-12 against the dense matrix product and np.linalg.norm
(TestSparseKernels).
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import dct

from conftest import peak_bytes, speechlike
from oracles import (
    cmnd_per_frame,
    dtw_row_major,
    edit_counts_backtrace,
    edit_counts_recursive,
    edit_distance_matrix_loop,
    frame_signal_gather,
    griffin_lim_loop,
    istft_frame_loop,
    log_mel_dense,
    pitch_decisions_loop,
    resample_poly_scipy,
    stft_complex_gather,
    yin_energies_blocks,
)
from voxkit import dsp, metrics, pitch
from voxkit.errors import EmptySequenceError, EmptySignalError


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


def assert_same_edit_counts(ref, hyp):
    """edit_counts equals the backtrace over the cell-by-cell grid and the recursive
    definition, in plain ints."""
    counts = metrics.edit_counts(ref, hyp)
    assert counts == edit_counts_backtrace(ref, hyp, edit_distance_matrix_loop(ref, hyp))
    assert counts == edit_counts_recursive(ref, hyp)
    assert all(type(c) is int for c in counts)


def random_text(rng, n, alphabet="ab cé"):
    return "".join(rng.choice(list(alphabet), n))


class TestEditDistanceRows:
    @pytest.mark.parametrize("ref,hyp", [("", ""), ("", "abc"), ("abc", "")])
    def test_empty_sides(self, ref, hyp):
        assert_same_edit_counts(ref, hyp)

    @pytest.mark.parametrize("ref,hyp", [
        ("a", "a"), ("a", "b"), ("a", "banana"), ("x", "banana"), ("banana", "a"), ("banana", "x"),
    ])
    def test_one_by_n_and_n_by_one(self, ref, hyp):
        assert_same_edit_counts(ref, hyp)

    @pytest.mark.parametrize("ref,hyp", [
        ("aaaaaaa", "aaa"), ("aaa", "aaaaaaa"), ("aaaaa", "bbbbb"), ("aaaa", "abababab"),
    ])
    def test_runs_of_one_character(self, ref, hyp):
        assert_same_edit_counts(ref, hyp)

    @pytest.mark.parametrize("ref,hyp", [
        ("café au lait", "cafe au lait"),
        ("straße", "strasse"),
        ("日本語のテキスト", "日本のテキスト語"),
        ("a\U0001F600b\U0001F600", "\U0001F600ab"),  # code points above U+FFFF
        ("\U00010348\U00010349", "\U00010349\U00010348x"),
    ])
    def test_non_ascii(self, ref, hyp):
        assert_same_edit_counts(ref, hyp)

    @pytest.mark.parametrize("n_hyp", [63, 64, 65, 200])
    @pytest.mark.parametrize("n_ref", [1, 40, 64, 201])
    def test_hyp_lengths_around_machine_words(self, n_ref, n_hyp):
        # one bit per hyp character, so the bit vectors end below, at and past 64 bits
        rng = np.random.default_rng(n_ref * 1000 + n_hyp)
        assert_same_edit_counts(random_text(rng, n_ref), random_text(rng, n_hyp))

    @given(st.text(alphabet="ab é", max_size=24), st.text(alphabet="ab é", max_size=24))
    @settings(max_examples=150, deadline=None)
    def test_drawn_pairs_over_a_small_alphabet(self, ref, hyp):
        assert_same_edit_counts(ref, hyp)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_drawn_pairs_of_any_text(self, data):
        # a few drawn characters, each repeated, so the two texts share some
        chars = data.draw(st.lists(st.characters(), min_size=1, max_size=6))
        ref = data.draw(st.text(alphabet=st.sampled_from(chars) | st.characters(), max_size=90))
        hyp = data.draw(st.text(alphabet=st.sampled_from(chars) | st.characters(), max_size=90))
        assert_same_edit_counts(ref, hyp)


def test_edit_counts_memory_is_half_a_byte_per_cell():
    # four bits per cell of the 4,000 x 4,000 grid are 8 MB; the int64 grid was 128 MB
    rng = np.random.default_rng(7)
    ref, hyp = random_text(rng, 4000, "abcdefgh "), random_text(rng, 4000, "abcdefgh ")
    assert peak_bytes(metrics.edit_counts, ref, hyp) <= 0.75 * 4000 * 4000


@pytest.mark.parametrize(
    "side,value",
    [("a", np.nan), ("a", np.inf), ("b", np.nan), ("b", -np.inf), ("both", np.inf)],
)
@pytest.mark.parametrize("n1,n2", [(1, 6), (6, 1), (8, 5)])
def test_non_finite_first_frame_fills_the_edges(side, value, n1, n2):
    # the first frame of a is the grid's first row and that of b its first
    # column, the edges that running sums fill in place
    rng = np.random.default_rng(n1 * 10 + n2)
    a, b = rng.standard_normal((n1, 2)), rng.standard_normal((n2, 2))
    if side in ("a", "both"):
        a[0] = value
    if side in ("b", "both"):
        b[0, 1] = value
    out = dsp.dtw_align(a, b)
    path, cost = dtw_row_major(a, b)
    assert out.path == path
    assert out.total_cost == cost or (np.isnan(out.total_cost) and np.isnan(cost))


def test_dtw_memory_is_the_distance_matrix_alone():
    # the distance matrix becomes the cost grid; an n1 x n2 move matrix
    # would add 420 kB here, more than the 166 kB allowed for the path
    n1, n2 = 600, 700
    rng = np.random.default_rng(5)
    a, b = rng.standard_normal((n1, 2)), rng.standard_normal((n2, 2))
    tracemalloc.start()
    try:
        dsp.dtw_align(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * n1 * n2 + 128 * (n1 + n2)


F0_RTOL = 1e-12  # FFT rounding moved f0 by at most 5e-14 relative on every signal tried
NEAR = 1e-9  # CMND moved by at most 2e-11 here; a decision this close may go either way


def assert_same_track(x, sr, cfg, near_frames=()):
    """extract_pitch against the per-frame oracle: voicing identical, f0 within F0_RTOL.

    The only frames exempt are those whose oracle CMND minimum lies within
    NEAR of VOICING_THRESHOLD, or whose |denom| lies within NEAR of the
    1e-12 guard; near_frames must list exactly those frames.
    """
    track = pitch.extract_pitch(dsp.Waveform(x, sr), cfg)
    cmnd, lag_min, lag_max = cmnd_per_frame(x, sr, cfg)
    f0, voiced, denom = pitch_decisions_loop(cmnd, sr, lag_min, lag_max)
    minimum = cmnd[:, lag_min : lag_max + 1].min(axis=1)
    near = (np.abs(minimum - pitch.VOICING_THRESHOLD) <= NEAR) | (
        np.abs(np.abs(denom) - 1e-12) <= NEAR
    )
    assert np.flatnonzero(near).tolist() == list(near_frames)
    assert track.voiced[~near].tobytes() == voiced[~near].tobytes()
    np.testing.assert_allclose(track.f0[~near], f0[~near], rtol=F0_RTOL, atol=0.0)
    return track


def bursts_in_dither(n_samples, sr, seed):
    """Loud 3-15 ms tone bursts every 50 ms over +-1 LSB dither."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-1, 2, n_samples) / 32768
    for start in range(0, n_samples - sr // 10, sr // 20):
        n = int(rng.uniform(0.003, 0.015) * sr)
        t = np.arange(n) / sr
        x[start : start + n] += 0.8 * np.sin(2 * np.pi * rng.uniform(80, 400) * t) * np.hanning(n)
    return x


SR = 22050
SPEECH = speechlike(SR, SR, 41)[SR // 3 :]
SPEECH /= np.abs(SPEECH).max()
TONE = np.sin(2 * np.pi * 180.0 * np.arange(SR // 2) / SR)
GATE_SIGNALS = {
    # quiet audio after full-scale audio, the case a running energy sum gets wrong
    "dither-after-speech": (
        np.concatenate([SPEECH, np.random.default_rng(1).integers(-1, 2, SR // 2) / 32768]),
        SR,
    ),
    "3-lsb-tone-after-speech": (np.concatenate([SPEECH, np.round(3 * TONE) / 32768]), SR),
    # frames straddle the edge: loud samples in the window, quiet ones at the long lags
    "loud-to-quiet-edge": (np.concatenate([0.9 * TONE, 1e-4 * TONE]), SR),
    "digital-silence-between-speech": (np.concatenate([SPEECH, np.zeros(SR // 2), SPEECH]), SR),
    # d is exactly 0 at the period of 100 samples
    "integer-period": (np.tile(np.random.default_rng(2).uniform(-0.5, 0.5, 100), 80), SR),
    # every difference is exactly 0, so every CMND is 1; FFT rounding alone would not give 0
    "constant-dc": (np.full(4000, 0.6180339887), SR),
    "dc-under-quiet-speech": (0.3 + 0.01 * speechlike(SR, SR, 43), SR),
    # at 44.1 kHz lags reach past the window, so a burst can sit between two quiet windows
    "bursts-in-dither-44k": (bursts_in_dither(44100, 44100, 44), 44100),
}


class TestChunkedPitch:
    @pytest.mark.parametrize("n_frames", [1, 15, 16, 17, 33, 63, 64, 65, 128, 129])
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

    @pytest.mark.parametrize("name", GATE_SIGNALS)
    def test_gate_signals(self, name):
        x, sr = GATE_SIGNALS[name]
        track = assert_same_track(x, sr, dsp.StftConfig())
        assert track.voiced.any() == (name != "constant-dc")


def test_extract_pitch_memory_stays_within_a_few_chunks():
    # 60 s at 22.05 kHz is 5,168 frames; their whole CMND matrix alone would be 18 MB
    cfg = dsp.StftConfig()
    w = dsp.Waveform(speechlike(60 * SR, SR, 60), SR)
    n_frames = 1 + len(w) // cfg.hop_length
    outputs = n_frames * (8 + 1)
    assert pitch._CHUNK_FRAMES <= 64
    work = 16 * 64 * cfg.win_length * 8  # sixteen float64 buffers of 64 frames
    tracemalloc.start()
    try:
        pitch.extract_pitch(w, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= outputs + work


@pytest.mark.parametrize("win_length,hop_length", [(1024, 256), (1023, 300), (7, 3)])
@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_frame_chunks_equal_the_whole_padded_framing(win_length, hop_length, chunk):
    half = win_length // 2
    lengths = [1, 2, half - 1, half, half + 1, win_length, win_length + 1]
    lengths += [hop_length * k + e for k in (chunk, 2 * chunk, 70) for e in (-1, 0, 1)]
    for n in lengths:
        x = np.random.default_rng(n).standard_normal(n)
        chunks = list(dsp._frame_chunks(x, win_length, hop_length, chunk))
        assert all(len(c) == chunk for c in chunks[:-1]) and 1 <= len(chunks[-1]) <= chunk
        frames = np.concatenate(chunks)
        expected = frame_signal_gather(x, win_length, hop_length)
        assert frames.shape == expected.shape
        assert frames.tobytes() == expected.tobytes()
        # a chunk is a view of x exactly when its frames stay inside x
        for c, t0 in zip(chunks, range(0, len(frames), chunk)):
            lo, hi = t0 * hop_length - half, (t0 + len(c) - 1) * hop_length - half + win_length
            assert np.shares_memory(c, x) == (0 <= lo and hi <= n)


def test_frame_chunks_reject_an_empty_signal():
    with pytest.raises(EmptySignalError):
        next(dsp._frame_chunks(np.zeros(0), 1024, 256, 64))


def quiet_next_to_loud(n_frames, size, seed):
    """Gaussian frames whose second half is 1e-6 as loud, every third frame all quiet."""
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((n_frames, size))
    frames[:, size // 2 :] *= 1e-6
    frames[::3] *= 1e-6
    return frames


@pytest.mark.parametrize(
    "sr,size,window",
    [
        (22050, 1024, 583),
        (44100, 1024, 142),  # lags 0..882 span several blocks
        (22050, 2048, 1607),
        (22050, 1000, 559),
        (16000, 641, 321),  # lags 0..320 are exactly one block
    ],
)
def test_energies_equal_the_block_cumsums(sr, size, window):
    assert size - pitch.lags(sr, size)[1] == window
    frames = quiet_next_to_loud(70, size, size)
    for t0, t1 in [(0, 1), (5, 6), (0, 64), (64, 70)]:
        got = pitch._energies(frames[t0:t1], window)
        assert got.tobytes() == yin_energies_blocks(frames[t0:t1], window).tobytes()


def assert_same_decisions(cmnd, sr):
    lag_min, lag_max = pitch.lags(sr, cmnd.shape[1])
    assert lag_max == cmnd.shape[1] - 1
    f0, voiced = pitch._decide(cmnd, sr, lag_min, lag_max)
    f0_loop, voiced_loop, _ = pitch_decisions_loop(cmnd, sr, lag_min, lag_max)
    assert np.array_equal(f0, f0_loop)
    assert np.array_equal(voiced, voiced_loop)
    return f0_loop, voiced_loop


class TestDecisionStep:
    def test_every_branch(self):
        sr, lag_min, lag_max = 22050, 41, 441
        cmnd = np.full((8, lag_max + 1), 0.9)
        cmnd[0, 200] = 0.31  # no lag under the threshold: the argmin, unvoiced
        cmnd[1, 300:] = np.linspace(0.29, 0.01, lag_max + 1 - 300)  # walks down to lag_max
        cmnd[2, lag_max] = 0.1  # first under the threshold at lag_max: no shift
        cmnd[3, lag_min - 1 : lag_min + 2] = 0.1  # flat bottom, denom == 0
        cmnd[4, lag_min - 1 : lag_min + 2] = (0.0, 0.1, 0.25)  # shift clamped to -0.5
        cmnd[5, 150:153] = (0.2, 0.1, 0.15)  # an ordinary parabolic shift
        cmnd[6, 150:154] = (0.2, 0.1, 0.1, 0.05)  # the walk stops at a tie
        cmnd[7, 150] = 0.3  # at the threshold is not under it
        f0, voiced = assert_same_decisions(cmnd, sr)
        assert voiced.tolist() == [False, True, True, True, True, True, True, False]
        assert f0[1] == f0[2] == sr / lag_max
        assert f0[3] == sr / lag_min
        assert f0[4] == sr / (lag_min - 0.5)
        assert f0[6] == sr / 151.5  # stopped at 151, where lag 152 ties it

    def test_refined_f0_outside_the_range_is_unvoiced(self):
        # at 1.1 kHz lags run 2..22, and a clamped shift at lag 2 gives 733 Hz
        cmnd = np.full((2, 23), 0.9)
        cmnd[0, 1:4] = (0.0, 0.1, 0.25)
        cmnd[1, 1:4] = (0.2, 0.1, 0.15)
        f0, voiced = assert_same_decisions(cmnd, 1100)
        assert voiced.tolist() == [False, True]

    @pytest.mark.parametrize("sr", [1100, 16000, 22050, 44100])
    def test_rows_of_few_levels(self, sr):
        # few distinct values, so ties, plateaus and values at the threshold are common
        rng = np.random.default_rng(sr)
        levels = np.array([0.0, 0.05, 0.1, 0.2, 0.3 - 1e-9, 0.3, 0.3 + 1e-9, 0.6, 1.0])
        lag_max = int(sr / pitch.F0_MIN)
        cmnd = rng.choice(levels, size=(400, lag_max + 1), p=[0.02] * 4 + [0.04] * 3 + [0.4, 0.4])
        assert_same_decisions(cmnd, sr)

    @pytest.mark.parametrize("sr", [16000, 22050, 44100])
    def test_oracle_rows_of_speech(self, sr):
        cmnd, _, _ = cmnd_per_frame(speechlike(int(0.4 * sr), sr, sr + 1), sr, dsp.StftConfig())
        _, voiced = assert_same_decisions(cmnd, sr)
        assert voiced.any() and not voiced.all()


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
    spec = np.abs(stft_complex_gather(x, cfg))
    assert spec.shape == (n_frames, cfg.n_bins)
    return spec


def griffin_lim(mag, cfg, n_iters, seed):
    spec = dsp.FeatureSeq(mag, 22050 / cfg.hop_length, "magnitude_spectrogram")
    return dsp.griffin_lim(spec, cfg, n_iters=n_iters, seed=seed).samples


B = dsp._CHUNK_FRAMES


@pytest.mark.parametrize("cfg", STFT_CONFIGS.values(), ids=STFT_CONFIGS.keys())
@pytest.mark.parametrize("n_frames", [2, 3, B - 1, B, B + 1, 2 * B + 1, 401])
class TestStftRoundTrip:
    def test_istft(self, cfg, n_frames):
        rng = np.random.default_rng(n_frames)
        spec = rng.standard_normal((n_frames, cfg.n_bins)) + 1j * rng.standard_normal(
            (n_frames, cfg.n_bins)
        )
        assert dsp.istft(spec, cfg).tobytes() == istft_frame_loop(spec, cfg).tobytes()

    def test_stft(self, cfg, n_frames):
        x = speechlike(cfg.hop_length * (n_frames - 1) + 5, 22050, n_frames)
        spec = dsp.stft(dsp.Waveform(x, 22050), cfg).frames
        assert spec.tobytes() == np.abs(stft_complex_gather(x, cfg)).tobytes()

    # GRIFFIN_LIM_MOMENTUM is patched so that the kernel is checked without extrapolation too
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_griffin_lim(self, cfg, n_frames, momentum, monkeypatch):
        monkeypatch.setattr(dsp, "GRIFFIN_LIM_MOMENTUM", momentum)
        mag = magnitude(cfg, n_frames, seed=n_frames)
        # at 1 iteration, iterate 0 is built before the first pass and no iterate follows the last
        for n_iters in (1, 3 if n_frames > 3 else 6):
            expected, _ = griffin_lim_loop(mag, cfg, n_iters, 5, momentum)
            assert griffin_lim(mag, cfg, n_iters, 5).tobytes() == expected.tobytes(), n_iters

    def test_griffin_lim_all_zero_magnitude(self, cfg, n_frames):
        mag = np.zeros((n_frames, cfg.n_bins))
        expected = istft_frame_loop(mag.astype(np.complex128), cfg)
        assert griffin_lim(mag, cfg, 4, 0).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.complex64, np.float32, np.float64])
def test_istft_transforms_in_the_precision_of_its_input(dtype):
    # a float32 spectrogram is inverted in single precision, as by one irfft of the whole array
    cfg = STFT_CONFIGS["win1000-hop300"]
    rng = np.random.default_rng(4)
    spec = rng.standard_normal((2 * B + 1, 2 * cfg.n_bins)).view(np.complex128)
    spec = spec.astype(dtype) if np.dtype(dtype).kind == "c" else spec.real.astype(dtype)
    assert dsp.istft(spec, cfg).tobytes() == istft_frame_loop(spec, cfg).tobytes()


@pytest.mark.parametrize("momentum", [0.0, 0.9])
def test_griffin_lim_returns_an_earlier_best_iterate_intact(momentum, monkeypatch):
    # the best iterate's signal buffer must not be overwritten by the later ones
    monkeypatch.setattr(dsp, "GRIFFIN_LIM_MOMENTUM", momentum)
    cfg = dsp.StftConfig()
    mag = magnitude(cfg, 2, seed=1)
    expected, best_k = griffin_lim_loop(mag, cfg, 4, 1, momentum)
    assert best_k < 4
    assert griffin_lim(mag, cfg, 4, 1).tobytes() == expected.tobytes()


def test_stft_memory_is_the_magnitude_and_a_few_chunks():
    # 60 s at 22.05 kHz is 5,168 frames; whole windowed-frame and complex
    # matrices would take 18.5 kB per frame, where the magnitude is 4.1 kB
    cfg = dsp.StftConfig()
    w = dsp.Waveform(speechlike(60 * SR, SR, 60), SR)
    n_frames = 1 + len(w) // cfg.hop_length
    outputs = n_frames * cfg.n_bins * 8  # the magnitude
    work = 4 * B * cfg.fft_size * 8  # four float64 buffers of one chunk
    assert peak_bytes(dsp.stft, w, cfg) <= outputs + work


@pytest.mark.parametrize("n_iters", [1, 3])
def test_griffin_lim_memory_stays_under_18_kb_per_frame(n_iters):
    # rebuilt (complex, 16 B per bin) takes 8.2 kB per frame. Three signals
    # (the best iterate, the one analyzed and the next, built as it is
    # analyzed) take 6.1 kB, and the plan's divisor and silent mask 2.3 kB.
    # A whole phase array (8.2 kB per frame) or a whole |rebuilt| - mag
    # (4.1 kB) would not fit under the bound.
    cfg = dsp.StftConfig()
    spec = dsp.stft(dsp.Waveform(speechlike(60 * SR, SR, 60), SR), cfg)
    assert peak_bytes(dsp.griffin_lim, spec, cfg, n_iters) <= 18_000 * spec.n_frames


def test_log_mel_memory_is_its_output_and_a_few_chunks():
    # the 0.6 kB per frame of log-mel output and chunk buffers; a whole
    # magnitude spectrogram (4.1 kB per frame) would not fit
    cfg = dsp.MelConfig()
    w = dsp.Waveform(speechlike(60 * SR, SR, 60), SR)
    n_frames = 1 + len(w) // cfg.stft.hop_length
    outputs = n_frames * cfg.n_mels * 8
    work = 6 * B * cfg.stft.fft_size * 8  # six float64 buffers of one chunk
    assert peak_bytes(dsp.log_mel, w, cfg) <= outputs + work


def test_spectral_convergence_memory_is_a_few_chunks():
    # chunk buffers only; a whole magnitude of w (4.1 kB per frame) would not fit
    cfg = dsp.StftConfig()
    w = dsp.Waveform(speechlike(60 * SR, SR, 60), SR)
    target = dsp.stft(w, cfg)
    assert peak_bytes(dsp.spectral_convergence, target, w, cfg) <= 4 * B * cfg.fft_size * 8


MEL_CONFIGS = {
    "default": dsp.MelConfig(),
    # 32 of the 80 bands have no nonzero bin at 22.05 kHz
    "fft64-mels80": dsp.MelConfig(80, dsp.StftConfig(fft_size=64, win_length=64, hop_length=16)),
}
REL = 1e-12  # reordered sums of squares and products moved values by about 1e-16 relative


@pytest.mark.parametrize("cfg", MEL_CONFIGS.values(), ids=MEL_CONFIGS.keys())
@pytest.mark.parametrize("n_frames", [1, B - 1, B, B + 1])
class TestSparseKernels:
    """log_mel's band sums over nonzero bins and the chunked norms, against
    the dense matrix product and np.linalg.norm that they replace."""

    def signal(self, cfg, n_frames):
        x = speechlike(cfg.stft.hop_length * (n_frames - 1) + 5, SR, n_frames)
        assert dsp._n_frames(len(x), cfg.stft.win_length, cfg.stft.hop_length) == n_frames
        return x

    def test_log_mel(self, cfg, n_frames):
        x = self.signal(cfg, n_frames)
        out = dsp.log_mel(dsp.Waveform(x, SR), cfg).frames
        expected = log_mel_dense(x, SR, cfg)
        # a difference of logs is the relative difference of the mel powers; a relative
        # bound on the logs themselves would not hold where a power is near 1
        np.testing.assert_allclose(out, expected, rtol=0, atol=REL)
        empty = ~dsp.mel_filterbank(SR, cfg).any(axis=1)
        assert empty.sum() == (32 if cfg.stft.fft_size == 64 else 0)
        assert (out[:, empty] == np.log(dsp.LOG_FLOOR)).all()

    def test_chunked_norm(self, cfg, n_frames):
        mag = np.abs(stft_complex_gather(self.signal(cfg, n_frames), cfg.stft))
        norm = np.sqrt(dsp._chunked_sum_squares(mag))
        np.testing.assert_allclose(norm, np.linalg.norm(mag), rtol=REL, atol=0)

    def test_spectral_convergence(self, cfg, n_frames):
        x = self.signal(cfg, n_frames)
        target = np.abs(stft_complex_gather(x[::-1], cfg.stft))
        w = dsp.Waveform(x, SR)
        out = dsp.spectral_convergence(
            dsp.FeatureSeq(target, SR / cfg.stft.hop_length, "magnitude_spectrogram"), w, cfg.stft
        )
        mag = np.abs(stft_complex_gather(x, cfg.stft))
        expected = np.linalg.norm(mag - target) / np.linalg.norm(target)
        np.testing.assert_allclose(out, expected, rtol=REL, atol=0)


RESAMPLE_RATES = [8000, 11025, 16000, 24000, 32000, 44100, 48000, 22051]  # 22,051 is coprime to SR


@pytest.mark.parametrize("n", [1, 2, 7, 441, 33_333])
@pytest.mark.parametrize("rate", RESAMPLE_RATES)
def test_resample_equals_scipy_designing_its_own_filter(rate, n):
    x = np.random.default_rng(n).standard_normal(n)
    for src, dst in ((rate, SR), (SR, rate)):
        out = dsp.resample(dsp.Waveform(x, src), dst).samples
        assert out.tobytes() == resample_poly_scipy(x, src, dst).tobytes()


@given(
    src=st.sampled_from(RESAMPLE_RATES + [SR]) | st.integers(7_000, 12_000),
    dst=st.sampled_from(RESAMPLE_RATES + [SR]) | st.integers(7_000, 12_000),
    n=st.integers(1, 3_000),
)
@example(src=22051, dst=SR, n=2_000)  # coprime: one period of 22,050 outputs
@example(src=SR, dst=22051, n=2_000)
@example(src=1, dst=SR, n=3)  # up 22,050 over down 1: the operator is cut to one period
@settings(max_examples=25, deadline=None)
def test_resample_of_drawn_rates_and_lengths_equals_scipy(src, dst, n):
    x = np.random.default_rng(n).standard_normal(n)
    out = dsp.resample(dsp.Waveform(x, src), dst).samples
    assert out.tobytes() == resample_poly_scipy(x, src, dst).tobytes()


@pytest.mark.parametrize("rate", [44100, 16000])
def test_resample_memory_is_its_output_and_a_few_blocks(rate):
    # 60 s to 22.05 kHz: the output is 10.6 MB. A whole window matrix would add about 1.25
    # times the input at 44.1 kHz (26 MB) and 1.06 times it at 16 kHz (8.1 MB).
    w = dsp.Waveform(np.random.default_rng(rate).standard_normal(60 * rate), rate)
    dsp.resample(dsp.Waveform(np.ones(10), rate), SR)  # build the operator beforehand
    assert peak_bytes(dsp.resample, w, SR) <= 60 * SR * 8 + 1_000_000


@pytest.mark.parametrize(
    "up, down", [(1, 2), (2, 1), (12, 1), (441, 320), (22050, 1), (22050, 22051)]
)
def test_resample_operator_holds_one_period_or_at_most_a_block_of_taps(up, down):
    op, _, step = dsp._resample_operator(up, down)
    assert op.shape[0] == step // down * up
    assert op.shape[0] == up or op.nnz <= dsp._RESAMPLE_BLOCK


def test_each_resampling_filter_is_designed_once_and_the_cache_is_bounded():
    dsp._resample_operator.cache_clear()
    x = np.ones(100)
    with mock.patch.object(dsp, "_kaiser_lowpass", wraps=dsp._kaiser_lowpass) as designs:
        dsp.resample(dsp.Waveform(x, 44100), SR)  # up 1, down 2
        dsp.resample(dsp.Waveform(x, 16000), 8000)  # the same reduced pair
        dsp.resample(dsp.Waveform(x, 44100), SR)
        assert designs.call_count == 1
        for rate in (8000, 24000, 32000, 48000):  # max(up, down) 441, 160, 640 and 320
            dsp.resample(dsp.Waveform(x, rate), SR)
        assert designs.call_count == 5
        info = dsp._resample_operator.cache_info()
        assert info.maxsize == info.currsize == dsp._RESAMPLE_FILTERS < 5
        dsp.resample(dsp.Waveform(x, 44100), SR)  # the least recently used, so dropped
        assert designs.call_count == 6


def test_an_operator_over_the_tap_budget_is_built_for_its_call_and_not_kept(monkeypatch):
    # 22,051 -> 22,050 Hz has a filter of 441,021 taps; the default budget keeps it
    assert 20 * 22051 + 1 <= dsp._RESAMPLE_CACHED_TAPS
    monkeypatch.setattr(dsp, "_RESAMPLE_CACHED_TAPS", 20 * 22051)
    dsp._resample_operator.cache_clear()
    dsp.resample(dsp.Waveform(np.ones(10), 44100), SR)  # a short filter is still kept
    assert dsp._resample_operator.cache_info().currsize == 1
    x = np.random.default_rng(22051).standard_normal(3000)
    for src, dst in ((22051, SR), (SR, 22051), (22051, SR)):
        out = dsp.resample(dsp.Waveform(x, src), dst).samples
        assert out.tobytes() == resample_poly_scipy(x, src, dst).tobytes()
        assert dsp._resample_operator.cache_info().currsize == 1


def test_windows_and_mel_taps_are_built_once_and_handed_out_read_only():
    dsp._window.cache_clear()
    dsp._mel_taps.cache_clear()
    w = dsp.Waveform(np.random.default_rng(5).standard_normal(8000), SR)
    cfg = dsp.MelConfig()
    with (
        mock.patch.object(dsp, "hann_window", wraps=dsp.hann_window) as windows,
        mock.patch.object(dsp, "mel_filterbank", wraps=dsp.mel_filterbank) as filterbanks,
    ):
        first = dsp.log_mel(w, cfg)
        assert (windows.call_count, filterbanks.call_count) == (1, 1)
        second = dsp.log_mel(w, cfg)
        dsp.griffin_lim(dsp.stft(w, cfg.stft), cfg.stft, n_iters=2, seed=0)
        assert (windows.call_count, filterbanks.call_count) == (1, 1)
    assert second.frames.tobytes() == first.frames.tobytes()
    for table in (dsp._window(cfg.stft.win_length), *dsp._mel_taps(SR, cfg)):
        assert not table.flags.writeable
    # The public builders still hand each caller an array of its own.
    assert dsp.hann_window(64).flags.writeable and dsp.mel_filterbank(SR).flags.writeable
    assert dsp.hann_window(64) is not dsp.hann_window(64)


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
    chunks = list(dsp._frame_chunks(x, win_length, hop_length, B))
    frames = np.concatenate(chunks)
    expected = frame_signal_gather(x, win_length, hop_length)
    assert frames.shape == expected.shape
    assert frames.tobytes() == expected.tobytes()
    assert not any(c.flags.writeable for c in chunks)


@pytest.mark.parametrize("win_length", [1024, 1023])
@pytest.mark.parametrize("scale", [0.0, 1.0])
def test_griffin_lim_needs_two_frames_like_istft(win_length, scale):
    cfg = dsp.StftConfig(win_length=win_length)
    mag = np.full((1, cfg.n_bins), scale)
    with pytest.raises(EmptySequenceError, match="at least 2 frames"):
        griffin_lim(mag, cfg, 2, 0)
