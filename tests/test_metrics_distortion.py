import math

import numpy as np
import pytest

from voxkit import dsp, metrics
from voxkit.errors import RateMismatchError

SR = 22050


def tone(freq, duration_s=0.4, amp=0.5, sr=SR):
    t = np.arange(int(duration_s * sr)) / sr
    return dsp.Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


def test_single_frame_oracle_13_dims():
    a = np.zeros((1, 13))
    b = np.zeros((1, 13))
    b[0, 0], b[0, 1] = 3.0, 4.0
    value, path_length = metrics.dtw_rmse(a, b)
    assert path_length == 1
    assert value == pytest.approx(math.sqrt(25.0 / 13.0))


def test_single_frame_oracle_80_dims():
    a = np.zeros((1, 80))
    b = np.zeros((1, 80))
    b[0, :2] = 3.0, 4.0
    value, _ = metrics.dtw_rmse(a, b)
    assert value == pytest.approx(math.sqrt(25.0 / 80.0))


def test_identical_waveforms_have_zero_distortion():
    w = tone(220.0)
    assert metrics.mcd(w, w) == 0.0
    assert metrics.msd(w, w) == 0.0


def test_different_tones_have_positive_distortion():
    assert metrics.mcd(tone(220.0), tone(350.0)) > 0.0
    assert metrics.msd(tone(220.0), tone(350.0)) > 0.0


def test_invariant_to_duplicating_both_frame_sequences():
    rng = np.random.default_rng(8)
    for _ in range(100):
        a = rng.uniform(-1, 1, (int(rng.integers(2, 9)), 13))
        b = rng.uniform(-1, 1, (int(rng.integers(2, 9)), 13))
        base, _ = metrics.dtw_rmse(a, b)
        doubled, _ = metrics.dtw_rmse(np.repeat(a, 2, axis=0), np.repeat(b, 2, axis=0))
        assert abs(doubled - base) <= 1e-9


def test_mfcc_duplication_invariance_end_to_end():
    a = dsp.mfcc(tone(220.0)).frames
    b = dsp.mfcc(tone(260.0)).frames
    base, _ = metrics.dtw_rmse(a, b)
    doubled, _ = metrics.dtw_rmse(np.repeat(a, 2, axis=0), np.repeat(b, 2, axis=0))
    assert abs(doubled - base) <= 1e-9


def test_sample_rate_mismatch_rejected():
    a = tone(220.0)
    b = tone(220.0, sr=16000)
    with pytest.raises(RateMismatchError):
        metrics.mcd(a, b)
    with pytest.raises(RateMismatchError):
        metrics.msd(a, b)
