import numpy as np
import pytest

from voxkit import dsp
from voxkit.errors import InvalidConfigError

SR = 22050


@pytest.fixture(scope="module")
def tone_spec():
    t = np.arange(SR) / SR
    w = dsp.Waveform(0.5 * np.sin(2 * np.pi * 440.0 * t), SR)
    return dsp.stft(w)


def test_tone_round_trip_converges(tone_spec):
    out, gap = dsp.griffin_lim(tone_spec, n_iters=32, seed=0)
    assert out.sample_rate == SR
    assert gap < 0.1


def test_error_non_increasing_over_iterations(tone_spec):
    errs = [dsp.griffin_lim(tone_spec, n_iters=k, seed=0)[1] for k in (1, 2, 4, 8, 16, 32)]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(errs, errs[1:]))
    assert errs[-1] <= errs[0]


def test_non_increasing_holds_for_other_seeds(tone_spec):
    for seed in (1, 2, 9):
        errs = [dsp.griffin_lim(tone_spec, n_iters=k, seed=seed)[1] for k in (1, 4, 16, 32)]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(errs, errs[1:]))


def test_zero_spectrogram_gives_silence():
    spec = dsp.FeatureSeq(np.zeros((6, 513)), SR / 256, "magnitude_spectrogram")
    out, _ = dsp.griffin_lim(spec)
    assert len(out) == 256 * 5
    assert np.all(out.samples == 0.0)


def test_output_length(tone_spec):
    out, _ = dsp.griffin_lim(tone_spec, n_iters=2)
    assert len(out) == 256 * (tone_spec.n_frames - 1)


def test_seed_determinism(tone_spec):
    a, _ = dsp.griffin_lim(tone_spec, n_iters=4, seed=7)
    b, _ = dsp.griffin_lim(tone_spec, n_iters=4, seed=7)
    c, _ = dsp.griffin_lim(tone_spec, n_iters=4, seed=8)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_rejects_bad_inputs(tone_spec):
    with pytest.raises(InvalidConfigError):
        dsp.griffin_lim(tone_spec, n_iters=0)
    with pytest.raises(InvalidConfigError):
        lm = dsp.FeatureSeq(np.ones((4, 80)), SR / 256, "log_mel")
        dsp.griffin_lim(lm)
    with pytest.raises(InvalidConfigError):
        neg = dsp.FeatureSeq(-np.ones((4, 513)), SR / 256, "magnitude_spectrogram")
        dsp.griffin_lim(neg)


def test_norm_that_overflows_float64_is_rejected():
    # the squared norm of 4 x 513 entries of 1e153 is past the float64 range,
    # and of 1e152 it is not
    def spec(value):
        return dsp.FeatureSeq(np.full((4, 513), value), SR / 256, "magnitude_spectrogram")

    assert len(dsp.griffin_lim(spec(1e152), n_iters=2)[0]) == 256 * 3
    with pytest.raises(InvalidConfigError, match="norm overflows float64"):
        dsp.griffin_lim(spec(1e153), n_iters=2)
