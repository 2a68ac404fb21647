import warnings

import numpy as np
import pytest

from conftest import peak_bytes, speechlike
from voxkit import dsp, enhance
from voxkit.errors import (
    AllSilenceError,
    AllZeroError,
    ClippingWarning,
    EmptySignalError,
    InvalidConfigError,
    LengthMismatchError,
    RateMismatchError,
    VoxkitError,
)

SR = 22050


def wav(x, sr=SR):
    return dsp.Waveform(np.asarray(x, dtype=float), sr)


def sine(freq, n, sr=SR, amp=1.0):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / sr)


class TestDryWetMix:
    def test_endpoints(self):
        x = wav([0.5, -0.5, 0.25])
        y = wav([0.1, 0.2, 0.3])
        np.testing.assert_array_equal(
            enhance.dry_wet_mix(x, y, enhance.DryWetConfig(dry=0.0)).samples, y.samples
        )
        np.testing.assert_array_equal(
            enhance.dry_wet_mix(x, y, enhance.DryWetConfig(dry=1.0)).samples, x.samples
        )

    def test_default_mix_value(self):
        out = enhance.dry_wet_mix(wav([1.0]), wav([0.0]))
        assert out.samples[0] == pytest.approx(0.01)

    def test_affine_in_both_inputs(self):
        rng = np.random.default_rng(0)
        x1, y1 = rng.uniform(-0.2, 0.2, 300), rng.uniform(-0.2, 0.2, 300)
        x2, y2 = rng.uniform(-0.2, 0.2, 300), rng.uniform(-0.2, 0.2, 300)
        cfg = enhance.DryWetConfig(dry=0.3)
        lhs = (
            enhance.dry_wet_mix(wav(x1), wav(y1), cfg).samples
            + enhance.dry_wet_mix(wav(x2), wav(y2), cfg).samples
        )
        rhs = enhance.dry_wet_mix(wav(x1 + x2), wav(y1 + y2), cfg).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_clipping_warns_with_count(self):
        x = wav([1.5, 0.0, -1.5])
        y = wav([1.5, 0.0, -1.5])
        with pytest.warns(ClippingWarning, match="2"):
            out = enhance.dry_wet_mix(x, y)
        assert out.samples.max() <= 1.0
        assert out.samples.min() >= -1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            enhance.dry_wet_mix(wav([0.1, 0.2]), wav([0.1]))

    def test_bad_dry_rejected(self):
        with pytest.raises(InvalidConfigError):
            enhance.DryWetConfig(dry=1.5)


class TestVad:
    def test_frame_length_rounding(self):
        assert enhance.frame_length_samples(22050) == 220
        assert enhance.frame_length_samples(16000) == 160
        assert enhance.frame_length_samples(8000) == 80

    def test_digital_silence_is_all_non_speech(self):
        labels = enhance.vad_label(wav(np.zeros(SR)))
        assert not labels.speech.any()

    def test_bracketed_tone_boundaries_within_two_frames(self):
        half = int(0.5 * SR)
        x = np.concatenate([np.zeros(half), sine(440.0, SR), np.zeros(half)])
        labels = enhance.vad_label(wav(x))
        flen = enhance.frame_length_samples(SR)
        first, last = half / flen, (half + SR) / flen
        speech_idx = np.nonzero(labels.speech)[0]
        assert abs(speech_idx[0] - first) <= 2
        assert abs(speech_idx[-1] - last) <= 2
        # nothing outside the bracket
        assert speech_idx[0] >= first - 2
        assert speech_idx[-1] <= last + 2

    def test_aggressiveness_is_monotone(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            n = int(rng.uniform(0.5, 2.0) * SR)
            x = 10 ** (-55 / 20) * rng.standard_normal(n)
            for _ in range(rng.integers(1, 4)):
                start = rng.integers(0, max(1, n - 2000))
                length = int(rng.integers(500, min(20000, n - start)))
                x[start : start + length] += sine(
                    float(rng.uniform(100, 500)), length, amp=float(rng.uniform(0.2, 0.9))
                )
            previous = None
            for level in (0, 1, 2, 3):
                labels = enhance.vad_label(
                    wav(x), enhance.VadConfig(aggressiveness=level)
                )
                if previous is not None:
                    assert np.all(previous | ~labels.speech)  # speech(L) superset
                previous = labels.speech


    def test_any_sample_rate_is_labeled(self):
        # 10 ms frames at each rate; the last frame is a half frame of tone
        for sr, flen in ((11025, 110), (12000, 120), (24000, 240), (32000, 320)):
            assert enhance.frame_length_samples(sr) == flen
            x = np.concatenate([
                np.zeros(3 * flen), sine(440.0, 5 * flen, sr, amp=0.5),
                np.zeros(4 * flen), sine(440.0, flen // 2, sr, amp=0.5),
            ])
            plain = enhance.vad_label(wav(x, sr))
            assert plain.speech.tolist() == [False] * 3 + [True] * 5 + [False] * 4 + [True]
            smoothed = enhance.vad_label(wav(x, sr), enhance.VadConfig(aggressiveness=1))
            assert smoothed.speech.tolist() == [False] * 4 + [True] * 3 + [False] * 6

    def test_empty_signal_rejected(self):
        with pytest.raises(EmptySignalError):
            enhance.vad_label(wav([]))

    def test_bad_level_rejected(self):
        with pytest.raises(InvalidConfigError):
            enhance.VadConfig(aggressiveness=4)

    def test_nan_threshold_rejected(self):
        with pytest.raises(InvalidConfigError, match="must not be NaN"):
            enhance.VadConfig(energy_threshold_db=float("nan"))

    def test_infinite_thresholds_allowed(self):
        x = np.concatenate([np.zeros(1600), sine(440.0, 1600, 16000, amp=0.5)])
        low = enhance.vad_label(wav(x, 16000), enhance.VadConfig(energy_threshold_db=-np.inf))
        assert low.speech.tolist() == [False] * 10 + [True] * 10  # digital silence is -inf dB
        high = enhance.vad_label(wav(x, 16000), enhance.VadConfig(energy_threshold_db=np.inf))
        assert not high.speech.any()


def make_labeled(pattern, flen=160, sr=16000):
    """Build a waveform plus labels from (is_speech, n_frames) spans."""
    pieces = []
    speech = []
    for is_speech, n_frames in pattern:
        n = n_frames * flen
        pieces.append(sine(440.0, n, sr, amp=0.5) if is_speech else np.zeros(n))
        speech.extend([is_speech] * n_frames)
    return wav(np.concatenate(pieces), sr), enhance.FrameLabels(
        np.asarray(speech, dtype=bool)
    )


class TestTrimAndCompress:
    def test_reference_construction_totals_2_3_seconds(self):
        # 500 ms sil, 1 s speech, 400 ms sil, 1 s speech, 200 ms sil
        w, labels = make_labeled([(False, 50), (True, 100), (False, 40), (True, 100), (False, 20)])
        out = enhance.trim_and_compress(w, labels)
        assert len(out) == 16000 + 4800 + 16000
        assert out.duration_s == pytest.approx(2.3)

    def test_internal_gap_replaced_by_exact_fill(self):
        w, labels = make_labeled([(False, 10), (True, 50), (False, 40), (True, 50)])
        out = enhance.trim_and_compress(w, labels)
        gap = out.samples[50 * 160 : 50 * 160 + 4800]
        assert np.all(gap == 0.0)
        assert len(out) == 50 * 160 + 4800 + 50 * 160

    def test_exactly_300ms_gap_untouched(self):
        w, labels = make_labeled([(True, 50), (False, 30), (True, 50)])
        out = enhance.trim_and_compress(w, labels)
        assert len(out) == len(w)
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_one_frame_past_300ms_compressed(self):
        w, labels = make_labeled([(True, 50), (False, 31), (True, 50)])
        out = enhance.trim_and_compress(w, labels)
        assert len(out) == 50 * 160 + 4800 + 50 * 160

    def test_short_gap_kept_verbatim(self):
        w, labels = make_labeled([(True, 30), (False, 7), (True, 30)])
        out = enhance.trim_and_compress(w, labels)
        np.testing.assert_array_equal(out.samples, w.samples)

    def test_comfort_noise_fill_level_and_determinism(self):
        w, labels = make_labeled([(True, 50), (False, 40), (True, 50)])
        policy = enhance.SilencePolicy(fill="comfort_noise")
        a = enhance.trim_and_compress(w, labels, policy, seed=5)
        b = enhance.trim_and_compress(w, labels, policy, seed=5)
        np.testing.assert_array_equal(a.samples, b.samples)
        gap = a.samples[50 * 160 : 50 * 160 + 4800]
        rms_db = 10 * np.log10(np.mean(gap**2))
        assert abs(rms_db - (-60.0)) < 1.5
        assert np.any(gap != 0.0)

    def test_all_silence_rejected(self):
        w, labels = make_labeled([(False, 100)])
        with pytest.raises(AllSilenceError):
            enhance.trim_and_compress(w, labels)

    def test_label_coverage_checked(self):
        w, _ = make_labeled([(True, 10)])
        short = enhance.FrameLabels(np.ones(5, dtype=bool))
        with pytest.raises(LengthMismatchError):
            enhance.trim_and_compress(w, short)

    def test_output_never_longer_than_input(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            spans = []
            spans.append((False, int(rng.integers(0, 40))))
            for _ in range(rng.integers(1, 4)):
                spans.append((True, int(rng.integers(5, 60))))
                spans.append((False, int(rng.integers(1, 80))))
            spans = [(s, n) for s, n in spans if n > 0]
            if not any(s for s, _ in spans):
                continue
            w, labels = make_labeled(spans)
            out = enhance.trim_and_compress(w, labels)
            assert len(out) <= len(w)

    def test_remeasured_gaps_stay_capped(self):
        # run VAD on real audio, compress, re-run VAD on the result: no
        # internal silence run may exceed the cap (level 0 measures exactly;
        # higher levels erode boundaries, widening runs by up to L each side)
        rng = np.random.default_rng(12)
        for level in (0, 1, 2, 3):
            for trial in range(5):
                x = np.concatenate(
                    [
                        np.zeros(int(0.4 * SR)),
                        sine(300.0, int(0.6 * SR), amp=0.5),
                        np.zeros(int(rng.uniform(0.35, 0.9) * SR)),
                        sine(250.0, int(0.5 * SR), amp=0.5),
                        np.zeros(int(0.3 * SR)),
                    ]
                )
                cfg = enhance.VadConfig(aggressiveness=level)
                w = wav(x)
                labels = enhance.vad_label(w, cfg)
                out = enhance.trim_and_compress(w, labels)
                relabeled = enhance.vad_label(out, cfg)
                flen = enhance.frame_length_samples(SR)
                cap_frames = -(-round(0.3 * SR) // flen) + 2 * level
                runs = []
                run = 0
                for s in relabeled.speech:
                    if s:
                        if run:
                            runs.append(run)
                        run = 0
                    else:
                        run += 1
                # trailing run is not internal
                inner = runs[1:] if not relabeled.speech[0] else runs
                assert all(r <= cap_frames for r in inner), (level, inner, cap_frames)


class TestSnr:
    def test_analytic_twenty_db(self):
        clean = sine(440.0, SR)
        noisy = wav(1.1 * clean)
        enhanced = wav(clean)
        assert enhance.estimate_snr(noisy, enhanced) == pytest.approx(20.0, abs=0.01)

    def test_zero_residual_is_positive_infinity(self):
        w = wav(sine(220.0, 1000, amp=0.5))
        assert enhance.estimate_snr(w, w) == np.inf

    def test_zero_enhanced_is_negative_infinity(self):
        noisy = wav(sine(220.0, 1000, amp=0.5))
        assert enhance.estimate_snr(noisy, wav(np.zeros(1000))) == -np.inf

    def test_both_zero_reports_positive_infinity(self):
        z = wav(np.zeros(100))
        assert enhance.estimate_snr(z, z) == np.inf

    def test_monotone_in_residual_scale(self):
        clean = sine(330.0, SR, amp=0.6)
        rng = np.random.default_rng(2)
        residual = rng.standard_normal(SR) * 0.05
        values = [
            enhance.estimate_snr(wav(clean + scale * residual), wav(clean))
            for scale in (0.01, 0.1, 1.0)
        ]
        assert values[0] > values[1] > values[2]

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatchError):
            enhance.estimate_snr(wav([0.1, 0.2]), wav([0.1]))


class TestNormalizeVolume:
    def test_gain_to_target(self):
        out = enhance.normalize_volume(wav([0.5, -0.25]))
        assert out.samples[0] == pytest.approx(0.95)

    def test_already_at_target_unchanged(self):
        w = wav([0.95, -0.5])
        out = enhance.normalize_volume(w)
        np.testing.assert_allclose(out.samples, w.samples, atol=1e-9)

    def test_attenuates_out_of_range_input(self):
        out = enhance.normalize_volume(wav([2.0, -1.0]))
        assert np.max(np.abs(out.samples)) == pytest.approx(0.95)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        w = wav(rng.uniform(-0.3, 0.3, 500))
        once = enhance.normalize_volume(w)
        twice = enhance.normalize_volume(once)
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroError):
            enhance.normalize_volume(wav(np.zeros(10)))


LONG = 60 * SR  # 60 s at 22.05 kHz; one float64 copy of it is 10.6 MB
SLACK = 300_000  # two float64 blocks of dsp.BLOCK_SAMPLES samples, and small objects
B = dsp.BLOCK_SAMPLES


@pytest.fixture(scope="module")
def long_pair():
    noisy = speechlike(LONG, SR, 61)
    return wav(noisy), wav(noisy - 0.01 * np.sin(np.arange(LONG) * 0.1))


@pytest.mark.parametrize("n", [1, B, B + 1, 3 * B - 7])
@pytest.mark.parametrize("dry", [0.0, 0.01, 0.7])
def test_mix_in_blocks_equals_the_whole_signal_formula(n, dry):
    rng = np.random.default_rng(n)
    x, y = rng.uniform(-1.2, 1.2, n), rng.uniform(-1.0, 1.0, n)
    expected = np.clip(dry * x + (1.0 - dry) * y, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClippingWarning)
        out = enhance.dry_wet_mix(wav(x), wav(y), enhance.DryWetConfig(dry))
    assert out.samples.tobytes() == expected.tobytes()


@pytest.mark.parametrize("flen", [1, 3, 160, 220, 441, B + 5])
@pytest.mark.parametrize("n", [1, 2 * B + 17, 5 * B])
def test_frame_powers_in_blocks_equal_the_whole_reshape(flen, n):
    x = np.random.default_rng(flen).standard_normal(n)[::-1]  # a strided view
    full = n // flen
    expected = [(x[: full * flen].reshape(full, flen) ** 2).mean(axis=1)]
    if n % flen:
        expected.append([(x[full * flen :] ** 2).mean()])
    assert enhance._frame_powers(x, flen).tobytes() == np.concatenate(expected).tobytes()


def test_mix_memory_is_its_output_and_a_block(long_pair):
    assert peak_bytes(enhance.dry_wet_mix, *long_pair) <= 8 * LONG + SLACK


def test_snr_memory_is_one_work_array(long_pair):
    assert peak_bytes(enhance.estimate_snr, *long_pair) <= 8 * LONG + SLACK


def test_normalize_memory_is_its_output(long_pair):
    assert peak_bytes(enhance.normalize_volume, long_pair[0]) <= 8 * LONG + SLACK


def test_vad_memory_is_per_frame_and_a_block(long_pair):
    n_frames = LONG // enhance.frame_length_samples(SR)
    assert peak_bytes(enhance.vad_label, long_pair[0]) <= 16 * n_frames + SLACK


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: enhance.estimate_snr(wav([0.5] * 4), wav([0.5] * 4, sr=16000)),
                 RateMismatchError, f"sample rates differ: {SR} vs 16000", id="pair-rate"),
    pytest.param(lambda: enhance.FrameLabels(np.ones((2, 2))), InvalidConfigError,
                 "labels must be a non-empty 1-D array", id="labels-shape"),
    pytest.param(lambda: enhance.SilencePolicy(fill="pink"), InvalidConfigError,
                 "fill must be 'zeros' or 'comfort_noise', got 'pink'", id="silence-fill"),
    pytest.param(lambda: enhance.estimate_snr(wav([]), wav([])), EmptySignalError,
                 "cannot estimate SNR of empty signals", id="snr-empty"),
    pytest.param(lambda: enhance.normalize_volume(wav([])), EmptySignalError,
                 "cannot normalize an empty signal", id="normalize-empty"),
])
def test_guard_raises_its_class_and_message(call, error, message):
    with pytest.raises(VoxkitError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
