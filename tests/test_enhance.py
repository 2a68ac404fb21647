import warnings

import numpy as np
import pytest

from voxkit import dsp, enhance
from voxkit.errors import (
    AllSilenceError,
    AllZeroError,
    ClippingWarning,
    EmptySignalError,
    InvalidConfigError,
    LengthMismatchError,
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


    def test_unsupported_rate_rejected(self):
        with pytest.raises(InvalidConfigError):
            enhance.vad_label(wav(np.ones(1000), sr=11025))

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

    def test_rate_check_is_the_one_vad_label_applies(self):
        for sr in enhance.VAD_SAMPLE_RATES:
            enhance.check_vad_rate(sr)
        with pytest.raises(InvalidConfigError) as direct:
            enhance.check_vad_rate(12000)
        with pytest.raises(InvalidConfigError) as labeled:
            enhance.vad_label(wav(np.ones(1200), sr=12000))
        assert str(direct.value) == str(labeled.value)


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
