import numpy as np
import pytest

from voxkit import dsp, pitch
from voxkit.errors import (
    EmptyTrackError,
    FrameRateMismatchError,
    InvalidConfigError,
    TrackLengthWarning,
)

SR = 22050


def tone(freq, duration_s=1.0, amp=0.4, sr=SR):
    t = np.arange(int(duration_s * sr)) / sr
    return dsp.Waveform(amp * np.sin(2 * np.pi * freq * t), sr)


def make_track(f0, voiced, frame_rate=SR / 256):
    return pitch.PitchTrack(
        np.asarray(f0, dtype=float), np.asarray(voiced, dtype=bool), frame_rate
    )


class TestExtraction:
    @pytest.mark.parametrize("freq", [110.0, 220.0, 330.0, 440.0])
    def test_tone_tracked_within_two_percent(self, freq):
        track = pitch.extract_pitch(tone(freq))
        interior = slice(3, -3)
        voiced = track.voiced[interior]
        assert voiced.mean() >= 0.95
        f0 = track.f0[interior][voiced]
        assert np.all(np.abs(f0 - freq) <= 0.02 * freq)

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(0)
        w = dsp.Waveform(0.3 * rng.standard_normal(SR), SR)
        track = pitch.extract_pitch(w)
        assert (~track.voiced).mean() >= 0.90

    def test_silence_unvoiced(self):
        track = pitch.extract_pitch(dsp.Waveform(np.zeros(SR), SR))
        assert not track.voiced.any()
        assert np.all(track.f0 == 0.0)

    def test_amplitude_scaling_leaves_voicing_unchanged(self):
        quiet = pitch.extract_pitch(tone(220.0, amp=0.02))
        loud = pitch.extract_pitch(tone(220.0, amp=0.9))
        np.testing.assert_array_equal(quiet.voiced, loud.voiced)
        np.testing.assert_allclose(quiet.f0, loud.f0, atol=1e-9)

    def test_frame_count_matches_stft(self):
        w = tone(220.0, 0.73)
        assert len(pitch.extract_pitch(w)) == dsp.stft(w).n_frames

    def test_unvoiced_frames_carry_zero_f0(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([np.zeros(4000), tone(220.0, 0.5).samples, 0.2 * rng.standard_normal(4000)])
        track = pitch.extract_pitch(dsp.Waveform(x, SR))
        assert np.all(track.f0[~track.voiced] == 0.0)
        assert np.all(track.f0[track.voiced] > 0.0)

    def test_rejects_low_sample_rate(self):
        w = tone(220.0, 0.5, sr=1000)
        with pytest.raises(InvalidConfigError):
            pitch.extract_pitch(w)

    def test_rejects_frame_shorter_than_longest_lag(self):
        cfg = dsp.StftConfig(256, 256, 256)
        with pytest.raises(InvalidConfigError):
            pitch.extract_pitch(tone(220.0, 0.3), cfg)

    def test_lags_apply_the_rules_of_extract_pitch(self):
        assert pitch.lags(22050, 1024) == (41, 441)
        assert pitch.lags(8000, 1024) == (15, 160)
        for cfg, sr in ((dsp.StftConfig(), 1000), (dsp.StftConfig(256, 256, 256), SR)):
            with pytest.raises(InvalidConfigError) as direct:
                pitch.lags(sr, cfg.win_length)
            with pytest.raises(InvalidConfigError) as extracted:
                pitch.extract_pitch(tone(220.0, 0.3, sr=sr), cfg)
            assert str(direct.value) == str(extracted.value)

    def test_track_invariant_enforced(self):
        with pytest.raises(InvalidConfigError):
            make_track([100.0, 100.0], [True, False])


class TestAlign:
    def test_truncates_to_common_length(self):
        a = make_track([100.0] * 10, [True] * 10)
        b = make_track([100.0] * 9, [True] * 9)
        ra, rb = pitch.align_tracks(a, b)
        assert len(ra) == len(rb) == 9

    def test_small_mismatch_is_silent(self):
        a = make_track([100.0] * 10, [True] * 10)
        b = make_track([100.0] * 9, [True] * 9)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pitch.align_tracks(a, b)

    def test_large_mismatch_warns(self):
        a = make_track([100.0] * 10, [True] * 10)
        b = make_track([100.0] * 8, [True] * 8)
        with pytest.warns(TrackLengthWarning):
            pitch.align_tracks(a, b)

    def test_frame_rate_mismatch_rejected(self):
        a = make_track([100.0] * 5, [True] * 5, frame_rate=86.0)
        b = make_track([100.0] * 5, [True] * 5, frame_rate=87.0)
        with pytest.raises(FrameRateMismatchError):
            pitch.align_tracks(a, b)

    def test_empty_track_rejected(self):
        empty = make_track([], [])
        with pytest.raises(EmptyTrackError):
            pitch.align_tracks(empty, empty)

