import numpy as np
import pytest

from oracles import f0_error_counts, random_pitch_track_pair
from voxkit import metrics, pitch
from voxkit.errors import EmptyTrackError, LengthMismatchError

FRAME_RATE = 22050 / 256


def track(f0, voiced):
    return pitch.PitchTrack(
        np.asarray(f0, dtype=float), np.asarray(voiced, dtype=bool), FRAME_RATE
    )


def random_pair(rng, n_frames):
    ref_f0, ref_v, hyp_f0, hyp_v = random_pitch_track_pair(rng, n_frames)
    return track(ref_f0, ref_v), track(hyp_f0, hyp_v)


def test_matches_per_frame_enumeration():
    rng = np.random.default_rng(123)
    checked_gpe = 0
    for _ in range(500):
        n = int(rng.integers(1, 13))
        ref, hyp = random_pair(rng, n)
        n_frames, n_covoiced, n_gross, n_disagree = f0_error_counts(
            ref.f0, ref.voiced, hyp.f0, hyp.voiced
        )
        report = metrics.f0_metrics(ref, hyp)
        assert report.vde == n_disagree / n_frames
        assert report.ffe == n_disagree / n_frames + n_gross / n_frames
        if n_covoiced:
            assert report.gpe == n_gross / n_covoiced
            checked_gpe += 1
        else:
            assert report.gpe is None
    assert checked_gpe > 300


def test_ffe_decomposition_exact():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        ref, hyp = random_pair(rng, n)
        report = metrics.f0_metrics(ref, hyp)
        _, n_covoiced, n_gross, _ = f0_error_counts(ref.f0, ref.voiced, hyp.f0, hyp.voiced)
        assert abs(report.ffe - (report.vde + n_gross / report.n_frames)) <= 1e-12
        assert report.ffe >= report.vde
        assert report.n_covoiced == n_covoiced


def test_gross_threshold_is_strict():
    # exactly 20 percent off is not a gross error; just past it is
    ref = track([100.0, 100.0], [True, True])
    at_edge = track([120.0, 80.0], [True, True])
    assert metrics.f0_metrics(ref, at_edge).gpe == 0.0
    past_edge = track([100.0 + 20.000001, 100.0], [True, True])
    assert metrics.f0_metrics(ref, past_edge).gpe == 0.5


def test_threshold_is_relative_to_reference():
    ref = track([100.0], [True])
    hyp = track([121.0], [True])
    assert metrics.f0_metrics(ref, hyp).gpe == 1.0
    assert metrics.f0_metrics(hyp, ref).gpe == 0.0  # 21 off 121 is under 20 percent


def test_no_covoiced_frames_is_an_error_not_zero():
    ref = track([100.0, 0.0], [True, False])
    hyp = track([0.0, 100.0], [False, True])
    report = metrics.f0_metrics(ref, hyp)
    assert report.gpe is None
    assert report.vde == 1.0


def test_identical_tracks_are_perfect():
    rng = np.random.default_rng(3)
    ref, _ = random_pair(rng, 50)
    report = metrics.f0_metrics(ref, ref)
    assert report.vde == 0.0
    assert report.ffe == 0.0
    if report.gpe is not None:
        assert report.gpe == 0.0


def test_length_mismatch_rejected():
    with pytest.raises(LengthMismatchError):
        metrics.f0_metrics(track([100.0], [True]), track([100.0, 100.0], [True, True]))


def test_empty_tracks_rejected():
    empty = track([], [])
    with pytest.raises(EmptyTrackError):
        metrics.f0_metrics(empty, empty)
