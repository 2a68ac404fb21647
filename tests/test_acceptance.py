"""Acceptance suite: ten numbered end-to-end checks.

Each test is one criterion; run `pytest tests/test_acceptance.py -v` for
one pass/fail line per criterion (add -s to see the summary prints).
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from voxkit import cli, corpus, dsp, enhance, metrics, pitch, wavio
from conftest import SR, build_corpus, noise, sine
from oracles import (
    dtw_min_cost_by_enumeration,
    edit_counts_recursive,
    edit_distance_two_rows,
    f0_error_counts,
    random_pitch_track_pair,
)


def passed(line):
    print(f"PASS  {line}")


def test_01_f0_metrics_match_enumeration():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    n_pairs = 500
    n_with_covoiced = 0
    for _ in range(n_pairs):
        n = int(rng.integers(1, 13))
        ref_f0, ref_v, hyp_f0, hyp_v = random_pitch_track_pair(rng, n)
        ref = pitch.PitchTrack(ref_f0, ref_v, 100.0)
        hyp = pitch.PitchTrack(hyp_f0, hyp_v, 100.0)
        n_total, n_co, n_gross, n_dis = f0_error_counts(ref_f0, ref_v, hyp_f0, hyp_v)
        report = metrics.f0_metrics(ref, hyp)
        # integer tallies agree bit for bit; the rates are the same
        # integer divisions the oracle performs
        assert report.n_frames == n_total
        assert report.n_covoiced == n_co
        if n_co:
            assert report.gpe == n_gross / n_co
            n_with_covoiced += 1
        else:
            assert report.gpe is None
        assert report.vde == n_dis / n_total
        assert abs(report.ffe - (n_dis / n_total + n_gross / n_total)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert n_with_covoiced >= 300
    passed(
        f"criterion 1: f0 error rates match per-frame enumeration on "
        f"{n_pairs} track pairs ({elapsed:.2f}s)"
    )


def test_02_ffe_decomposes_into_vde_plus_gross():
    rng = np.random.default_rng(202)
    for _ in range(500):
        n = int(rng.integers(1, 13))
        ref_f0, ref_v, hyp_f0, hyp_v = random_pitch_track_pair(rng, n)
        report = metrics.f0_metrics(
            pitch.PitchTrack(ref_f0, ref_v, 100.0),
            pitch.PitchTrack(hyp_f0, hyp_v, 100.0),
        )
        *_, n_gross, _ = f0_error_counts(ref_f0, ref_v, hyp_f0, hyp_v)
        assert abs(report.ffe - (report.vde + n_gross / report.n_frames)) <= 1e-12
        assert report.ffe >= report.vde
    passed("criterion 2: ffe == vde + gross/T (1e-12) and ffe >= vde on 500 pairs")


def test_03_cer_matches_edit_distance_oracle():
    rng = np.random.default_rng(303)
    alphabet = "abc"
    n_pairs = 1000
    for _ in range(n_pairs):
        ref = "".join(rng.choice(list(alphabet), size=rng.integers(1, 11)))
        hyp = "".join(rng.choice(list(alphabet), size=rng.integers(0, 11)))
        report = metrics.cer(ref, hyp)
        n_sub, n_del, n_ins = edit_counts_recursive(ref, hyp)
        assert (report.n_substitutions, report.n_deletions, report.n_insertions) == (
            n_sub, n_del, n_ins,
        )
        distance = edit_distance_two_rows(ref, hyp)
        assert report.n_substitutions + report.n_deletions + report.n_insertions == distance
    report = metrics.cer("sitting", "kitten")
    assert report.cer == pytest.approx(3 / 7, abs=1e-12)
    assert (report.n_substitutions, report.n_deletions, report.n_insertions) == (2, 1, 0)
    passed(
        f"criterion 3: cer matches the DP oracle (distance and S/D/I) on "
        f"{n_pairs} pairs; sitting/kitten = 3/7 with S=2, D=1"
    )


def test_04_dtw_matches_exhaustive_minimum():
    rng = np.random.default_rng(404)
    n_cases = 200
    for _ in range(n_cases):
        t1, t2 = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        a = rng.uniform(-1.0, 1.0, (t1, d))
        b = rng.uniform(-1.0, 1.0, (t2, d))
        alignment = dsp.dtw_align(a, b)
        dist = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
        assert alignment.total_cost == pytest.approx(
            dtw_min_cost_by_enumeration(dist), rel=1e-12
        )

    w = dsp.Waveform(sine(220.0, 0.8), SR)
    assert metrics.mcd(w, w) == 0.0

    u = dsp.Waveform(sine(350.0, 0.7), SR)
    cfg = dsp.MelConfig()
    a = dsp.mfcc(w, cfg).frames
    b = dsp.mfcc(u, cfg).frames
    base, _ = metrics.dtw_rmse(a, b)
    doubled, _ = metrics.dtw_rmse(np.repeat(a, 2, axis=0), np.repeat(b, 2, axis=0))
    assert abs(doubled - base) <= 1e-9
    passed(
        f"criterion 4: dtw cost equals the exhaustive minimum on {n_cases} cases; "
        "mcd(w, w) == 0; frame duplication shifts rmse by <= 1e-9"
    )


def test_05_griffin_lim_converges(tone_waveform):
    cfg = dsp.StftConfig(fft_size=1024, win_length=1024, hop_length=256)
    target = dsp.stft(tone_waveform, cfg)
    start = time.perf_counter()
    errors = []
    for n_iters in (1, 2, 4, 8, 16, 32):
        errors.append(dsp.griffin_lim(target, cfg, n_iters=n_iters, seed=0)[1])
    elapsed = time.perf_counter() - start
    assert errors[-1] < 0.1
    assert all(errors[k + 1] <= errors[k] for k in range(len(errors) - 1))
    assert elapsed < 10.0
    passed(
        f"criterion 5: spectral convergence {errors[-1]:.3f} < 0.1 after 32 "
        f"iterations, non-increasing over {errors} ({elapsed:.2f}s)"
    )


def test_06_vad_silence_contract(synthetic_corpus):
    sr = 16000
    flen = 160  # 10 ms frames
    cap = round(0.3 * sr)
    speech1 = sine(220.0, 1.0, sr=sr, amp=0.3)
    speech2 = sine(330.0, 0.5, sr=sr, amp=0.3)
    lead = np.zeros(100 * flen)
    trail = np.zeros(30 * flen)

    def trimmed(gap):
        w = dsp.Waveform(np.concatenate([lead, speech1, gap, speech2, trail]), sr)
        labels = enhance.vad_label(w, enhance.VadConfig(aggressiveness=0))
        return enhance.trim_and_compress(w, labels, enhance.SilencePolicy(fill="zeros"))

    long_gap = noise(31 * flen / sr, sr=sr, rms_db=-60.0, seed=6)
    out = trimmed(long_gap)
    assert len(out.samples) == len(speech1) + cap + len(speech2)
    np.testing.assert_array_equal(out.samples[: len(speech1)], speech1)
    np.testing.assert_array_equal(out.samples[len(speech1) : len(speech1) + cap], 0.0)
    np.testing.assert_array_equal(out.samples[len(speech1) + cap :], speech2)

    short_gap = noise(30 * flen / sr, sr=sr, rms_db=-60.0, seed=7)
    out = trimmed(short_gap)
    assert len(out.samples) == len(speech1) + len(short_gap) + len(speech2)
    np.testing.assert_array_equal(
        out.samples[len(speech1) : len(speech1) + len(short_gap)], short_gap
    )

    rng = np.random.default_rng(606)
    for _ in range(10):
        spans = []
        for _ in range(int(rng.integers(2, 5))):
            spans.append(noise(rng.uniform(0.1, 0.3), sr=sr, rms_db=-60.0, seed=int(rng.integers(1e6))))
            spans.append(sine(float(rng.uniform(150, 350)), float(rng.uniform(0.2, 0.5)), sr=sr, amp=0.3))
        w = dsp.Waveform(np.concatenate(spans), sr)
        previous = None
        for level in range(4):
            labels = enhance.vad_label(w, enhance.VadConfig(aggressiveness=level))
            if previous is not None:
                assert np.all(previous | ~labels.speech)  # speech sets shrink
            previous = labels.speech

    manifest = corpus.load_manifest(synthetic_corpus)
    retained = {}
    for level in (1, 2, 3):
        total = 0.0
        for record in manifest:
            w = wavio.read_wav(corpus.resolve_audio_path(record, synthetic_corpus))
            labels = enhance.vad_label(w, enhance.VadConfig(aggressiveness=level))
            try:
                out = enhance.trim_and_compress(w, labels, enhance.SilencePolicy())
                total += out.duration_s
            except enhance.AllSilenceError:
                pass
        retained[level] = total / 3600.0
    raw_hours = sum(r.duration_s for r in manifest) / 3600.0
    assert raw_hours >= retained[1] >= retained[2] >= retained[3]
    passed(
        "criterion 6: edges trimmed, long gaps capped at exactly 300 ms, short "
        "gaps untouched, speech sets monotone; retained hours "
        f"{raw_hours:.3f} >= {retained[1]:.3f} >= {retained[2]:.3f} >= {retained[3]:.3f} "
        "over the 100-utterance corpus"
    )


def test_07_filter_boundaries_partition_idempotence():
    def record(rid, snr, cer_value):
        return corpus.UtteranceRecord(rid, f"{rid}.wav", 1.0, snr_db=snr, cer=cer_value)

    result = corpus.apply_filter(corpus.Manifest((
        record("snr-at-floor", 15.0, 0.05),
        record("cer-at-ceiling", 20.0, 0.10),
        record("clear-pass", 16.0, 0.05),
    )))
    assert result.kept.ids() == ["clear-pass"]
    assert set(result.dropped.ids()) == {"snr-at-floor", "cer-at-ceiling"}

    rng = np.random.default_rng(707)
    records = tuple(
        record(f"u{k:03d}", float(rng.uniform(0, 30)), float(rng.uniform(0, 0.2)))
        for k in range(200)
    )
    m = corpus.Manifest(records)
    result = corpus.apply_filter(m)
    assert len(result.kept) + len(result.dropped) == len(m)
    assert not set(result.kept.ids()) & set(result.dropped.ids())
    again = corpus.apply_filter(corpus.Manifest(result.kept.records))
    assert again.kept.records == result.kept.records
    assert len(again.dropped) == 0
    passed(
        "criterion 7: snr 15.0 and cer 0.10 dropped, snr 16/cer 0.05 kept; "
        "kept+dropped partition 200 records; filter idempotent on kept"
    )


def test_08_snr_analytic_case_and_infinity():
    rng = np.random.default_rng(808)
    clean = rng.standard_normal(SR)
    clean /= np.sqrt(np.mean(clean**2))  # exactly unit power
    residual = rng.standard_normal(SR)
    residual *= 0.1 / np.sqrt(np.mean(residual**2))  # power 0.01
    enhanced = dsp.Waveform(clean, SR)
    noisy = dsp.Waveform(clean + residual, SR)
    assert enhance.estimate_snr(noisy, enhanced) == pytest.approx(20.0, abs=0.01)

    silent_residual = enhance.estimate_snr(enhanced, enhanced)
    assert silent_residual == math.inf
    kept = corpus.apply_filter(corpus.Manifest((
        corpus.UtteranceRecord("clean", "clean.wav", 1.0, snr_db=silent_residual, cer=0.0),
    ))).kept
    assert kept.ids() == ["clean"]
    passed(
        "criterion 8: unit-power signal over 0.01-power residual reads "
        "20.00 dB; zero residual reads +inf and passes the filter"
    )


def test_09_pitch_extractor_sanity():
    w = dsp.Waveform(sine(220.0, 1.0), SR)
    track = pitch.extract_pitch(w)
    interior = slice(2, len(track) - 2)
    voiced = track.voiced[interior]
    assert voiced.mean() >= 0.95
    within = np.abs(track.f0[interior][voiced] - 220.0) <= 0.02 * 220.0
    assert within.all()

    noisy = dsp.Waveform(np.random.default_rng(909).uniform(-0.3, 0.3, SR), SR)
    noise_track = pitch.extract_pitch(noisy)
    assert (~noise_track.voiced).mean() >= 0.90

    scaled = pitch.extract_pitch(dsp.Waveform(w.samples * 0.05, SR))
    np.testing.assert_array_equal(track.voiced, scaled.voiced)
    passed(
        "criterion 9: 220 Hz tone fully voiced within 2%, white noise "
        f"{100 * (~noise_track.voiced).mean():.0f}% unvoiced, voiced mask "
        "invariant to amplitude scaling"
    )


def test_10_worker_count_does_not_change_outputs(synthetic_corpus, tmp_path, capsys):
    root = synthetic_corpus.parent

    def run_preprocess(out_dir, workers):
        code = cli.main([
            "preprocess", "--manifest", str(synthetic_corpus),
            "--out-dir", str(out_dir),
            "--stages", "DN,VAD-2,FLT,VN",
            "--enhanced-dir", str(root / "enh"),
            "--fill", "comfort_noise",
            "--workers", str(workers),
        ])
        assert code == cli.EXIT_OK

    serial_dir = tmp_path / "serial"
    pooled_dir = tmp_path / "pooled"
    run_preprocess(serial_dir, 1)
    run_preprocess(pooled_dir, 8)
    capsys.readouterr()

    serial_files = sorted(p.name for p in serial_dir.iterdir())
    pooled_files = sorted(p.name for p in pooled_dir.iterdir())
    assert serial_files == pooled_files
    for name in serial_files:
        assert (serial_dir / name).read_bytes() == (pooled_dir / name).read_bytes()

    hyp_records = tuple(
        replace(r, audio_path=f"enh/{r.utterance_id}.enhanced.wav")
        for r in corpus.load_manifest(synthetic_corpus)
    )
    hyp_manifest = tmp_path / "hyp.tsv"
    corpus.save_manifest(corpus.Manifest(hyp_records, "hyp"), hyp_manifest)

    def run_metrics(out_dir, workers):
        code = cli.main([
            "metrics", "--ref-manifest", str(synthetic_corpus),
            "--hyp-manifest", str(hyp_manifest),
            "--out-dir", str(out_dir), "--workers", str(workers),
        ])
        assert code == cli.EXIT_OK

    serial_report = tmp_path / "report-serial"
    pooled_report = tmp_path / "report-pooled"
    run_metrics(serial_report, 1)
    run_metrics(pooled_report, 8)
    capsys.readouterr()
    for name in ("report.tsv", "report.json", "errors.tsv"):
        assert (serial_report / name).read_bytes() == (pooled_report / name).read_bytes()
    passed(
        f"criterion 10: preprocess ({len(serial_files)} files) and metrics "
        "outputs byte-identical between --workers 1 and --workers 8"
    )
