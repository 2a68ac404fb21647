import argparse
import importlib
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxkit
from voxkit import cli, corpus, dsp, enhance, metrics, wavio
from voxkit.errors import VoxkitError
from conftest import build_corpus, sine

SR = 22050


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("small")
    return build_corpus(root, 6, seed=3)


class TestParsing:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["--help"])
        assert info.value.code == 0

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == cli.EXIT_USAGE
        capsys.readouterr()

    def test_unknown_stage_is_usage_error(self, small_corpus, tmp_path, capsys):
        code = cli.main([
            "preprocess", "--manifest", str(small_corpus),
            "--out-dir", str(tmp_path / "out"), "--stages", "DN,XYZ",
        ])
        assert code == cli.EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_dry_out_of_range_is_usage_error(self, small_corpus, tmp_path, capsys):
        code = cli.main([
            "preprocess", "--manifest", str(small_corpus),
            "--out-dir", str(tmp_path / "out"), "--dry", "1.5",
        ])
        assert code == cli.EXIT_USAGE
        assert "--dry" in capsys.readouterr().err

    def test_missing_manifest_is_runtime_error(self, tmp_path, capsys):
        code = cli.main([
            "report", "--manifest", str(tmp_path / "nope.tsv"),
        ])
        assert code == cli.EXIT_RUNTIME
        assert "error:" in capsys.readouterr().err

    def test_derive_seed_stable_and_distinct(self):
        a = cli.derive_seed(0, "utt000")
        assert a == cli.derive_seed(0, "utt000")
        assert isinstance(a, int) and 0 <= a < 2**32
        assert a != cli.derive_seed(0, "utt001")
        assert a != cli.derive_seed(1, "utt000")


def parse_stage_table(stdout):
    """Rows of (label, hours, utterances) from the printed table."""
    rows = []
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] != "stage":
            try:
                rows.append((parts[0], float(parts[1]), int(parts[2])))
            except ValueError:
                continue
    return rows


class TestPreprocess:
    def test_full_chain(self, small_corpus, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = cli.main([
            "preprocess", "--manifest", str(small_corpus),
            "--out-dir", str(out_dir),
            "--stages", "DN,VAD-2,FLT,VN",
            "--enhanced-dir", str(small_corpus.parent / "enh"),
        ])
        assert code == cli.EXIT_OK
        stdout = capsys.readouterr().out

        produced = corpus.load_manifest(out_dir / "manifest.tsv")
        assert produced.source_tag == "DN+VAD-2+FLT+VN"
        assert len(produced) >= 1
        for record in produced:
            assert record.audio_path == f"{record.utterance_id}.wav"
            assert record.snr_db is not None
            assert record.cer is not None
            w = wavio.read_wav(out_dir / record.audio_path)
            assert record.duration_s == pytest.approx(w.duration_s)
            # VN ran last: peak sits at the normalization target
            assert np.abs(w.samples).max() == pytest.approx(0.95, abs=1e-3)

        rows = parse_stage_table(stdout)
        assert [label for label, _, _ in rows] == [
            "Raw", "DN", "DN+VAD-2", "DN+VAD-2+FLT", "DN+VAD-2+FLT+VN",
        ]
        hours = [h for _, h, _ in rows]
        assert all(hours[i] >= hours[i + 1] - 1e-9 for i in range(len(hours) - 1))
        assert (out_dir / "dropped.tsv").exists()
        assert (out_dir / "errors.tsv").exists()

    def test_failed_utterance_is_reported_and_skipped(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        manifest = build_corpus(root, 3, seed=11, with_enhanced=False)
        wavio.write_wav(root / "raw" / "utt001.wav", dsp.Waveform(np.zeros(SR), SR))
        out_dir = tmp_path / "out"
        code = cli.main([
            "preprocess", "--manifest", str(manifest),
            "--out-dir", str(out_dir), "--stages", "VAD-1",
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()

        produced = corpus.load_manifest(out_dir / "manifest.tsv")
        assert produced.ids() == ["utt000", "utt002"]
        assert not (out_dir / "utt001.wav").exists()
        lines = (out_dir / "errors.tsv").read_text().splitlines()
        assert lines[0] == "id\tstage\terror"
        assert len(lines) == 2
        assert lines[1].startswith("utt001\tVAD-1\t")

    def test_wav_cut_inside_header_is_reported_and_skipped(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        manifest = build_corpus(root, 3, seed=12, with_enhanced=False)
        cut = root / "raw" / "utt001.wav"
        cut.write_bytes(cut.read_bytes()[:20])
        out_dir = tmp_path / "out"
        code = cli.main([
            "preprocess", "--manifest", str(manifest),
            "--out-dir", str(out_dir), "--stages", "VN",
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()

        produced = corpus.load_manifest(out_dir / "manifest.tsv")
        assert produced.ids() == ["utt000", "utt002"]
        lines = (out_dir / "errors.tsv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("utt001\tload\t")

    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    def test_corrupt_wav_headers_are_reported_at_any_worker_count(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        manifest = build_corpus(root, 3, seed=12, with_enhanced=False)
        for name, offset, value in (("utt001", 19, 50), ("utt002", 22, 0)):
            path = root / "raw" / f"{name}.wav"
            data = bytearray(path.read_bytes())
            data[offset] = value  # the fmt chunk size; the channel count
            path.write_bytes(data)
        outputs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"out{workers}"
            code = cli.main([
                "preprocess", "--manifest", str(manifest), "--out-dir", str(out_dir),
                "--stages", "VN", "--workers", workers,
            ])
            assert code == cli.EXIT_OK
            capsys.readouterr()
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert outputs[0] == outputs[1]
        assert sorted(outputs[0]) == ["errors.tsv", "manifest.tsv", "utt000.wav"]
        rows = outputs[0]["errors.tsv"].decode().splitlines()[1:]
        assert [row.split("\t")[:2] for row in rows] == [["utt001", "load"], ["utt002", "load"]]
        assert all(row.endswith(".wav: malformed WAV header") for row in rows)

    def test_dropped_report_points_at_input_audio(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        manifest = build_corpus(root, 4, seed=7)
        out_dir = tmp_path / "out"
        code = cli.main([
            "preprocess", "--manifest", str(manifest),
            "--out-dir", str(out_dir),
            "--stages", "DN,FLT",
            "--enhanced-dir", str(root / "enh"),
            "--min-snr", "1000",  # force every record through the drop path
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        assert len(corpus.load_manifest(out_dir / "manifest.tsv")) == 0
        lines = (out_dir / "dropped.tsv").read_text().splitlines()
        assert lines[1].split("\t")[-1] == "reason"
        for line in lines[2:]:
            cells = line.split("\t")
            assert cells[1].startswith("../corpus/raw/")
            assert "low-snr" in cells[-1]
        # processed wavs for dropped records are cleaned up
        assert not list(out_dir.glob("utt*.wav"))

    def test_identity_enhancer_when_no_enhanced_dir(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        manifest = build_corpus(root, 2, seed=5, with_enhanced=False)
        out_dir = tmp_path / "out"
        code = cli.main([
            "preprocess", "--manifest", str(manifest),
            "--out-dir", str(out_dir), "--stages", "DN",
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        produced = corpus.load_manifest(out_dir / "manifest.tsv")
        # zero residual against itself reads as infinite SNR
        assert all(r.snr_db == float("inf") for r in produced)


@pytest.fixture(scope="module")
def metric_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval")
    ref_manifest = build_corpus(root, 4, seed=21)
    loaded = corpus.load_manifest(ref_manifest)
    hyp_records = tuple(
        replace(r, audio_path=f"enh/{r.utterance_id}.enhanced.wav")
        for r in loaded
    )
    hyp_manifest = root / "hyp.tsv"
    corpus.save_manifest(corpus.Manifest(hyp_records, "hyp"), hyp_manifest)
    out_dir = root / "report"
    code = cli.main([
        "metrics", "--ref-manifest", str(ref_manifest),
        "--hyp-manifest", str(hyp_manifest), "--out-dir", str(out_dir),
    ])
    return code, out_dir


class TestMetrics:
    def test_exit_ok(self, metric_run, capsys):
        code, _ = metric_run
        capsys.readouterr()
        assert code == cli.EXIT_OK

    def test_report_tsv_shape(self, metric_run, capsys):
        _, out_dir = metric_run
        capsys.readouterr()
        lines = (out_dir / "report.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        assert header[0] == "id"
        for name in ("mcd", "msd", "gpe", "vde", "ffe", "cer"):
            assert name in header
        # one row per utterance plus the trailing means row
        assert len(lines) == 6
        assert lines[-1].startswith("mean\t")

    def test_report_json_matches_tsv_ids(self, metric_run, capsys):
        _, out_dir = metric_run
        capsys.readouterr()
        payload = json.loads((out_dir / "report.json").read_text())
        rows = payload["utterances"]
        assert [row["id"] for row in rows] == ["utt000", "utt001", "utt002", "utt003"]
        for row in rows:
            assert row["mcd"] > 0
            assert 0 <= row["vde"] <= 1
        assert payload["mean"]["mcd"] == pytest.approx(
            sum(row["mcd"] for row in rows) / len(rows)
        )

    def test_no_errors_on_clean_corpus(self, metric_run, capsys):
        _, out_dir = metric_run
        capsys.readouterr()
        assert (out_dir / "errors.tsv").read_text() == "id\tstage\terror\n"

    def test_id_mismatch_is_usage_error(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        ref_manifest = build_corpus(root, 3, seed=9)
        loaded = corpus.load_manifest(ref_manifest)
        hyp_manifest = root / "hyp.tsv"
        corpus.save_manifest(corpus.Manifest(loaded.records[:2], "hyp"), hyp_manifest)
        code = cli.main([
            "metrics", "--ref-manifest", str(ref_manifest),
            "--hyp-manifest", str(hyp_manifest), "--out-dir", str(tmp_path / "r"),
        ])
        assert code == cli.EXIT_USAGE
        assert "utt002" in capsys.readouterr().err

    def test_summary_lines(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        ref_manifest = build_corpus(root, 2, seed=31)
        loaded = corpus.load_manifest(ref_manifest)
        hyp_records = tuple(
            replace(r, audio_path=f"enh/{r.utterance_id}.enhanced.wav")
            for r in loaded
        )
        hyp_manifest = root / "hyp.tsv"
        corpus.save_manifest(corpus.Manifest(hyp_records, "hyp"), hyp_manifest)
        code = cli.main([
            "metrics", "--ref-manifest", str(ref_manifest),
            "--hyp-manifest", str(hyp_manifest),
            "--out-dir", str(root / "report"), "--which", "mcd,cer",
        ])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "MCD: " in out
        assert "MSD" not in out
        assert "CER (S/D/I): " in out

    def test_spectral_metrics_fail_independently(self, tmp_path, monkeypatch, capsys):
        # mcd fails on every utterance, msd still runs
        def fail(*args):
            raise VoxkitError("no cepstra")

        monkeypatch.setattr(metrics, "mcd_from_log_mel", fail)
        root = tmp_path / "corpus"
        ref_manifest = build_corpus(root, 2, seed=41)
        out_dir = root / "report"
        code = cli.main([
            "metrics", "--ref-manifest", str(ref_manifest),
            "--hyp-manifest", str(ref_manifest), "--out-dir", str(out_dir),
            "--which", "mcd,msd",
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        rows = json.loads((out_dir / "report.json").read_text())["utterances"]
        assert [row["msd"] for row in rows] == [0.0, 0.0]
        assert [row["mcd"] for row in rows] == [None, None]
        errors = (out_dir / "errors.tsv").read_text().splitlines()[1:]
        assert [e.split("\t")[:2] for e in errors] == [["utt000", "mcd"], ["utt001", "mcd"]]
        assert errors[0].endswith("\tno cepstra")


class TestVad:
    def test_trims_silence(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        (root / "raw").mkdir(parents=True)
        records = []
        for k, freq in enumerate((220.0, 330.0)):
            padded = np.concatenate([
                np.zeros(SR // 2), sine(freq, 1.0, amp=0.3), np.zeros(SR // 2)
            ])
            utterance_id = f"utt{k:03d}"
            wavio.write_wav(root / "raw" / f"{utterance_id}.wav", dsp.Waveform(padded, SR))
            records.append(corpus.UtteranceRecord(
                utterance_id, f"raw/{utterance_id}.wav", len(padded) / SR
            ))
        manifest = root / "manifest.tsv"
        corpus.save_manifest(corpus.Manifest(tuple(records)), manifest)

        out_dir = tmp_path / "trimmed"
        code = cli.main([
            "vad", "--manifest", str(manifest),
            "--out-dir", str(out_dir), "--aggressiveness", "2",
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        produced = corpus.load_manifest(out_dir / "manifest.tsv")
        assert produced.source_tag == "VAD-2"
        assert produced.ids() == ["utt000", "utt001"]
        # the half-second pads are gone, up to frame rounding at the edges
        for record in produced:
            assert 0.9 <= record.duration_s <= 1.1


class TestSnr:
    def test_fills_snr_column(self, small_corpus, tmp_path, capsys):
        out = tmp_path / "scored" / "manifest.tsv"
        code = cli.main([
            "snr", "--manifest", str(small_corpus),
            "--enhanced-dir", str(small_corpus.parent / "enh"),
            "--out", str(out),
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        produced = corpus.load_manifest(out)
        assert len(produced) == 6
        for record in produced:
            assert record.snr_db is not None and record.snr_db > 0
            assert record.audio_path.startswith("../")
            assert corpus.resolve_audio_path(record, out).exists()

    def test_errors_go_next_to_out_replacing_an_earlier_errors_tsv(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        manifest = build_corpus(root, 3, seed=13)
        cut = root / "raw" / "utt001.wav"
        cut.write_bytes(cut.read_bytes()[:20])
        out_dir = tmp_path / "clean"
        assert cli.main([
            "preprocess", "--manifest", str(manifest),
            "--out-dir", str(out_dir), "--stages", "VN",
        ]) == cli.EXIT_OK
        assert (out_dir / "errors.tsv").read_text().splitlines()[1].startswith("utt001\tload\t")

        assert cli.main([
            "snr", "--manifest", str(manifest), "--enhanced-dir", str(root / "enh"),
            "--out", str(out_dir / "scored.tsv"),
        ]) == cli.EXIT_OK
        capsys.readouterr()
        lines = (out_dir / "errors.tsv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("utt001\tsnr\t")
        assert not (root / "errors.tsv").exists()


def _save_archive(path):
    with open(path, "wb") as out:
        np.savez(out, np.ones((8, 513)))


def _garble_header(old, new):
    """A saver writing a valid .npy whose header has `old` replaced by `new`."""
    def save(path):
        buf = io.BytesIO()
        np.save(buf, np.ones((8, 513)))
        path.write_bytes(buf.getvalue().replace(old, new, 1))
    return save


BAD_SPECTROGRAMS = {
    "object": lambda p: np.save(p, np.array([{"a": 1}, None], dtype=object), allow_pickle=True),
    "complex": lambda p: np.save(p, np.ones((8, 513), dtype=complex)),
    "text": lambda p: np.save(p, np.array(["a", "b"])),
    "empty": lambda p: p.write_bytes(b""),
    "archive": _save_archive,
    # each garbled header makes np.load raise something other than ValueError
    "header_unclosed": _garble_header(b"}", b" "),  # tokenize.TokenError
    "header_descr": _garble_header(b"'<f8'", b"'<,8'"),  # SyntaxError
    "header_key": _garble_header(b" 'fortran_order'", b"b'fortran_order'"),  # TypeError
}


class TestVocode:
    def test_requires_exactly_one_source(self, small_corpus, tmp_path, capsys):
        code = cli.main(["vocode", "--out-dir", str(tmp_path / "v")])
        assert code == cli.EXIT_USAGE
        code = cli.main([
            "vocode", "--manifest", str(small_corpus),
            "--spec-dir", str(tmp_path), "--out-dir", str(tmp_path / "v"),
        ])
        assert code == cli.EXIT_USAGE
        capsys.readouterr()

    def test_round_trip_from_manifest(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        manifest = build_corpus(root, 2, seed=13)
        out_dir = tmp_path / "rebuilt"
        code = cli.main([
            "vocode", "--manifest", str(manifest), "--out-dir", str(out_dir),
        ])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "mean spectral convergence: " in out
        lines = (out_dir / "roundtrip.tsv").read_text().splitlines()
        assert lines[0] == "id\tspectral_convergence"
        assert len(lines) == 3
        for line in lines[1:]:
            name, gap = line.split("\t")
            assert float(gap) < 0.5
            assert (out_dir / f"{name}.wav").exists()

    def test_reconstruct_from_spectrograms(self, tmp_path, capsys):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        cfg = dsp.StftConfig()
        w = dsp.Waveform(sine(440.0, 1.0), SR)
        np.save(spec_dir / "tone.npy", dsp.stft(w, cfg).frames)
        out_dir = tmp_path / "rebuilt"
        code = cli.main([
            "vocode", "--spec-dir", str(spec_dir), "--out-dir", str(out_dir),
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        rebuilt = wavio.read_wav(out_dir / "tone.wav")
        assert rebuilt.sample_rate == SR
        lines = (out_dir / "roundtrip.tsv").read_text().splitlines()
        assert lines[1].split("\t")[0] == "tone"
        assert float(lines[1].split("\t")[1]) < 0.1

    @pytest.mark.parametrize("kind", sorted(BAD_SPECTROGRAMS))
    def test_malformed_spectrogram_is_reported_and_skipped(self, kind, tmp_path, capsys):
        spec_dir = tmp_path / "specs"
        spec_dir.mkdir()
        w = dsp.Waveform(sine(440.0, 0.5), SR)
        BAD_SPECTROGRAMS[kind](spec_dir / "a_bad.npy")
        np.save(spec_dir / "b_tone.npy", dsp.stft(w).frames)
        out_dir = tmp_path / "rebuilt"
        code = cli.main([
            "vocode", "--spec-dir", str(spec_dir), "--out-dir", str(out_dir),
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        lines = (out_dir / "roundtrip.tsv").read_text().splitlines()
        assert [line.split("\t")[0] for line in lines[1:]] == ["b_tone"]
        errors = (out_dir / "errors.tsv").read_text().splitlines()
        assert len(errors) == 2
        assert errors[1].startswith("a_bad\tvocode\t")
        assert not (out_dir / "a_bad.wav").exists()


class TestFilterCommand:
    def test_splits_and_reports(self, tmp_path, capsys):
        records = (
            corpus.UtteranceRecord("keepme", "a.wav", 3600.0, snr_db=20.0, cer=0.01),
            corpus.UtteranceRecord("lowsnr", "b.wav", 3600.0, snr_db=10.0, cer=0.01),
            corpus.UtteranceRecord("nocer", "c.wav", 3600.0, snr_db=20.0),
        )
        manifest = tmp_path / "m.tsv"
        corpus.save_manifest(corpus.Manifest(records), manifest)
        out_dir = tmp_path / "split"
        code = cli.main([
            "filter", "--manifest", str(manifest), "--out-dir", str(out_dir),
        ])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "kept 1 utterances (1.00 h)" in out
        assert "dropped 2 utterances (2.00 h)" in out
        kept = corpus.load_manifest(out_dir / "kept.tsv")
        assert kept.ids() == ["keepme"]
        dropped_lines = (out_dir / "dropped.tsv").read_text().splitlines()
        reasons = {l.split("\t")[0]: l.split("\t")[-1] for l in dropped_lines[2:]}
        assert reasons == {"lowsnr": "low-snr", "nocer": "missing-field"}

    def test_cer_only_mode(self, tmp_path, capsys):
        records = (
            corpus.UtteranceRecord("a", "a.wav", 1.0, cer=0.01),
            corpus.UtteranceRecord("b", "b.wav", 1.0, cer=0.5),
        )
        manifest = tmp_path / "m.tsv"
        corpus.save_manifest(corpus.Manifest(records), manifest)
        out_dir = tmp_path / "split"
        code = cli.main([
            "filter", "--manifest", str(manifest),
            "--out-dir", str(out_dir), "--flt", "cer",
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        assert corpus.load_manifest(out_dir / "kept.tsv").ids() == ["a"]


class TestReport:
    def test_prints_summary(self, tmp_path, capsys):
        records = (
            corpus.UtteranceRecord("a", "a.wav", 1800.0, speaker="alice", snr_db=12.0, cer=0.03),
            corpus.UtteranceRecord("b", "b.wav", 1800.0, speaker="alice", snr_db=float("inf")),
        )
        manifest = tmp_path / "m.tsv"
        corpus.save_manifest(corpus.Manifest(records, "DN"), manifest)
        json_path = tmp_path / "summary.json"
        code = cli.main([
            "report", "--manifest", str(manifest), "--json", str(json_path),
        ])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "source: DN" in out
        assert "utterances: 2" in out
        assert "hours: 1.00" in out
        assert "speaker alice: 2" in out
        assert "inf: 1" in out

        payload = json.loads(json_path.read_text())
        assert payload["utterances"] == 2
        assert payload["hours"] == pytest.approx(1.0)
        assert payload["per_speaker"] == {"alice": 2}
        assert payload["snr_db"]["pos_inf"] == 1
        assert payload["cer"]["absent"] == 1


def _corpus_with_ids(root, ids, missing=()):
    """A corpus whose records carry the given ids; ids in `missing` point at no file."""
    build_corpus(root, len(ids), seed=17, with_enhanced=False)
    records = []
    for k, utterance_id in enumerate(ids):
        audio = "raw/missing.wav" if utterance_id in missing else f"raw/utt{k:03d}.wav"
        records.append(corpus.UtteranceRecord(utterance_id, audio, 1.0, text="a b", hyp_text="a b"))
    manifest = root / "manifest.tsv"
    corpus.save_manifest(corpus.Manifest(tuple(records)), manifest)
    return manifest


UNSAFE_IDS = ("../escaped", "../victim", "..", ".", "back\\slash", "nul\0byte")


@pytest.mark.parametrize("command", ["preprocess", "vocode"])
def test_unsafe_ids_touch_nothing_outside_out_dir(command, tmp_path, capsys):
    ids = ("utt000",) + UNSAFE_IDS
    manifest = _corpus_with_ids(tmp_path / "corpus", ids, missing=("../victim",))
    work = tmp_path / "work"
    work.mkdir()
    victim = work / "victim.wav"
    victim.write_bytes(b"not a wav, and must survive")
    out_dir = work / "out"
    argv = [command, "--manifest", str(manifest), "--out-dir", str(out_dir)]
    argv += ["--stages", "VN"] if command == "preprocess" else ["--iters", "2"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()

    assert victim.read_bytes() == b"not a wav, and must survive"
    outside = [p for p in work.rglob("*") if out_dir not in p.parents and p != out_dir]
    assert outside == [victim]
    assert (out_dir / "utt000.wav").exists()
    rows = [line.split("\t") for line in (out_dir / "errors.tsv").read_text().splitlines()[1:]]
    assert sorted(row[0] for row in rows) == sorted(UNSAFE_IDS)
    assert all("not a plain file name" in row[2] for row in rows)


def test_preprocess_error_rows_put_flt_after_audio_stages(tmp_path, capsys):
    root = tmp_path / "corpus"
    build_corpus(root, 5, seed=19, with_enhanced=False)
    wavio.write_wav(root / "raw" / "utt001.wav", dsp.Waveform(np.zeros(SR), SR))
    records = list(corpus.load_manifest(root / "manifest.tsv").records)
    records[0] = replace(records[0], text="!!!")  # empty once normalized
    records[2] = replace(records[2], audio_path="raw/missing.wav")
    records[3] = replace(records[3], text="!!!")
    manifest = root / "bad.tsv"
    corpus.save_manifest(corpus.Manifest(tuple(records)), manifest)
    for workers in (1, 2):
        out_dir = tmp_path / f"out{workers}"
        code = cli.main([
            "preprocess", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--stages", "FLT,VN", "--flt", "cer", "--workers", str(workers),
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        rows = (out_dir / "errors.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[:2] for row in rows] == [
            ["utt001", "VN"], ["utt002", "load"], ["utt000", "FLT"], ["utt003", "FLT"],
        ]


@pytest.mark.parametrize("command", ["vad", "snr", "vocode"])
def test_worker_count_does_not_change_outputs(command, tmp_path, capsys):
    root = tmp_path / "corpus"
    manifest = build_corpus(root, 4, seed=23)
    records = list(corpus.load_manifest(manifest).records)
    records[1] = replace(records[1], audio_path="raw/missing.wav")
    corpus.save_manifest(corpus.Manifest(tuple(records)), manifest)
    outputs = []
    for workers in (1, 2):
        out_dir = tmp_path / f"out{workers}"
        argv = [command, "--manifest", str(manifest), "--workers", str(workers)]
        if command == "vad":
            argv += ["--out-dir", str(out_dir), "--fill", "comfort_noise"]
        elif command == "snr":
            argv += ["--enhanced-dir", str(root / "enh"), "--out", str(out_dir / "scored.tsv")]
        else:
            argv += ["--out-dir", str(out_dir), "--iters", "4"]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]
    # vad and vocode: 3 wavs, manifest.tsv or roundtrip.tsv, and errors.tsv
    assert len(outputs[0]) == (2 if command == "snr" else 5)
    assert outputs[0]["errors.tsv"].decode().splitlines()[1].startswith("utt001\t")


def _voxkit_processes(argvs, cwd):
    """Run `python -m voxkit.cli` once per argv, all at once; returns (exit code, stderr) each."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "voxkit.cli"]
    procs = [
        subprocess.Popen(command + argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
        for argv in argvs
    ]
    stderrs = [p.communicate(timeout=120)[1] for p in procs]
    return [(p.returncode, stderr) for p, stderr in zip(procs, stderrs)]


def test_warnings_print_one_line_each_in_manifest_order(tmp_path):
    # Each hypothesis is far shorter than its reference, so aligning the pitch tracks
    # warns. utt000 is the longest, so at --workers 2 it finishes last.
    refs, hyps = [], []
    for k, (ref_s, hyp_s) in enumerate([(3.0, 1.0), (0.5, 0.3)]):
        for records, name, seconds in ((refs, "ref", ref_s), (hyps, "hyp", hyp_s)):
            path = tmp_path / f"{name}{k}.wav"
            wavio.write_wav(path, dsp.Waveform(sine(200.0, seconds), SR))
            records.append(corpus.UtteranceRecord(f"utt{k:03d}", path.name, seconds))
    for name, records in (("ref", refs), ("hyp", hyps)):
        corpus.save_manifest(corpus.Manifest(tuple(records)), tmp_path / f"{name}.tsv")
    argvs = [
        ["metrics", "--ref-manifest", "ref.tsv", "--hyp-manifest", "hyp.tsv", "--which", "f0",
         "--out-dir", f"out{workers}", "--workers", str(workers)]
        for workers in (1, 2)
    ]
    (code_one, stderr), (code_two, stderr_two) = _voxkit_processes(argvs, tmp_path)
    assert code_one == code_two == cli.EXIT_OK
    assert stderr == stderr_two
    lines = stderr.splitlines()
    assert [line.split(": ")[:2] for line in lines] == [
        ["warning", "utt000"], ["warning", "utt001"]
    ]
    assert all(": TrackLengthWarning: track lengths " in line for line in lines)
    assert ".py:" not in stderr


def test_other_warnings_keep_their_filters(tmp_path, monkeypatch):
    def warns(noisy, enhanced):
        warnings.warn(RuntimeWarning("not a voxkit warning"))

    monkeypatch.setattr(enhance, "estimate_snr", warns)
    build_corpus(tmp_path, 1, seed=29)
    with pytest.raises(RuntimeWarning, match="not a voxkit warning"):  # -W error::RuntimeWarning
        cli.main(_minimal_argv("snr", tmp_path))


def _minimal_argv(command, root):
    """The required arguments of each command, pointing into root."""
    manifest = str(root / "manifest.tsv")
    out_dir = str(root / "out")
    return {
        "preprocess": ["preprocess", "--manifest", manifest, "--out-dir", out_dir],
        "vad": ["vad", "--manifest", manifest, "--out-dir", out_dir],
        "metrics": [
            "metrics", "--ref-manifest", manifest, "--hyp-manifest", manifest,
            "--out-dir", out_dir,
        ],
        "snr": ["snr", "--manifest", manifest, "--enhanced-dir", str(root / "enh"),
                "--out", str(root / "out" / "scored.tsv")],
        "vocode": ["vocode", "--manifest", manifest, "--out-dir", out_dir],
        "filter": ["filter", "--manifest", manifest, "--out-dir", out_dir],
        "report": ["report", "--manifest", manifest, "--json", str(root / "out" / "r.json")],
    }[command]


POSITIVE_FLAGS = [
    (command, flag)
    for command in ("preprocess", "vad", "metrics", "snr", "vocode")
    for flag in ("--workers", "--sample-rate")
] + [("vocode", "--iters")]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, flag", POSITIVE_FLAGS)
def test_count_below_one_is_usage_error_before_any_output(command, flag, value, tmp_path, capsys):
    build_corpus(tmp_path, 1, seed=29)
    code = cli.main(_minimal_argv(command, tmp_path) + [flag, value])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: {flag} must be at least 1, got {value}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


# Flag values that would fail every utterance the same way.
CONFIG_ERRORS = [
    ("metrics", ["--which", "f0", "--win", "256", "--hop", "128"], "frame_length 256 cannot hold"),
    ("metrics", ["--which", "f0", "--sample-rate", "1000"], "sample rate 1000 is below 2 * f0_max"),
    ("metrics", ["--which", "mcd", "--mels", "13"], "n_coeffs 13 must be smaller than n_mels 13"),
    ("metrics", ["--hop", "0"], "hop_length must be positive"),
    ("metrics", ["--mels", "0"], "n_mels must be at least 1, got 0"),
    ("vad", ["--sample-rate", "12000"], "sample rate 12000 not in"),
    ("vad", ["--energy-threshold-db", "nan"], "energy_threshold_db must not be NaN"),
    ("preprocess", ["--min-snr", "nan"], "min_snr_db and max_cer must not be NaN"),
    ("preprocess", ["--stages", "VAD-2", "--sample-rate", "11025"], "sample rate 11025 not in"),
    ("filter", ["--max-cer", "nan"], "min_snr_db and max_cer must not be NaN"),
    ("vocode", ["--fft", "512"], "win_length 1024 exceeds fft_size 512"),
    ("vocode", ["--win", "512", "--hop", "512"], "vocode needs --hop at most half of --win"),
    ("vocode", ["--win", "512", "--hop", "257"], "got --hop 257 and --win 512"),
]


@pytest.mark.parametrize("command, extra, message", CONFIG_ERRORS)
def test_config_error_is_usage_error_before_any_output(command, extra, message, tmp_path, capsys):
    build_corpus(tmp_path, 1, seed=29)
    code = cli.main(_minimal_argv(command, tmp_path) + extra)
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and message in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_vocode_without_spectrograms_creates_no_out_dir(tmp_path, capsys):
    (tmp_path / "specs").mkdir()
    argv = ["vocode", "--spec-dir", str(tmp_path / "specs"), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "no .npy spectrograms found" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, extra", [
    ("metrics", ["--which", "msd", "--mels", "13"]),  # only mcd takes 13 cepstra
    ("preprocess", ["--stages", "DN,VN", "--sample-rate", "12000"]),  # no VAD stage runs
    ("metrics", ["--which", "mcd,msd,cer", "--win", "256", "--hop", "128"]),  # no f0
    ("vocode", ["--win", "512", "--hop", "256", "--iters", "2"]),  # half overlap is enough
])
def test_rate_and_cepstrum_checks_run_only_for_what_runs(command, extra, tmp_path, capsys):
    build_corpus(tmp_path, 2, seed=29)
    assert cli.main(_minimal_argv(command, tmp_path) + extra) == cli.EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "out" / "errors.tsv").read_text() == "id\tstage\terror\n"


def test_metrics_builds_one_pitch_config_per_run(tmp_path, monkeypatch, capsys):
    built = []
    post_init = dsp.StftConfig.__post_init__

    def counted_post_init(cfg):
        built.append(cfg)
        post_init(cfg)

    monkeypatch.setattr(dsp.StftConfig, "__post_init__", counted_post_init)
    build_corpus(tmp_path, 3, seed=29)
    argv = _minimal_argv("metrics", tmp_path) + ["--which", "f0", "--workers", "1"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert len(built) == 1


@pytest.fixture(scope="module")
def clean_corpus(tmp_path_factory):
    """Two clean one-second utterances with transcripts."""
    root = tmp_path_factory.mktemp("clean")
    (root / "raw").mkdir()
    records = []
    for k, freq in enumerate((220.0, 330.0)):
        utterance_id = f"utt{k:03d}"
        wavio.write_wav(root / "raw" / f"{utterance_id}.wav", dsp.Waveform(sine(freq, 1.0), SR))
        records.append(corpus.UtteranceRecord(
            utterance_id, f"raw/{utterance_id}.wav", 1.0, text="a tone", hyp_text="a tune"
        ))
    corpus.save_manifest(corpus.Manifest(tuple(records)), root / "manifest.tsv")
    return root / "manifest.tsv"


@given(
    command=st.sampled_from(["metrics", "vocode"]),
    fft=st.sampled_from([0, 1024, 2048, 4096]),
    win=st.sampled_from([256, 512, 1024, 2048]),
    hop=st.sampled_from([0, 128, 256, 512]),
    mels=st.sampled_from([0, 13, 14, 80]),
    which=st.lists(st.sampled_from(cli.METRIC_CHOICES), min_size=1, max_size=4),
    sample_rate=st.sampled_from([8000, 16000, 22050, 44100]),
)
@settings(max_examples=40, deadline=None)
# --hop equal to --win rebuilds audio far above full scale; that is not what this test checks
@pytest.mark.filterwarnings("ignore::voxkit.errors.ClippingWarning")
def test_drawn_configuration_fails_whole_or_not_at_all(
    clean_corpus, tmp_path_factory, command, fft, win, hop, mels, which, sample_rate
):
    manifest = str(clean_corpus)
    out_dir = tmp_path_factory.mktemp("drawn") / "out"
    argv = [command, "--fft", str(fft), "--win", str(win), "--hop", str(hop)]
    argv += ["--sample-rate", str(sample_rate), "--out-dir", str(out_dir)]
    if command == "metrics":
        argv += ["--ref-manifest", manifest, "--hyp-manifest", manifest]
        argv += ["--mels", str(mels), "--which", ",".join(which)]
    else:
        argv += ["--manifest", manifest, "--iters", "2"]
    code = cli.main(argv)
    if code == cli.EXIT_USAGE:
        assert not out_dir.exists()
    else:
        assert code == cli.EXIT_OK
        assert (out_dir / "errors.tsv").read_text() == "id\tstage\terror\n"


# Every (command, flag) pair that the shared flags once gave a command that never read it.
REMOVED_FLAGS = (
    [("preprocess", f) for f in ("--fft", "--win", "--hop")]
    + [("metrics", "--seed")]
    + [("vad", f) for f in ("--fft", "--win", "--hop")]
    + [("snr", f) for f in ("--seed", "--fft", "--win", "--hop")]
    + [
        (command, f)
        for command in ("filter", "report")
        for f in ("--workers", "--seed", "--sample-rate", "--fft", "--win", "--hop")
    ]
)


@pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
def test_flag_the_command_does_not_read_is_rejected(command, flag, tmp_path, capsys):
    build_corpus(tmp_path, 1, seed=29)
    with pytest.raises(SystemExit) as info:
        cli.main(_minimal_argv(command, tmp_path) + [flag, "128"])
    assert info.value.code == cli.EXIT_USAGE
    assert f"unrecognized arguments: {flag} 128" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_readme_option_table_matches_the_parser():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in section.splitlines():
        row = re.fullmatch(r"\| `(\w+)` \|(.*)\|", line)
        if row:
            flags = re.findall(r"`(--[a-z][a-z-]*)`", row.group(2))
            assert len(flags) == len(set(flags)), line
            documented[row.group(1)] = set(flags)
    declared = {
        name: {s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")}
        for name, sub in _subparsers().items()
    }
    assert documented == declared


# The CLI flag that sets each field of voxkit's *Config and *Policy dataclasses.
# MelConfig.stft is the StftConfig that --fft, --win and --hop build.
CONFIG_FLAGS = {
    "StftConfig": {"fft_size": "--fft", "win_length": "--win", "hop_length": "--hop"},
    "MelConfig": {"n_mels": "--mels", "stft": "--fft"},
    "DryWetConfig": {"dry": "--dry"},
    "VadConfig": {
        "energy_threshold_db": "--energy-threshold-db", "aggressiveness": "--aggressiveness"
    },
    "SilencePolicy": {"fill": "--fill"},
    "FilterConfig": {"min_snr_db": "--min-snr", "max_cer": "--max-cer", "mode": "--flt"},
}


def test_every_config_field_is_set_by_a_cli_flag():
    configs = {}
    for info in pkgutil.iter_modules(voxkit.__path__):
        for name, cls in vars(importlib.import_module(f"voxkit.{info.name}")).items():
            if name.endswith(("Config", "Policy")) and is_dataclass(cls):
                configs[name] = {f.name for f in fields(cls)}
    assert configs == {name: set(table) for name, table in CONFIG_FLAGS.items()}
    parsers = _subparsers().values()
    declared = {s for sub in parsers for action in sub._actions for s in action.option_strings}
    assert {flag for table in CONFIG_FLAGS.values() for flag in table.values()} <= declared


@pytest.mark.parametrize("command", ["report", "preprocess", "metrics"])
def test_manifest_that_is_not_utf8_is_an_error_with_its_line(command, tmp_path, capsys):
    build_corpus(tmp_path, 3, seed=29)
    manifest = tmp_path / "manifest.tsv"
    lines = manifest.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b"\tspk", b"\tsp\xffk")  # the speaker cell of utt001
    manifest.write_bytes(b"\n".join(lines))
    assert cli.main(_minimal_argv(command, tmp_path)) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == "error: line 4: byte 0xff is not UTF-8 (invalid start byte)\n"
    assert captured.out == ""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_spectrogram_name_that_is_not_utf8_is_an_error_row(workers, tmp_path, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    frames = dsp.stft(dsp.Waveform(sine(440.0, 0.5), SR)).frames
    for name in (os.fsdecode(b"bad\xff"), "good"):
        np.save(spec_dir / f"{name}.npy", frames)
    out_dir = tmp_path / "rebuilt"
    code = cli.main([
        "vocode", "--spec-dir", str(spec_dir), "--out-dir", str(out_dir), "--iters", "2",
        "--workers", workers,
    ])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    assert (out_dir / "errors.tsv").read_bytes() == (
        b"id\tstage\terror\n"
        b"bad\\xff\tvocode\tutterance id 'bad\\udcff' is not a plain file name\n"
    )
    assert sorted(p.name for p in out_dir.glob("*.wav")) == ["good.wav"]


def test_tab_or_newline_in_spectrogram_name_is_an_error_row(tmp_path, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    frames = dsp.stft(dsp.Waveform(sine(440.0, 0.5), SR)).frames
    bad_names = ("tab\there", "new\nline", "carriage\rreturn")
    for name in bad_names + ("tone",):
        np.save(spec_dir / f"{name}.npy", frames)
    out_dir = tmp_path / "rebuilt"
    code = cli.main([
        "vocode", "--spec-dir", str(spec_dir), "--out-dir", str(out_dir), "--iters", "2",
    ])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    lines = (out_dir / "roundtrip.tsv").read_text().split("\n")
    assert [line.split("\t")[0] for line in lines[1:-1]] == ["tone"]
    errors = (out_dir / "errors.tsv").read_text().split("\n")[:-1]
    assert len(errors) == 1 + len(bad_names)
    assert all(len(line.split("\t")) == 3 for line in errors)
    assert all("not a plain file name" in line for line in errors[1:])
    assert sorted(p.name for p in out_dir.glob("*.wav")) == ["tone.wav"]


def _run_bytes(argv, out_dir, capsys):
    assert cli.main(argv + ["--out-dir", str(out_dir)]) == cli.EXIT_OK
    capsys.readouterr()
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_stft_and_seed_flags_reach_the_code(tmp_path, capsys):
    root = tmp_path / "corpus"
    manifest = str(build_corpus(root, 2, seed=31))
    vocode = ["vocode", "--manifest", manifest, "--iters", "2"]
    default = _run_bytes(vocode, tmp_path / "v0", capsys)
    hop = _run_bytes(vocode + ["--hop", "128"], tmp_path / "v1", capsys)
    assert default["roundtrip.tsv"] != hop["roundtrip.tsv"]
    assert default["utt000.wav"] != hop["utt000.wav"]

    hyp = tuple(
        replace(r, audio_path=f"enh/{r.utterance_id}.enhanced.wav")
        for r in corpus.load_manifest(manifest)
    )
    corpus.save_manifest(corpus.Manifest(hyp), root / "hyp.tsv")
    f0 = ["metrics", "--ref-manifest", manifest, "--hyp-manifest", str(root / "hyp.tsv")]
    f0 += ["--which", "f0"]
    default = _run_bytes(f0, tmp_path / "m0", capsys)
    hop = _run_bytes(f0 + ["--hop", "128"], tmp_path / "m1", capsys)
    assert default["report.tsv"] != hop["report.tsv"]

    fill = ["preprocess", "--manifest", manifest, "--stages", "VAD-1", "--fill", "comfort_noise"]
    seeded = [_run_bytes(fill + ["--seed", s], tmp_path / f"p{s}", capsys) for s in "01"]
    assert seeded[0]["manifest.tsv"] == seeded[1]["manifest.tsv"]
    assert seeded[0]["utt000.wav"] != seeded[1]["utt000.wav"]


def test_log_mel_failure_gives_mcd_and_msd_rows(tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise VoxkitError("no log-mel")

    monkeypatch.setattr(metrics, "log_mel_pair", fail)
    manifest = str(build_corpus(tmp_path / "corpus", 2, seed=37))
    out = _run_bytes(
        ["metrics", "--ref-manifest", manifest, "--hyp-manifest", manifest], tmp_path / "m", capsys
    )
    rows = [line.split("\t") for line in out["errors.tsv"].decode().splitlines()[1:]]
    assert rows == [[u, m, "no log-mel"] for u in ("utt000", "utt001") for m in ("mcd", "msd")]
    report = [line.split("\t") for line in out["report.tsv"].decode().splitlines()[1:-1]]
    assert [row[1:4] for row in report] == [["", "", "0.0"]] * 2  # mcd, msd absent; gpe kept
