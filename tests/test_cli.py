import argparse
import contextlib
import errno
import gc
import importlib
import io
import json
import os
import pkgutil
import re
import shlex
import struct
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxkit
from voxkit import cli, corpus, dsp, enhance, metrics, wavio
from voxkit.errors import VoxkitError
from conftest import build_corpus, failing_open, sine
from oracles import write_wav_scipy

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

    @pytest.mark.filterwarnings("ignore::voxkit.errors.TruncatedWavWarning")
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

    @pytest.mark.parametrize("stages, tag", [
        ("DN,VAD-2,FLT,VN", "DN+VAD-2+FLT-dropped"),
        ("FLT,VN", "Raw+FLT-dropped"),  # as `filter` tags a Raw manifest's dropped rows
    ])
    def test_dropped_report_is_tagged_with_the_chain_before_flt(
        self, stages, tag, tmp_path, capsys
    ):
        root = tmp_path / "corpus"
        manifest = build_corpus(root, 2, seed=7)
        out_dir = tmp_path / "out"
        code = cli.main([
            "preprocess", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--stages", stages, "--enhanced-dir", str(root / "enh"),
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        assert (out_dir / "dropped.tsv").read_text().splitlines()[0] == f"# source: {tag}"

    def test_dropped_report_takes_the_duration_at_flts_place(self, tmp_path, capsys):
        # FLT runs before VAD-2, so a dropped row's duration is its input audio's,
        # not the trimmed length of a WAV that is then deleted.
        root = tmp_path / "corpus"
        manifest = build_corpus(root, 4, seed=7)
        out_dir = tmp_path / "out"
        code = cli.main([
            "preprocess", "--manifest", str(manifest), "--out-dir", str(out_dir),
            "--stages", "FLT,VAD-2",
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        lines = (out_dir / "dropped.tsv").read_text().splitlines()[2:]
        rows = [line.split("\t") for line in lines]
        assert [row[0] for row in rows] == ["utt000", "utt001", "utt002", "utt003"]
        for row in rows:
            assert float(row[2]) == wavio.read_wav(out_dir / row[1]).duration_s

    @pytest.mark.parametrize("stages, columns", [
        ("DN,VAD-2,FLT,VN", ["raw all", "raw all", "trimmed all", "trimmed kept", "final kept"]),
        ("FLT,VAD-2,VN", ["raw all", "raw kept", "trimmed kept", "final kept"]),
    ])
    def test_stage_table_sums_the_durations_alive_at_each_stage(
        self, stages, columns, tmp_path, monkeypatch, capsys
    ):
        # columns: for each row, whose durations it sums and over which ids
        root = tmp_path / "corpus"
        manifest = build_corpus(root, 6, seed=7)
        tables = []
        monkeypatch.setattr(cli, "_print_stage_table", tables.append)
        common = ["--manifest", str(manifest), "--enhanced-dir", str(root / "enh"), "--flt", "cer"]
        # The chain without FLT keeps every trimmed WAV; VN leaves their lengths as they are.
        for out, chain in (("out", stages), ("all", stages.replace("FLT,", ""))):
            argv = ["preprocess", "--out-dir", str(tmp_path / out), "--stages", chain]
            assert cli.main(argv + common) == cli.EXIT_OK
        capsys.readouterr()

        ids = {"all": corpus.load_manifest(manifest).ids()}
        ids["kept"] = corpus.load_manifest(tmp_path / "out" / "manifest.tsv").ids()
        assert 0 < len(ids["kept"]) < len(ids["all"])
        dirs = {"raw": root / "raw", "trimmed": tmp_path / "all", "final": tmp_path / "out"}
        names = stages.split(",")
        labels = ["Raw"] + ["+".join(names[:k]) for k in range(1, len(names) + 1)]
        expected = []
        for label, column in zip(labels, columns):
            audio, alive = column.split()
            seconds = [wavio.read_wav(dirs[audio] / f"{i}.wav").duration_s for i in ids[alive]]
            expected.append((label, sum(seconds) / 3600.0, len(ids[alive])))
        assert tables[0] == expected  # the run with FLT comes first

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

    def test_id_mismatch_names_the_ids_and_writes_nothing(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        loaded = corpus.load_manifest(build_corpus(root, 3, seed=9))
        hyp_manifest = root / "hyp.tsv"
        extra = replace(loaded.records[0], utterance_id="zzz")
        corpus.save_manifest(corpus.Manifest(loaded.records[:2] + (extra,), "hyp"), hyp_manifest)
        out_dir = tmp_path / "r"
        code = cli.main([
            "metrics", "--ref-manifest", str(root / "manifest.tsv"),
            "--hyp-manifest", str(hyp_manifest), "--out-dir", str(out_dir),
        ])
        assert code == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == (
            "usage error: manifests do not cover the same utterances; "
            "only in reference: ['utt002']; only in hypothesis: ['zzz']\n"
        )
        assert captured.out == ""
        assert not out_dir.exists()

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
            "--out-dir", str(out.parent),
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
            "--out-dir", str(out_dir),
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
        if kind == "header_unclosed":  # the message of a TokenError, not its args tuple
            assert "(" not in errors[1].split("\t")[2]
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


@pytest.mark.parametrize("command", ["vad", "preprocess"])
def test_id_too_long_for_a_file_name_is_an_error_row(command, tmp_path, capsys):
    # With .wav, 255 bytes fit in a file name and 256 do not.
    long_id, too_long, longest = "x" * 300, "z" * 252, "y" * 251
    manifest = _corpus_with_ids(tmp_path / "corpus", ("ok", long_id, too_long, longest))
    outputs = []
    for workers in ("1", "2"):
        out_dir = tmp_path / f"out{workers}"
        argv = [command, "--manifest", str(manifest), "--out-dir", str(out_dir)]
        argv += ["--workers", workers] + (["--stages", "VN"] if command == "preprocess" else [])
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == sorted(["errors.tsv", "manifest.tsv", "ok.wav", f"{longest}.wav"])
    message = "utterance id is too long for a file name: {} bytes with .wav, over 255"
    assert outputs[0]["errors.tsv"].decode() == (
        "id\tstage\terror\n"
        f"{long_id}\tload\t{message.format(304)}\n"
        f"{too_long}\tload\t{message.format(256)}\n"
    )
    assert corpus.load_manifest(tmp_path / "out1" / "manifest.tsv").ids() == ["ok", longest]


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
        argv += ["--out-dir", str(out_dir)]
        if command == "vad":
            argv += ["--fill", "comfort_noise"]
        elif command == "snr":
            argv += ["--enhanced-dir", str(root / "enh")]
        else:
            argv += ["--iters", "4"]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]
    # vad and vocode: 3 wavs, manifest.tsv or roundtrip.tsv, and errors.tsv; snr: no wavs
    assert len(outputs[0]) == (2 if command == "snr" else 5)
    assert outputs[0]["errors.tsv"].decode().splitlines()[1].startswith("utt001\t")


# Objects made before the test runs ("early") and by it ("late"), which a forked worker shares.
_PROBES = {"early": []}


def _frozen(name):
    """Whether the probe is frozen: gc.get_objects lists every generation but the frozen one."""
    return not any(o is _PROBES[name] for o in gc.get_objects())


def _probes_frozen_where_run(utterance_id, item, args, cfg, stage):
    """A per-utterance function for cli._run_utterances: whether each probe is frozen where
    it runs, or the error its item names."""
    if item is not None:
        raise item
    return _frozen("early"), _frozen("late")


@pytest.mark.parametrize("caller_froze", [False, True], ids=["unfrozen", "caller-froze"])
@pytest.mark.parametrize("workers", [1, 2])
def test_the_map_runs_on_a_frozen_heap_and_leaves_the_freeze_as_it_found_it(
    workers, caller_froze, tmp_path
):
    args = argparse.Namespace(workers=workers)
    run = partial(cli._run_utterances, _probes_frozen_where_run, args=args, cfg={}, stage="x")
    assert gc.get_freeze_count() == 0
    if caller_froze:
        gc.freeze()
    _PROBES["late"] = []
    try:
        values, rows = run({"a": None, "b": VoxkitError("unreadable"), "c": None})
        assert rows == [("b", "x", "unreadable")] and values["b"] is None
        # The runner froze the heap for the map, here or in the forked worker; a caller's
        # freeze it neither redid nor undid.
        assert values["a"] == values["c"] == (True, not caller_froze)
        assert (_frozen("early"), _frozen("late")) == (caller_froze, False)
        with pytest.raises(RuntimeError, match="escapes"):  # not an utterance failure
            run({"d": RuntimeError("escapes")})
        assert (_frozen("early"), _frozen("late")) == (caller_froze, False)
        assert (gc.get_freeze_count() > 0) == caller_froze
    finally:
        gc.unfreeze()


def _corpus_with_unusable_audio(root):
    """0.25 s WAVs: a NaN sample, an infinite one, no samples, and a tone, with the tone's
    enhanced twin for each, plus .npy spectrograms holding a NaN, an inf, no frames and a tone."""
    tone = dsp.Waveform(sine(440.0, 0.25), SR)
    (root / "enh").mkdir(parents=True)
    (root / "specs").mkdir()
    records = []
    for name, value in (("a_nan", np.nan), ("b_inf", np.inf), ("c_empty", None), ("d_tone", 0)):
        samples, frames = tone.samples.astype(np.float32), dsp.stft(tone).frames
        if value is None:
            samples, frames = samples[:0], frames[:0]
        else:
            samples[100] = frames[3, 7] = value
        write_wav_scipy(root / f"{name}.wav", SR, samples)
        wavio.write_wav(root / "enh" / f"{name}.enhanced.wav", tone)
        np.save(root / "specs" / f"{name}.npy", frames)
        records.append(corpus.UtteranceRecord(name, f"{name}.wav", 0.25, "a b", "a b"))
    corpus.save_manifest(corpus.Manifest(tuple(records)), root / "manifest.tsv")
    return root / "manifest.tsv"


@pytest.mark.parametrize("command, stage, output", [
    ("preprocess", "load", "manifest.tsv"),
    ("metrics", "audio", "report.tsv"),
    ("snr", "snr", "manifest.tsv"),
    ("vocode", "vocode", "roundtrip.tsv"),
    ("vocode --spec-dir", "vocode", "roundtrip.tsv"),
])
def test_non_finite_or_empty_audio_is_one_error_row_each(command, stage, output, tmp_path, capsys):
    manifest = str(_corpus_with_unusable_audio(tmp_path / "corpus"))
    outputs = []
    for workers in ("1", "2"):
        out_dir = str(tmp_path / f"out{workers}")
        argv = {
            "preprocess": ["preprocess", "--manifest", manifest, "--out-dir", out_dir],
            "metrics": ["metrics", "--ref-manifest", manifest, "--hyp-manifest", manifest,
                        "--out-dir", out_dir],
            "snr": ["snr", "--manifest", manifest, "--enhanced-dir", str(tmp_path / "corpus/enh"),
                    "--out-dir", out_dir],
            "vocode": ["vocode", "--manifest", manifest, "--out-dir", out_dir, "--iters", "2"],
            "vocode --spec-dir": ["vocode", "--spec-dir", str(tmp_path / "corpus/specs"),
                                  "--out-dir", out_dir, "--iters", "2"],
        }[command]
        assert cli.main(argv + ["--workers", workers]) == cli.EXIT_OK
        assert capsys.readouterr().err == ""
        outputs.append({p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())})
    assert outputs[0] == outputs[1]
    if command == "vocode --spec-dir":
        errors = (
            "a_nan\tvocode\tfeature matrix contains NaN or infinite entries\n"
            "b_inf\tvocode\tfeature matrix contains NaN or infinite entries\n"
            "c_empty\tvocode\tfeature matrix must be 2-D and non-empty, got shape (0, 513)\n"
        )
    else:
        errors = (
            f"a_nan\t{stage}\twaveform contains NaN or infinite samples\n"
            f"b_inf\t{stage}\twaveform contains NaN or infinite samples\n"
            f"c_empty\t{stage}\tcannot resample an empty signal\n"
        )
    assert outputs[0]["errors.tsv"].decode() == "id\tstage\terror\n" + errors
    # Only the tone has values: a failed utterance has no row, or a row of empty cells.
    rows = [line.split("\t") for line in outputs[0][output].decode().splitlines()]
    names = ("a_nan", "b_inf", "c_empty", "d_tone")
    assert [row[0] for row in rows if row[0] in names and any(row[1:])] == ["d_tone"]


def _voxkit_processes(argvs, cwd, envs=None):
    """Run `python -m voxkit.cli` once per argv, all at once; returns (exit code, stderr) each.

    envs, if given, holds one dict of environment variables to set per argv.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "voxkit.cli"]
    procs = [
        subprocess.Popen(command + argv, cwd=cwd, env={**env, **extra}, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
        for argv, extra in zip(argvs, envs or [{}] * len(argvs))
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


def test_blas_thread_count_does_not_change_outputs(tmp_path):
    # hyp is ref scaled by 1 + 2**-18, so mcd and msd are small enough that a
    # reordered sum shows in their digits; 1 s is 87 frames, over the size at
    # which OpenBLAS splits a matrix product or a dot product between threads
    rng = np.random.default_rng(5)
    ref = (sine(180.0, 1.0) + 0.05 * rng.standard_normal(SR)).astype(np.float32)
    header = "id\taudio\tduration_s\ttext\thyp_text\tsnr_db\tcer\tspeaker\n"
    for name, samples in (("ref", ref), ("hyp", ref * np.float32(1 + 2**-18))):
        write_wav_scipy(tmp_path / f"{name}.wav", SR, samples)
        (tmp_path / f"{name}.tsv").write_text(f"{header}u\t{name}.wav\t1.0\t\t\t\t\t\n")
    argvs, envs = [], []
    for threads in ("1", "2"):
        argvs += [
            ["metrics", "--ref-manifest", "ref.tsv", "--hyp-manifest", "hyp.tsv",
             "--which", "mcd,msd", "--out-dir", f"metrics{threads}"],
            ["vocode", "--manifest", "ref.tsv", "--iters", "2", "--out-dir", f"vocode{threads}"],
        ]
        envs += [{"OPENBLAS_NUM_THREADS": threads}] * 2
    results = _voxkit_processes(argvs, tmp_path, envs)
    assert results == [(cli.EXIT_OK, "")] * 4
    for command in ("metrics", "vocode"):
        one, two = (
            {p.name: p.read_bytes() for p in sorted((tmp_path / f"{command}{n}").iterdir())}
            for n in (1, 2)
        )
        assert one == two
    assert len(one) == 3  # u.wav, roundtrip.tsv and errors.tsv


def test_wav_cut_inside_its_data_is_read_short_with_a_warning_line(tmp_path):
    manifest = build_corpus(tmp_path, 3, seed=12, with_enhanced=False)
    cut = tmp_path / "raw" / "utt001.wav"
    riff_size = len(cut.read_bytes())
    cut.write_bytes(cut.read_bytes()[:3000])
    argvs = [
        ["preprocess", "--manifest", manifest.name, "--stages", "VN", "--out-dir", f"out{workers}",
         "--workers", str(workers)]
        for workers in (1, 2)
    ]
    (code_one, stderr), (code_two, stderr_two) = _voxkit_processes(argvs, tmp_path)
    assert code_one == code_two == cli.EXIT_OK
    assert stderr == stderr_two == (
        "warning: utt001: TruncatedWavWarning: raw/utt001.wav: file ends inside the data chunk; "
        f"read {(3000 - 44) // 2} of {(riff_size - 44) // 2} samples\n"
    )
    for out_dir in ("out1", "out2"):
        assert (tmp_path / out_dir / "errors.tsv").read_text() == "id\tstage\terror\n"
        short = corpus.load_manifest(tmp_path / out_dir / "manifest.tsv").records[1]
        assert short.duration_s == (3000 - 44) // 2 / SR


def test_other_warnings_keep_their_filters(tmp_path, monkeypatch):
    def warns(noisy, enhanced):
        warnings.warn(RuntimeWarning("not a voxkit warning"))

    monkeypatch.setattr(enhance, "estimate_snr", warns)
    build_corpus(tmp_path, 1, seed=29)
    with pytest.raises(RuntimeWarning, match="not a voxkit warning"):  # -W error::RuntimeWarning
        cli.main(_minimal_argv("snr", tmp_path))


def test_other_warnings_reach_the_caller_and_get_no_id_line(tmp_path, monkeypatch, capsys):
    def warns(noisy, enhanced):
        warnings.warn(UserWarning("not a voxkit warning"))
        return 20.0

    monkeypatch.setattr(enhance, "estimate_snr", warns)
    build_corpus(tmp_path, 2, seed=29)
    with pytest.warns(UserWarning, match="not a voxkit warning") as record:
        assert cli.main(_minimal_argv("snr", tmp_path)) == cli.EXIT_OK
    assert [str(w.message) for w in record] == ["not a voxkit warning"] * 2
    assert "warning: " not in capsys.readouterr().err
    assert (tmp_path / "out" / "errors.tsv").read_text() == "id\tstage\terror\n"


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
                "--out-dir", out_dir],
        "vocode": ["vocode", "--manifest", manifest, "--out-dir", out_dir],
        "filter": ["filter", "--manifest", manifest, "--out-dir", out_dir],
        "report": ["report", "--manifest", manifest, "--json", str(root / "out" / "r.json")],
    }[command]


@pytest.mark.parametrize("command", list(cli.OUTPUTS))
def test_configure_touches_no_file(command, tmp_path, monkeypatch):
    build_corpus(tmp_path, 1, seed=29)
    args = cli.build_parser().parse_args(_minimal_argv(command, tmp_path))
    touched = []

    def spy(name, real):
        return lambda *a, **k: touched.append(name) or real(*a, **k)

    with monkeypatch.context() as m:
        for name in ("stat", "lstat", "mkdir", "makedirs", "listdir", "scandir"):
            m.setattr(os, name, spy(name, getattr(os, name)))
        cli._configure(args)
    assert touched == []


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


# Flag values that would fail every utterance the same way, keyed by a fixed case number that
# names the case's test id, so removing a case renames no other; a number is never reused.
CONFIG_ERRORS = [
    pytest.param(command, extra, message, id=f"{command}-extra{number}-{message}")
    for number, (command, extra, message) in {
        0: ("metrics", ["--which", "f0", "--win", "256", "--hop", "128"],
            "frame_length 256 cannot hold"),
        1: ("metrics", ["--which", "f0", "--sample-rate", "1000"],
            "sample rate 1000 is below 2 * f0_max"),
        2: ("metrics", ["--which", "mcd", "--mels", "13"],
            "n_coeffs 13 must be smaller than n_mels 13"),
        3: ("metrics", ["--hop", "0"], "hop_length must be positive"),
        4: ("metrics", ["--mels", "0"], "n_mels must be at least 1, got 0"),
        6: ("vad", ["--energy-threshold-db", "nan"], "energy_threshold_db must not be NaN"),
        7: ("preprocess", ["--min-snr", "nan"], "min_snr_db and max_cer must not be NaN"),
        9: ("filter", ["--max-cer", "nan"], "min_snr_db and max_cer must not be NaN"),
        10: ("vocode", ["--fft", "512"], "win_length 1024 exceeds fft_size 512"),
        11: ("vocode", ["--win", "512", "--hop", "512"],
             "vocode needs --hop at most half of --win"),
        12: ("vocode", ["--win", "512", "--hop", "257"], "got --hop 257 and --win 512"),
        13: ("preprocess", ["--stages", "FLT,VN,FLT"],
             "--stages may name FLT only once, got 'FLT,VN,FLT'"),
        14: ("preprocess", ["--sample-rate", "2147483648"],
             "--sample-rate 2147483648 does not fit a 16-bit WAV header"),
        15: ("vad", ["--sample-rate", "2147483648"],
             "--sample-rate 2147483648 does not fit a 16-bit WAV header"),
        16: ("vocode", ["--sample-rate", "2147483648"],
             "--sample-rate 2147483648 does not fit a 16-bit WAV header"),
    }.items()
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
    ("vad", ["--sample-rate", "12000"]),  # the VAD frames 10 ms at any rate
    ("preprocess", ["--stages", "VAD-2", "--sample-rate", "11025"]),
])
def test_rate_and_cepstrum_checks_run_only_for_what_runs(command, extra, tmp_path, capsys):
    build_corpus(tmp_path, 2, seed=29)
    assert cli.main(_minimal_argv(command, tmp_path) + extra) == cli.EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "out" / "errors.tsv").read_text() == "id\tstage\terror\n"


@pytest.mark.parametrize("rate", [11025, 12000, 24000, 32000])
@pytest.mark.parametrize("command, extra, level", [
    ("vad", [], 1), ("preprocess", ["--stages", "VAD-2"], 2)
], ids=["vad", "VAD-2"])
def test_vad_trims_at_the_corpus_rate_without_resampling(
    command, extra, level, rate, tmp_path, capsys
):
    manifest = build_corpus(tmp_path / "corpus", 2, seed=31, sr=rate, with_enhanced=False)
    outputs = []
    for workers in ("1", "2"):
        out_dir = tmp_path / f"out{workers}"
        argv = [command, "--manifest", str(manifest), "--out-dir", str(out_dir), *extra]
        argv += ["--sample-rate", str(rate), "--workers", workers]
        assert cli.main(argv) == cli.EXIT_OK
        capsys.readouterr()
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]
    assert outputs[0]["errors.tsv"] == b"id\tstage\terror\n"
    vad = enhance.VadConfig(aggressiveness=level)
    for record in corpus.load_manifest(manifest):
        w = wavio.read_wav(corpus.resolve_audio_path(record, manifest))
        assert w.sample_rate == rate
        seed = cli.derive_seed(0, record.utterance_id)
        wavio.write_wav(tmp_path / "expected.wav", enhance.trim_and_compress(
            w, enhance.vad_label(w, vad), enhance.SilencePolicy(), seed=seed
        ))
        expected = (tmp_path / "expected.wav").read_bytes()
        assert outputs[0][f"{record.utterance_id}.wav"] == expected


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records each pool's size and maps in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, iterable):
        return map(fn, iterable)


@pytest.mark.parametrize("workers, utterances, pools", [("8", 3, [3]), ("4", 1, []), ("2", 0, [])])
def test_pool_has_at_most_one_process_per_utterance(
    workers, utterances, pools, tmp_path, monkeypatch, capsys
):
    monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    manifest = build_corpus(tmp_path, utterances, seed=29, with_enhanced=False)
    argv = ["vad", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv + ["--workers", workers]) == cli.EXIT_OK
    assert capsys.readouterr().out.endswith(f"wrote {utterances} utterances to "
                                            f"{tmp_path / 'out' / 'manifest.tsv'} (0 errors)\n")
    assert _RecordingPool.sizes == pools


def _out_dir_over_inputs(raw, out_dir, layout):
    """Make out_dir reach the input WAVs in raw; returns the ids whose output would hit one."""
    if layout == "inputs dir":
        return raw, ["utt000", "utt001", "utt002"]
    if layout == "dir link":
        out_dir.symlink_to(raw, target_is_directory=True)
        return out_dir, ["utt000", "utt001", "utt002"]
    out_dir.mkdir()
    link = os.symlink if layout == "file link" else os.link
    link(raw / "utt001.wav", out_dir / "utt001.wav")
    return out_dir, ["utt001"]


@pytest.mark.parametrize("layout", ["inputs dir", "dir link", "file link", "hard link"])
@pytest.mark.parametrize("command", ["preprocess", "vad", "vocode"])
def test_out_dir_that_would_overwrite_the_input_audio_is_usage_error(
    command, layout, tmp_path, capsys
):
    manifest = build_corpus(tmp_path, 3, seed=37, with_enhanced=False)
    raw = tmp_path / "raw"
    out_dir, clashes = _out_dir_over_inputs(raw, tmp_path / "out", layout)
    before = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    argv = [command, "--manifest", str(manifest), "--out-dir", str(out_dir)]
    argv += {"preprocess": ["--stages", "DN,FLT"], "vad": [], "vocode": ["--iters", "2"]}[command]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: --out-dir would overwrite the input audio of {clashes}\n"
    assert captured.out == ""
    assert {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()} == before


@pytest.mark.parametrize("workers", ["1", "2"])
def test_out_dir_that_would_overwrite_an_enhanced_input_is_usage_error(workers, tmp_path, capsys):
    # DN reads u1's enhanced audio from enh/u1.enhanced.wav, which is where the id u1.enhanced
    # would write its output.
    (tmp_path / "raw").mkdir()
    (tmp_path / "enh").mkdir()
    records = []
    for utterance_id in ("u1", "u1.enhanced"):
        audio = sine(220.0, 0.5)
        wavio.write_wav(tmp_path / "raw" / f"{utterance_id}.wav", dsp.Waveform(audio, SR))
        wavio.write_wav(tmp_path / "enh" / f"{utterance_id}.enhanced.wav",
                        dsp.Waveform(0.5 * audio, SR))
        records.append(corpus.UtteranceRecord(utterance_id, f"raw/{utterance_id}.wav", 0.5))
    manifest = tmp_path / "manifest.tsv"
    corpus.save_manifest(corpus.Manifest(tuple(records), "Raw"), manifest)
    before = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    enh = str(tmp_path / "enh")
    argv = ["preprocess", "--manifest", str(manifest), "--stages", "DN", "--enhanced-dir", enh]
    assert cli.main(argv + ["--out-dir", enh, "--workers", workers]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (
        "usage error: --out-dir would overwrite the input audio of ['u1.enhanced']\n"
    )
    assert captured.out == ""
    assert {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()} == before


@pytest.mark.parametrize("workers", ["1", "2"])
def test_out_dir_that_would_make_an_input_before_it_is_read_is_usage_error(
    workers, tmp_path, capsys
):
    # zzz's audio is out/utt000.wav, which does not exist yet: the run would write it as
    # utt000's output, then read it as zzz's input.
    manifest = build_corpus(tmp_path, 2, seed=37, with_enhanced=False)
    records = corpus.load_manifest(manifest).records
    zzz = corpus.UtteranceRecord("zzz", "out/utt000.wav", 1.0)
    corpus.save_manifest(corpus.Manifest(records + (zzz,), "Raw"), manifest)
    before = _files(tmp_path)
    argv = ["vad", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv + ["--workers", workers]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "usage error: --out-dir would overwrite the input audio of ['utt000']\n"
    assert captured.out == ""
    assert _files(tmp_path) == before
    assert not (tmp_path / "out").exists()


def _nul_in_audio_cell(root):
    """A 3-utterance corpus whose manifest names utt001's audio with a NUL byte."""
    manifest = build_corpus(root, 3, seed=37)
    text = manifest.read_text(encoding="utf-8")
    manifest.write_text(text.replace("raw/utt001.wav", "raw/utt001\0.wav"), encoding="utf-8")
    return manifest


@pytest.mark.parametrize("command, stage", [("vad", "load"), ("metrics", "audio")])
def test_nul_byte_in_an_audio_cell_fails_only_its_utterance(command, stage, tmp_path, capsys):
    _nul_in_audio_cell(tmp_path)
    written = []
    for workers in ("1", "2"):
        argv = _minimal_argv(command, tmp_path) + ["--workers", workers]
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out.endswith(" (1 errors)\n")
        written.append(_files(tmp_path / "out"))
        (tmp_path / "out").rename(tmp_path / f"out{workers}")
    assert written[0] == written[1]
    name = tmp_path / "raw" / "utt001\0.wav"
    assert written[0][tmp_path / "out" / "errors.tsv"].decode() == (
        f"id\tstage\terror\nutt001\t{stage}\t[Errno 2] no file name holds a NUL byte: "
        f"{str(name)!r}\n"
    )
    if command == "vad":
        assert {p.name for p in written[0] if p.suffix == ".wav"} == {"utt000.wav", "utt002.wav"}
    else:
        report = (tmp_path / "out1" / "report.tsv").read_text().splitlines()
        assert [row.split("\t")[0] for row in report[1:]] == ["utt000", "utt001", "utt002", "mean"]


@pytest.mark.parametrize("command", ["report", "filter"])
def test_nul_byte_in_an_audio_cell_leaves_the_table_commands_working(command, tmp_path, capsys):
    _nul_in_audio_cell(tmp_path)
    assert cli.main(_minimal_argv(command, tmp_path)) == cli.EXIT_OK
    capsys.readouterr()


def test_unreadable_manifest_is_a_read_error_before_any_overwrite_check(tmp_path, capsys):
    manifest = tmp_path / "m.tsv"
    manifest.write_text("garbage\n")
    argv = ["report", "--manifest", str(manifest), "--json", str(manifest)]
    assert cli.main(argv) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {manifest}: line 1: expected header")
    assert captured.out == ""
    assert manifest.read_text() == "garbage\n"


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command, stage", [
    ("preprocess", "VN"), ("vad", "VAD-1"), ("vocode", "vocode")
])
def test_a_failed_wav_write_leaves_no_wav(command, stage, workers, tmp_path, monkeypatch, capsys):
    # The disk fills after utt001.wav's header: that utterance gets its row and no WAV.
    build_corpus(tmp_path, 3, seed=41)
    full = OSError(errno.ENOSPC, "No space left on device")
    monkeypatch.setattr(wavio, "open", failing_open("utt001.wav", full), raising=False)
    argv = _minimal_argv(command, tmp_path) + ["--workers", workers]
    if command == "preprocess":
        argv += ["--stages", "DN,VAD-1,VN"]  # no FLT, which would drop utt000
    elif command == "vocode":
        argv += ["--iters", "2"]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    out_dir = tmp_path / "out"
    assert (out_dir / "errors.tsv").read_text() == (
        f"id\tstage\terror\nutt001\t{stage}\t[Errno 28] No space left on device\n"
    )
    assert sorted(p.name for p in out_dir.glob("*.wav")) == ["utt000.wav", "utt002.wav"]


@pytest.mark.parametrize("k", [0, 3])
def test_an_interrupted_rerun_leaves_no_table_of_the_earlier_run(k, tmp_path, monkeypatch, capsys):
    # Ctrl-C during the write of utt00k. A forked worker keeps its own count of writes, so
    # the interrupt is tied to one id, which fails the same way at any worker count.
    manifest = build_corpus(tmp_path, 6, seed=41)
    marker, real_write = b"written by the earlier run", wavio.write_wav

    def stopped(path, w):
        if Path(path).name == f"utt00{k}.wav":
            raise KeyboardInterrupt
        real_write(path, w)

    for command in ("vad", "preprocess"):
        for workers in ("1", "2"):
            out_dir = tmp_path / f"{command}{workers}"
            argv = [command, "--manifest", str(manifest), "--out-dir", str(out_dir)]
            assert cli.main(argv + ["--workers", workers]) == cli.EXIT_OK
            assert {"manifest.tsv", "errors.tsv"} <= {p.name for p in out_dir.iterdir()}
            for wav in out_dir.glob("*.wav"):
                wav.write_bytes(marker)
            inputs = _files_outside(tmp_path, out_dir)
            with monkeypatch.context() as patch:
                patch.setattr(wavio, "write_wav", stopped)
                with pytest.raises(KeyboardInterrupt):
                    cli.main(argv + ["--workers", workers, "--energy-threshold-db", "-20"])
            capsys.readouterr()
            left = _files(out_dir)
            # the first run's tables would misdescribe the WAVs, and its WAVs the tables
            assert not {p.name for p in left} & {"manifest.tsv", "errors.tsv", "dropped.tsv"}
            assert marker not in left.values(), (command, workers)
            assert _files_outside(tmp_path, out_dir) == inputs


def test_a_declared_output_that_is_a_link_is_replaced_not_written_through(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 2, seed=43)
    outside = tmp_path / "elsewhere.tsv"
    outside.write_text("kept\n")
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "manifest.tsv").symlink_to(outside)
    argv = ["vad", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    assert outside.read_text() == "kept\n"
    written = tmp_path / "out" / "manifest.tsv"
    assert not written.is_symlink() and written.read_text().startswith("# source: ")


def _link_out(out_dir, root):
    """utt000.wav links to a file outside out_dir."""
    (root / "victim.bin").write_bytes(b"outside")
    (out_dir / "utt000.wav").symlink_to(root / "victim.bin")


def _link_sibling(out_dir, root):
    """utt001.wav links to utt000.wav, which does not exist yet."""
    (out_dir / "utt001.wav").symlink_to("utt000.wav")


def _stale(out_dir, root):
    """out_dir holds an earlier run's WAVs, and utt001's input no longer reads."""
    for k in range(3):
        (out_dir / f"utt00{k}.wav").write_bytes(b"earlier")
    (root / "raw" / "utt001.wav").write_bytes(b"not a WAV")


def _directory(out_dir, root):
    """utt001.wav is a directory."""
    (out_dir / "utt001.wav").mkdir()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("command", ["preprocess", "vad", "vocode"])
@pytest.mark.parametrize("prepare", [_link_out, _link_sibling, _stale, _directory])
def test_each_id_wav_is_written_as_a_new_file(prepare, command, workers, tmp_path, capsys):
    manifest = build_corpus(tmp_path, 3, seed=47, with_enhanced=False)
    argv = [command, "--manifest", str(manifest), *KEEP_EVERY_WAV[command]]
    fresh_dir, out_dir = tmp_path / "fresh", tmp_path / "out"
    assert cli.main(argv + ["--out-dir", str(fresh_dir), "--workers", "1"]) == cli.EXIT_OK
    fresh = {p.name: data for p, data in _files(fresh_dir).items()}
    out_dir.mkdir()
    prepare(out_dir, tmp_path)
    before = _files_outside(tmp_path, out_dir)
    assert cli.main(argv + ["--out-dir", str(out_dir), "--workers", workers]) == cli.EXIT_OK
    capsys.readouterr()
    assert _files_outside(tmp_path, out_dir) == before
    assert not any(p.is_symlink() for p in out_dir.iterdir())
    written = {p.name: data for p, data in _files(out_dir).items()}
    if prepare in (_link_out, _link_sibling):  # as if out_dir had been empty, at any workers
        assert written == fresh
        return
    # utt001 fails: one row, and no WAV, or the directory left as it was
    assert (out_dir / "utt001.wav").exists() == (prepare is _directory)
    rows = written.pop("errors.tsv").decode().splitlines()[1:]
    assert [row.split("\t")[0] for row in rows] == ["utt001"]
    assert {name: written[name] for name in ("utt000.wav", "utt002.wav")} == {
        name: fresh[name] for name in ("utt000.wav", "utt002.wav")
    }


# One file each command would write, made a directory beforehand: its path under root.
DIRECTORY_OUTPUTS = {
    "preprocess": "out/dropped.tsv", "vad": "out/errors.tsv", "metrics": "out/report.json",
    "snr": "out/manifest.tsv", "vocode": "out/roundtrip.tsv", "filter": "out/kept.tsv",
    "report": "out/r.json",
}


@pytest.mark.parametrize("command", list(DIRECTORY_OUTPUTS))
def test_output_that_is_an_existing_directory_is_usage_error(command, tmp_path, capsys):
    build_corpus(tmp_path, 2, seed=37)
    directory = tmp_path / DIRECTORY_OUTPUTS[command]
    directory.mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    files = {p: p.read_bytes() for p in before if p.is_file()}
    argv = _minimal_argv(command, tmp_path) + (["--iters", "2"] if command == "vocode" else [])
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: cannot write {directory}, which is a directory\n"
    assert captured.out == ""
    assert sorted(tmp_path.rglob("*")) == before
    assert {p: p.read_bytes() for p in before if p.is_file()} == files


def _files(root):
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _files_outside(root, out_dir):
    return {p: data for p, data in _files(root).items() if p.parent != out_dir}


@pytest.mark.parametrize("command, target, kind, workers", [
    pytest.param("snr", "raw/utt001.wav", "audio file", "1", id="snr-audio-1"),
    pytest.param("snr", "raw/utt001.wav", "audio file", "2", id="snr-audio-2"),
    pytest.param("snr", "enh/utt001.enhanced.wav", "enhanced file", "2", id="snr-enhanced-2"),
    # report opens no audio and has no --workers, but its manifest names the audio
    pytest.param("report", "raw/utt001.wav", "audio file", None, id="report-audio"),
])
def test_output_that_would_overwrite_an_input_file_is_usage_error(
    command, target, kind, workers, tmp_path, capsys
):
    manifest = build_corpus(tmp_path, 2, seed=37)
    path = tmp_path / target
    argv = [command, "--manifest", str(manifest)]
    if command == "snr":  # its outputs have fixed names, so one is made a link to the input
        path = tmp_path / "out" / "manifest.tsv"
        path.parent.mkdir()
        path.symlink_to(tmp_path / target)
        argv += ["--enhanced-dir", str(tmp_path / "enh"), "--out-dir", str(path.parent)]
        argv += ["--workers", workers]
    else:
        argv += ["--json", str(path)]
    before = _files(tmp_path)
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: writing {path} would overwrite an input {kind}\n"
    assert captured.out == ""
    assert _files(tmp_path) == before


@pytest.mark.parametrize("command", list(DIRECTORY_OUTPUTS))
def test_output_linked_to_an_input_audio_file_is_usage_error(command, tmp_path, capsys):
    build_corpus(tmp_path, 2, seed=37)
    link = tmp_path / DIRECTORY_OUTPUTS[command]
    link.parent.mkdir()
    link.symlink_to(tmp_path / "raw" / "utt001.wav")
    before = _files(tmp_path)
    argv = _minimal_argv(command, tmp_path) + (["--iters", "2"] if command == "vocode" else [])
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"usage error: writing {link} would overwrite an input audio file\n"
    assert captured.out == ""
    assert _files(tmp_path) == before


# Arguments that keep every WAV a run over build_corpus writes: FLT would drop some.
KEEP_EVERY_WAV = {
    "preprocess": ["--stages", "VAD-1,VN"], "vad": [], "vocode": ["--iters", "2"], "filter": [],
}
# The first line of each declared table.
TABLE_HEADS = {
    "manifest.tsv": "# source: ", "errors.tsv": "id\tstage\terror\n",
    "roundtrip.tsv": "id\tspectral_convergence\n", "kept.tsv": "# source: ",
    "dropped.tsv": "# source: ",
}
# The declared tables linked to another declared table; the rest link to utt000.wav.
TABLE_LINKS = {("filter", "kept.tsv"): "dropped.tsv", ("vad", "manifest.tsv"): "errors.tsv"}


@pytest.mark.parametrize("target", ["dangling", "existing"])
@pytest.mark.parametrize("command, name", [
    ("preprocess", "manifest.tsv"), ("vad", "errors.tsv"), ("vocode", "roundtrip.tsv"),
    *TABLE_LINKS,
])
def test_declared_output_linked_to_an_output_wav_is_kept_apart(
    command, name, target, tmp_path, capsys
):
    # The check removes both the link and the file it names, a WAV or another table, so the
    # run writes each as a file of its own.
    build_corpus(tmp_path, 2, seed=37)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    other = TABLE_LINKS.get((command, name), "utt000.wav")
    if target == "existing":  # left by an earlier run
        (out_dir / other).write_bytes(b"earlier")
    (out_dir / name).symlink_to(other)  # writing through it would write the other file
    before = _files_outside(tmp_path, out_dir)
    assert cli.main(_minimal_argv(command, tmp_path) + KEEP_EVERY_WAV[command]) == cli.EXIT_OK
    capsys.readouterr()
    table, other = out_dir / name, out_dir / other
    assert not table.is_symlink() and not other.is_symlink()
    assert table.read_text().startswith(TABLE_HEADS[name])
    if other.suffix == ".wav":
        assert len(wavio.read_wav(other)) > 0
    else:
        assert other.read_text().startswith(TABLE_HEADS[other.name])
    assert _files_outside(tmp_path, out_dir) == before


def test_report_json_into_a_missing_directory_makes_it(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 2, seed=37)
    json_path = tmp_path / "missing" / "deeper" / "r.json"
    argv = ["report", "--manifest", str(manifest)]
    assert cli.main(argv + ["--json", str(json_path)]) == cli.EXIT_OK
    printed = capsys.readouterr().out
    assert json.loads(json_path.read_text())["utterances"] == 2
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("via", ["dir", "dir link"])
@pytest.mark.parametrize("command, name", [
    ("preprocess", "manifest.tsv"), ("vad", "errors.tsv"), ("filter", "kept.tsv"),
    ("snr", "manifest.tsv"), ("metrics", "report.tsv"), ("vocode", "roundtrip.tsv"),
    ("report", "summary.json"),
])
def test_output_that_would_overwrite_the_input_manifest_is_usage_error(
    command, name, via, tmp_path, capsys
):
    root = tmp_path / "corpus"
    build_corpus(root, 2, seed=37)
    manifest = str((root / "manifest.tsv").rename(root / name))
    out_dir = root
    if via == "dir link":
        out_dir = tmp_path / "link"
        out_dir.symlink_to(root, target_is_directory=True)
    before = {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    argv = {
        "preprocess": ["preprocess", "--manifest", manifest, "--out-dir", str(out_dir)],
        "vad": ["vad", "--manifest", manifest, "--out-dir", str(out_dir)],
        "filter": ["filter", "--manifest", manifest, "--out-dir", str(out_dir)],
        "snr": ["snr", "--manifest", manifest, "--enhanced-dir", str(root / "enh"),
                "--out-dir", str(out_dir)],
        "metrics": ["metrics", "--ref-manifest", manifest, "--hyp-manifest", manifest,
                    "--out-dir", str(out_dir)],
        "vocode": ["vocode", "--manifest", manifest, "--out-dir", str(out_dir)],
        "report": ["report", "--manifest", manifest, "--json", str(out_dir / name)],
    }[command]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (
        f"usage error: writing {out_dir / name} would overwrite an input manifest\n"
    )
    assert captured.out == ""
    assert {p: p.read_bytes() for p in sorted(tmp_path.rglob("*")) if p.is_file()} == before


@pytest.mark.parametrize("command, tables", [
    ("filter", ("kept.tsv", "dropped.tsv")),
    ("snr", ("manifest.tsv",)),
    ("preprocess", ("dropped.tsv",)),  # FLT drops every record: none has an SNR
], ids=["filter", "snr", "preprocess"])
def test_input_audio_cells_name_the_input_through_a_linked_out_dir(
    command, tables, tmp_path, capsys
):
    root = tmp_path / "corpus"
    manifest = str(build_corpus(root, 3, seed=41))
    raw = root / "raw"
    (raw / "utt002.wav").rename(root / "real002.wav")
    (raw / "utt002.wav").symlink_to(root / "real002.wav")
    (tmp_path / "elsewhere" / "real").mkdir(parents=True)
    out_dir = tmp_path / "outlink"  # "../corpus" from here is elsewhere/corpus, which is absent
    out_dir.symlink_to(tmp_path / "elsewhere" / "real", target_is_directory=True)
    argv = [command, "--manifest", manifest, "--out-dir", str(out_dir)]
    argv += {"filter": [], "snr": ["--enhanced-dir", str(root / "enh")],
             "preprocess": ["--stages", "FLT"]}[command]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    cells = {}
    for table in tables:
        lines = [line.split("\t") for line in (out_dir / table).read_text().splitlines()[1:]]
        column = lines[0].index("audio")
        cells.update((row[0], row[column]) for row in lines[1:])
    assert sorted(cells) == ["utt000", "utt001", "utt002"]
    for utterance_id, cell in cells.items():
        assert os.path.samefile(out_dir / cell, raw / f"{utterance_id}.wav")
        assert Path(cell).name == f"{utterance_id}.wav"  # a linked WAV stays a link


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


def _manifest_row(ids, audio, durations, snrs, cers, text):
    """One manifest line: the eight cells joined by tabs."""
    return st.tuples(ids, audio, durations, text, text, snrs, cers, text).map("\t".join)


_GOOD_DURATIONS = ["1.0", "2", "0.5", "1e-3", "3600"]
_GOOD_SNRS = ["", "20", "15", "3", "inf", "-inf", "-0.0"]
_GOOD_CERS = ["", "0.0", "0.05", "0.1", "0.5", "2"]
_CELL_TEXT = st.characters(exclude_characters="\t\n\r", exclude_categories=("Cs",))
_TAG = st.text(st.characters(exclude_characters="\n\r", exclude_categories=("Cs",)), max_size=6)
# Rows that load: unique ids, no tab or line break inside a cell, well-formed numbers.
_LOADABLE_ROWS = st.lists(
    _manifest_row(
        st.sampled_from(["a", "b", "c.d", "\u00e9", "take#2", "x y", "a\x85b", "\u2028"]),
        st.sampled_from(["a.wav", "raw/b.wav", "/abs/c.wav", "../up.wav", "a\\b.wav", "."]),
        st.sampled_from(_GOOD_DURATIONS),
        st.sampled_from(_GOOD_SNRS),
        st.sampled_from(_GOOD_CERS),
        st.text(_CELL_TEXT, max_size=4),
    ),
    max_size=4,
    unique_by=lambda row: row.split("\t")[0],
)
# Rows that may not: any text as id and audio cells, bad numbers, tabs and line breaks.
_ANY_ROW = _manifest_row(
    st.text(max_size=3),
    st.text(max_size=3),
    st.sampled_from(_GOOD_DURATIONS + ["", "0", "-1", "nan", "inf", "x", "1e400", "True"]),
    st.sampled_from(_GOOD_SNRS + ["nan", "x"]),
    st.sampled_from(_GOOD_CERS + ["nan", "-1", "inf", "x"]),
    st.text(max_size=4),
)


@given(
    source=st.one_of(st.just(""), _TAG.map(lambda tag: f"# source: {tag}\n")),
    header=st.sampled_from(["\t".join(corpus.MANIFEST_COLUMNS)] * 9 + ["id\taudio", "", "# id"]),
    rows=st.tuples(_LOADABLE_ROWS, st.lists(_ANY_ROW, max_size=1)).map(lambda t: t[0] + t[1]),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
@settings(max_examples=25, deadline=None)
def test_filter_on_drawn_manifest_text_splits_every_id_or_fails_whole(
    tmp_path_factory, source, header, rows, newline
):
    work = tmp_path_factory.mktemp("drawn_filter")
    manifest = work / "in" / "manifest.tsv"
    manifest.parent.mkdir()
    manifest.write_bytes((source + newline.join([header, *rows]) + newline).encode("utf-8"))
    out_dir = work / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):  # any exception main lets out fails the test here
        code = cli.main(["filter", "--manifest", str(manifest), "--out-dir", str(out_dir)])

    outside = [p for p in work.rglob("*") if p != out_dir and out_dir not in p.parents]
    assert sorted(outside) == [manifest.parent, manifest]
    if code == cli.EXIT_RUNTIME:
        assert not out_dir.exists()
        assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
        return
    assert code == cli.EXIT_OK and stderr.getvalue() == ""
    kept = corpus.load_manifest(out_dir / "kept.tsv").ids()
    dropped = [
        line.split("\t")[0]
        for line in (out_dir / "dropped.tsv").read_text(encoding="utf-8").split("\n")[2:-1]
    ]
    assert sorted(kept + dropped) == corpus.load_manifest(manifest).ids()


# vocode --spec-dir on drawn .npy files, at a 64-point FFT, so 33 bins.
_NPY_REAL = ("<f8", ">f8", "<f4", "<i2", "|b1")
_NPY_SPECIAL = {"nan": np.nan, "inf": np.inf, "overflow": 1e200}  # 1e200's norm overflows
_NPY_CHARS = b"0123456789(),:'<>{}[] -.fFTbiucO\n\0\xff"
_VOCODE_SMALL = ["--iters", "1", "--fft", "64", "--win", "64", "--hop", "16"]


def _npy_file(dtype, shape, special, damage, where, byte, seed):
    """(.npy bytes, whether vocode must succeed on them, or None when either may happen).

    special is None or a key of _NPY_SPECIAL, written into one cell of a float64 array only.
    damage is None, "cut" or "garble". A cut ends the file in its header at a `where` below
    1, as that fraction of the header, and otherwise in its data, at `where - 1` of the data.
    A garble sets the header byte at fraction `where % 1` to `byte`.
    """
    frames = np.random.default_rng(seed).uniform(0.0, 1.0, shape)
    if dtype not in ("<f8", ">f8") or not frames.size:
        special = None
    if special is not None:
        frames.flat[seed % frames.size] = _NPY_SPECIAL[special]
    buf = io.BytesIO()
    np.save(buf, frames.astype(dtype), allow_pickle=dtype == "|O")
    data = buf.getvalue()
    start = 10 + int.from_bytes(data[8:10], "little")  # where a version 1.0 header ends
    ok = dtype in _NPY_REAL and shape == (6, 33) and special is None
    if damage == "cut":
        at = int(where * start) if where < 1 else start + int((where - 1) * (len(data) - start))
        return (data[:at], False) if at < len(data) else (data, ok)
    if damage == "garble":
        at = int(where % 1 * start)
        return data[:at] + bytes([byte]) + data[at + 1 :], None if data[at] != byte else ok
    return data, ok


_NPY_FILES = st.builds(
    _npy_file,
    dtype=st.sampled_from(_NPY_REAL + ("<c16", "|O")),
    shape=st.sampled_from([(6, 33), (6, 33), (1, 33), (0, 33), (2, 3, 33), (6, 5)]),
    special=st.sampled_from([None, None, *_NPY_SPECIAL]),
    damage=st.sampled_from([None, None, "cut", "garble"]),
    where=st.floats(0.0, 1.99),
    byte=st.sampled_from(_NPY_CHARS),
    seed=st.integers(0, 2**16),
)


def _vocode_drawn(work, files, workers):
    """Run vocode --spec-dir on files, a list of (bytes, expected); check its rows, return out_dir.

    expected is whether the file must succeed, or None when it may succeed or fail.
    """
    spec_dir, out_dir = work / "specs", work / f"out{workers}"
    spec_dir.mkdir(exist_ok=True)
    for k, (data, _) in enumerate(files):
        (spec_dir / f"s{k:02d}.npy").write_bytes(data)
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        argv = ["vocode", "--spec-dir", str(spec_dir), "--out-dir", str(out_dir)]
        assert cli.main(argv + _VOCODE_SMALL + ["--workers", workers]) == cli.EXIT_OK
    _check_rows(out_dir / "roundtrip.tsv", files, stderr.getvalue())
    return out_dir


def _check_rows(table, files, stderr):
    """Check that a run over files s00, s01, ... gave each file one row, in table (roundtrip.tsv,
    or manifest.tsv after its `# source:` line) or errors.tsv beside it, and a WAV only when
    it succeeded, and no stderr line but warnings. A file whose expected outcome is text must
    fail with an error that starts with it.

    report.tsv instead lists every pair, then its mean row, and writes no WAV. A pair succeeds
    when any of its cells is filled. Each of its failures has one errors.tsv row: a failed
    audio read one `audio` row alone, and a failed metric one row under its name. A pair with
    no cell filled has a row, and the cells of each metric with a row are empty."""
    out_dir = table.parent
    assert all(line.startswith("warning: s") for line in stderr.splitlines())
    lines = table.read_text().split("\n")
    done = [line.split("\t")[0] for line in lines[lines[0].startswith("# source: ") :]]
    rows = [line.split("\t") for line in (out_dir / "errors.tsv").read_text().split("\n")]
    failed = [row[0] for row in rows]
    names = [f"s{k:02d}" for k in range(len(files))]
    assert done[0] == failed[0] == "id" and done[-1] == failed[-1] == ""
    if table.name == "report.tsv":
        assert done[1:-2] == names and done[-2] == "mean"
        header, done = lines[0].split("\t"), []
        for pair in (dict(zip(header, line.split("\t"))) for line in lines[1:-2]):
            stages = [row[1] for row in rows if row[0] == pair["id"]]
            assert len(set(stages)) == len(stages)
            assert "audio" not in stages or stages == ["audio"]
            for stage in stages:
                assert not any(pair[c] for c in metrics.METRIC_COLUMNS.get(stage, header[1:]))
            if any(pair[c] for c in header[1:]):
                done.append(pair["id"])
            else:
                assert stages
        assert set(failed[1:-1]) <= set(names)
    else:
        assert sorted(done[1:-1] + failed[1:-1]) == names  # each file once, in one of the two
    for name, (_, ok) in zip(names, files):
        if isinstance(ok, str):
            assert rows[failed.index(name)][2].startswith(ok)
        else:
            assert ok is None or ok == (name in done)
        assert (out_dir / f"{name}.wav").exists() == (name in done and table.name != "report.tsv")


@given(files=st.lists(_NPY_FILES, min_size=1, max_size=4))
@settings(max_examples=30, deadline=None)
def test_vocode_on_drawn_spectrograms_gives_one_row_per_file(tmp_path_factory, files):
    work = tmp_path_factory.mktemp("drawn_npy")
    out_dir = _vocode_drawn(work, files, "1")
    assert {p.parent for p in work.rglob("*") if p.is_file()} <= {work / "specs", out_dir}


def test_drawn_spectrogram_batch_gives_the_same_bytes_at_two_workers(tmp_path):
    files = [
        _npy_file("<f8", (6, 33), None, None, 0.0, 0, 1),
        _npy_file(">f8", (6, 33), None, None, 0.0, 0, 2),
        _npy_file("|b1", (6, 33), None, None, 0.0, 0, 3),
        _npy_file("<f8", (6, 33), "overflow", None, 0.0, 0, 4),
        _npy_file("<f8", (1, 33), None, None, 0.0, 0, 5),
        _npy_file("<c16", (6, 33), None, None, 0.0, 0, 6),
        _npy_file("|O", (6, 33), None, None, 0.0, 0, 7),
        _npy_file("<f8", (2, 3, 33), None, None, 0.0, 0, 8),
        _npy_file("<f4", (6, 33), None, "cut", 0.5, 0, 9),
        _npy_file("<f4", (6, 33), None, "cut", 1.5, 0, 10),
        _npy_file("<f8", (6, 33), None, "garble", 0.7, ord("("), 11),
    ]
    outputs = [
        {p.name: p.read_bytes() for p in sorted(_vocode_drawn(tmp_path, files, w).iterdir())}
        for w in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == 2 + 3  # roundtrip.tsv, errors.tsv and the three good WAVs


# vocode --manifest on drawn WAVs at --sample-rate 16000, so three of the rates resample.
_WAV_RATES = (8000, 16000, 22050, 44100)
# Rates whose reduced ratio to 16000 Hz has a term over resample's limit of 48,000: 48,001 Hz,
# and any rate over 48,000 * 16,000 Hz. Four bytes a sample keep the byte rate within 32 bits.
_WAV_FAR_RATES = st.just(48_001) | st.integers(768_000_001, 2**30 - 1)
# Header bytes a drawn edit may change: the first 60.
_WAV_EDIT_OFFSETS = tuple(range(60))


def _wav_file(code, values, rate, edits, cut):
    """(WAV bytes, whether vocode must succeed on them, or None when either may happen, or
    the start of the error a failure must give).

    A 44-byte header of 16-bit PCM or 32-bit float samples, then the samples, with each
    (offset, byte) of edits applied and the bytes cut to their first `cut`. A file left
    whole with at least 50 finite samples must succeed: it makes 2 frames at any rate. One
    left whole at a rate not in _WAV_RATES, holding samples that are all finite, must fail
    at resample's limit.
    """
    samples = np.array(values, dtype=code)
    tag, width = (1, 2) if code == "<i2" else (3, 4)
    whole = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + samples.nbytes, b"WAVE",
        b"fmt ", 16, tag, 1, rate, rate * width, width, 8 * width,
        b"data", samples.nbytes,
    ) + samples.tobytes()
    data = bytearray(whole)
    for offset, byte in edits:
        if offset < len(data):
            data[offset] = byte
    data = bytes(data[:cut])
    if data != whole:
        return data, None
    if rate not in _WAV_RATES and len(samples) and np.isfinite(samples).all():
        return data, f"cannot resample {rate} Hz to 16000 Hz: "
    return data, None if len(samples) < 50 else bool(np.isfinite(samples).all())


def _either_length(values):
    """Lists of values shorter than the 50 that make 2 frames at any rate, or 50 to 200 long."""
    return st.lists(values, max_size=49) | st.lists(values, min_size=50, max_size=200)


_WAV_FILES = st.sampled_from(["<i2", "<f4"]).flatmap(
    lambda code: st.builds(
        _wav_file,
        code=st.just(code),
        values=_either_length(
            st.integers(-32768, 32767) if code == "<i2"
            else st.floats(-2.0, 2.0, width=32) | st.sampled_from([np.nan, np.inf, -np.inf])
        ),
        rate=st.sampled_from(_WAV_RATES) | st.sampled_from(_WAV_RATES) | _WAV_FAR_RATES,
        edits=st.just(()) | st.lists(
            st.tuples(st.sampled_from(_WAV_EDIT_OFFSETS), st.integers(0, 255)),
            min_size=1, max_size=3,
        ),
        cut=st.none() | st.none() | st.integers(0, 444),
    )
)


def _pair_outcome(ref, hyp):
    """A metrics pair's expected outcome from those of its two files (see _wav_file). The
    reference is read first, so its failure is the pair's. A reference that may fail beside a
    hypothesis that must fail makes a pair that must fail, with no sure message."""
    if ref is True:
        return hyp
    if ref is None and hyp is not None and hyp is not True:
        return False
    return ref


# The table each run lists its successes in, and the flags that keep it small. A run's name
# starts with its command.
_DRAWN_WAV_RUNS = {
    "vocode": ("roundtrip.tsv", _VOCODE_SMALL),
    "vad": ("manifest.tsv", []),
    "preprocess": ("manifest.tsv", ["--stages", "DN,VAD-1,VN"]),
    "metrics": ("report.tsv", ["--which", "mcd"]),  # each file is its pair's ref and hyp
    # each file is its pair's hyp, beside a ref drawn apart; the text lets cer run
    "metrics pairs": ("report.tsv", ["--which", "mcd,msd,f0,cer"]),
}


@pytest.mark.parametrize("run", list(_DRAWN_WAV_RUNS))
@given(files=st.lists(_WAV_FILES, min_size=1, max_size=3), data=st.data())
@settings(max_examples=25, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # would print as no utterance's warning
def test_drawn_wavs_give_one_row_per_file_and_the_same_bytes_at_two_workers(
    tmp_path_factory, run, files, data
):
    table, small = _DRAWN_WAV_RUNS[run]
    command = run.split()[0]
    if command in ("vad", "preprocess"):  # a whole file may be all silence: no success is sure
        files = [(wav, ok if isinstance(ok, str) or ok is False else None) for wav, ok in files]
    sides = {"wavs": files}
    if run == "metrics pairs":
        sides["refs"] = data.draw(st.lists(_WAV_FILES, min_size=len(files), max_size=len(files)))
        files = [(b"", _pair_outcome(r, h)) for (_, r), (_, h) in zip(sides["refs"], files)]
    work = tmp_path_factory.mktemp("drawn_wav")
    for side, drawn in sides.items():
        (work / side).mkdir()
        records = tuple(
            corpus.UtteranceRecord(f"s{k:02d}", f"{side}/s{k:02d}.wav", 1.0, "a b c", "a c d")
            for k in range(len(drawn))
        )
        for k, (wav, _) in enumerate(drawn):
            (work / side / f"s{k:02d}.wav").write_bytes(wav)
        corpus.save_manifest(corpus.Manifest(records, "Raw"), work / f"{side}.tsv")
    inputs = _files(work)
    outputs = []
    manifests = [str(work / f"{side}.tsv") for side in ("refs", "wavs") if side in sides]
    if command == "metrics":
        sources = ["--ref-manifest", manifests[0], "--hyp-manifest", manifests[-1]]
    else:
        sources = ["--manifest", manifests[0]]
    for workers in ("1", "2"):
        out_dir = work / f"out{workers}"
        argv = [command, *sources, "--out-dir", str(out_dir), "--sample-rate", "16000"]
        argv += [*small, "--workers", workers]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            # audio bytes cannot make a usage error, so of exit 0 and 2 only 0 can arise
            assert cli.main(argv) == cli.EXIT_OK
        _check_rows(out_dir / table, files, stderr.getvalue())
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]
    written = _files(work)
    assert {p: written[p] for p in inputs} == inputs  # no input changed
    assert {p.parent for p in written if p not in inputs} <= {work / "out1", work / "out2"}


# Every (command, flag) pair that the shared flags once gave a command that never read it, and
# snr's --out, which --out-dir replaced: no flag passes as an abbreviation of another.
REMOVED_FLAGS = (
    [("preprocess", f) for f in ("--fft", "--win", "--hop")]
    + [("metrics", "--seed")]
    + [("vad", f) for f in ("--fft", "--win", "--hop")]
    + [("snr", f) for f in ("--seed", "--fft", "--win", "--hop", "--out")]
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


def test_every_command_declares_its_output_files():
    assert set(cli.OUTPUTS) == set(_subparsers())


def test_every_command_declares_its_input_files():
    assert set(cli.INPUTS) == set(_subparsers())


@pytest.mark.parametrize("command", list(cli.OUTPUTS))
def test_a_run_writes_exactly_its_declared_files_besides_wavs(command, tmp_path, capsys):
    build_corpus(tmp_path, 1, seed=29)
    argv = _minimal_argv(command, tmp_path) + (["--iters", "2"] if command == "vocode" else [])
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    declared = cli._configure(cli.build_parser().parse_args(argv))["outputs"]
    written = {p for p in (tmp_path / "out").iterdir() if p.suffix != ".wav"}
    assert written == set(declared.values())


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


def test_readme_examples_parse():
    # Parsed only, never run: a renamed or removed flag would leave an example that fails.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = "".join(re.findall(r"```sh\n(.*?)```", text, re.S)).replace("\\\n", " ")
    examples = [shlex.split(line, comments=True) for line in lines.splitlines()]
    examples = [argv[1:] for argv in examples if argv[:1] == ["voxkit"]]
    assert {argv[0] for argv in examples} == set(_subparsers())  # every command has one
    for argv in examples:
        cli.build_parser().parse_args(argv)


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
    configs, classes = {}, {}
    for info in pkgutil.iter_modules(voxkit.__path__):
        for name, cls in vars(importlib.import_module(f"voxkit.{info.name}")).items():
            if name.endswith(("Config", "Policy")) and is_dataclass(cls):
                configs[name] = {f.name for f in fields(cls)}
                classes[name] = cls
    assert configs == {name: set(table) for name, table in CONFIG_FLAGS.items()}
    parsers = _subparsers().values()
    declared = {s for sub in parsers for action in sub._actions for s in action.option_strings}
    assert {flag for table in CONFIG_FLAGS.values() for flag in table.values()} <= declared

    # Each flag defaults to its field's default, so the CLI and the library agree.
    # --aggressiveness defaults to 1, the VAD-1 of the default stage chain.
    defaults = {}
    for sub in parsers:
        for action in sub._actions:
            for flag in action.option_strings:
                assert defaults.setdefault(flag, action.default) == action.default, flag
    for name, table in CONFIG_FLAGS.items():
        config = classes[name]()
        for field_name, flag in table.items():
            value = getattr(config, field_name)
            if is_dataclass(value):  # MelConfig.stft: the StftConfig row checks its flags
                assert value == dsp.StftConfig()
            elif flag == "--aggressiveness":
                assert (value, defaults[flag]) == (0, 1)
            else:
                assert defaults[flag] == value, flag


@pytest.mark.parametrize("command", ["report", "preprocess", "metrics"])
def test_manifest_that_is_not_utf8_is_an_error_with_its_line(command, tmp_path, capsys):
    build_corpus(tmp_path, 3, seed=29)
    manifest = tmp_path / "manifest.tsv"
    lines = manifest.read_bytes().split(b"\n")
    lines[3] = lines[3].replace(b"\tspk", b"\tsp\xffk")  # the speaker cell of utt001
    manifest.write_bytes(b"\n".join(lines))
    assert cli.main(_minimal_argv(command, tmp_path)) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    message = "line 4: byte 0xff is not UTF-8 (invalid start byte)"
    assert captured.err == f"error: {manifest}: {message}\n"
    assert captured.out == ""


def test_manifest_parse_error_names_the_manifest(tmp_path, capsys):
    ref = build_corpus(tmp_path, 1, seed=29)
    hyp = tmp_path / "hyp.tsv"
    lines = [line.split("\t") for line in ref.read_text().split("\n")]
    lines[2][2] = "x"  # the duration_s cell of utt000
    hyp.write_text("\n".join("\t".join(cells) for cells in lines))
    argv = ["metrics", "--ref-manifest", str(ref), "--hyp-manifest", str(hyp)]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "out")]) == cli.EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.err == f"error: {hyp}: line 3: could not convert string to float: 'x'\n"


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


def test_spectrogram_whose_norm_overflows_is_an_error_row(tmp_path):
    # Run as a command, so that a numpy RuntimeWarning would reach stderr.
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    np.save(spec_dir / "a_huge.npy", np.full((4, 513), 1e153))
    np.save(spec_dir / "b_tone.npy", dsp.stft(dsp.Waveform(sine(440.0, 0.5), SR)).frames)
    argv = ["vocode", "--spec-dir", "specs", "--out-dir", "out", "--iters", "2"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-m", "voxkit.cli", *argv], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == cli.EXIT_OK
    assert "RuntimeWarning" not in result.stderr
    assert (tmp_path / "out" / "errors.tsv").read_text() == (
        "id\tstage\terror\n"
        "a_huge\tvocode\tmagnitude spectrogram's norm overflows float64\n"
    )
    assert sorted(p.name for p in (tmp_path / "out").glob("*.wav")) == ["b_tone.wav"]


def test_rate_too_high_for_a_wav_header_is_a_usage_error(tmp_path, capsys):
    # --spec-dir never resamples, so the largest rate that fits still runs here
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    np.save(spec_dir / "tone.npy", dsp.stft(dsp.Waveform(sine(440.0, 0.1), SR)).frames)
    argv = ["vocode", "--spec-dir", str(spec_dir), "--iters", "1", "--out-dir"]
    code = cli.main(argv + [str(tmp_path / "out"), "--sample-rate", "3000000000"])
    assert code == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "usage error: --sample-rate 3000000000 does not fit a 16-bit WAV header; "
        "the most is 2147483647 Hz\n"
    )
    assert not (tmp_path / "out").exists()
    code = cli.main(argv + [str(tmp_path / "ok"), "--sample-rate", "2147483647"])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    assert (tmp_path / "ok" / "errors.tsv").read_text() == "id\tstage\terror\n"
    assert wavio.read_wav(tmp_path / "ok" / "tone.wav").sample_rate == 2147483647


def test_a_wav_rate_past_the_resample_limit_fails_only_its_utterance(tmp_path, capsys):
    manifest = build_corpus(tmp_path, 3, seed=47)
    records = list(corpus.load_manifest(manifest))
    for name, rate in (("bad_2ghz", 2_000_000_003), ("bad_48001", 48_001)):
        # each a valid header: 2 * 2,000,000,003 still fits the 32-bit byte-rate field
        wavio.write_wav(tmp_path / "raw" / f"{name}.wav", dsp.Waveform(sine(440.0, 0.1), rate))
        records.append(corpus.UtteranceRecord(name, f"raw/{name}.wav", 0.1))
    corpus.save_manifest(corpus.Manifest(tuple(records), "Raw"), manifest)
    inputs = _files(tmp_path)
    written = []
    for workers in ("1", "2"):
        out_dir = tmp_path / f"out{workers}"
        argv = ["vad", "--manifest", str(manifest), "--out-dir", str(out_dir)]
        assert cli.main(argv + ["--workers", workers]) == cli.EXIT_OK
        assert capsys.readouterr().out.endswith(" (2 errors)\n")
        written.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert written[0] == written[1]
    assert written[0]["errors.tsv"].decode() == (
        "id\tstage\terror\n"
        "bad_2ghz\tload\tcannot resample 2000000003 Hz to 22050 Hz: "
        "the reduced ratio 22050/2000000003 has a term over 48000\n"
        "bad_48001\tload\tcannot resample 48001 Hz to 22050 Hz: "
        "the reduced ratio 22050/48001 has a term over 48000\n"
    )
    assert {name for name in written[0] if name.endswith(".wav")} == {
        "utt000.wav", "utt001.wav", "utt002.wav"
    }
    assert {p: data for p, data in _files(tmp_path).items() if p in inputs} == inputs


def test_spectrogram_whose_header_claims_petabytes_is_an_error_row(tmp_path, capsys):
    # np.load asks for the 1.46 PiB the header claims. That is beyond any address space,
    # so the allocation fails at once and nothing is really allocated.
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    with open(spec_dir / "a_huge.npy", "wb") as fh:
        header = {"descr": "<f8", "fortran_order": False, "shape": (400_000_000_000, 513)}
        np.lib.format.write_array_header_1_0(fh, header)
        fh.write(bytes(16384 - fh.tell()))
    np.save(spec_dir / "b_tone.npy", dsp.stft(dsp.Waveform(sine(440.0, 0.5), SR)).frames)
    outputs = []
    for workers in ("1", "2"):
        out_dir = tmp_path / f"out{workers}"
        code = cli.main([
            "vocode", "--spec-dir", str(spec_dir), "--out-dir", str(out_dir), "--iters", "2",
            "--workers", workers,
        ])
        assert code == cli.EXIT_OK
        capsys.readouterr()
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0]) == ["b_tone.wav", "errors.tsv", "roundtrip.tsv"]
    rows = outputs[0]["errors.tsv"].decode().splitlines()[1:]
    assert [row.split("\t")[:2] for row in rows] == [["a_huge", "vocode"]]
    assert "Unable to allocate" in rows[0]


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


_NO_MEMORY = "Unable to allocate 19.9 GiB for an array with shape (51681, 51681)"


def _raise_no_memory(*args):
    raise MemoryError(_NO_MEMORY)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_memory_error_in_one_metric_is_that_metrics_row_alone(
    workers, tmp_path, monkeypatch, capsys
):
    # A long pair can ask cdist for more memory than the machine has. Here only msd's
    # 80-column log-mels do, so mcd, f0 and cer keep the cells of a run where none fails.
    root = tmp_path / "corpus"
    manifest = build_corpus(root, 2, seed=37)
    hyp = tuple(
        replace(r, audio_path=f"enh/{r.utterance_id}.enhanced.wav")
        for r in corpus.load_manifest(manifest)
    )
    corpus.save_manifest(corpus.Manifest(hyp), root / "hyp.tsv")
    argv = ["metrics", "--ref-manifest", str(manifest), "--hyp-manifest", str(root / "hyp.tsv")]
    argv += ["--workers", workers]
    whole = json.loads(_run_bytes(argv, tmp_path / "whole", capsys)["report.json"])
    dtw_rmse = metrics.dtw_rmse

    def wide_fails(a, b):
        if a.shape[1] == 80:
            _raise_no_memory()
        return dtw_rmse(a, b)

    monkeypatch.setattr(metrics, "dtw_rmse", wide_fails)
    out = _run_bytes(argv, tmp_path / "m", capsys)
    assert out["errors.tsv"].decode() == "id\tstage\terror\n" + "".join(
        f"{u}\tmsd\t{_NO_MEMORY}\n" for u in ("utt000", "utt001")
    )
    rows = json.loads(out["report.json"])["utterances"]
    assert [row.pop("msd") for row in rows] == [None, None]
    assert None not in [row.pop("msd") for row in whole["utterances"]]
    assert rows == whole["utterances"]  # the mcd, gpe/vde/ffe and cer cells


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_memory_error_in_flts_cer_is_an_flt_row_and_a_missing_field_drop(
    workers, tmp_path, monkeypatch, capsys
):
    build_corpus(tmp_path, 2, seed=41)
    monkeypatch.setattr(metrics, "cer", _raise_no_memory)
    argv = _minimal_argv("preprocess", tmp_path) + ["--stages", "VAD-1,VN,FLT", "--flt", "cer"]
    assert cli.main(argv + ["--workers", workers]) == cli.EXIT_OK
    table = [line.split() for line in capsys.readouterr().out.splitlines()[1:-1]]
    # Each utterance made it through the audio stages, and FLT dropped it.
    assert [(row[0], row[2]) for row in table] == [
        ("Raw", "2"), ("VAD-1", "2"), ("VAD-1+VN", "2"), ("VAD-1+VN+FLT", "0")
    ]
    out_dir = tmp_path / "out"
    assert (out_dir / "errors.tsv").read_text() == "id\tstage\terror\n" + "".join(
        f"{u}\tFLT\t{_NO_MEMORY}\n" for u in ("utt000", "utt001")
    )
    dropped = [line.split("\t") for line in (out_dir / "dropped.tsv").read_text().splitlines()]
    assert [(row[0], row[-1]) for row in dropped[2:]] == [
        ("utt000", corpus.MISSING_FIELD_REASON), ("utt001", corpus.MISSING_FIELD_REASON)
    ]
    assert not list(out_dir.glob("*.wav"))


@pytest.mark.parametrize("command, wrote", [
    ("vad", "out\\xff/manifest.tsv (0 errors)"),
    ("metrics", "out\\xff/report.tsv (0 errors)"),
    ("snr", "out\\xff/manifest.tsv (0 errors)"),
    ("vocode", "out\\xff (0 errors)"),
], ids=["vad", "metrics", "snr", "vocode"])
def test_out_dir_that_is_not_utf8_is_written_xnn_on_stdout(command, wrote, tmp_path):
    # With strict UTF-8 stdout, a lone surrogate in the last line would raise.
    build_corpus(tmp_path, 2, seed=29)
    out_dir = os.fsdecode(b"out\xff")
    argv = {
        "vad": ["vad", "--manifest", "manifest.tsv", "--out-dir", out_dir],
        "metrics": ["metrics", "--ref-manifest", "manifest.tsv", "--hyp-manifest",
                    "manifest.tsv", "--which", "cer", "--out-dir", out_dir],
        "snr": ["snr", "--manifest", "manifest.tsv", "--enhanced-dir", "enh",
                "--out-dir", out_dir],
        "vocode": ["vocode", "--manifest", "manifest.tsv", "--out-dir", out_dir, "--iters", "1"],
    }[command]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run([sys.executable, "-m", "voxkit.cli", *argv], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert (result.returncode, result.stderr) == (cli.EXIT_OK, "")
    assert result.stdout.splitlines()[-1].endswith(f" to {wrote}")
