"""Golden bytes of the five TSVs the toolkit writes, and of `report --json` and `metrics`.

The writers are save_manifest, save_dropped_report, write_report's report.tsv,
errors.tsv and vocode's roundtrip.tsv. Each gets a small fixed input
holding inf, -inf, absent cells, -0.0, int cells and its comment line,
if it has one, and its file must match byte for byte.

`voxkit metrics` runs with its metric kernels fixed, so its report.tsv,
report.json, errors.tsv and stdout are pinned without DSP rounding. The
dropped.tsv and manifest.tsv of `preprocess --stages DN,VAD-2,FLT,VN`, and
the stdout of `preprocess`, `vad`, `snr` and `vocode`, are pinned on a
synthetic corpus.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from voxkit import cli, corpus, dsp, metrics, pitch, wavio
from voxkit.errors import VoxkitError
from voxkit.metrics import CerReport, F0MetricReport
from conftest import build_corpus

INF = float("inf")

RECORDS = (
    corpus.UtteranceRecord("a1", "raw/a1.wav", 2, text="hi there", hyp_text="hi thare",
                           snr_db=INF, cer=-0.0, speaker="spk0"),
    corpus.UtteranceRecord("b2", "/abs/b2.wav", 0.1, snr_db=-INF),
    corpus.UtteranceRecord("c3", "c3.wav", 1.25, text="x", snr_db=-0.0, cer=0.5),
)


def test_save_manifest(tmp_path):
    path = tmp_path / "m.tsv"
    corpus.save_manifest(corpus.Manifest(RECORDS, "Raw+DN"), path)
    assert path.read_bytes() == (
        b"# source: Raw+DN\n"
        b"id\taudio\tduration_s\ttext\thyp_text\tsnr_db\tcer\tspeaker\n"
        b"a1\traw/a1.wav\t2\thi there\thi thare\tinf\t-0.0\tspk0\n"
        b"b2\t/abs/b2.wav\t0.1\t\t\t-inf\t\t\n"
        b"c3\tc3.wav\t1.25\tx\t\t-0.0\t0.5\t\n"
    )


def test_save_dropped_report(tmp_path):
    result = corpus.FilterResult(
        kept=corpus.Manifest((), "Raw+FLT"),
        dropped=corpus.Manifest(RECORDS[1:], "Raw+FLT-dropped"),
        reasons={"b2": "missing-field", "c3": "low-snr,high-cer"},
    )
    path = tmp_path / "dropped.tsv"
    corpus.save_dropped_report(result, path)
    assert path.read_bytes() == (
        b"# source: Raw+FLT-dropped\n"
        b"id\taudio\tduration_s\ttext\thyp_text\tsnr_db\tcer\tspeaker\treason\n"
        b"b2\t/abs/b2.wav\t0.1\t\t\t-inf\t\t\tmissing-field\n"
        b"c3\tc3.wav\t1.25\tx\t\t-0.0\t0.5\t\tlow-snr,high-cer\n"
    )


def test_write_report_tsv(tmp_path):
    rows = {
        "u1": dict(mcd=INF, msd=-0.0, vde=0.5, ffe=0.25, cer=0.1,
                   substitutions=1, deletions=0, insertions=0),
        "u2": dict(mcd=1.0, msd=-INF, gpe=0.125, cer=0.2,
                   substitutions=2, deletions=1, insertions=0),
        "u3": {},
    }
    metrics.write_report(rows, tmp_path)
    assert (tmp_path / "report.tsv").read_bytes() == (
        b"id\tmcd\tmsd\tgpe\tvde\tffe\tcer\tsubstitutions\tdeletions\tinsertions\n"
        b"u1\tinf\t-0.0\t\t0.5\t0.25\t0.1\t1\t0\t0\n"
        b"u2\t1.0\t-inf\t0.125\t\t\t0.2\t2\t1\t0\n"
        b"u3\t\t\t\t\t\t\t\t\t\n"
        b"mean\tinf\t-inf\t0.125\t0.5\t0.25\t0.15000000000000002\t1.5\t0.5\t0.0\n"
    )


def test_write_errors(tmp_path, capsys):
    path = tmp_path / "errors.tsv"
    cli._finish({"errors.tsv": path}, [
        ("utt1", "load", "bad\tcell\nacross\rlines"),
        ("utt2", "FLT", "reference text is empty"),
    ], "0 utterances to out")
    assert path.read_bytes() == (
        b"id\tstage\terror\n"
        b"utt1\tload\tbad cell across lines\n"
        b"utt2\tFLT\treference text is empty\n"
    )
    assert capsys.readouterr().out == "wrote 0 utterances to out (2 errors)\n"


def test_write_errors_without_rows(tmp_path, capsys):
    path = tmp_path / "errors.tsv"
    cli._finish({"errors.tsv": path}, [], "2 utterances to out")
    assert path.read_bytes() == b"id\tstage\terror\n"
    assert capsys.readouterr().out == "wrote 2 utterances to out (0 errors)\n"


def test_vocode_roundtrip_tsv(tmp_path, monkeypatch, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    for name in ("a", "b", "c", "d"):
        np.save(spec_dir / f"{name}.npy", np.ones((4, 513)))
    gaps = iter([INF, -0.0, 0.1, 3])
    silence = dsp.Waveform(np.zeros(768), 22050)
    monkeypatch.setattr(dsp, "griffin_lim", lambda *args, **kwargs: (silence, next(gaps)))
    out_dir = tmp_path / "out"
    code = cli.main([
        "vocode", "--spec-dir", str(spec_dir), "--out-dir", str(out_dir), "--iters", "1",
    ])
    assert code == cli.EXIT_OK
    capsys.readouterr()
    assert (out_dir / "roundtrip.tsv").read_bytes() == (
        b"id\tspectral_convergence\n"
        b"a\tinf\n"
        b"b\t-0.0\n"
        b"c\t0.1\n"
        b"d\t3\n"
    )


def test_report_json(tmp_path, capsys):
    records = RECORDS + (
        corpus.UtteranceRecord("d4", "d4.wav", 0.5, snr_db=12.5, cer=0.03, speaker="spk0"),
        corpus.UtteranceRecord("e5", "e5.wav", 0.25, snr_db=-20.0, cer=2.0),
    )
    manifest = tmp_path / "m.tsv"
    corpus.save_manifest(corpus.Manifest(records, "Raw+DN"), manifest)
    path = tmp_path / "summary.json"
    assert cli.main(["report", "--manifest", str(manifest), "--json", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert path.read_bytes() == (
        b'{\n'
        b'  "source": "Raw+DN",\n'
        b'  "utterances": 5,\n'
        b'  "hours": 0.0011388888888888887,\n'
        b'  "per_speaker": {\n'
        b'    "spk0": 2,\n'
        b'    "": 3\n'
        b'  },\n'
        b'  "snr_db": {\n'
        b'    "edges": [\n'
        b'      -10.0,\n'
        b'      -5.0,\n'
        b'      0.0,\n'
        b'      5.0,\n'
        b'      10.0,\n'
        b'      15.0,\n'
        b'      20.0,\n'
        b'      25.0,\n'
        b'      30.0,\n'
        b'      35.0,\n'
        b'      40.0\n'
        b'    ],\n'
        b'    "counts": [\n'
        b'      0,\n'
        b'      0,\n'
        b'      1,\n'
        b'      0,\n'
        b'      1,\n'
        b'      0,\n'
        b'      0,\n'
        b'      0,\n'
        b'      0,\n'
        b'      0\n'
        b'    ],\n'
        b'    "below": 1,\n'
        b'    "above": 0,\n'
        b'    "pos_inf": 1,\n'
        b'    "neg_inf": 1,\n'
        b'    "absent": 0\n'
        b'  },\n'
        b'  "cer": {\n'
        b'    "edges": [\n'
        b'      0.0,\n'
        b'      0.02,\n'
        b'      0.05,\n'
        b'      0.1,\n'
        b'      0.2,\n'
        b'      0.5,\n'
        b'      1.0\n'
        b'    ],\n'
        b'    "counts": [\n'
        b'      1,\n'
        b'      1,\n'
        b'      0,\n'
        b'      0,\n'
        b'      0,\n'
        b'      1\n'
        b'    ],\n'
        b'    "below": 0,\n'
        b'    "above": 1,\n'
        b'    "pos_inf": 0,\n'
        b'    "neg_inf": 0,\n'
        b'    "absent": 1\n'
        b'  }\n'
        b'}\n'
    )



def _fixed_metrics_run(tmp_path, monkeypatch, capsys, argv, hyp_texts, results):
    """Files and stdout of `voxkit metrics` on one manifest whose metric kernels are fixed.

    Utterance k is u<k>, with hyp_text hyp_texts[k-1]. results maps each
    metric to what its kernel gives at each call, in manifest order; a
    VoxkitError there is raised instead.
    """
    def kernel(name, wrap):
        values = iter(results.get(name, ()))

        def fixed(*args):
            value = next(values)
            if isinstance(value, VoxkitError):
                raise value
            return wrap(value)

        return fixed

    features = SimpleNamespace(frames=None)
    monkeypatch.setattr(metrics, "log_mel_pair", lambda *args: (features, features))
    monkeypatch.setattr(metrics, "mcd_from_log_mel", kernel("mcd", lambda v: (v, 1)))
    monkeypatch.setattr(metrics, "dtw_rmse", kernel("msd", lambda v: (v, 1)))
    monkeypatch.setattr(pitch, "extract_pitch", lambda *args: None)
    monkeypatch.setattr(pitch, "align_tracks", lambda ref, hyp: (ref, hyp))
    monkeypatch.setattr(metrics, "f0_metrics", kernel("f0", lambda v: F0MetricReport(*v, 4, 2)))
    monkeypatch.setattr(metrics, "cer", kernel("cer", lambda v: CerReport(*v, 20, 1, 1, 0)))
    records = []
    for k, hyp_text in enumerate(hyp_texts, 1):
        wavio.write_wav(tmp_path / f"u{k}.wav", dsp.Waveform(np.zeros(2205), 22050))
        records.append(corpus.UtteranceRecord(f"u{k}", f"u{k}.wav", 0.1, "a b", hyp_text))
    manifest = str(tmp_path / "m.tsv")
    corpus.save_manifest(corpus.Manifest(tuple(records)), manifest)
    out_dir = tmp_path / "out"
    code = cli.main([
        "metrics", "--ref-manifest", manifest, "--hyp-manifest", manifest,
        "--out-dir", str(out_dir), *argv,
    ])
    assert code == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return files, captured.out.replace(str(out_dir), "<out>")


def test_metrics_report_files_and_summary(tmp_path, monkeypatch, capsys):
    files, stdout = _fixed_metrics_run(tmp_path, monkeypatch, capsys, [], ["a c", "", "a b"], {
        "mcd": [INF, -0.0, VoxkitError("no cepstra")],
        "msd": [-0.0, 2.5, -INF],
        "f0": [(None, 1.0, 1.0), (0.125, 0.25, 0.375), (0.5, 0.0, 0.5)],
        "cer": [(0.5, 0.5, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)],
    })
    assert files["report.tsv"] == (
        b"id\tmcd\tmsd\tgpe\tvde\tffe\tcer\tsubstitutions\tdeletions\tinsertions\n"
        b"u1\tinf\t-0.0\t\t1.0\t1.0\t0.5\t0.5\t0.0\t0.0\n"
        b"u2\t-0.0\t2.5\t0.125\t0.25\t0.375\t\t\t\t\n"
        b"u3\t\t-inf\t0.5\t0.0\t0.5\t0.0\t0.0\t0.0\t0.0\n"
        b"mean\tinf\t-inf\t0.3125\t0.4166666666666667\t0.625\t0.25\t0.25\t0.0\t0.0\n"
    )
    assert files["report.json"] == (
        b'{\n'
        b'  "utterances": [\n'
        b'    {\n'
        b'      "id": "u1",\n'
        b'      "mcd": "inf",\n'
        b'      "msd": -0.0,\n'
        b'      "gpe": null,\n'
        b'      "vde": 1.0,\n'
        b'      "ffe": 1.0,\n'
        b'      "cer": 0.5,\n'
        b'      "substitutions": 0.5,\n'
        b'      "deletions": 0.0,\n'
        b'      "insertions": 0.0\n'
        b'    },\n'
        b'    {\n'
        b'      "id": "u2",\n'
        b'      "mcd": -0.0,\n'
        b'      "msd": 2.5,\n'
        b'      "gpe": 0.125,\n'
        b'      "vde": 0.25,\n'
        b'      "ffe": 0.375,\n'
        b'      "cer": null,\n'
        b'      "substitutions": null,\n'
        b'      "deletions": null,\n'
        b'      "insertions": null\n'
        b'    },\n'
        b'    {\n'
        b'      "id": "u3",\n'
        b'      "mcd": null,\n'
        b'      "msd": "-inf",\n'
        b'      "gpe": 0.5,\n'
        b'      "vde": 0.0,\n'
        b'      "ffe": 0.5,\n'
        b'      "cer": 0.0,\n'
        b'      "substitutions": 0.0,\n'
        b'      "deletions": 0.0,\n'
        b'      "insertions": 0.0\n'
        b'    }\n'
        b'  ],\n'
        b'  "mean": {\n'
        b'    "mcd": "inf",\n'
        b'    "msd": "-inf",\n'
        b'    "gpe": 0.3125,\n'
        b'    "vde": 0.4166666666666667,\n'
        b'    "ffe": 0.625,\n'
        b'    "cer": 0.25,\n'
        b'    "substitutions": 0.25,\n'
        b'    "deletions": 0.0,\n'
        b'    "insertions": 0.0\n'
        b'  }\n'
        b'}\n'
    )
    assert files["errors.tsv"] == (
        b"id\tstage\terror\n"
        b"u2\tcer\thyp_text is missing\n"
        b"u3\tmcd\tno cepstra\n"
    )
    assert stdout == (
        "MCD: inf\n"
        "MSD: -inf\n"
        "GPE: 0.3125\n"
        "VDE: 0.4167\n"
        "FFE: 0.6250\n"
        "CER (S/D/I): 25.0 (25.0/0.0/0.0)\n"
        "wrote 3 rows to <out>/report.tsv (2 errors)\n"
    )


def test_metrics_summary_of_absent_means(tmp_path, monkeypatch, capsys):
    # No frame is voiced in both tracks, and CER fails: both read n/a. Lines keep
    # the report's order, whatever the order of --which.
    files, stdout = _fixed_metrics_run(
        tmp_path, monkeypatch, capsys, ["--which", "cer,f0,msd"], [""],
        {"msd": [-0.0], "f0": [(None, 1.0, 1.0)]},
    )
    assert files["report.tsv"] == (
        b"id\tmcd\tmsd\tgpe\tvde\tffe\tcer\tsubstitutions\tdeletions\tinsertions\n"
        b"u1\t\t-0.0\t\t1.0\t1.0\t\t\t\t\n"
        b"mean\t\t-0.0\t\t1.0\t1.0\t\t\t\t\n"  # the mean of -0.0 alone is -0.0
    )
    assert files["report.json"] == (
        b'{\n'
        b'  "utterances": [\n'
        b'    {\n'
        b'      "id": "u1",\n'
        b'      "mcd": null,\n'
        b'      "msd": -0.0,\n'
        b'      "gpe": null,\n'
        b'      "vde": 1.0,\n'
        b'      "ffe": 1.0,\n'
        b'      "cer": null,\n'
        b'      "substitutions": null,\n'
        b'      "deletions": null,\n'
        b'      "insertions": null\n'
        b'    }\n'
        b'  ],\n'
        b'  "mean": {\n'
        b'    "mcd": null,\n'
        b'    "msd": -0.0,\n'
        b'    "gpe": null,\n'
        b'    "vde": 1.0,\n'
        b'    "ffe": 1.0,\n'
        b'    "cer": null,\n'
        b'    "substitutions": null,\n'
        b'    "deletions": null,\n'
        b'    "insertions": null\n'
        b'  }\n'
        b'}\n'
    )
    assert files["errors.tsv"] == b"id\tstage\terror\nu1\tcer\thyp_text is missing\n"
    assert stdout == (
        "MSD: -0.0000\n"
        "GPE: n/a\n"
        "VDE: 1.0000\n"
        "FFE: 1.0000\n"
        "CER (S/D/I): n/a\n"
        "wrote 1 rows to <out>/report.tsv (1 errors)\n"
    )


@pytest.mark.parametrize("which, cer_cells, errors, cer_line", [
    ("cer,mcd", b"0.5\t0.5\t0.0\t0.0", b"u2\tcer\thyp_text is missing\n",
     "CER (S/D/I): 50.0 (50.0/0.0/0.0)\n"),
    ("mcd,mcd", b"\t\t\t", b"", ""),
], ids=["cer,mcd", "mcd,mcd"])
def test_metrics_which_runs_each_metric_once_in_report_order(
    which, cer_cells, errors, cer_line, tmp_path, monkeypatch, capsys
):
    # Error rows and summary lines follow the report's columns, and a repeated name runs once.
    files, stdout = _fixed_metrics_run(
        tmp_path, monkeypatch, capsys, ["--which", which], ["a c", ""],
        {"mcd": [1.5, VoxkitError("no cepstra")], "cer": [(0.5, 0.5, 0.0, 0.0)]},
    )
    assert files["report.tsv"] == (
        b"id\tmcd\tmsd\tgpe\tvde\tffe\tcer\tsubstitutions\tdeletions\tinsertions\n"
        b"u1\t1.5\t\t\t\t\t" + cer_cells + b"\n"
        b"u2\t\t\t\t\t\t\t\t\t\n"
        b"mean\t1.5\t\t\t\t\t" + cer_cells + b"\n"
    )
    assert files["errors.tsv"] == b"id\tstage\terror\nu2\tmcd\tno cepstra\n" + errors
    assert stdout == (
        "MCD: 1.5000\n" + cer_line
        + f"wrote 2 rows to <out>/report.tsv ({1 + bool(errors)} errors)\n"
    )


def test_preprocess_dropped_report_and_summary(tmp_path, capsys):
    # FLT drops three utterances and keeps one. Each dropped row holds its input
    # audio cell, the duration after VAD-2, DN's snr_db, the CER and the reason.
    root = tmp_path / "corpus"
    manifest = build_corpus(root, 4, seed=7)
    out_dir = tmp_path / "out"
    code = cli.main([
        "preprocess", "--manifest", str(manifest), "--out-dir", str(out_dir),
        "--stages", "DN,VAD-2,FLT,VN", "--enhanced-dir", str(root / "enh"),
    ])
    assert code == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert (out_dir / "dropped.tsv").read_bytes() == (
        b"# source: DN+VAD-2+FLT-dropped\n"
        b"id\taudio\tduration_s\ttext\thyp_text\tsnr_db\tcer\tspeaker\treason\n"
        b"utt000\t../corpus/raw/utt000.wav\t1.0981859410430839\tquick birds near"
        b"\tqick bprds newr\t26.70408209965066\t0.1875\tspk0\thigh-cer\n"
        b"utt002\t../corpus/raw/utt002.wav\t1.1979591836734693\tnear old falls"
        b"\tnea oldp faolle\t33.037717033502744\t0.2857142857142857\tspk2\thigh-cer\n"
        b"utt003\t../corpus/raw/utt003.wav\t1.0682539682539682\tthe bridge dog old and near and"
        b"\tkthe bridge dog old andneamr adnd\t19.619292178038997\t0.12903225806451613"
        b"\tspk3\thigh-cer\n"
    )
    assert (out_dir / "manifest.tsv").read_bytes() == (
        b"# source: DN+VAD-2+FLT+VN\n"
        b"id\taudio\tduration_s\ttext\thyp_text\tsnr_db\tcer\tspeaker\n"
        b"utt001\tutt001.wav\t0.61859410430839\tseven jumps a dog jumps\tseven jumps a dog jumps"
        b"\t30.6922399726766\t0.0\tspk1\n"
    )
    assert captured.out.replace(str(out_dir), "<out>") == (
        "stage                 hours  utterances\n"
        "Raw                    0.00           4\n"
        "DN                     0.00           4\n"
        "DN+VAD-2               0.00           4\n"
        "DN+VAD-2+FLT           0.00           1\n"
        "DN+VAD-2+FLT+VN        0.00           1\n"
        "wrote 1 utterances to <out>/manifest.tsv (0 errors)\n"
    )


@pytest.mark.parametrize("command, stdout", [
    ("vad", (
        "stage       hours  utterances\n"
        "Raw          0.00           2\n"
        "VAD-2        0.00           2\n"
        "wrote 2 utterances to <out>/manifest.tsv (1 errors)\n"
    )),
    ("snr", "wrote 2 utterances to <out>/manifest.tsv (1 errors)\n"),
    ("vocode", "mean spectral convergence: 0.2697\nwrote 2 files to <out> (1 errors)\n"),
], ids=["vad", "snr", "vocode"])
def test_command_summary(command, stdout, tmp_path, capsys):
    root = tmp_path / "corpus"
    manifest = build_corpus(root, 3, seed=31)
    records = list(corpus.load_manifest(manifest).records)
    records[1] = replace(records[1], audio_path="raw/missing.wav")
    corpus.save_manifest(corpus.Manifest(tuple(records)), manifest)
    out_dir = tmp_path / "out"
    argv = [command, "--manifest", str(manifest)]
    if command == "vad":
        argv += ["--out-dir", str(out_dir), "--aggressiveness", "2"]
    elif command == "snr":
        argv += ["--enhanced-dir", str(root / "enh"), "--out-dir", str(out_dir)]
    else:
        argv += ["--out-dir", str(out_dir), "--iters", "4"]
    assert cli.main(argv) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.replace(str(out_dir), "<out>") == stdout
