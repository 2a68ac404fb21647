"""Golden bytes of every TSV the toolkit writes.

Each writer gets a small fixed input holding inf, -inf, absent cells,
-0.0, int cells and its comment line, and its file must match byte for byte.
"""

import numpy as np

from voxkit import cli, corpus, dsp, metrics, pitch

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
    reports = [
        metrics.UtteranceReport("u1", mcd=INF, msd=-0.0, vde=0.5, ffe=0.25, cer=0.1,
                                substitutions=1, deletions=0, insertions=0),
        metrics.UtteranceReport("u2", mcd=1.0, msd=-INF, gpe=0.125, cer=0.2,
                                substitutions=2, deletions=1, insertions=0),
        metrics.UtteranceReport("u3"),
    ]
    path = tmp_path / "report.tsv"
    metrics.write_report_tsv(reports, path)
    assert path.read_bytes() == (
        b"id\tmcd\tmsd\tgpe\tvde\tffe\tcer\tsubstitutions\tdeletions\tinsertions\n"
        b"u1\tinf\t-0.0\t\t0.5\t0.25\t0.1\t1\t0\t0\n"
        b"u2\t1.0\t-inf\t0.125\t\t\t0.2\t2\t1\t0\n"
        b"u3\t\t\t\t\t\t\t\t\t\n"
        b"mean\tinf\t-inf\t0.125\t0.5\t0.25\t0.15000000000000002\t1.5\t0.5\t0.0\n"
    )


def test_save_pitch_tsv(tmp_path):
    track = pitch.PitchTrack(
        np.array([0.0, -0.0, 220.5, 1e-300]), np.array([False, False, True, True]), 86
    )
    path = tmp_path / "f0.tsv"
    pitch.save_pitch_tsv(track, path)
    assert path.read_bytes() == (
        b"# frame_rate: 86.0\n"
        b"frame\tf0_hz\tvoiced\n"
        b"0\t0.0\t0\n"
        b"1\t-0.0\t0\n"
        b"2\t220.5\t1\n"
        b"3\t1e-300\t1\n"
    )


def test_write_errors(tmp_path):
    path = tmp_path / "errors.tsv"
    cli._write_errors(path, [
        ("utt1", "load", "bad\tcell\nacross\rlines"),
        ("utt2", "FLT", "reference text is empty"),
    ])
    assert path.read_bytes() == (
        b"id\tstage\terror\n"
        b"utt1\tload\tbad cell across lines\n"
        b"utt2\tFLT\treference text is empty\n"
    )


def test_write_errors_without_rows(tmp_path):
    path = tmp_path / "errors.tsv"
    cli._write_errors(path, [])
    assert path.read_bytes() == b"id\tstage\terror\n"


def test_vocode_roundtrip_tsv(tmp_path, monkeypatch, capsys):
    spec_dir = tmp_path / "specs"
    spec_dir.mkdir()
    for name in ("a", "b", "c", "d"):
        np.save(spec_dir / f"{name}.npy", np.ones((4, 513)))
    gaps = iter([INF, -0.0, 0.1, 3])
    monkeypatch.setattr(dsp, "spectral_convergence", lambda *args: next(gaps))
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
