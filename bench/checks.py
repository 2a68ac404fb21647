"""Output checks per workload, written independently of voxkit.

Each check returns the set of utterance ids whose outcome is unexpected
together with a short reason for each, so a run can count failures per
utterance. Files are read with the standard library and numpy only.
"""

import csv
import hashlib
import math
import wave
from pathlib import Path

import numpy as np

from workloads import CURATE_MAX_CER, CURATE_MIN_SNR, HOP, SR

PEAK_PCM = 0.95 * 32767.0  # VN normalizes the peak to 0.95 before 16-bit rounding


def digest(out_dir):
    """sha256 over every output file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    out_dir = Path(out_dir)
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_tsv(path):
    """Rows of a TSV as dicts, skipping '#' comment lines."""
    with open(path, encoding="utf-8", newline="") as f:
        lines = [line for line in f if not line.startswith("#")]
    return list(csv.DictReader(lines, delimiter="\t", quoting=csv.QUOTE_NONE))


def _read_pcm(path):
    with wave.open(str(path), "rb") as f:
        rate, width, channels = f.getframerate(), f.getsampwidth(), f.getnchannels()
        data = np.frombuffer(f.readframes(f.getnframes()), dtype="<i2")
    if width != 2 or channels != 1:
        raise ValueError(f"{path}: expected 16-bit mono, got {8 * width}-bit x {channels}")
    return rate, data


def _float(cell):
    return float(cell) if cell not in ("", None) else math.nan


def check(corpus, out_dir):
    """Dispatch to the workload's check; returns {utterance id: reason}."""
    out_dir = Path(out_dir)
    try:
        return CHECKS[corpus.workload](corpus, out_dir)
    except (OSError, ValueError, KeyError, csv.Error) as exc:
        return {utt: f"outputs unreadable: {type(exc).__name__}: {exc}" for utt in corpus.ids}


def _cer_matches(corpus, utt, cer):
    """CER times the normalized reference length equals the oracle distance."""
    n_ref, distance = corpus.edits[utt]
    return abs(cer * n_ref - distance) < 1e-6 * n_ref


def check_eval(corpus, out_dir):
    bad = {}
    errors = {row["id"] for row in _read_tsv(out_dir / "errors.tsv")}
    rows = {row["id"]: row for row in _read_tsv(out_dir / "report.tsv")}
    for utt in corpus.ids:
        row = rows.get(utt)
        if utt in errors:
            bad[utt] = "listed in errors.tsv"
        elif row is None:
            bad[utt] = "no report row"
        else:
            values = {k: _float(v) for k, v in row.items() if k != "id"}
            if not all(math.isfinite(v) for v in values.values()):
                bad[utt] = f"non-finite value in {values}"
            elif not _cer_matches(corpus, utt, values["cer"]):
                bad[utt] = f"cer {values['cer']} disagrees with the edit distance"
            elif utt in corpus.identity and (
                values["mcd"] != 0.0 or values["msd"] != 0.0 or values["gpe"] != 0.0
            ):
                bad[utt] = f"identity pair scored {values}"
    return bad


def check_curate(corpus, out_dir):
    bad = {}
    errors = {row["id"] for row in _read_tsv(out_dir / "errors.tsv")}
    kept = {row["id"]: row for row in _read_tsv(out_dir / "manifest.tsv")}
    dropped = {row["id"]: row for row in _read_tsv(out_dir / "dropped.tsv")}
    wavs = {p.stem for p in out_dir.glob("*.wav")}
    for utt in corpus.ids:
        places = [name for name, ids in (("errors", errors), ("kept", kept), ("dropped", dropped)) if utt in ids]
        if utt in corpus.malformed:
            if places != ["errors"] or utt in wavs:
                bad[utt] = f"malformed input ended in {places}"
            continue
        if len(places) != 1 or places[0] == "errors":
            bad[utt] = f"well-formed input ended in {places}"
            continue
        row = kept.get(utt) or dropped[utt]
        snr, cer = _float(row["snr_db"]), _float(row["cer"])
        keep = snr > CURATE_MIN_SNR and cer < CURATE_MAX_CER
        if not _cer_matches(corpus, utt, cer):
            bad[utt] = f"cer {cer} disagrees with the edit distance"
        elif keep != (utt in kept):
            bad[utt] = f"snr {snr} cer {cer} filed as {places[0]}"
        elif (utt in wavs) != (utt in kept):
            bad[utt] = f"output wav present={utt in wavs} for a {places[0]} row"
        elif utt in kept:
            rate, pcm = _read_pcm(out_dir / f"{utt}.wav")
            peak = int(np.max(np.abs(pcm.astype(np.int32)))) if len(pcm) else 0
            if rate != SR or abs(peak - PEAK_PCM) > 1.0:
                bad[utt] = f"output at {rate} Hz with peak {peak}"
    return bad


def check_vocode(corpus, out_dir):
    bad = {}
    errors = {row["id"] for row in _read_tsv(out_dir / "errors.tsv")}
    gaps = {row["id"]: _float(row["spectral_convergence"]) for row in _read_tsv(out_dir / "roundtrip.tsv")}
    for utt in corpus.ids:
        path = out_dir / f"{utt}.wav"
        if utt in errors or utt not in gaps or not path.exists():
            bad[utt] = "no output"
            continue
        rate, pcm = _read_pcm(path)
        expected = HOP * (corpus.samples[utt] // HOP)
        if not 0.0 <= gaps[utt] < 1.0:
            bad[utt] = f"spectral convergence {gaps[utt]}"
        elif rate != SR or len(pcm) != expected:
            bad[utt] = f"{len(pcm)} samples at {rate} Hz, expected {expected} at {SR} Hz"
    return bad


CHECKS = {"eval": check_eval, "curate": check_curate, "vocode": check_vocode}
