"""Evaluation metrics for synthesized speech.

Pitch-track metrics, all from f0_metrics
    gpe   gross pitch error: of the frames voiced in both tracks, the
          fraction whose f0 deviates from the reference by more than 20%
          of the reference value (strictly); None when there are none.
    vde   voicing decision error: fraction of all frames whose voicing
          flags disagree.
    ffe   f0 frame error: fraction of all frames with either a voicing
          error or a gross pitch error.

Spectral metrics
    mcd   per-dimension RMSE between cepstral frames along the optimal
          monotone alignment.
    msd   the same distance over log-mel frames.

Text metric
    cer   character-level edit distance between normalized strings,
          split into substitution/deletion/insertion fractions of the
          reference length. Values above 1 are possible.
"""

import math
import unicodedata
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import FeatureSeq, MelConfig, Waveform, dtw_align, log_mel, mel_cepstrum
from .errors import (
    EmptyReferenceError,
    EmptyTrackError,
    LengthMismatchError,
    RateMismatchError,
)
from .pitch import PitchTrack
from .serialize import json_value, write_json, write_tsv

GROSS_ERROR_RTOL = 0.2  # relative deviation from the reference pitch counted as gross


@dataclass(frozen=True)
class F0MetricReport:
    """Joint pitch-track error rates; gpe is None when no frame is co-voiced."""

    gpe: float | None
    vde: float
    ffe: float
    n_frames: int
    n_covoiced: int


def f0_metrics(ref: PitchTrack, hyp: PitchTrack) -> F0MetricReport:
    """All pitch-track error rates in one pass."""
    if len(ref) == 0 or len(hyp) == 0:
        raise EmptyTrackError("pitch metrics need non-empty tracks")
    if len(ref) != len(hyp):
        raise LengthMismatchError(
            f"track lengths differ: {len(ref)} vs {len(hyp)}; align them first"
        )
    both = ref.voiced & hyp.voiced
    gross = both & (np.abs(ref.f0 - hyp.f0) > GROSS_ERROR_RTOL * ref.f0)
    n_gross, n_covoiced = int(gross.sum()), int(both.sum())
    n = len(ref)
    vde_value = int((ref.voiced != hyp.voiced).sum()) / n
    return F0MetricReport(
        gpe=n_gross / n_covoiced if n_covoiced else None,
        vde=vde_value,
        ffe=vde_value + n_gross / n,
        n_frames=n,
        n_covoiced=n_covoiced,
    )


def dtw_rmse(a: np.ndarray, b: np.ndarray) -> tuple:
    """Per-dimension RMSE along the optimal alignment; returns (rmse, path length).

    This is the frame-level entry point: it accepts feature matrices
    directly, so callers may compare spectrograms or cepstra they computed
    themselves (for example against a vocoded reference).
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    alignment = dtw_align(a, b)
    ii = np.fromiter((i for i, _ in alignment.path), dtype=np.intp)
    jj = np.fromiter((j for _, j in alignment.path), dtype=np.intp)
    sq = float(((a[ii] - b[jj]) ** 2).sum())
    dim = a.shape[1]
    return math.sqrt(sq / (len(alignment.path) * dim)), len(alignment.path)


def log_mel_pair(ref: Waveform, hyp: Waveform, cfg: MelConfig = MelConfig()) -> tuple:
    """Log-mel features of a pair at one sample rate, the input of mcd and msd.

    A caller that wants both distortions analyzes each waveform once.
    """
    if ref.sample_rate != hyp.sample_rate:
        raise RateMismatchError(
            f"sample rates differ: {ref.sample_rate} vs {hyp.sample_rate}"
        )
    return log_mel(ref, cfg), log_mel(hyp, cfg)


def mcd_from_log_mel(ref: FeatureSeq, hyp: FeatureSeq) -> tuple:
    """Mel-cepstral distortion of log_mel_pair output; returns (mcd, path length)."""
    return dtw_rmse(mel_cepstrum(ref).frames, mel_cepstrum(hyp).frames)


def mcd(ref: Waveform, hyp: Waveform, cfg: MelConfig = MelConfig()) -> float:
    """Mel-cepstral distortion after temporal alignment."""
    value, _ = mcd_from_log_mel(*log_mel_pair(ref, hyp, cfg))
    return value


def msd(ref: Waveform, hyp: Waveform, cfg: MelConfig = MelConfig()) -> float:
    """Log-mel spectral distortion after temporal alignment."""
    ref_logm, hyp_logm = log_mel_pair(ref, hyp, cfg)
    value, _ = dtw_rmse(ref_logm.frames, hyp_logm.frames)
    return value


class _PunctuationTable(dict):
    """A str.translate table that drops punctuation (Unicode categories P*) and keeps any
    other code point. It keeps each answer for the Basic Multilingual Plane once a code point
    is first seen, so it holds at most 65,536 entries (4.7 MB); every code point would take
    78 MB, so the rarer ones above it are looked up each time."""

    def __missing__(self, code):
        kept = None if unicodedata.category(chr(code)).startswith("P") else code
        if code < 0x10000:
            self[code] = kept
        return kept


_DROP_PUNCTUATION = _PunctuationTable()


def normalize_text(text: str) -> str:
    """Unicode NFC, lowercased, punctuation removed and whitespace runs collapsed to one space."""
    text = unicodedata.normalize("NFC", text).lower().translate(_DROP_PUNCTUATION)
    return " ".join(text.split())


def edit_counts(ref: str, hyp: str) -> tuple:
    """Substitution/deletion/insertion counts of one optimal alignment.

    D[i][j] is the edit distance of ref[:i] and hyp[:j]. Neighbouring cells
    differ by -1, 0 or +1, so each row of D is held as bit vectors over hyp,
    bit j - 1 for column j, in Python ints (Hyyrö's bit-parallel Levenshtein):
    vp/vn mark D[i][j] - D[i][j - 1] = +1/-1 along the row, hp/hn mark
    D[i][j] - D[i - 1][j] = +1/-1 from the row above. One step per ref
    character computes the next row; the counts are exact integers, and the
    four vectors take half a byte per cell. Ties during backtrace prefer the
    diagonal (a match or a substitution), then insertion, then deletion.
    """
    n, m = len(ref), len(hyp)
    mask = (1 << m) - 1
    match_bits = {}
    for j, c in enumerate(hyp):
        match_bits[c] = match_bits.get(c, 0) | 1 << j
    vp, vn = mask, 0  # row 0 is D[0][j] = j
    rows = [(0, 0, vp, vn)]
    for c in ref:
        eq = match_bits.get(c, 0)
        d0 = ((((eq & vp) + vp) ^ vp) | eq | vn) & mask
        hp = vn | (~(d0 | vp) & mask)
        hn = vp & d0
        hp_in = hp << 1 | 1  # D[i][0] - D[i - 1][0] = +1
        vp = (hn << 1 | ~(d0 | hp_in)) & mask
        vn = hp_in & d0
        rows.append((hp, hn, vp, vn))
    n_sub = n_del = n_ins = 0
    i, j = n, m
    while i and j:
        k = j - 1
        hp, hn, vp, vn = rows[i]
        up = (hp >> k & 1) - (hn >> k & 1)  # D[i][j] - D[i - 1][j]
        above_vp, above_vn = rows[i - 1][2:]
        diagonal = up + (above_vp >> k & 1) - (above_vn >> k & 1)  # D[i][j] - D[i-1][j-1]
        if diagonal == (ref[i - 1] != hyp[k]):
            n_sub += diagonal
            i -= 1
            j -= 1
        elif vp >> k & 1:
            n_ins += 1
            j -= 1
        else:
            n_del += 1
            i -= 1
    return n_sub, n_del + i, n_ins + j


@dataclass(frozen=True)
class CerReport:
    """Character error rate and its split, as fractions of reference length."""

    cer: float
    substitutions: float
    deletions: float
    insertions: float
    n_ref_chars: int
    n_substitutions: int
    n_deletions: int
    n_insertions: int


def cer(reference: str, hypothesis: str) -> CerReport:
    """Character error rate between a reference text and a transcript."""
    ref = normalize_text(reference)
    hyp = normalize_text(hypothesis)
    if not ref:
        raise EmptyReferenceError("reference text is empty after normalization")
    n_sub, n_del, n_ins = edit_counts(ref, hyp)
    n = len(ref)
    sub, dele, ins = n_sub / n, n_del / n, n_ins / n
    return CerReport(
        cer=sub + dele + ins,
        substitutions=sub,
        deletions=dele,
        insertions=ins,
        n_ref_chars=n,
        n_substitutions=n_sub,
        n_deletions=n_del,
        n_insertions=n_ins,
    )


METRIC_COLUMNS = {
    "mcd": ("mcd",),
    "msd": ("msd",),
    "f0": ("gpe", "vde", "ffe"),
    "cer": ("cer", "substitutions", "deletions", "insertions"),
}  # each metric's report columns, in report order
REPORT_COLUMNS = ("id",) + sum(METRIC_COLUMNS.values(), ())
REPORT_FILES = ("report.tsv", "report.json")  # write_report's two files in its out_dir, in order


def write_report(rows: dict, out_dir) -> dict:
    """Write report.tsv and report.json from {id: {column: value}} rows; returns the column means.

    A column missing from a row is absent (None). Each mean is over the rows
    where its column is present, and None when there are none. Sums start
    at -0.0, the identity of float addition, so a column of -0.0 alone has
    the mean -0.0. report.tsv ends with a row of the means with id 'mean';
    report.json holds the utterance rows and a mean block.
    """
    table = [{"id": i, **{c: row.get(c) for c in REPORT_COLUMNS[1:]}} for i, row in rows.items()]
    means = {}
    for column in REPORT_COLUMNS[1:]:
        values = [row[column] for row in table if row[column] is not None]
        means[column] = sum(values, -0.0) / len(values) if values else None
    cells = [row.values() for row in table + [{"id": "mean", **means}]]
    write_tsv(Path(out_dir) / REPORT_FILES[0], REPORT_COLUMNS, cells)
    payload = {
        "utterances": [{c: json_value(v) for c, v in row.items()} for row in table],
        "mean": {c: json_value(v) for c, v in means.items()},
    }
    write_json(Path(out_dir) / REPORT_FILES[1], payload)
    return means
