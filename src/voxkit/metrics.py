"""Evaluation metrics for synthesized speech.

Pitch-track metrics
    gpe   gross pitch error: of the frames voiced in both tracks, the
          fraction whose f0 deviates from the reference by more than 20%
          of the reference value (strictly).
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

import json
import math
import unicodedata
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dsp import FeatureSeq, MelConfig, Waveform, dtw_align, log_mel, mel_cepstrum
from .errors import (
    EmptyReferenceError,
    EmptyTrackError,
    LengthMismatchError,
    NoCovoicedFramesError,
    RateMismatchError,
)
from .pitch import PitchTrack
from .serialize import json_value, write_tsv

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


def gpe(ref: PitchTrack, hyp: PitchTrack) -> float:
    """Gross pitch error over co-voiced frames."""
    report = f0_metrics(ref, hyp)
    if report.gpe is None:
        raise NoCovoicedFramesError("no frame is voiced in both tracks")
    return report.gpe


def vde(ref: PitchTrack, hyp: PitchTrack) -> float:
    """Voicing decision error over all frames."""
    return f0_metrics(ref, hyp).vde


def ffe(ref: PitchTrack, hyp: PitchTrack) -> float:
    """F0 frame error: voicing errors plus gross pitch errors, over all frames."""
    return f0_metrics(ref, hyp).ffe


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


def log_mel_pair(ref: Waveform, hyp: Waveform, cfg: MelConfig | None = None) -> tuple:
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


def mcd(ref: Waveform, hyp: Waveform, cfg: MelConfig | None = None) -> float:
    """Mel-cepstral distortion after temporal alignment."""
    value, _ = mcd_from_log_mel(*log_mel_pair(ref, hyp, cfg))
    return value


def msd(ref: Waveform, hyp: Waveform, cfg: MelConfig | None = None) -> float:
    """Log-mel spectral distortion after temporal alignment."""
    ref_logm, hyp_logm = log_mel_pair(ref, hyp, cfg)
    value, _ = dtw_rmse(ref_logm.frames, hyp_logm.frames)
    return value


def normalize_text(text: str) -> str:
    """Unicode NFC, lowercased, punctuation removed and whitespace runs collapsed to one space."""
    text = unicodedata.normalize("NFC", text).lower()
    text = "".join(c for c in text if not unicodedata.category(c).startswith("P"))
    return " ".join(text.split())


def edit_counts(ref: str, hyp: str) -> tuple:
    """Substitution/deletion/insertion counts of one optimal alignment.

    Ties during backtrace prefer substitution, then insertion, then deletion.
    """
    n, m = len(ref), len(hyp)
    dist = np.zeros((n + 1, m + 1), dtype=np.int64)
    dist[:, 0] = np.arange(n + 1)
    dist[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        prev = dist[i - 1]
        row = dist[i]
        ref_c = ref[i - 1]
        for j in range(1, m + 1):
            row[j] = min(
                prev[j - 1] + (ref_c != hyp[j - 1]),
                row[j - 1] + 1,
                prev[j] + 1,
            )
    n_sub = n_del = n_ins = 0
    i, j = n, m
    while i or j:
        if i and j and dist[i, j] == dist[i - 1, j - 1] + (ref[i - 1] != hyp[j - 1]):
            n_sub += ref[i - 1] != hyp[j - 1]
            i -= 1
            j -= 1
        elif j and dist[i, j] == dist[i, j - 1] + 1:
            n_ins += 1
            j -= 1
        else:
            n_del += 1
            i -= 1
    return int(n_sub), int(n_del), int(n_ins)


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


@dataclass(frozen=True)
class UtteranceReport:
    """Metric values for one utterance; None marks a metric not computed."""

    utterance_id: str
    mcd: float | None = None
    msd: float | None = None
    gpe: float | None = None
    vde: float | None = None
    ffe: float | None = None
    cer: float | None = None
    substitutions: float | None = None
    deletions: float | None = None
    insertions: float | None = None

    def values(self) -> dict:
        """Report columns by name: the id under "id", then each metric."""
        return dict(zip(REPORT_COLUMNS, (getattr(self, f.name) for f in fields(self))))


REPORT_COLUMNS = ("id",) + tuple(f.name for f in fields(UtteranceReport)[1:])


def _column_means(rows) -> dict:
    means = {}
    for column in REPORT_COLUMNS[1:]:
        values = [row[column] for row in rows if row[column] is not None]
        means[column] = sum(values) / len(values) if values else None
    return means


def report_means(reports) -> dict:
    """Column means over the utterances where each metric is present."""
    return _column_means([r.values() for r in reports])


def write_report_tsv(reports, path) -> None:
    """One row per utterance plus a final row of means with id 'mean'."""
    rows = [r.values() for r in reports]
    means = {"id": "mean", **_column_means(rows)}
    write_tsv(path, REPORT_COLUMNS, [[row[c] for c in REPORT_COLUMNS] for row in rows + [means]])


def write_report_json(reports, path) -> None:
    """The same report as JSON: utterance rows plus a mean block."""
    rows = [r.values() for r in reports]
    payload = {
        "utterances": [{c: json_value(row[c]) for c in REPORT_COLUMNS} for row in rows],
        "mean": {c: json_value(v) for c, v in _column_means(rows).items()},
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
