"""Corpus manifests: loading, saving, filtering, and summaries.

A manifest is a UTF-8, LF-terminated TSV with the header

    id	audio	duration_s	text	hyp_text	snr_db	cer	speaker

Optional fields (text, hyp_text, snr_db, cer, speaker) are empty when
absent; infinite SNR values are written as inf / -inf. A leading
"# source: <tag>" comment carries the provenance tag.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path

from .errors import InvalidConfigError, ParseError
from .serialize import parse_optional_float, write_tsv

MANIFEST_COLUMNS = ("id", "audio", "duration_s", "text", "hyp_text", "snr_db", "cer", "speaker")

SNR_HISTOGRAM_EDGES = tuple(float(v) for v in range(-10, 45, 5))
CER_HISTOGRAM_EDGES = (0.0, 0.02, 0.05, 0.10, 0.20, 0.50, 1.0)

MISSING_FIELD_REASON = "missing-field"


def _check_cell(name: str, value: str) -> str:
    if "\t" in value or "\n" in value or "\r" in value:
        raise InvalidConfigError(f"{name} must not contain tabs or newlines")
    return value


@dataclass(frozen=True)
class UtteranceRecord:
    """One manifest row."""

    utterance_id: str
    audio_path: str
    duration_s: float
    text: str = ""
    hyp_text: str = ""
    snr_db: float | None = None
    cer: float | None = None
    speaker: str = ""

    def __post_init__(self):
        if not self.utterance_id:
            raise InvalidConfigError("utterance id must be non-empty")
        for name in ("utterance_id", "audio_path", "text", "hyp_text", "speaker"):
            _check_cell(name, getattr(self, name))
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise InvalidConfigError(
                f"duration_s must be finite and positive, got {self.duration_s}"
            )
        if self.cer is not None and not (math.isfinite(self.cer) and self.cer >= 0):
            raise InvalidConfigError(f"cer must be finite and non-negative, got {self.cer}")
        if self.snr_db is not None and math.isnan(self.snr_db):
            raise InvalidConfigError("snr_db must not be NaN")


@dataclass(frozen=True)
class Manifest:
    """Utterance records kept sorted by id, plus a provenance tag."""

    records: tuple = ()
    source_tag: str = "Raw"

    def __post_init__(self):
        records = tuple(sorted(self.records, key=lambda r: r.utterance_id))
        seen = set()
        for r in records:
            if r.utterance_id in seen:
                raise InvalidConfigError(f"duplicate utterance id {r.utterance_id!r}")
            seen.add(r.utterance_id)
        object.__setattr__(self, "records", records)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def ids(self) -> list:
        return [r.utterance_id for r in self.records]


def _text_lines(data: bytes) -> list:
    """Lines of UTF-8 bytes, split at \\n, \\r\\n and \\r as Path.read_text reads them."""
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")


def load_manifest(path) -> Manifest:
    """Parse a manifest TSV, reporting the line number of any defect."""
    data = Path(path).read_bytes()
    try:
        lines = _text_lines(data)
    except UnicodeDecodeError as exc:
        message = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise ParseError(message, line=len(_text_lines(data[: exc.start]))) from None
    source_tag = "Raw"
    records = []
    seen = {}
    header_seen = False
    for lineno, line in enumerate(lines, 1):
        if line == "":
            continue
        if line.startswith("#"):
            if line.startswith("# source:"):
                source_tag = line[len("# source:") :].strip()
            continue
        cells = line.split("\t")
        if not header_seen:
            if cells != list(MANIFEST_COLUMNS):
                raise ParseError(
                    f"expected header {list(MANIFEST_COLUMNS)}, got {cells}", line=lineno
                )
            header_seen = True
            continue
        if len(cells) != len(MANIFEST_COLUMNS):
            raise ParseError(
                f"expected {len(MANIFEST_COLUMNS)} fields, got {len(cells)}", line=lineno
            )
        rid, audio, duration, text, hyp_text, snr, cer, speaker = cells
        if rid in seen:
            raise ParseError(
                f"duplicate utterance id {rid!r}, first seen on line {seen[rid]}",
                line=lineno,
            )
        seen[rid] = lineno
        try:
            record = UtteranceRecord(
                utterance_id=rid,
                audio_path=audio,
                duration_s=float(duration),
                text=text,
                hyp_text=hyp_text,
                snr_db=parse_optional_float(snr),
                cer=parse_optional_float(cer),
                speaker=speaker,
            )
        except (ValueError, InvalidConfigError) as exc:
            raise ParseError(str(exc), line=lineno) from None
        records.append(record)
    if not header_seen:
        raise ParseError("missing header line")
    return Manifest(tuple(records), source_tag)


def _record_cells(record: UtteranceRecord) -> list:
    return [
        record.utterance_id,
        record.audio_path,
        record.duration_s,
        record.text,
        record.hyp_text,
        record.snr_db,
        record.cer,
        record.speaker,
    ]


def save_manifest(manifest: Manifest, path) -> None:
    """Write a manifest TSV with LF endings and round-trippable floats."""
    write_tsv(
        path,
        MANIFEST_COLUMNS,
        map(_record_cells, manifest),
        comment=f"source: {manifest.source_tag}",
    )


def resolve_audio_path(record: UtteranceRecord, manifest_path) -> Path:
    """Resolve a record's audio path against its manifest's directory."""
    audio = Path(record.audio_path)
    if audio.is_absolute():
        return audio
    return Path(manifest_path).parent / audio


@dataclass(frozen=True)
class FilterConfig:
    """Quality thresholds for corpus filtering.

    Keeps a record iff snr_db > min_snr_db (strict) and cer < max_cer
    (strict); mode "cer" checks only the CER clause. Records missing a
    required field are dropped.
    """

    min_snr_db: float = 15.0
    max_cer: float = 0.10
    mode: str = "snr+cer"

    def __post_init__(self):
        if self.mode not in ("snr+cer", "cer"):
            raise InvalidConfigError(f"mode must be 'snr+cer' or 'cer', got {self.mode!r}")
        if math.isnan(self.min_snr_db) or math.isnan(self.max_cer):
            raise InvalidConfigError("min_snr_db and max_cer must not be NaN")


@dataclass(frozen=True)
class FilterResult:
    """Partition of a manifest into kept and dropped records."""

    kept: Manifest
    dropped: Manifest
    reasons: dict = field(default_factory=dict)  # utterance id -> reason tag


def apply_filter(manifest: Manifest, cfg: FilterConfig | None = None) -> FilterResult:
    """Split a manifest by the quality thresholds."""
    cfg = cfg or FilterConfig()
    kept = []
    dropped = []
    reasons = {}
    for record in manifest:
        reason = _drop_reason(record, cfg)
        if reason is None:
            kept.append(record)
        else:
            dropped.append(record)
            reasons[record.utterance_id] = reason
    return FilterResult(
        kept=Manifest(tuple(kept), f"{manifest.source_tag}+FLT"),
        dropped=Manifest(tuple(dropped), f"{manifest.source_tag}+FLT-dropped"),
        reasons=reasons,
    )


def _drop_reason(record: UtteranceRecord, cfg: FilterConfig):
    if record.cer is None or (cfg.mode == "snr+cer" and record.snr_db is None):
        return MISSING_FIELD_REASON
    problems = []
    if cfg.mode == "snr+cer" and not record.snr_db > cfg.min_snr_db:
        problems.append("low-snr")
    if not record.cer < cfg.max_cer:
        problems.append("high-cer")
    return ",".join(problems) if problems else None


def save_dropped_report(result: FilterResult, path) -> None:
    """Write the dropped records with a trailing reason column."""
    write_tsv(
        path,
        MANIFEST_COLUMNS + ("reason",),
        (_record_cells(r) + [result.reasons[r.utterance_id]] for r in result.dropped),
        comment=f"source: {result.dropped.source_tag}",
    )


@dataclass(frozen=True)
class Histogram:
    """Counts of values between consecutive edges, [edge[i], edge[i+1])."""

    edges: tuple
    counts: tuple
    n_below: int = 0
    n_above: int = 0
    n_pos_inf: int = 0
    n_neg_inf: int = 0
    n_absent: int = 0


def _histogram(values, edges) -> Histogram:
    counts = [0] * (len(edges) - 1)
    below = above = pos_inf = neg_inf = absent = 0
    for v in values:
        if v is None:
            absent += 1
        elif math.isinf(v):
            if v > 0:
                pos_inf += 1
            else:
                neg_inf += 1
        elif v < edges[0]:
            below += 1
        elif v >= edges[-1]:
            above += 1
        else:
            counts[bisect_right(edges, v) - 1] += 1
    return Histogram(
        edges=tuple(edges),
        counts=tuple(counts),
        n_below=below,
        n_above=above,
        n_pos_inf=pos_inf,
        n_neg_inf=neg_inf,
        n_absent=absent,
    )


@dataclass(frozen=True)
class CorpusStats:
    """Aggregates over one manifest."""

    n_utterances: int
    total_hours: float
    per_speaker: dict
    snr: Histogram
    cer: Histogram


def summarize(manifest: Manifest) -> CorpusStats:
    """Totals, per-speaker counts, and SNR/CER histograms."""
    per_speaker = {}
    for record in manifest:
        per_speaker[record.speaker] = per_speaker.get(record.speaker, 0) + 1
    return CorpusStats(
        n_utterances=len(manifest),
        total_hours=sum(r.duration_s for r in manifest) / 3600.0,
        per_speaker=per_speaker,
        snr=_histogram((r.snr_db for r in manifest), SNR_HISTOGRAM_EDGES),
        cer=_histogram((r.cer for r in manifest), CER_HISTOGRAM_EDGES),
    )
