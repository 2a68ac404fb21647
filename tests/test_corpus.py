import math
import re
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import histogram_if_chain

from voxkit import corpus
from voxkit.corpus import FilterConfig, Manifest, UtteranceRecord
from voxkit.errors import InvalidConfigError, ParseError


def rec(rid, snr=None, cer=None, duration=1.0, **kw):
    return UtteranceRecord(
        utterance_id=rid,
        audio_path=f"wav/{rid}.wav",
        duration_s=duration,
        snr_db=snr,
        cer=cer,
        **kw,
    )


class TestRecord:
    def test_empty_id_rejected(self):
        with pytest.raises(InvalidConfigError):
            rec("")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(InvalidConfigError):
            rec("a", duration=0.0)
        with pytest.raises(InvalidConfigError):
            rec("a", duration=-1.0)

    def test_tab_in_text_rejected(self):
        with pytest.raises(InvalidConfigError):
            rec("a", text="has\ttab")

    @pytest.mark.parametrize(
        "cells",
        [{"rid": "\udcff"}, {"rid": "a", "text": "x\ud800"}, {"rid": "a", "speaker": "\udfff"}],
    )
    def test_lone_surrogate_rejected(self, cells):
        with pytest.raises(InvalidConfigError, match="lone surrogate"):
            rec(**cells)

    def test_infinite_snr_allowed(self):
        assert rec("a", snr=math.inf).snr_db == math.inf
        assert rec("a", snr=-math.inf).snr_db == -math.inf

    def test_nan_snr_rejected(self):
        with pytest.raises(InvalidConfigError):
            rec("a", snr=math.nan)

    @pytest.mark.parametrize("rid", ["#take2", "# source: evil", "#"])
    def test_id_that_reads_as_a_comment_rejected(self, rid):
        with pytest.raises(InvalidConfigError, match="must not start with '#'"):
            rec(rid)

    def test_hash_later_in_id_allowed(self):
        assert rec("take#2").utterance_id == "take#2"

    @pytest.mark.parametrize("field, value", [
        ("utterance_id", 7),
        ("audio_path", Path("x.wav")),
        ("text", None),
        ("hyp_text", b"bytes"),
        ("speaker", 0),
    ])
    def test_cell_that_is_not_a_str_rejected(self, field, value):
        cells = {"utterance_id": "a", "audio_path": "a.wav", "duration_s": 1.0, field: value}
        with pytest.raises(InvalidConfigError, match=f"{field} must be a str, got "):
            UtteranceRecord(**cells)

    @pytest.mark.parametrize("field, value", [
        ("duration_s", "1.0"),
        ("duration_s", True),
        ("duration_s", None),
        ("duration_s", 1j),
        ("duration_s", Decimal("1.5")),
        ("snr_db", "20"),
        ("snr_db", False),
        ("cer", True),
        ("cer", "0.1"),
    ])
    def test_bool_or_non_real_number_rejected(self, field, value):
        cells = {"utterance_id": "a", "audio_path": "a.wav", "duration_s": 1.0, field: value}
        with pytest.raises(InvalidConfigError, match=f"{field} must be a real number, got "):
            UtteranceRecord(**cells)

    def test_int_numbers_allowed(self):
        record = rec("a", snr=20, cer=0, duration=2)
        assert (record.duration_s, record.snr_db, record.cer) == (2, 20, 0)

    @pytest.mark.parametrize("field", ["duration_s", "snr_db", "cer"])
    @pytest.mark.parametrize("value, message", [
        (Fraction(1, 3), "must be a real number, got Fraction(1, 3), not a float or an int"),
        (np.float32(0.1), "must be a real number, got np.float32(0.1), not a float or an int"),
        (10**400, "must be an int that a float holds exactly"),
        (-(10**5000), "must be an int that a float holds exactly"),
        (2**53 + 1, "must be an int that a float holds exactly"),
        (np.int64(2**62 + 1), "must be an int that a float holds exactly"),
    ], ids=["fraction", "float32", "overflow", "huge", "2**53+1", "int64"])
    def test_number_that_would_not_load_back_rejected(self, field, value, message):
        cells = {"utterance_id": "a", "audio_path": "a.wav", "duration_s": 1.0, field: value}
        with pytest.raises(InvalidConfigError, match=re.escape(f"{field} {message}")):
            UtteranceRecord(**cells)

    @pytest.mark.parametrize("value", [2**53, -(2**60), np.int64(7), np.float64(0.1)])
    def test_int_or_float_subclass_loads_back_equal(self, value, tmp_path):
        record = rec("a", snr=value, cer=abs(value), duration=abs(value))
        corpus.save_manifest(Manifest((record,)), tmp_path / "m.tsv")
        loaded = corpus.load_manifest(tmp_path / "m.tsv").records[0]
        assert (loaded.duration_s, loaded.snr_db, loaded.cer) == (abs(value), value, abs(value))

    @pytest.mark.parametrize("cer", [-0.1, math.inf, math.nan])
    def test_negative_or_non_finite_cer_rejected(self, cer):
        with pytest.raises(InvalidConfigError, match="cer must be finite and non-negative"):
            rec("a", cer=cer)


class TestManifest:
    def test_records_sorted_by_id(self):
        m = Manifest((rec("b"), rec("a"), rec("c")))
        assert m.ids() == ["a", "b", "c"]

    def test_duplicate_id_rejected(self):
        with pytest.raises(InvalidConfigError, match="dup"):
            Manifest((rec("dup"), rec("dup")))

    @pytest.mark.parametrize("tag", ["a\tb", "a\nb", "a\rb", "DN\n", "DN\ud800"])
    def test_source_tag_with_tab_line_break_or_surrogate_rejected(self, tag):
        with pytest.raises(InvalidConfigError, match="source_tag must not contain"):
            Manifest((), tag)

    def test_source_tag_that_is_not_a_str_rejected(self):
        with pytest.raises(InvalidConfigError, match="source_tag must be a str, got NoneType"):
            Manifest((), None)

    @pytest.mark.parametrize("tag", [" DN", "DN ", "DN\x0b", "\u3000"])
    def test_source_tag_with_surrounding_whitespace_rejected(self, tag):
        with pytest.raises(InvalidConfigError, match="whitespace"):
            Manifest((), tag)


class TestManifestIo:
    def test_round_trip_field_for_field(self, tmp_path):
        records = (
            rec("u1", snr=12.5, cer=0.07, text="hello world", hyp_text="hello word",
                speaker="spk0", duration=2.25),
            rec("u2", snr=math.inf, cer=0.0, speaker="spk1"),
            rec("u3", snr=-math.inf),
            rec("u4"),
        )
        m = Manifest(records, source_tag="DN+VAD-3")
        path = tmp_path / "manifest.tsv"
        corpus.save_manifest(m, path)
        loaded = corpus.load_manifest(path)
        assert loaded.source_tag == "DN+VAD-3"
        assert loaded.records == m.records

    def test_header_only_gives_empty_manifest(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("\t".join(corpus.MANIFEST_COLUMNS) + "\n")
        loaded = corpus.load_manifest(path)
        assert len(loaded) == 0
        assert loaded.source_tag == "Raw"

    def test_empty_optional_cells_give_absent_fields(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "\t".join(corpus.MANIFEST_COLUMNS)
            + "\n"
            + "u1\twav/u1.wav\t1.5\t\t\t\t\t\n"
        )
        (r,) = corpus.load_manifest(path).records
        assert r.snr_db is None and r.cer is None
        assert r.text == "" and r.hyp_text == "" and r.speaker == ""

    def test_duplicate_id_names_id_and_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "\t".join(corpus.MANIFEST_COLUMNS)
            + "\nu7\ta.wav\t1.0\t\t\t\t\t"
            + "\nu7\tb.wav\t1.0\t\t\t\t\t\n"
        )
        with pytest.raises(ParseError, match="u7") as info:
            corpus.load_manifest(path)
        assert info.value.line == 3

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "# source: Raw\n"
            + "\t".join(corpus.MANIFEST_COLUMNS)
            + "\nu1\ta.wav\t1.0\t\t\t\t\t"
            + "\nu2\tb.wav\t1.0\n"
        )
        with pytest.raises(ParseError, match="line 4"):
            corpus.load_manifest(path)

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "\t".join(corpus.MANIFEST_COLUMNS)
            + "\nu1\ta.wav\tfast\t\t\t\t\t\n"
        )
        with pytest.raises(ParseError) as info:
            corpus.load_manifest(path)
        assert info.value.line == 2

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("")
        with pytest.raises(ParseError, match="header"):
            corpus.load_manifest(path)

    def test_source_tag_comment_round_trip(self, tmp_path):
        path = tmp_path / "m.tsv"
        corpus.save_manifest(Manifest((), source_tag="DN+VAD-1+FLT"), path)
        first = path.read_text().splitlines()[0]
        assert first == "# source: DN+VAD-1+FLT"
        assert corpus.load_manifest(path).source_tag == "DN+VAD-1+FLT"

    def test_source_tag_with_a_tab_names_its_line(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("\t".join(corpus.MANIFEST_COLUMNS) + "\n# source: DN\tx\n")
        with pytest.raises(ParseError, match="line 2: source_tag") as info:
            corpus.load_manifest(path)
        assert info.value.line == 2

    def test_infinite_snr_serialized_as_inf(self, tmp_path):
        path = tmp_path / "m.tsv"
        corpus.save_manifest(Manifest((rec("a", snr=math.inf), rec("b", snr=-math.inf))), path)
        body = path.read_text()
        assert "\tinf\t" in body and "\t-inf\t" in body

    def test_resolve_audio_path(self, tmp_path):
        m = tmp_path / "data" / "m.tsv"
        assert corpus.resolve_audio_path(rec("a"), m) == m.parent / "wav" / "a.wav"
        absolute = UtteranceRecord("b", "/abs/b.wav", 1.0)
        assert str(corpus.resolve_audio_path(absolute, m)) == "/abs/b.wav"


class TestFilter:
    def test_both_thresholds_pass(self):
        result = corpus.apply_filter(Manifest((rec("a", snr=16.0, cer=0.05),)))
        assert result.kept.ids() == ["a"]
        assert len(result.dropped) == 0

    def test_snr_boundary_is_strict(self):
        result = corpus.apply_filter(Manifest((rec("a", snr=15.0, cer=0.05),)))
        assert result.dropped.ids() == ["a"]
        assert result.reasons["a"] == "low-snr"

    def test_cer_boundary_is_strict(self):
        result = corpus.apply_filter(Manifest((rec("a", snr=20.0, cer=0.10),)))
        assert result.dropped.ids() == ["a"]
        assert result.reasons["a"] == "high-cer"

    def test_positive_infinite_snr_passes(self):
        result = corpus.apply_filter(Manifest((rec("a", snr=math.inf, cer=0.0),)))
        assert result.kept.ids() == ["a"]

    def test_missing_field_reason(self):
        m = Manifest((rec("nosnr", cer=0.01), rec("nocer", snr=30.0)))
        result = corpus.apply_filter(m)
        assert result.reasons == {
            "nosnr": corpus.MISSING_FIELD_REASON,
            "nocer": corpus.MISSING_FIELD_REASON,
        }

    def test_both_reasons_joined(self):
        result = corpus.apply_filter(Manifest((rec("a", snr=3.0, cer=0.9),)))
        assert result.reasons["a"] == "low-snr,high-cer"

    def test_cer_mode_ignores_snr(self):
        m = Manifest((rec("a", cer=0.05), rec("b", snr=1.0, cer=0.02), rec("c", cer=0.5)))
        result = corpus.apply_filter(m, FilterConfig(mode="cer"))
        assert result.kept.ids() == ["a", "b"]
        assert result.reasons == {"c": "high-cer"}

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidConfigError):
            FilterConfig(mode="vibes")

    @pytest.mark.parametrize("field", ["min_snr_db", "max_cer"])
    def test_nan_threshold_rejected(self, field):
        with pytest.raises(InvalidConfigError, match="must not be NaN"):
            FilterConfig(**{field: math.nan})

    def test_infinite_thresholds_allowed(self):
        m = Manifest((rec("a", snr=-math.inf, cer=0.0), rec("b", snr=math.inf, cer=5.0)))
        keep_all = corpus.apply_filter(m, FilterConfig(min_snr_db=-math.inf, max_cer=math.inf))
        assert keep_all.kept.ids() == ["b"]  # -inf is not above -inf
        drop_all = corpus.apply_filter(m, FilterConfig(min_snr_db=math.inf, max_cer=-math.inf))
        assert drop_all.kept.ids() == []

    def test_partition(self):
        m = Manifest(tuple(
            rec(f"u{i:03d}", snr=float(i), cer=i / 200.0, duration=float(i + 1))
            for i in range(40)
        ))
        result = corpus.apply_filter(m)
        assert len(result.kept) + len(result.dropped) == len(m)
        assert not set(result.kept.ids()) & set(result.dropped.ids())
        assert set(result.reasons) == set(result.dropped.ids())

    def test_idempotent_on_kept(self):
        m = Manifest(tuple(
            rec(f"u{i:03d}", snr=float(i), cer=i / 200.0) for i in range(40)
        ))
        kept = corpus.apply_filter(m).kept
        again = corpus.apply_filter(Manifest(kept.records, kept.source_tag))
        assert again.kept.records == kept.records
        assert len(again.dropped) == 0

    def test_kept_hours_never_exceed_input_hours(self):
        m = Manifest(tuple(
            rec(f"u{i:03d}", snr=float(i), cer=i / 200.0, duration=float(i + 1))
            for i in range(40)
        ))
        result = corpus.apply_filter(m)
        assert corpus.summarize(result.kept).total_hours <= corpus.summarize(m).total_hours

    def test_source_tags_extended(self):
        m = Manifest((rec("a", snr=20.0, cer=0.01),), source_tag="DN+VAD-3")
        result = corpus.apply_filter(m)
        assert result.kept.source_tag == "DN+VAD-3+FLT"
        assert result.dropped.source_tag == "DN+VAD-3+FLT-dropped"

    def test_dropped_report_has_reason_column(self, tmp_path):
        m = Manifest((rec("a", snr=3.0, cer=0.9), rec("b", snr=20.0, cer=0.01)))
        result = corpus.apply_filter(m)
        path = tmp_path / "dropped.tsv"
        corpus.save_dropped_report(result, path)
        lines = path.read_text().splitlines()
        assert lines[1].endswith("\treason")
        assert lines[2].startswith("a\t") and lines[2].endswith("low-snr,high-cer")


class TestSummarize:
    def test_empty_manifest(self):
        stats = corpus.summarize(Manifest())
        assert stats.n_utterances == 0
        assert stats.total_hours == 0.0
        assert stats.per_speaker == {}

    def test_two_hour_total(self):
        m = Manifest((rec("a", duration=3600.0), rec("b", duration=3600.0)))
        assert corpus.summarize(m).total_hours == pytest.approx(2.0)

    def test_per_speaker_counts(self):
        m = Manifest((
            rec("a", speaker="alice"),
            rec("b", speaker="alice"),
            rec("c", speaker="bob"),
            rec("d"),
        ))
        assert corpus.summarize(m).per_speaker == {"alice": 2, "bob": 1, "": 1}

    def test_snr_histogram_bins_and_overflow(self):
        m = Manifest((
            rec("a", snr=-10.0),   # first bin [-10, -5)
            rec("b", snr=-10.5),   # below
            rec("c", snr=0.0),     # bin [0, 5)
            rec("d", snr=4.999),   # same bin
            rec("e", snr=40.0),    # at top edge counts as above
            rec("f", snr=72.0),    # above
            rec("g", snr=math.inf),
            rec("h", snr=-math.inf),
            rec("i"),              # absent
        ))
        h = corpus.summarize(m).snr
        assert h.edges == tuple(float(v) for v in range(-10, 45, 5))
        assert h.counts[0] == 1
        assert h.counts[2] == 2
        assert sum(h.counts) == 3
        assert (h.n_below, h.n_above) == (1, 2)
        assert (h.n_pos_inf, h.n_neg_inf, h.n_absent) == (1, 1, 1)

    def test_cer_histogram_edges(self):
        m = Manifest((
            rec("a", cer=0.0),    # [0, 0.02)
            rec("b", cer=0.02),   # [0.02, 0.05)
            rec("c", cer=0.09),   # [0.05, 0.10)
            rec("d", cer=0.5),    # [0.5, 1.0)
            rec("e", cer=1.0),    # at top edge counts as above
            rec("f", cer=3.5),    # above
            rec("g"),             # absent
        ))
        h = corpus.summarize(m).cer
        assert h.edges == (0.0, 0.02, 0.05, 0.10, 0.20, 0.50, 1.0)
        assert h.counts == (1, 1, 1, 0, 0, 1)
        assert h.n_above == 2
        assert h.n_absent == 1


# Cells from an alphabet of "#", non-ASCII letters, lone surrogates and the
# characters that str.splitlines, but not a TSV reader, takes for line
# breaks; tabs, LF and CR are rejected by their own tests above.
CELL = st.text(
    st.sampled_from("a#\u00e9\u5b57\U0001f600\ud800 \x0b\x0c\x1c\x85\u2028")
    | st.characters(blacklist_characters="\t\n\r"),
    max_size=6,
)
EDGE_FLOATS = st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308]
)
# Ints a float holds exactly, which load back as equal floats
EXACT_INTS = st.sampled_from([2**53, 2**1023, int(1.7976931348623157e308)]) | st.integers(1, 2**53)
# Numbers that would not load back as saved; UtteranceRecord rejects each of them
NOT_SAVED = [Fraction(1, 3), 10**400, -(10**400), 2**53 + 1, np.float32(0.1), np.int64(2**62 + 1)]
BAD_CER = [-0.1, math.inf, math.nan]
SNR = (
    st.none() | st.sampled_from([math.inf, -math.inf]) | EDGE_FLOATS | st.floats(allow_nan=False)
    | EXACT_INTS | EXACT_INTS.map(lambda n: -n) | st.sampled_from(NOT_SAVED)
)
CER = (
    st.none() | EDGE_FLOATS | st.floats(min_value=0.0, allow_infinity=False) | EXACT_INTS
    | st.sampled_from(NOT_SAVED + BAD_CER)
)
DURATION = (
    st.sampled_from([5e-324, 1e308]) | st.floats(0.0, exclude_min=True, allow_infinity=False)
    | EXACT_INTS | st.sampled_from(NOT_SAVED)
)


def _has_lone_surrogate(*texts):
    return any("\ud800" <= c <= "\udfff" for text in texts for c in text)


def _cell_reprs(record):
    """Each field's repr, so -0.0 and 0.0 differ; an int is the float it loads back as."""
    values = [getattr(record, f.name) for f in fields(record)]
    return [repr(float(v) if isinstance(v, int) else v) for v in values]


def _rejected_number(row):
    """Whether a drawn row holds a number UtteranceRecord rejects; drawn, so found by identity."""
    duration, snr, cer = row[2], row[5], row[6]
    cells = [(duration, NOT_SAVED), (snr, NOT_SAVED), (cer, NOT_SAVED + BAD_CER)]
    return any(value is bad for value, choices in cells for bad in choices)


@pytest.fixture(scope="module")
def drawn_manifest_path(tmp_path_factory):
    return tmp_path_factory.mktemp("drawn_manifest") / "manifest.tsv"


@given(
    rows=st.lists(
        st.tuples(CELL, CELL, DURATION, CELL, CELL, SNR, CER, CELL),
        max_size=6,
        unique_by=lambda row: row[0],
    ),
    tag=CELL,
)
@settings(max_examples=50, deadline=None)
def test_every_manifest_save_writes_loads_back(drawn_manifest_path, rows, tag):
    records = []
    for row in rows:
        texts = [cell for cell in row if isinstance(cell, str)]
        bad_text = row[0] == "" or row[0].startswith("#") or _has_lone_surrogate(*texts)
        if bad_text or _rejected_number(row):
            with pytest.raises(InvalidConfigError):
                UtteranceRecord(*row)
        else:
            records.append(UtteranceRecord(*row))
    if tag != tag.strip() or _has_lone_surrogate(tag):
        with pytest.raises(InvalidConfigError):
            Manifest(tuple(records), tag)
        return
    manifest = Manifest(tuple(records), tag)
    corpus.save_manifest(manifest, drawn_manifest_path)
    loaded = corpus.load_manifest(drawn_manifest_path)
    assert loaded.source_tag == tag
    assert [_cell_reprs(r) for r in loaded] == [_cell_reprs(r) for r in manifest]


@pytest.mark.parametrize("edges", [corpus.SNR_HISTOGRAM_EDGES, corpus.CER_HISTOGRAM_EDGES])
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_histogram_matches_the_if_chain(edges, data):
    near_edges = [math.nextafter(e, d) for e in edges for d in (-math.inf, math.inf)]
    value = (
        st.none()
        | st.sampled_from(list(edges) + near_edges + [math.inf, -math.inf, -0.0])
        | st.floats(allow_nan=False)
    )
    values = data.draw(st.lists(value, max_size=30))
    h = corpus._histogram(iter(values), edges)
    assert h.edges == edges
    assert (h.counts, h.n_below, h.n_above, h.n_pos_inf, h.n_neg_inf, h.n_absent) == (
        histogram_if_chain(values, edges)
    )
