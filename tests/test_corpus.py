import math

import pytest

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

    def test_infinite_snr_allowed(self):
        assert rec("a", snr=math.inf).snr_db == math.inf
        assert rec("a", snr=-math.inf).snr_db == -math.inf

    def test_nan_snr_rejected(self):
        with pytest.raises(InvalidConfigError):
            rec("a", snr=math.nan)


class TestManifest:
    def test_records_sorted_by_id(self):
        m = Manifest((rec("b"), rec("a"), rec("c")))
        assert m.ids() == ["a", "b", "c"]

    def test_duplicate_id_rejected(self):
        with pytest.raises(InvalidConfigError, match="dup"):
            Manifest((rec("dup"), rec("dup")))


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
