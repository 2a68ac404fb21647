import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    edit_counts_recursive,
    edit_distance_recursive,
    edit_distance_two_rows,
    normalize_text,
)
from voxkit import metrics
from voxkit.errors import EmptyReferenceError


def test_kitten_sitting_counts():
    report = metrics.cer("sitting", "kitten")
    assert report.n_substitutions == 2
    assert report.n_deletions == 1
    assert report.n_insertions == 0
    assert report.n_ref_chars == 7
    assert report.cer == pytest.approx(3 / 7)


def test_matches_recursive_oracle_on_random_pairs():
    import random

    rng = random.Random(99)
    alphabet = "abc"
    for _ in range(1200):
        ref = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
        hyp = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        n_sub, n_del, n_ins = metrics.edit_counts(ref, hyp)
        distance = edit_distance_recursive(ref, hyp)
        assert n_sub + n_del + n_ins == distance
        assert distance == edit_distance_two_rows(ref, hyp)
        assert (n_sub, n_del, n_ins) == edit_counts_recursive(ref, hyp)
        report = metrics.cer(ref, hyp)
        # the rate is defined as the exact sum of the reported fractions;
        # the plain ratio may differ from that sum by one ulp
        assert report.cer == report.substitutions + report.deletions + report.insertions
        assert report.cer == pytest.approx(distance / len(ref), rel=1e-12)


def test_rate_can_exceed_one():
    report = metrics.cer("a", "bbbb")
    assert report.cer == 4.0


def test_empty_hypothesis_is_all_deletions():
    report = metrics.cer("abc", "")
    assert report.cer == 1.0
    assert report.n_deletions == 3


def test_identical_strings_are_free():
    assert metrics.cer("exactly the same", "exactly the same").cer == 0.0


def test_empty_reference_rejected():
    with pytest.raises(EmptyReferenceError):
        metrics.cer("", "anything")
    with pytest.raises(EmptyReferenceError):
        metrics.cer("?!...", "anything")  # nothing left after normalization


class TestNormalization:
    def test_case_punctuation_whitespace(self):
        assert metrics.normalize_text("  Hello,   World!! ") == "hello world"

    def test_normalized_before_comparison(self):
        assert metrics.cer("Hello, World!", "hello world").cer == 0.0

    def test_unicode_composition(self):
        # decomposed and precomposed accents compare equal
        assert metrics.cer("café", "café").cer == 0.0

    @given(st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, text):
        once = metrics.normalize_text(text)
        assert metrics.normalize_text(once) == once

    @given(st.text())
    @settings(max_examples=50, deadline=None)
    def test_equals_the_per_character_definition(self, text):
        assert metrics.normalize_text(text) == normalize_text(text)
