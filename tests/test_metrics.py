"""Slot/occurrence error rates, neologism rate, brevity penalty."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagdec.metrics import (
    EvalRecord,
    EvalVocabulary,
    brevity_penalty,
    build_eval_vocabulary,
    closest_reference_length,
    compute_report,
    exact_occurrence_error_rate,
    neologism_rate,
    slot_error_rate,
)
from dagdec.words import content_words

from .oracles import (
    ref_brevity_penalty,
    ref_exact_occurrence_error,
    ref_neologism_rate,
    ref_slot_error_rate,
)


def rec(output, values=(), refs=()):
    return EvalRecord(output=output, required_values=tuple(values), references=tuple(refs))


class TestSlotErrorRate:
    def test_value_present(self):
        assert slot_error_rate([rec("Call 555-1234", ["555-1234"])]) == 0.0

    def test_value_missing(self):
        assert slot_error_rate([rec("Call me", ["555-1234"])]) == 1.0

    def test_per_pair_denominator(self):
        records = [
            rec("a and b", ["a", "b"]),
            rec("only c here", ["missing"]),
        ]
        assert slot_error_rate(records) == pytest.approx(1 / 3)

    def test_no_values_no_contribution(self):
        assert slot_error_rate([rec("anything")]) == 0.0


class TestExactOccurrence:
    def test_all_present(self):
        records = [rec("a b", ["a"]), rec("c d", ["c", "d"])]
        assert exact_occurrence_error_rate(records) == 0.0

    def test_quarter(self):
        records = [rec("x", ["x"]), rec("y", ["y"]), rec("z", ["z"]), rec("w", ["q"])]
        assert exact_occurrence_error_rate(records) == 25.0

    def test_two_missing_count_once(self):
        records = [rec("nothing here", ["a", "b"]), rec("ok a", ["a"])]
        assert exact_occurrence_error_rate(records) == 50.0


class TestNeologism:
    def test_all_in_vocab(self):
        vocab = EvalVocabulary(words=frozenset({"the", "cat", "sat"}))
        assert neologism_rate([rec("the cat sat.")], vocab) == 0.0

    def test_invented_word_flagged(self):
        vocab = EvalVocabulary(words=frozenset({"visit", "Cambridge"}))
        assert neologism_rate([rec("visit Cambrige")], vocab) == 100.0

    def test_numbers_never_oov(self):
        vocab = EvalVocabulary(words=frozenset({"call"}))
        assert neologism_rate([rec("call 555-1234, 3.5 7/8")], vocab) == 0.0

    def test_punctuation_stripped(self):
        vocab = EvalVocabulary(words=frozenset({"hello"}))
        assert neologism_rate([rec("(hello!)")], vocab) == 0.0

    def test_planted_rate(self):
        vocab = EvalVocabulary(words=frozenset({f"w{i}" for i in range(50)}))
        rng = random.Random(1)
        records = []
        planted = 0
        for i in range(100):
            words = [f"w{rng.randrange(50)}" for _ in range(8)]
            if i % 14 == 0:  # 8 of 100 records get an invented word
                words[3] = f"zzq{i}"
                planted += 1
            records.append(rec(" ".join(words)))
        assert neologism_rate(records, vocab) == pytest.approx(planted)

    def test_vocabulary_must_be_nonempty(self):
        with pytest.raises(ValueError):
            EvalVocabulary(words=frozenset())


class TestContentWords:
    def test_edge_punctuation_empty_and_numeric_pieces(self):
        text = "(hello!) 555-1234 -- Mr. 3.5 U.S. don't"
        assert list(content_words(text)) == ["hello", "Mr", "U.S", "don't"]

    def test_every_vocabulary_source_reads_content_words(self):
        vocab = build_eval_vocabulary(
            corpus=["St. Louis, 42"], required_values=["Mr. Smith"], extra_words=["U.S.", "9:30"]
        )
        assert vocab.words == {"St", "Louis", "Mr", "Smith", "U.S"}
        assert neologism_rate([rec("Mr. Smith (U.S.) St. Louis 9:30")], vocab) == 0.0


class TestBrevityPenalty:
    def test_equal_lengths(self):
        assert brevity_penalty([10, 5], [10, 5]) == 1.0

    def test_half_length(self):
        assert brevity_penalty([5], [10]) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_longer_candidate_capped(self):
        assert brevity_penalty([20], [10]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            brevity_penalty([], [])
        with pytest.raises(ValueError):
            brevity_penalty([1], [])
        with pytest.raises(ValueError):
            brevity_penalty([0], [1])

    def test_closest_reference_prefers_shorter_tie(self):
        assert closest_reference_length(5, [3, 7]) == 3
        assert closest_reference_length(5, [4, 9]) == 4


class TestAgainstReferenceScripts:
    def test_planted_error_corpus(self):
        rng = random.Random(42)
        vocab_words = {f"w{i}" for i in range(60)}
        outputs, values, records = [], [], []
        for i in range(100):
            words = [f"w{rng.randrange(60)}" for _ in range(10)]
            required = [words[2], words[5]] if i % 3 else [words[2], "absent-val"]
            if i % 7 == 0:
                words[8] = f"neo{i}"
            out = " ".join(words)
            outputs.append(out)
            values.append(required)
            records.append(rec(out, required, refs=[" ".join(["r"] * rng.randint(5, 15))]))

        assert slot_error_rate(records) == pytest.approx(
            ref_slot_error_rate(outputs, values), abs=0
        )
        assert exact_occurrence_error_rate(records) == pytest.approx(
            ref_exact_occurrence_error(outputs, values), abs=0
        )
        vocab = EvalVocabulary(words=frozenset(vocab_words))
        assert neologism_rate(records, vocab) == pytest.approx(
            ref_neologism_rate(outputs, vocab_words), abs=0
        )
        cands = [len(o.split()) for o in outputs]
        refs = [len(r.references[0].split()) for r in records]
        assert brevity_penalty(cands, refs) == pytest.approx(
            ref_brevity_penalty(cands, refs), abs=1e-9
        )

    @given(st.integers(min_value=0, max_value=9999))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = random.Random(seed)
        records = [
            rec(
                " ".join(f"t{rng.randrange(9)}" for _ in range(5)),
                [f"t{rng.randrange(9)}"],
            )
            for _ in range(8)
        ]
        shuffled = records[:]
        rng.shuffle(shuffled)
        vocab = EvalVocabulary(words=frozenset({f"t{i}" for i in range(6)}))
        assert slot_error_rate(records) == slot_error_rate(shuffled)
        assert exact_occurrence_error_rate(records) == exact_occurrence_error_rate(shuffled)
        assert neologism_rate(records, vocab) == neologism_rate(shuffled, vocab)

    def test_rates_bounded(self):
        records = [rec("a", ["b"]), rec("c", ["c"])]
        vocab = EvalVocabulary(words=frozenset({"a"}))
        assert 0.0 <= slot_error_rate(records) <= 1.0
        assert 0.0 <= exact_occurrence_error_rate(records) <= 100.0
        assert 0.0 <= neologism_rate(records, vocab) <= 100.0


class TestReport:
    def test_report_keys_and_bp(self):
        records = [
            rec("a b c", ["a"], refs=["x y z", "x y z w w w"]),
            rec("d e", ["d"], refs=["p q"]),
        ]
        vocab = build_eval_vocabulary(corpus=["a b c d e"])
        report = compute_report(records, vocab)
        assert set(report) == {"ser", "ser_per_response", "eor", "neo", "bp"}
        assert report["ser"] == 0.0
        assert report["eor"] == 0.0
        assert report["neo"] == 0.0
        assert report["bp"] == 1.0  # closest refs have the same lengths

    def test_bp_none_without_references(self):
        report = compute_report([rec("a", ["a"])])
        assert report["bp"] is None
        assert report["neo"] is None

    def test_eval_vocabulary_recipe(self):
        vocab = build_eval_vocabulary(
            corpus=["The cat, 42 times!"],
            required_values=["Hong Kong"],
            extra_words=["extra"],
        )
        for w in ("The", "cat", "Hong", "Kong", "extra"):
            assert w in vocab
        assert "42" not in vocab  # numerics dropped from corpus words
