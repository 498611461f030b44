"""Constraint-error and length-quality metrics.

Slot errors count required values missing from an output (per-value);
exact-occurrence errors count outputs with at least one missing value
(per-response); neologism rate counts outputs containing at least one
out-of-vocabulary word; the brevity penalty is the standard corpus-level
term that flags too-short generation.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .words import content_words


@dataclass(frozen=True)
class EvalRecord:
    """One scored output with its required values and references."""

    output: str
    required_values: tuple[str, ...] = ()
    references: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "required_values", tuple(self.required_values))
        object.__setattr__(self, "references", tuple(self.references))


@dataclass(frozen=True)
class EvalVocabulary:
    """True-cased word set against which neologisms are judged."""

    words: frozenset[str]

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("evaluation vocabulary must be nonempty")

    def __contains__(self, word: str) -> bool:
        return word in self.words


def build_eval_vocabulary(
    corpus: Iterable[str] = (),
    required_values: Iterable[str] = (),
    extra_words: Iterable[str] = (),
) -> EvalVocabulary:
    """The `content_words` (true-cased) of the corpus lines, the required
    values and the extra words."""
    texts = itertools.chain(corpus, required_values, extra_words)
    return EvalVocabulary(words=frozenset(w for text in texts for w in content_words(text)))


def slot_error_rate(records: Sequence[EvalRecord]) -> float:
    """Fraction of (record, required value) pairs missing from the output."""
    total = 0
    missing = 0
    for record in records:
        for value in record.required_values:
            total += 1
            if value not in record.output:
                missing += 1
    return missing / total if total else 0.0


def exact_occurrence_error_rate(records: Sequence[EvalRecord]) -> float:
    """Percentage of records with at least one missing required value."""
    if not records:
        return 0.0
    errors = sum(
        1
        for record in records
        if any(value not in record.output for value in record.required_values)
    )
    return 100.0 * errors / len(records)


def neologism_rate(records: Sequence[EvalRecord], vocab: EvalVocabulary) -> float:
    """Percentage of records with a `content_words` word not in the vocabulary."""
    if not records:
        return 0.0
    flagged = sum(
        1 for record in records if any(w not in vocab for w in content_words(record.output))
    )
    return 100.0 * flagged / len(records)


def closest_reference_length(candidate_length: int, reference_lengths: Sequence[int]) -> int:
    """Reference length closest to the candidate's; ties pick the shorter."""
    if not reference_lengths:
        raise ValueError("no reference lengths")
    return min(reference_lengths, key=lambda r: (abs(r - candidate_length), r))


def brevity_penalty(
    candidate_lengths: Sequence[int], reference_lengths: Sequence[int]
) -> float:
    """Corpus brevity penalty: exp(1 - r/c) when c < r, else 1.

    The two lists are parallel per record, with each reference length
    already selected as the closest to its candidate.
    """
    if not candidate_lengths or len(candidate_lengths) != len(reference_lengths):
        raise ValueError("need equal-length, nonempty length lists")
    if min(candidate_lengths) < 1 or min(reference_lengths) < 1:
        raise ValueError("lengths must be positive")
    c = sum(candidate_lengths)
    r = sum(reference_lengths)
    return math.exp(1.0 - r / c) if c < r else 1.0


def compute_report(
    records: Sequence[EvalRecord], vocab: EvalVocabulary | None = None
) -> dict:
    """Aggregate report; slot errors are given under both denominators."""
    report = {
        "ser": slot_error_rate(records),
        "ser_per_response": (
            exact_occurrence_error_rate(records) / 100.0 if records else 0.0
        ),
        "eor": exact_occurrence_error_rate(records),
        "neo": neologism_rate(records, vocab) if vocab is not None else None,
        "bp": None,
    }
    if records and all(record.references for record in records):
        cands = [max(1, len(record.output.split())) for record in records]
        refs = [
            closest_reference_length(
                c, [max(1, len(ref.split())) for ref in record.references]
            )
            for c, record in zip(cands, records)
        ]
        report["bp"] = brevity_penalty(cands, refs)
    return report
