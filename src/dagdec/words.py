"""Word-level text helpers shared by lexicon extraction and metrics."""

from __future__ import annotations

import string
from typing import Iterator

_PUNCT = set(string.punctuation)
_NUMERIC_SEPARATORS = set(",.:-/")


def strip_punct(word: str) -> str:
    """Strip leading and trailing punctuation characters."""
    start = 0
    end = len(word)
    while start < end and word[start] in _PUNCT:
        start += 1
    while end > start and word[end - 1] in _PUNCT:
        end -= 1
    return word[start:end]


def is_numeric_token(word: str) -> bool:
    """True for digit runs with optional , . : - / separators (e.g. 555-1234)."""
    if not word:
        return False
    has_digit = False
    for ch in word:
        if ch.isdigit():
            has_digit = True
        elif ch not in _NUMERIC_SEPARATORS:
            return False
    return has_digit


def content_words(text: str) -> Iterator[str]:
    """The words of `text` as every vocabulary and the neologism check read
    them: each whitespace-separated piece less its edge punctuation, with
    empty and numeric pieces left out."""
    for raw in text.split():
        word = strip_punct(raw)
        if word and not is_numeric_token(word):
            yield word
