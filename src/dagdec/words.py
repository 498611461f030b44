"""Word-level text helpers shared by lexicon extraction and metrics."""

from __future__ import annotations

from collections.abc import Iterator

_PUNCT = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"  # string.punctuation, without `string`
_NUMERIC_SEPARATORS = set(",.:-/")


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
        word = raw.strip(_PUNCT)
        if word and not is_numeric_token(word):
            yield word
