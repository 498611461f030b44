"""Output checker that shares no code with the program under test.

It knows the planted expectations from the generator and the token
surfaces, and judges each decoded output on its own terms: phrase
containment, in-vocabulary words, the length bound, agreement of the
reported constraint flags with real containment, and a digest of
(tokens, cost) pinned in digests.json.
"""

from __future__ import annotations

import hashlib
import json
import math

SOW = "▁"
SPECIALS = ("<s>", "</s>")
PHRASE_MODES = ("hlc", "control-dag")
VOCAB_MODES = ("vc", "control-dag")
LENGTH_MODES = ("lc", "control-dag")


def digest(tokens: list[int], cost_repr: str) -> str:
    return hashlib.sha256(json.dumps([list(tokens), cost_repr]).encode()).hexdigest()[:16]


def contains(haystack: list[int], needle: list[int]) -> bool:
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def words_of(tokens: list[int], surfaces: list[str]) -> list[str]:
    """Whole words: pieces joined, split at start-of-word marks."""
    text = "".join(surfaces[t] for t in tokens if surfaces[t] not in SPECIALS)
    return [w for w in text.split(SOW) if w]


def check(job: dict, out: dict, surfaces: list[str], pinned: str | None) -> list[str]:
    """Problems with one output; an empty list means it passed."""
    mode = job["fields"]["mode"]
    if out.get("status") != "ok":
        # every job is feasible by construction, so anything else is wrong
        return [f"status {out.get('status')}: {out.get('error') or out.get('note')}"]
    tokens = out["tokens"]
    problems = []
    if not all(isinstance(t, int) and 0 <= t < len(surfaces) for t in tokens):
        return ["token id outside the table"]
    if not math.isfinite(float(out["cost"])):
        problems.append(f"cost {out['cost']} is not finite")
    words = words_of(tokens, surfaces)
    if out.get("text") != " ".join(words):
        problems.append("text does not spell the tokens")
    present = [contains(tokens, p) for p in job["phrases"]]
    if mode in PHRASE_MODES and not all(present):
        problems.append(f"planted phrase missing: {present}")
    if mode == "cbs-dag" and list(out["constraints_met"]) != present:
        problems.append(f"constraints_met {out['constraints_met']} != containment {present}")
    if mode in VOCAB_MODES:
        allowed = set(job["vocab_words"]) | set(SPECIALS)
        stray = [w for w in words if w not in allowed]
        if stray:
            problems.append(f"words outside lexicon and entities: {stray[:3]}")
    if mode in LENGTH_MODES and len(tokens) > job["upper_bound"]:
        problems.append(f"{len(tokens)} tokens exceed the bound {job['upper_bound']}")
    got = digest(tokens, out["cost"])
    if got != out.get("digest"):
        problems.append("digest reported by the worker does not match its output")
    if pinned is not None and got != pinned:
        problems.append(f"digest {got} != pinned {pinned}")
    return problems
