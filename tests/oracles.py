"""Independent reference implementations used as test oracles.

Everything here is deliberately brute-force and kept separate from the
library's algorithms: path enumeration instead of relaxation, frontier-set
simulation instead of product construction, closed-form normal equations
instead of the fitting routine, and naive counting for the metrics.
"""

from __future__ import annotations

import math
from collections import Counter

from dagdec.dag import Dag
from dagdec.wfsa import EPSILON, SIGMA, Wfsa, _rm_epsilon_unweighted, trim


def enumerate_wfsa_paths(w: Wfsa) -> list[tuple[tuple[int, ...], float]]:
    """All accepting paths of an acyclic acceptor as (tokens, cost)."""
    out: list[tuple[tuple[int, ...], float]] = []

    def walk(state: int, tokens: tuple[int, ...], cost: float) -> None:
        if state in w.finals:
            out.append((tokens, cost))
        for arc in w.arcs_from(state):
            label = tokens if arc.label == EPSILON else tokens + (arc.label,)
            walk(arc.dst, label, cost + arc.weight)

    walk(w.start, (), 0.0)
    return out


def min_wfsa_path(w: Wfsa) -> tuple[tuple[int, ...], float] | None:
    paths = enumerate_wfsa_paths(w)
    if not paths:
        return None
    return min(paths, key=lambda p: (p[1], p[0]))


def length_bucket_minima(w: Wfsa, max_len: int) -> dict[int, float]:
    """Min cost over accepting paths with exactly l arcs, per l <= max_len."""
    buckets: dict[int, float] = {}

    def walk(state: int, arcs_used: int, cost: float) -> None:
        if state in w.finals:
            if cost < buckets.get(arcs_used, math.inf):
                buckets[arcs_used] = cost
        if arcs_used == max_len:
            return
        for arc in w.arcs_from(state):
            if arc.label == EPSILON:
                raise ValueError("length buckets are defined for epsilon-free automata")
            walk(arc.dst, arcs_used + 1, cost + arc.weight)

    walk(w.start, 0, 0.0)
    return buckets


def enumerate_dag_paths(dag: Dag) -> list[tuple[tuple[int, ...], float]]:
    """All start-to-final lattice paths, spelled source-vertex-emission-wise.

    Tokens along a path are the emissions at every vertex but the final
    one; the cost sums emission and transition negative log-likelihoods.
    """
    out: list[tuple[tuple[int, ...], float]] = []

    def walk(u: int, tokens: tuple[int, ...], score: float) -> None:
        if u == dag.final_vertex:
            out.append((tokens, -score + 0.0))
            return
        for token, elp in dag.emissions[u]:
            for v, tlp in dag.transitions[u]:
                walk(v, tokens + (token,), score + elp + tlp)

    walk(dag.start_vertex, (), 0.0)
    return out


def nfa_accepts(a: Wfsa, tokens: tuple[int, ...]) -> bool:
    """Frontier-set membership with epsilon closure and wildcard matching."""

    def eps_close(states: set[int]) -> set[int]:
        seen = set(states)
        stack = list(states)
        while stack:
            s = stack.pop()
            for arc in a.arcs_from(s):
                if arc.label == EPSILON and arc.dst not in seen:
                    seen.add(arc.dst)
                    stack.append(arc.dst)
        return seen

    frontier = eps_close({a.start})
    for token in tokens:
        nxt = {
            arc.dst
            for s in frontier
            for arc in a.arcs_from(s)
            if arc.label == token or arc.label == SIGMA
        }
        if not nxt:
            return False
        frontier = eps_close(nxt)
    return bool(frontier & a.finals)


def arc_scan_intersect(w: Wfsa, a: Wfsa) -> Wfsa:
    """Product construction that scans every constraint arc per lattice arc.

    The reference for the arc order of wfsa.intersect: states are numbered
    in breadth-first discovery order, and each lattice arc emits its
    matches in the constraint state's arc order, sigma arcs included.
    """
    if a.has_epsilon():
        a = _rm_epsilon_unweighted(a)
    ids = {(w.start, a.start): 0}
    queue = [(w.start, a.start)]
    out = Wfsa(num_states=1, start=0)

    def state_id(pair: tuple[int, int]) -> int:
        if pair not in ids:
            ids[pair] = out.add_state()
            queue.append(pair)
        return ids[pair]

    for p, q in queue:
        src = ids[(p, q)]
        if p in w.finals and q in a.finals:
            out.finals.add(src)
        for arc in w.arcs_from(p):
            if arc.label == EPSILON:
                out.add_arc(src, EPSILON, arc.weight, state_id((arc.dst, q)))
                continue
            for carc in a.arcs_from(q):
                if carc.label == arc.label or carc.label == SIGMA:
                    out.add_arc(src, arc.label, arc.weight, state_id((arc.dst, carc.dst)))
    return trim(out)


def contains_subsequence(haystack: tuple[int, ...], needle: tuple[int, ...]) -> bool:
    """Contiguous containment check, written the naive way."""
    n = len(needle)
    for i in range(len(haystack) - n + 1):
        if tuple(haystack[i : i + n]) == tuple(needle):
            return True
    return False


def naive_find_all(text: list[int], pattern: list[int]) -> list[int]:
    """Start offsets of every occurrence of pattern in text."""
    hits = []
    for i in range(len(text) - len(pattern) + 1):
        if text[i : i + len(pattern)] == pattern:
            hits.append(i)
    return hits


def ols_closed_form(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """Normal-equation least squares: returns (slope, intercept)."""
    n = len(pairs)
    sx = sum(x for x, _ in pairs)
    sy = sum(y for _, y in pairs)
    sxx = sum(x * x for x, _ in pairs)
    sxy = sum(x * y for x, y in pairs)
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = sy / n - slope * sx / n
    return slope, intercept


# --- reference metric scripts -------------------------------------------------


def ref_slot_error_rate(outputs: list[str], values_per_output: list[list[str]]) -> float:
    pairs = 0
    miss = 0
    for out, values in zip(outputs, values_per_output):
        for v in values:
            pairs += 1
            if out.find(v) < 0:
                miss += 1
    return miss / pairs if pairs else 0.0


def ref_exact_occurrence_error(outputs: list[str], values_per_output: list[list[str]]) -> float:
    if not outputs:
        return 0.0
    bad = 0
    for out, values in zip(outputs, values_per_output):
        if any(out.find(v) < 0 for v in values):
            bad += 1
    return 100.0 * bad / len(outputs)


def ref_neologism_rate(outputs: list[str], vocab: set[str]) -> float:
    import string

    def strip(w: str) -> str:
        return w.strip(string.punctuation)

    def numeric(w: str) -> bool:
        return bool(w) and all(c.isdigit() or c in ",.:-/" for c in w) and any(
            c.isdigit() for c in w
        )

    if not outputs:
        return 0.0
    bad = 0
    for out in outputs:
        for raw in out.split():
            w = strip(raw)
            if w and not numeric(w) and w not in vocab:
                bad += 1
                break
    return 100.0 * bad / len(outputs)


def ref_brevity_penalty(cand_lengths: list[int], ref_lengths: list[int]) -> float:
    c = sum(cand_lengths)
    r = sum(ref_lengths)
    if c < r:
        return math.exp(1.0 - r / c)
    return 1.0


def word_frequencies(lines: list[str]) -> Counter:
    """Independent unigram counter mirroring the lexicon extraction rules."""
    import string

    counts: Counter = Counter()
    for line in lines:
        for raw in line.split():
            w = raw.strip(string.punctuation)
            if not w:
                continue
            if all(c.isdigit() or c in ",.:-/" for c in w) and any(c.isdigit() for c in w):
                continue
            counts[w] += 1
    return counts
