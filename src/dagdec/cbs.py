"""Decoding directly over the pruned lattice: greedy, beam, constrained beam.

The constrained search adapts dynamic beam allocation to lattices: items
sweep vertices in topological order, candidate tokens at each vertex are
the vertex's most likely emissions plus the continuation tokens of the
tracked constraint phrases, and survivors are regrouped into banks keyed
by how many constraint tokens remain unmet, keeping the most likely item
per bank.
"""

from __future__ import annotations

from typing import Sequence

from .constraints import ConstraintPhrase, _Matchers
from .dag import Dag
from .result import STATUS_EMPTY, STATUS_OK, DecodeResult


def effective_beam_size(base_beam: int, total_constraint_tokens: int) -> int:
    """Dynamic beam width: always larger than the number of possible banks."""
    return max(base_beam, total_constraint_tokens + 1)


def greedy_decode(dag: Dag) -> DecodeResult:
    """Local argmax walk: best transition, then best emission at its target."""
    tokens = []
    score = 0.0
    u = dag.start_vertex
    while u != dag.final_vertex:
        if not dag.transitions[u]:
            raise ValueError(f"vertex {u} has no outgoing transitions")
        v, tlp = dag.transitions[u][0]
        if not dag.emissions[v]:
            raise ValueError(f"vertex {v} has no emissions")
        token, elp = dag.emissions[v][0]
        tokens.append(token)
        score += tlp + elp
        u = v
    return DecodeResult(status=STATUS_OK, tokens=tuple(tokens), cost=-score + 0.0)


def beam_decode(dag: Dag, beam_size: int) -> DecodeResult:
    """Plain per-vertex beam search, keeping the top items at each vertex."""
    _check_width("beam_size", beam_size)
    return _beam_search(dag, (), beam_size, cap=beam_size)


def cbs_dag_decode(
    dag: Dag, constraints: Sequence[ConstraintPhrase], base_beam: int
) -> DecodeResult:
    """Constrained beam search with bank-based retention.

    The returned result's `constraints_met` flags report, per phrase,
    whether its matcher completed; when not all constraints complete, the
    overall best hypothesis is returned with the unmet flags set rather
    than failing.
    """
    _check_width("base_beam", base_beam)
    constraints = tuple(constraints)
    total = sum(len(p) for p in constraints)
    width = effective_beam_size(base_beam, total)
    return _beam_search(dag, constraints, width, cap=1)


def _check_width(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def _beam_search(
    dag: Dag,
    constraints: tuple[ConstraintPhrase, ...],
    beam_width: int,
    cap: int,
) -> DecodeResult:
    """The best final item of `_sweep`, whose banks hold at most `cap` items."""
    finals = _sweep(dag, constraints, beam_width, cap)[dag.final_vertex]
    if not finals:
        return DecodeResult(status=STATUS_EMPTY, note="no path reached the final vertex")
    if 0 in finals:  # the bank with every constraint token met
        best = finals[0][0]
    else:  # banks differ in met tokens, so (-score, unmet) never ties
        best = min((bank[0] for bank in finals.values()), key=lambda it: (-it[0], it[2][1]))
    flags = tuple(s == len(p) for s, p in zip(best[2][0], constraints))
    return DecodeResult(
        status=STATUS_OK,
        tokens=_tokens(best[1]),
        cost=-best[0] + 0.0,
        constraints_met=flags,
        note=None if all(flags) else "constraints unmet",
    )


def _sweep(
    dag: Dag,
    constraints: tuple[ConstraintPhrase, ...],
    beam_width: int,
    cap: int,
) -> list[dict[int, list[tuple]]]:
    """Each vertex's banks, filled in topological order as candidates are made.

    `banks[v]` maps a count of unmet constraint tokens to at most `cap`
    items, best first in the order `(-score, -met tokens, tokens)`. An item
    is `(score, path, matcher state)`, where a path is `(token, parent path)`
    or None at the start. A candidate that cannot enter its bank is dropped
    before anything is allocated for it, and token tuples are built only to
    break a score tie. Items with equal keys spell the same tokens to the
    same vertex, so they are interchangeable, and the order in which
    candidates arrive does not change what a bank keeps.

    A vertex's menu, its first `beam_width` emissions, is split on first
    use in one pass that puts each pair, in row order, into a list of
    phrase-alphabet pairs or a list of foreign pairs. Next to them, `rest`
    maps the phrase tokens the vertex emits past the menu to their
    log-probs; it is built only for a row longer than the width in a search
    with phrases, and every other menu shares one empty dict. Each
    phrase-alphabet candidate steps the matchers; every foreign candidate
    of an item goes to the bank of the item's reset successor, read from
    `_Matchers.resets` once made. Foreign pairs come in row order,
    `(-logprob, index)`, and IEEE addition is monotone, so their scores do
    not increase: once a full bank refuses one, it refuses the rest, and
    they are not made. The foreign list is not cut to `cap` entries: a later
    pair whose sum rounds to the same score still wins on its smaller id.
    """
    matchers = _Matchers(constraints)
    alphabet = matchers.alphabet
    resets = matchers.resets
    no_rest: dict[int, float] = {}  # shared by every menu without one; only read
    menus: list[tuple | None] = [None] * dag.num_vertices
    banks: list[dict[int, list[tuple]]] = [{} for _ in range(dag.num_vertices)]
    banks[dag.start_vertex][matchers.total] = [(0.0, None, matchers.start)]

    for u in range(dag.final_vertex):
        # cbs_dag_decode's width exceeds the number of banks, so every bank expands.
        items = [item for bank in banks[u].values() for item in bank]
        if not items:
            continue
        for v, tlp in dag.transitions[u][:beam_width]:
            menu = menus[v]
            if menu is None:
                row = dag.emissions[v]
                phrase_pairs, foreign = [], []
                for pair in row[:beam_width]:
                    if pair[0] in alphabet:
                        phrase_pairs.append(pair)
                    else:
                        foreign.append(pair)
                rest = no_rest
                if alphabet and len(row) > beam_width:
                    rest = {t: lp for t, lp in row[beam_width:] if t in alphabet}
                menu = menus[v] = (phrase_pairs, foreign, rest)
            phrase_pairs, foreign, rest = menu
            target = banks[v]
            for score, path, state in items:
                base = score + tlp
                candidates = phrase_pairs
                if rest:
                    # Continuation tokens emittable at v but outside the menu.
                    candidates = phrase_pairs + [
                        (tokens[s], rest[tokens[s]])
                        for s, (tokens, _) in zip(state[0], matchers.tables)
                        if s < len(tokens) and tokens[s] in rest
                    ]
                moves = state[2]
                for token, elp in candidates:
                    _offer(target, moves.get(token) or matchers.step(state, token),
                           base + elp, token, path, cap)
                if foreign:
                    reset = resets[state[3]] or matchers.reset(state)
                    for token, elp in foreign:
                        if not _offer(target, reset, base + elp, token, path, cap):
                            break

    return banks


def _offer(
    target: dict[int, list[tuple]], state: tuple, score: float, token: int,
    path: tuple | None, cap: int,
) -> bool:
    """Put a candidate into its bank at `target`, unless the bank is full and
    its last item outscores the candidate; return whether it went in."""
    bank = target.get(state[1])
    if bank is None:
        target[state[1]] = [(score, (token, path), state)]
        return True
    if len(bank) == cap and score < bank[-1][0]:
        return False
    item = (score, (token, path), state)
    i = len(bank)
    while i and _precedes(item, bank[i - 1]):
        i -= 1
    bank.insert(i, item)
    del bank[cap:]
    return True


def _precedes(item: tuple, other: tuple) -> bool:
    """Whether `item` sorts strictly before `other` of the same bank."""
    if item[0] != other[0]:
        return item[0] > other[0]
    return _tokens(item[1]) < _tokens(other[1])


def _tokens(path: tuple | None) -> tuple[int, ...]:
    out = []
    while path is not None:
        token, path = path
        out.append(token)
    out.reverse()
    return tuple(out)
