"""Decoding directly over the pruned lattice: greedy, beam, constrained beam.

The constrained search adapts dynamic beam allocation to lattices: items
sweep vertices in topological order, candidate tokens at each vertex are
the vertex's most likely emissions plus the continuation tokens of the
tracked constraint phrases, and survivors are regrouped into banks keyed
by how many constraint tokens remain unmet, keeping the most likely item
per bank.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .constraints import ConstraintPhrase, kmp_failure, kmp_step
from .dag import Dag
from .result import STATUS_EMPTY, STATUS_OK, DecodeResult


@functools.lru_cache(maxsize=4096)
def _failure_table(tokens: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(kmp_failure(tokens))


def kmp_advance(state: int, token: int, phrase: ConstraintPhrase) -> int:
    """Advance a phrase matcher by one token; completion is sticky."""
    if not 0 <= state <= len(phrase.tokens):
        raise ValueError(f"matcher state {state} out of range for phrase of {len(phrase)}")
    return kmp_step(phrase.tokens, _failure_table(phrase.tokens), state, token)


def effective_beam_size(base_beam: int, total_constraint_tokens: int) -> int:
    """Dynamic beam width: always larger than the number of possible banks."""
    return max(base_beam, total_constraint_tokens + 1)


@dataclass(frozen=True)
class BeamItem:
    """One hypothesis: its lattice position, score, and matcher states."""

    vertex: int
    score: float
    tokens: tuple[int, ...]
    match_states: tuple[int, ...] = ()

    @property
    def met_tokens(self) -> int:
        return sum(self.match_states)


def greedy_decode(dag: Dag) -> DecodeResult:
    """Local argmax walk: best transition, then best emission at its target."""
    tokens = []
    score = 0.0
    u = dag.start_vertex
    while u != dag.final_vertex:
        if not dag.transitions[u]:
            raise ValueError(f"vertex {u} has no outgoing transitions")
        v, tlp = max(dag.transitions[u], key=lambda p: (p[1], -p[0]))
        token, elp = max(dag.emissions[v], key=lambda p: (p[1], -p[0]))
        tokens.append(token)
        score += tlp + elp
        u = v
    return DecodeResult(status=STATUS_OK, tokens=tuple(tokens), cost=-score + 0.0)


def beam_decode(dag: Dag, beam_size: int) -> DecodeResult:
    """Plain per-vertex beam search, keeping the top items at each vertex."""
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    result = _beam_search(dag, constraints=(), beam_width=beam_size, use_banks=False)
    return result


def cbs_dag_decode(
    dag: Dag, constraints: Sequence[ConstraintPhrase], base_beam: int
) -> DecodeResult:
    """Constrained beam search with bank-based retention.

    The returned result's `constraints_met` flags report, per phrase,
    whether its matcher completed; when not all constraints complete, the
    overall best hypothesis is returned with the unmet flags set rather
    than failing.
    """
    if base_beam < 1:
        raise ValueError("base_beam must be >= 1")
    constraints = tuple(constraints)
    total = sum(len(p) for p in constraints)
    width = effective_beam_size(base_beam, total)
    return _beam_search(dag, constraints=constraints, beam_width=width, use_banks=True)


def _beam_search(
    dag: Dag,
    constraints: tuple[ConstraintPhrase, ...],
    beam_width: int,
    use_banks: bool,
) -> DecodeResult:
    total = sum(len(p) for p in constraints)
    beams: list[list[BeamItem]] = [[] for _ in range(dag.num_vertices)]
    beams[dag.start_vertex] = [
        BeamItem(
            vertex=dag.start_vertex,
            score=0.0,
            tokens=(),
            match_states=(0,) * len(constraints),
        )
    ]

    for u in range(dag.num_vertices):
        items = _retain(beams[u], beam_width, total, use_banks)
        beams[u] = items
        if not items or u == dag.final_vertex:
            continue
        for v, tlp in dag.transitions[u][:beam_width]:
            menu = dag.emissions[v][:beam_width]
            for item in items:
                for token, elp in _candidate_tokens(dag, v, menu, item, constraints):
                    states = tuple(
                        kmp_advance(s, token, p) for s, p in zip(item.match_states, constraints)
                    )
                    beams[v].append(
                        BeamItem(
                            vertex=v,
                            score=item.score + tlp + elp,
                            tokens=item.tokens + (token,),
                            match_states=states,
                        )
                    )

    finals = beams[dag.final_vertex]
    if not finals:
        return DecodeResult(status=STATUS_EMPTY, note="no path reached the final vertex")
    satisfied = [it for it in finals if it.met_tokens == total]
    pool = satisfied if satisfied else finals
    best = min(pool, key=_item_order)
    flags = tuple(s == len(p) for s, p in zip(best.match_states, constraints))
    return DecodeResult(
        status=STATUS_OK,
        tokens=best.tokens,
        cost=-best.score + 0.0,
        constraints_met=flags,
        note=None if all(flags) else "constraints unmet",
    )


def _candidate_tokens(
    dag: Dag,
    v: int,
    menu: tuple[tuple[int, float], ...],
    item: BeamItem,
    constraints: tuple[ConstraintPhrase, ...],
) -> list[tuple[int, float]]:
    candidates = dict(menu)
    for state, phrase in zip(item.match_states, constraints):
        if state == len(phrase.tokens):
            continue  # completed, nothing to push
        # Next token of an active match; first token of an inactive one.
        token = phrase.tokens[state]
        if token not in candidates:
            lp = dag.emission_logprob(v, token)
            if math.isfinite(lp):
                candidates[token] = lp
    return sorted(candidates.items())


def _item_order(item: BeamItem) -> tuple:
    # Higher score first; ties: fewer unmet tokens, then lexicographic tokens.
    return (-item.score, -item.met_tokens, item.tokens)


def _retain(
    items: list[BeamItem], beam_width: int, total: int, use_banks: bool
) -> list[BeamItem]:
    if not items:
        return items
    if not use_banks:
        return sorted(items, key=_item_order)[:beam_width]
    banks: dict[int, BeamItem] = {}
    for item in sorted(items, key=_item_order):
        unmet = total - item.met_tokens
        if unmet not in banks:
            banks[unmet] = item
    kept = sorted(banks.values(), key=_item_order)
    return kept[:beam_width]
