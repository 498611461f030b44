"""Independent reference implementations used as test oracles.

Everything here is deliberately brute-force and kept separate from the
library's algorithms: path enumeration instead of relaxation, frontier-set
simulation instead of product construction, closed-form normal equations
instead of the fitting routine, and naive counting for the metrics.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from dagdec.constraints import ConstraintPhrase
from dagdec.dag import (
    DAG_FORMAT_VERSION,
    Dag,
    DagFormatError,
    PruneConfig,
    _sort_sparse,
)
from dagdec.length import LcConfig, _acceptor_arcs, length_penalty
from dagdec.result import STATUS_EMPTY, STATUS_OK, DecodeResult
from dagdec.tokens import TokenTable
from dagdec.wfsa import (EPSILON, SIGMA, Arc, Wfsa, _check_overflow, _rm_epsilon_unweighted,
                         topological_sort)


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


class MemoLengthSearch:
    """Memoized DFS over (state, remaining length) with arc pruning.

    The reference for length.dfs_viterbi: it asks for delta(state, l) top
    down and memoizes every pair it visits, reachable or not. Arcs are
    tried in pruned (weight, label, dst) order and replaced on strict <.
    """

    def __init__(self, w: Wfsa, cfg: LcConfig) -> None:
        if any(src >= arc.dst for src, arc in w.all_arcs()):
            w = topological_sort(w)
        self.w = w
        self.cfg = cfg
        self.pruned = [self._prune_arcs(w.arcs_from(s)) for s in range(w.num_states)]
        self.delta: dict[tuple[int, int], float] = {}
        self.parent: dict[tuple[int, int], Arc] = {}

    def _prune_arcs(self, arcs: list[Arc]) -> list[Arc]:
        if not arcs:
            return []
        ordered = sorted(arcs, key=lambda a: (a.weight, a.label, a.dst))
        if self.cfg.edge_prune_threshold >= 1.0:
            return ordered
        total = math.fsum(math.exp(-a.weight) for a in ordered)
        if total <= 0.0:
            return ordered
        kept = []
        mass = 0.0
        for arc in ordered:
            kept.append(arc)
            mass += math.exp(-arc.weight) / total
            if mass > self.cfg.edge_prune_threshold:
                break
        return kept

    def cost(self, state: int, length: int) -> float:
        inf = float("inf")
        if length == 0:
            return 0.0 if state in self.w.finals else inf
        stack = [(state, length)]
        while stack:
            u, l = stack[-1]
            if (u, l) in self.delta:
                stack.pop()
                continue
            missing = [
                (arc.dst, l - 1)
                for arc in self.pruned[u]
                if l - 1 > 0 and (arc.dst, l - 1) not in self.delta
            ]
            if missing:
                stack.extend(missing)
                continue
            best = inf
            best_arc = None
            for arc in self.pruned[u]:
                if l - 1 == 0:
                    tail = 0.0 if arc.dst in self.w.finals else inf
                else:
                    tail = self.delta[(arc.dst, l - 1)]
                c = arc.weight + tail
                if c < best:
                    best = c
                    best_arc = arc
            self.delta[(u, l)] = best
            if best_arc is not None:
                self.parent[(u, l)] = best_arc
            stack.pop()
        return self.delta[(state, length)]

    def table(self) -> dict[int, float]:
        """delta(start, l) for l = 1..upper_bound, finite entries only."""
        out = {}
        for l in range(1, self.cfg.upper_bound + 1):
            c = self.cost(self.w.start, l)
            if math.isfinite(c):
                out[l] = c
        return out

    def decode(self) -> tuple[tuple[int, ...], float, float] | None:
        """(tokens, cost, adjusted cost) of the length-penalized best, longest
        on exact ties; None when no permitted length has a path."""
        best = None
        for l, c in self.table().items():
            adjusted = length_penalty(l, self.cfg.target_length, self.cfg.strictness) * c
            if best is None or adjusted <= best[2]:
                best = (l, c, adjusted)
        if best is None:
            return None
        tokens = []
        state = self.w.start
        for l in range(best[0], 0, -1):
            arc = self.parent[(state, l)]
            tokens.append(arc.label)
            state = arc.dst
        return tuple(tokens), best[1], best[2]


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


_MIN_LOGPROB = -sys.float_info.max


def reference_load_dag(source: str | bytes) -> Dag:
    """The lattice reader that checks every vertex entry by entry and sorts
    every row, whatever order the file lists it in. Its row checks
    (`_check_row`, `_parse_pair`) are its own, so that the loader is never
    checked against its own code."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise DagFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DagFormatError("top-level document must be an object")
    if doc.get("version") != DAG_FORMAT_VERSION:
        raise DagFormatError(f"unsupported version {doc.get('version')!r}")
    num_vertices = doc.get("num_vertices")
    if not isinstance(num_vertices, int) or num_vertices < 1:
        raise DagFormatError("num_vertices must be a positive integer")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or len(vertices) != num_vertices:
        raise DagFormatError("vertices list does not match num_vertices")
    rows = [_check_vertex(u, vertex, num_vertices) for u, vertex in enumerate(vertices)]
    return Dag(
        num_vertices=num_vertices,
        emissions=tuple(em for em, _ in rows),
        transitions=tuple(tr for _, tr in rows),
    )


def reference_dag_rows(num_vertices: int, emissions, transitions) -> tuple[tuple, tuple]:
    """The rows `Dag(num_vertices, emissions, transitions)` keeps, each
    vertex's emissions checked before its transitions, entry by entry."""
    rows = [
        (_check_row(u, em, "emission", num_vertices),
         _check_row(u, tr, "transition", num_vertices))
        for u, (em, tr) in enumerate(zip(emissions, transitions))
    ]
    return tuple(em for em, _ in rows), tuple(tr for _, tr in rows)


def _check_vertex(u: int, vertex: object, num_vertices: int) -> tuple[tuple, tuple]:
    """One vertex's rows, read entry by entry and sorted."""
    if not isinstance(vertex, dict):
        raise DagFormatError(f"vertex {u}: not an object")
    return tuple(
        _check_row(u, vertex.get(f"{kind}s", []), kind, num_vertices)
        for kind in ("emission", "transition")
    )


def _check_row(
    u: int, pairs: object, kind: str, num_vertices: int
) -> tuple[tuple[int, float], ...]:
    """Check vertex u's row of `kind` ("emission" or "transition") entry by
    entry, raising the first error it finds.

    Also accepts integer log-probs, made floats.
    """
    if not isinstance(pairs, (list, tuple)):
        raise DagFormatError(f"vertex {u}: {kind}s must be a list")
    row = []
    seen: set[int] = set()
    for pair in pairs:
        index, logp = _parse_pair(u, pair, kind)
        if kind == "emission":
            if index < 0:
                raise DagFormatError(f"vertex {u}: negative token id {index}")
            if index in seen:
                raise DagFormatError(f"vertex {u}: duplicate emission token {index}")
        else:
            if index <= u:
                raise DagFormatError(f"vertex {u}: backward edge {u}->{index}")
            if index >= num_vertices:
                raise DagFormatError(
                    f"vertex {u}: dangling vertex index {index} (num_vertices={num_vertices})"
                )
            if index in seen:
                raise DagFormatError(f"vertex {u}: duplicate transition target {index}")
        seen.add(index)
        row.append((index, logp))
    return _sort_sparse(row)


def _parse_pair(u: int, pair: object, kind: str) -> tuple[int, float]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise DagFormatError(f"vertex {u}: {kind} entry must be a [index, logprob] pair")
    idx, logp = pair
    if not isinstance(idx, int) or isinstance(idx, bool):
        raise DagFormatError(f"vertex {u}: {kind} index must be an integer")
    if isinstance(logp, bool) or not isinstance(logp, (int, float)):
        raise DagFormatError(f"vertex {u}: {kind} log-probability must be a number, not {logp!r}")
    if logp > 0.0:
        raise DagFormatError(f"vertex {u}: {kind} probability > 0 in log space ({logp})")
    if not logp >= _MIN_LOGPROB:  # -inf, NaN, or an int below the float range
        raise DagFormatError(f"vertex {u}: {kind} log-probability {logp} is not a finite float")
    return idx, float(logp)


def emission_logprob(dag: Dag, u: int, token: int) -> float:
    """Log-probability of `token` at vertex u; -inf if not emittable."""
    for t, lp in dag.emissions[u]:
        if t == token:
            return lp
    return -math.inf


def force_emit(
    u: int,
    constraints: Sequence[ConstraintPhrase],
    kept_emissions: Sequence[set[int]],
    predecessors: Sequence[set[int]],
) -> set[int]:
    """Continuation tokens that must stay emittable at vertex u.

    For every constraint phrase, every non-final phrase token found in the
    kept emissions of a pruned predecessor of u forces the following phrase
    token at u. Predecessor sets are taken over the top-k_t transition
    structure, so they must be final for all vertices below u.
    """
    forced: set[int] = set()
    preds = predecessors[u]
    if not preds or not constraints:
        return forced
    for phrase in constraints:
        toks = phrase.tokens
        for j in range(len(toks) - 1):
            tj = toks[j]
            if any(tj in kept_emissions[v] for v in preds):
                forced.add(toks[j + 1])
    return forced


def reference_prune_dag(dag: Dag, cfg: PruneConfig) -> Dag:
    """Top-k pruning that asks `force_emit` at every vertex which phrase
    continuations its kept predecessors force, and re-sorts every row."""
    kept_em: list[tuple[tuple[int, float], ...]] = []
    kept_em_sets: list[set[int]] = []
    kept_tr: list[tuple[tuple[int, float], ...]] = []
    predecessors: list[set[int]] = [set() for _ in range(dag.num_vertices)]

    for u in range(dag.num_vertices):
        kept = dict(dag.emissions[u][: cfg.k_e])
        forced = force_emit(u, cfg.constraints, kept_em_sets, predecessors)
        if forced:
            table = dict(dag.emissions[u])
            for t in forced:
                if t in table:
                    kept[t] = table[t]
        kept_em.append(_sort_sparse(kept.items()))
        kept_em_sets.append(set(kept))

        kept_transitions = dag.transitions[u][: cfg.k_t]
        kept_tr.append(kept_transitions)
        for v, _ in kept_transitions:
            predecessors[v].add(u)

    return Dag(
        num_vertices=dag.num_vertices,
        emissions=tuple(kept_em),
        transitions=tuple(kept_tr),
    )


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


def reference_beam_search(
    dag: Dag,
    constraints: tuple[ConstraintPhrase, ...],
    beam_width: int,
    use_banks: bool,
) -> DecodeResult:
    """The beam search as first written: every candidate built, then sorted.

    Each candidate copies its token tuple and steps every matcher with
    `reference_match_step`; each vertex's list is fully sorted by `_item_order`
    before the first item per bank (or the top `beam_width`) is kept.
    """
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
                        reference_match_step(s, token, p)
                        for s, p in zip(item.match_states, constraints)
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


def reference_match_step(state: int, token: int, phrase: ConstraintPhrase) -> int:
    """A phrase matcher's next state by brute force: the length of the
    longest phrase prefix that is a suffix of the matched prefix plus
    `token`. A completed phrase stays completed."""
    tokens = phrase.tokens
    if state == len(tokens):
        return state
    read = tokens[:state] + (token,)
    return max(k for k in range(len(read) + 1) if read[len(read) - k:] == tokens[:k])


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
            lp = emission_logprob(dag, v, token)
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
    return reference_trim(out)


def reference_trim(w: Wfsa) -> Wfsa:
    """`wfsa.trim` as it was before it shared its backward pass with the
    constraint product: set-based forward and backward reachability over
    a reversed arc table, and `add_arc` for every kept arc."""
    forward = {w.start}
    stack = [w.start]
    while stack:
        s = stack.pop()
        for arc in w.arcs_from(s):
            if arc.dst not in forward:
                forward.add(arc.dst)
                stack.append(arc.dst)
    rev: list[list[int]] = [[] for _ in range(w.num_states)]
    for s, arc in w.all_arcs():
        rev[arc.dst].append(s)
    backward = set(w.finals)
    stack = list(w.finals)
    while stack:
        s = stack.pop()
        for p in rev[s]:
            if p not in backward:
                backward.add(p)
                stack.append(p)
    alive = sorted(forward & backward)
    if not alive:
        return Wfsa(num_states=1, start=0)
    renum = {old: new for new, old in enumerate(alive)}
    out = Wfsa(
        num_states=len(alive),
        start=renum[w.start],
        finals={renum[f] for f in w.finals if f in renum},
    )
    for s in alive:
        for arc in w.arcs_from(s):
            if arc.dst in renum:
                out.add_arc(renum[s], arc.label, arc.weight, renum[arc.dst])
    return out


def reference_length_rows(
    lattice: Dag | Wfsa, cfg: LcConfig
) -> tuple[int, list[list[tuple[float, int, int]]], list[int], list[list[float]]]:
    """The length search's start, pruned arcs, first lengths and cost rows
    as they were computed before the search made its two passes: every
    sorted arc row built first, each cut by `_reference_prune_arcs`, a
    separate depth pass, and a backward sweep that merges one successor
    row at a time into the state's row."""
    arcs, start, finals = _reference_search_arcs(lattice)
    return (start, *_reference_sweep(arcs, start, finals, cfg))


def _reference_search_arcs(
    lattice: Dag | Wfsa,
) -> tuple[list[list[tuple[float, int, int]]], int, set[int]]:
    if isinstance(lattice, Wfsa):
        return _acceptor_arcs(lattice)
    _check_overflow(lattice)
    arcs = []
    for emissions, transitions in zip(lattice.emissions, lattice.transitions):
        row = [(-(elp + tlp) + 0.0, token, v) for token, elp in emissions for v, tlp in transitions]
        row.sort()
        arcs.append(row)
    return arcs, 0, {lattice.final_vertex}


def _reference_prune_arcs(
    ordered: list[tuple[float, int, int]], threshold: float
) -> list[tuple[float, int, int]]:
    if threshold < 1.0 and ordered:
        probs = [math.exp(-arc[0]) for arc in ordered]
        total = math.fsum(probs)
        if total > 0.0:
            mass = 0.0
            for i, p in enumerate(probs):
                mass += p / total
                if mass > threshold:
                    ordered = ordered[: i + 1]
                    break
    first: dict[int, tuple[float, int, int]] = {}
    for arc in ordered:
        if arc[2] not in first:
            first[arc[2]] = arc
    return list(first.values())


def _reference_sweep(
    arcs: list[list[tuple[float, int, int]]], start: int, finals: set[int], cfg: LcConfig
) -> tuple[list[list[tuple[float, int, int]]], list[int], list[list[float]]]:
    n = len(arcs)
    bound = cfg.upper_bound
    threshold = cfg.edge_prune_threshold
    pruned = [_reference_prune_arcs(row, threshold) for row in arcs]
    depth = [bound + 1] * n
    depth[start] = 0
    for u in range(n):
        d = depth[u] + 1
        for arc in pruned[u]:
            if d < depth[arc[2]]:
                depth[arc[2]] = d
    inf = math.inf
    first = [0] * n
    rows: list[list[float]] = [[] for _ in range(n)]
    for u in range(n - 1, -1, -1):
        limit = bound - depth[u]
        if limit < 0:
            continue
        row = [0.0] if u in finals else []
        lo = 0
        for weight, _, dst in pruned[u]:
            tail = rows[dst]
            start = first[dst] + 1
            keep = limit - start + 1
            if not tail or keep <= 0:
                continue
            if keep < len(tail):
                tail = tail[:keep]
                while tail and tail[-1] == inf:
                    tail.pop()
                if not tail:
                    continue
            if not row:
                row = [weight + c for c in tail]
                lo = start
                continue
            if start < lo:
                row[:0] = [inf] * (lo - start)
                lo = start
            i = start - lo
            j = i + len(tail)
            if j > len(row):
                row.extend([inf] * (j - len(row)))
            row[i:j] = [y if (y := weight + c) < x else x for x, c in zip(row[i:j], tail)]
        rows[u] = row
        first[u] = lo
    return pruned, first, rows


def reference_tokenize_phrase(surface: str, table: TokenTable) -> ConstraintPhrase:
    """Greedy longest-match segmentation, as `constraints.tokenize_phrase`
    was first written: each word-initial piece is looked up with the
    start-of-word mark at every length, longest first, then bare at every
    length; continuations are looked up bare."""
    words = surface.split()
    if not words:
        raise ValueError("cannot tokenize an empty phrase")
    token_ids: list[int] = []
    for word in words:
        pos = 0
        while pos < len(word):
            match = None
            prefixes = (table.sow_mark, "") if pos == 0 else ("",)
            for prefix in prefixes:
                for end in range(len(word), pos, -1):
                    tid = table.lookup(prefix + word[pos:end])
                    if tid is not None:
                        match = (tid, end)
                        break
                if match:
                    break
            if match is None:
                raise ValueError(
                    f"cannot segment {word[pos:]!r} of word {word!r} with this token table"
                )
            token_ids.append(match[0])
            pos = match[1]
    return ConstraintPhrase(tokens=tuple(token_ids), surface=surface)


def reference_lexicon_register(
    words: Sequence[Sequence[int]],
) -> tuple[list[tuple], set[int], int]:
    """`wfsa.lexicon_register` as first written: a trie, then one reverse
    sweep that sorts every node's children and looks every node's
    signature (finality, row) up in the register, leaves included. Its
    rows, finals, start and state numbering are the reference."""
    children: list[dict[int, int]] = [{}]
    final = [False]
    for word in words:
        node = 0
        for label in word:
            kids = children[node]
            child = kids.get(label)
            if child is None:
                child = kids[label] = len(children)
                children.append({})
                final.append(False)
            node = child
        final[node] = True
    register: dict[tuple[bool, tuple[tuple[int, int], ...]], int] = {}
    merged = [0] * len(children)
    for node in range(len(children) - 1, -1, -1):
        kids = children[node]
        row = tuple([(lb, merged[c]) for lb, c in sorted(kids.items())]) if kids else ()
        merged[node] = register.setdefault((final[node], row), len(register))
    rows = [row for _, row in register]
    finals = {q for q, (is_final, _) in enumerate(register) if is_final}
    return rows, finals, merged[0]


def lexicon_closure(dfa: Wfsa) -> Wfsa:
    """Epsilon-free Kleene closure of a lexicon DFA.

    The start becomes final, and every other final state gets copies of
    the start arcs after its own arcs, skipping any (label, destination)
    pair it already has. This is valid because a lexicon DFA is acyclic,
    so no arc enters its start.
    """
    out = Wfsa(num_states=dfa.num_states, start=dfa.start, finals=set(dfa.finals),
               arcs=[list(dfa.arcs_from(s)) for s in range(dfa.num_states)])
    start_arcs = dfa.arcs_from(dfa.start)
    for f in dfa.finals - {dfa.start}:
        own = {(arc.label, arc.dst) for arc in dfa.arcs_from(f)}
        for arc in start_arcs:
            if (arc.label, arc.dst) not in own:
                out.add_arc(f, arc.label, 0.0, arc.dst)
    out.finals.add(out.start)
    return out


def with_entity_chains(closure: Wfsa, chains: Sequence[Sequence[int]]) -> Wfsa:
    """A closed lexicon with one token chain per entity laid over it, as
    one acceptor: each chain's states follow the closure's, its last state
    is final and has the closure's start arcs, and the start and every
    final state get an arc into each chain after their other arcs."""
    lex = Wfsa(num_states=closure.num_states, start=closure.start, finals=set(closure.finals),
               arcs=[list(closure.arcs_from(s)) for s in range(closure.num_states)])
    start_arcs = closure.arcs_from(closure.start)
    heads = []
    for tokens in chains:
        state = lex.add_state()
        heads.append(Arc(tokens[0], 0.0, state))
        for token in tokens[1:]:
            nxt = lex.add_state()
            lex.add_arc(state, token, 0.0, nxt)
            state = nxt
        lex.arcs_from(state).extend(start_arcs)
        lex.finals.add(state)
    for f in lex.finals:
        lex.arcs_from(f).extend(heads)
    return lex


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
