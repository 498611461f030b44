"""Weighted finite-state acceptors over the (min, +) tropical semiring.

Arc weights are nonnegative costs (negative log-likelihoods); path cost is
the sum of its arc costs and the best path is the cheapest accepting one.
Labels are token ids, with two reserved sentinels: EPSILON arcs consume no
token, SIGMA arcs (constraint automata only) match any single token without
materializing the alphabet.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, NamedTuple, Sequence

from .dag import Dag, PruneConfig, prune_dag
from .result import STATUS_EMPTY, STATUS_OK, DecodeResult
from .tokens import _decimal

EPSILON = -1
SIGMA = -2

_INF = float("inf")
_LABEL_NAMES = {EPSILON: "eps", SIGMA: "sigma"}
WFSA_FORMAT_VERSION = 1


class Arc(NamedTuple):
    label: int
    weight: float
    dst: int


class Wfsa:
    """Mutable during construction, then treated as immutable."""

    __slots__ = ("num_states", "start", "finals", "_arcs")

    def __init__(
        self,
        num_states: int = 0,
        start: int = 0,
        finals: Iterable[int] = (),
        arcs: list[list[Arc]] | None = None,
    ) -> None:
        self.num_states = num_states
        self.start = start
        self.finals: set[int] = set(finals)
        self._arcs: list[list[Arc]] = arcs if arcs is not None else [[] for _ in range(num_states)]
        if len(self._arcs) != num_states:
            raise ValueError("arc table size does not match num_states")

    def add_state(self) -> int:
        self._arcs.append([])
        self.num_states += 1
        return self.num_states - 1

    def add_arc(self, src: int, label: int, weight: float, dst: int) -> None:
        if not (0 <= src < self.num_states and 0 <= dst < self.num_states):
            raise ValueError(f"arc {src}->{dst} references an unknown state")
        if not 0.0 <= weight < _INF:
            raise ValueError(f"arc weight {weight} is not a finite cost >= 0")
        if isinstance(label, bool) or not isinstance(label, int) or label < SIGMA:
            raise ValueError(f"arc label {label!r} is not a token id, EPSILON or SIGMA")
        self._arcs[src].append(Arc(label, weight, dst))

    def arcs_from(self, state: int) -> list[Arc]:
        return self._arcs[state]

    def all_arcs(self) -> Iterator[tuple[int, Arc]]:
        for src, arcs in enumerate(self._arcs):
            for arc in arcs:
                yield src, arc

    @property
    def num_arcs(self) -> int:
        return sum(len(a) for a in self._arcs)

    def has_epsilon(self) -> bool:
        return any(arc.label == EPSILON for arcs in self._arcs for arc in arcs)

    def has_sigma(self) -> bool:
        return any(arc.label == SIGMA for arcs in self._arcs for arc in arcs)


# ---------------------------------------------------------------------------
# Construction


def dag_to_wfsa(dag: Dag, cfg: PruneConfig) -> Wfsa:
    """Prune a lattice and convert it to an acceptor.

    Vertices become states; each kept (token, successor) pair at a vertex u
    becomes one arc u -> successor labeled with the token and weighted by
    the summed emission and transition negative log-likelihood. The result
    is acyclic and epsilon-free, with vertex 0 as start and the final
    vertex as the unique final state. The `Dag` has checked its rows, so
    the only error left is an arc whose log-probs sum to -inf
    (`_check_overflow`).

    Build it to search the lattice by `shortest_path`; a decode builds it
    from the lattice `read_pruned_dag` pruned. A constrained decode passes
    that lattice to `constraints.constrained_product` instead, and a
    length-constrained one to `length.dfs_viterbi`; both read the same arcs
    from the pruned lattice without making them.
    """
    return _lattice_acceptor(prune_dag(dag, cfg))


def _lattice_acceptor(pruned: Dag) -> Wfsa:
    """`dag_to_wfsa`'s acceptor of a lattice that is already pruned."""
    _check_overflow(pruned)
    new_arc = tuple.__new__  # Arc(...) without the generated __new__ call
    arcs = [
        [new_arc(Arc, (token, -(elp + tlp) + 0.0, v)) for token, elp in emissions
         for v, tlp in transitions]
        for emissions, transitions in zip(pruned.emissions, pruned.transitions)
    ]
    return Wfsa(num_states=pruned.num_vertices, start=0, finals={pruned.final_vertex}, arcs=arcs)


def _check_overflow(lattice: Dag) -> None:
    """Raise `dag_to_wfsa`'s error when some arc of a lattice would weigh
    inf, reached or not: each log-prob is finite, but an emission plus a
    transition can overflow to -inf. A `Dag`'s rows descend, so a vertex's
    smallest sum is that of its last emission and its last transition, and
    every weight that fails is inf."""
    for emissions, transitions in zip(lattice.emissions, lattice.transitions):
        if emissions and transitions and emissions[-1][1] + transitions[-1][1] == -_INF:
            raise ValueError(f"arc weight {_INF} is not a finite cost >= 0")


# ---------------------------------------------------------------------------
# Epsilon removal


def _eps_distances(w: Wfsa, frontier: dict[int, float]) -> dict[int, float]:
    """Cheapest epsilon-only distances from a frontier of states at given costs.

    The frontier's states are included at their own costs; more states are
    added in the order their first finite distance is found.
    """
    dist = dict(frontier)
    heap = [(d, s) for s, d in frontier.items()]
    heapq.heapify(heap)
    while heap:
        d, s = heapq.heappop(heap)
        if d > dist.get(s, float("inf")):
            continue
        for arc in w.arcs_from(s):
            if arc.label != EPSILON:
                continue
            nd = d + arc.weight
            if nd < dist.get(arc.dst, float("inf")):
                dist[arc.dst] = nd
                heapq.heappush(heap, (nd, arc.dst))
    return dist


def rm_epsilon(w: Wfsa) -> Wfsa:
    """Remove epsilon arcs, folding their costs into adjacent token arcs.

    The (string -> min cost) map is preserved exactly: each token arc is
    re-emitted for every epsilon prefix of its source and epsilon suffix of
    its target, with the cheapest epsilon path costs added in. A purely
    epsilon accepting path of nonzero cost has no representation in an
    acceptor without final weights and raises ValueError.
    """
    closures = [_eps_distances(w, {s: 0.0}) for s in range(w.num_states)]
    out = Wfsa(num_states=w.num_states, start=w.start, finals=set(w.finals))
    for p in range(w.num_states):
        best: dict[tuple[int, int], float] = {}
        for p_mid, d_in in closures[p].items():
            for arc in w.arcs_from(p_mid):
                if arc.label == EPSILON:
                    continue
                for q, d_out in closures[arc.dst].items():
                    cost = d_in + arc.weight + d_out
                    key = (arc.label, q)
                    if cost < best.get(key, float("inf")):
                        best[key] = cost
        for (label, q), cost in sorted(best.items()):
            out.add_arc(p, label, cost, q)

    if w.start not in w.finals:
        eps_final = [closures[w.start][f] for f in w.finals if f in closures[w.start]]
        if eps_final:
            if min(eps_final) > 0.0:
                raise ValueError(
                    "epsilon-only accepting path with nonzero cost cannot be represented"
                )
            out.finals.add(w.start)
    return out


def _rm_epsilon_unweighted(a: Wfsa) -> Wfsa:
    """Language-only epsilon removal for unweighted constraint automata."""
    out = Wfsa(num_states=a.num_states, start=a.start, finals=set(a.finals))
    for s in range(a.num_states):
        reach = _eps_distances(a, {s: 0.0})
        seen: set[tuple[int, int]] = set()
        for r in reach:
            if r in a.finals:
                out.finals.add(s)
            for arc in a.arcs_from(r):
                if arc.label == EPSILON:
                    continue
                key = (arc.label, arc.dst)
                if key not in seen:
                    seen.add(key)
                    out.add_arc(s, arc.label, 0.0, arc.dst)
    return out


# ---------------------------------------------------------------------------
# Sorting, reachability, trimming


def _topological_order(w: Wfsa) -> list[int]:
    """Kahn's algorithm, always taking the smallest ready state next."""
    indegree = [0] * w.num_states
    for _, arc in w.all_arcs():
        indegree[arc.dst] += 1
    heap = [s for s in range(w.num_states) if indegree[s] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        s = heapq.heappop(heap)
        order.append(s)
        for arc in w.arcs_from(s):
            indegree[arc.dst] -= 1
            if indegree[arc.dst] == 0:
                heapq.heappush(heap, arc.dst)
    if len(order) != w.num_states:
        raise ValueError("cycle detected")
    return order


def topological_sort(w: Wfsa) -> Wfsa:
    """Renumber states so every arc goes from a lower to a higher index."""
    if not w.num_states:
        return Wfsa()
    order = _topological_order(w)
    renum = {old: new for new, old in enumerate(order)}
    out = Wfsa(
        num_states=w.num_states,
        start=renum[w.start],
        finals={renum[f] for f in w.finals},
    )
    for s, arc in w.all_arcs():
        out.add_arc(renum[s], arc.label, arc.weight, renum[arc.dst])
    return out


def has_accepting_path(w: Wfsa) -> bool:
    if w.num_states == 0:
        return False
    seen = {w.start}
    stack = [w.start]
    while stack:
        s = stack.pop()
        if s in w.finals:
            return True
        for arc in w.arcs_from(s):
            if arc.dst not in seen:
                seen.add(arc.dst)
                stack.append(arc.dst)
    return False


def _backward_trim(start: int, finals: Sequence[int], rows: Sequence, preds: Sequence) -> Wfsa:
    """The states a forward pass from `start` reached that reach one of
    `finals` (reached states too), renumbered in order, each with its arcs
    among them in row order. Row s holds state s's `(label, weight, dst)`
    arcs, and preds[s] the source of each arc into s from a reached state.
    With no state kept, the result is one non-final state without arcs."""
    live = [False] * len(rows)
    for f in finals:
        live[f] = True
    stack = list(finals)
    while stack:
        for src in preds[stack.pop()]:
            if not live[src]:
                live[src] = True
                stack.append(src)
    alive = [s for s, keep in enumerate(live) if keep]
    if not alive:
        return Wfsa(num_states=1, start=0)
    renum = {old: new for new, old in enumerate(alive)}
    kept = [[Arc(label, weight, renum[dst]) for label, weight, dst in rows[s] if live[dst]]
            for s in alive]
    return Wfsa(num_states=len(alive), start=renum[start], finals={renum[f] for f in finals},
                arcs=kept)


# ---------------------------------------------------------------------------
# Intersection


def intersect(w: Wfsa, a: Wfsa) -> Wfsa:
    """Intersect a weighted acceptor with an unweighted constraint.

    The result accepts L(w) & L(a); every surviving path keeps its cost in
    w (constraint weights are ONE by contract and are ignored). Sigma arcs
    in the constraint match any token arc in w, and its epsilons are
    removed up front; w must have no sigma arcs. This is the phrase-less
    `constraints.constrained_product` with `a` as the vocabulary, so the
    product is trimmed, epsilon-free and acyclic whenever w is, and has a
    final state exactly when it accepts some string. To intersect a pruned
    lattice, pass the `Dag` to `constrained_product` itself: it gives the
    same product without building the lattice acceptor.
    """
    from .constraints import constrained_product  # constraints imports this module

    return constrained_product(w, (), a)


def _label_index(arcs: Sequence[tuple]) -> tuple[dict[int, tuple[int, ...]], tuple[int, ...]]:
    """Group one constraint state's arcs for lookup by label.

    An arc is an `Arc` or a `lexicon_register` pair: its first item is its
    label, its last its destination. Maps each label on the state's arcs to
    the destinations of every arc that matches it, its own and the sigma
    arcs, in arc order; the second item holds the sigma destinations alone,
    which any other label matches. Each sigma arc adds one entry per label
    seen before it, so a state without sigma arcs is indexed in time linear
    in its arcs. The destinations are tuples of ints, which the garbage
    collector stops tracking, so an index held through a product adds
    nothing to what each collection must walk.
    """
    by_label: dict[int, tuple[int, ...]] = {}
    sigma: tuple[int, ...] = ()
    for arc in arcs:
        label, dst = arc[0], arc[-1]
        if label == SIGMA:
            sigma += (dst,)
            for key, dsts in by_label.items():
                by_label[key] = dsts + (dst,)
        else:
            by_label[label] = by_label.get(label, sigma) + (dst,)
    return by_label, sigma


# ---------------------------------------------------------------------------
# Determinization and minimization (unweighted)


def lexicon_register(words: Iterable[Sequence[int]]) -> tuple[list[tuple], set[int], int]:
    """The minimal deterministic acceptor for a finite set of token
    sequences, as one row of `(label, dst)` pairs per state, in label
    order, with its final states and its start.

    The words go into a trie, whose states are then merged bottom-up by
    their signature (finality, row), after Daciuk, Mihov, Watson & Watson
    (Comput. Linguist. 26(1), 2000). Every leaf below the root ends a word,
    so all of them are one state, registered at the first leaf and not
    looked up again; a node with one child gets its one pair as its row,
    and only a branching node sorts its labels. Time is linear in the total
    word length, up to that sort. Children are numbered before parents.
    Every state is reachable and no arc enters the start: it is
    determinize_min of the union of the words without its dead state.
    """
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

    # A trie node is numbered after its parent, so a reverse sweep merges
    # every child before the node that points to it.
    register: dict[tuple[bool, tuple[tuple[int, int], ...]], int] = {}
    merged = [0] * len(children)
    leaf = -1
    for node in range(len(children) - 1, -1, -1):
        kids = children[node]
        if not kids:
            if node:  # a leaf below the root, which ends a word
                if leaf < 0:
                    leaf = register[(True, ())] = len(register)
                merged[node] = leaf
                continue
            row = ()  # the root of an empty trie
        elif len(kids) == 1:
            ((lb, c),) = kids.items()
            row = ((lb, merged[c]),)
        else:  # only a branching node has labels to sort
            row = tuple([(lb, merged[c]) for lb, c in sorted(kids.items())])
        merged[node] = register.setdefault((final[node], row), len(register))
    rows = [row for _, row in register]
    finals = {q for q, (is_final, _) in enumerate(register) if is_final}
    return rows, finals, merged[0]


def register_acceptor(rows: Sequence[Sequence[tuple]], finals: set[int], start: int) -> Wfsa:
    """The unweighted acceptor of rows, numbered breadth-first from the
    start (state 0), with each state's arcs in row order; any state the
    start does not reach is left after them, without arcs. A row entry is
    a `lexicon_register` pair or an `Arc`: its first item is its label,
    its last its destination."""
    out = Wfsa(num_states=len(rows), start=0)
    order = [start]
    renum = {start: 0}
    for src, state in enumerate(order):  # grows as states are found
        if state in finals:
            out.finals.add(src)
        for entry in rows[state]:
            label, child = entry[0], entry[-1]
            dst = renum.get(child)
            if dst is None:
                dst = renum[child] = len(order)
                order.append(child)
            out.add_arc(src, label, 0.0, dst)
    return out


def determinize_min(a: Wfsa) -> Wfsa:
    """Deterministic minimal acceptor for an unweighted automaton.

    Subset construction over the automaton's own alphabet gives a complete
    DFA: the empty subset is a state like any other, its own successor on
    every token. Moore's refinement then splits states by (block, successor
    blocks) until the number of blocks stops growing. The result has
    exactly one arc per (state, token), in label order, and no two distinct
    states accept the same language; its states are numbered by their
    first subset in breadth-first discovery order, so the start is 0.
    Wildcard arcs are not supported here.
    """
    if a.has_sigma():
        raise ValueError("cannot determinize an automaton with sigma arcs")
    nf = _rm_epsilon_unweighted(a)
    alphabet = sorted({arc.label for _, arc in nf.all_arcs()})

    subsets = [frozenset({nf.start} if nf.num_states else ())]  # no states, no start
    ids = {subsets[0]: 0}
    rows: list[list[int]] = []
    for subset in subsets:  # grows as new subsets are discovered
        succ: dict[int, set[int]] = {token: set() for token in alphabet}
        for s in subset:
            for arc in nf.arcs_from(s):
                succ[arc.label].add(arc.dst)
        row = []
        for token in alphabet:
            target = frozenset(succ[token])
            if target not in ids:
                ids[target] = len(subsets)
                subsets.append(target)
            row.append(ids[target])
        rows.append(row)
    final = [bool(subset & nf.finals) for subset in subsets]

    keys: list = final
    count = 0
    while True:
        numbering: dict = {}
        blocks = [numbering.setdefault(key, len(numbering)) for key in keys]
        if len(numbering) == count:
            break
        count = len(numbering)
        keys = [(b, tuple(blocks[t] for t in row)) for b, row in zip(blocks, rows)]

    out = Wfsa(num_states=count, start=0)
    for s, row in enumerate(rows):
        b = blocks[s]
        if final[s]:
            out.finals.add(b)
        if not out.arcs_from(b):  # first member of its block
            for token, t in zip(alphabet, row):
                out.add_arc(b, token, 0.0, blocks[t])
    return out


# ---------------------------------------------------------------------------
# Shortest path and enumeration


def shortest_path(w: Wfsa) -> DecodeResult:
    """Cheapest accepting path via one relaxation pass in topological order."""
    if w.num_states == 0:
        return DecodeResult(status=STATUS_EMPTY, note="no states")
    order = _topological_order(w)
    inf = float("inf")
    dist = [inf] * w.num_states
    parent: list[tuple[int, Arc] | None] = [None] * w.num_states
    dist[w.start] = 0.0
    for s in order:
        d = dist[s]
        if d == inf:
            continue
        for arc in w.arcs_from(s):
            if arc.label == SIGMA:
                raise ValueError("cannot decode a path through a sigma arc")
            nd = d + arc.weight
            if nd < dist[arc.dst]:
                dist[arc.dst] = nd
                parent[arc.dst] = (s, arc)
    best_final = min(
        (f for f in w.finals if dist[f] < inf), key=lambda f: (dist[f], f), default=None
    )
    if best_final is None:
        return DecodeResult(status=STATUS_EMPTY, note="no accepting path")
    tokens: list[int] = []
    s = best_final
    while parent[s] is not None:
        src, arc = parent[s]
        if arc.label != EPSILON:
            tokens.append(arc.label)
        s = src
    tokens.reverse()
    return DecodeResult(status=STATUS_OK, tokens=tuple(tokens), cost=dist[best_final])


def string_cost(w: Wfsa, tokens: Sequence[int]) -> float:
    """Minimal cost of accepting exactly `tokens`; +inf when rejected.

    Works on any acceptor (epsilon and sigma arcs included) by layered
    relaxation, so it serves as an independent membership/cost oracle.
    """
    inf = float("inf")
    if w.num_states == 0:
        return inf

    frontier = _eps_distances(w, {w.start: 0.0})
    for token in tokens:
        step: dict[int, float] = {}
        for s, c in frontier.items():
            for arc in w.arcs_from(s):
                if arc.label == token or arc.label == SIGMA:
                    nc = c + arc.weight
                    if nc < step.get(arc.dst, inf):
                        step[arc.dst] = nc
        if not step:
            return inf
        frontier = _eps_distances(w, step)
    return min((c for s, c in frontier.items() if s in w.finals), default=inf)


# ---------------------------------------------------------------------------
# Textual dump format


def _label_to_text(label: int) -> str:
    name = _LABEL_NAMES.get(label)
    return name if name is not None else f"tok:{label}"


def _label_from_text(text: str) -> int:
    if text == "eps":
        return EPSILON
    if text == "sigma":
        return SIGMA
    if text.startswith("tok:"):
        try:  # a token id, unsigned: a negative label would read as eps or sigma
            return _decimal(text[4:])
        except ValueError:
            pass
    raise ValueError(f"unknown arc label {text!r}")


def _cost(text: str) -> float:
    """The arc cost `text` spells as `dump_wfsa` writes one, `repr` of a
    float, and nothing else: `float()` would also take a sign, spaces,
    underscores, other scripts' digits and other spellings of one value."""
    cost = float(text)
    if repr(cost) != text:
        raise ValueError(f"expected a cost as repr writes it, got {text!r}")
    return cost


def dump_wfsa(w: Wfsa) -> str:
    """Canonical textual dump; arcs ordered by (src, label, dst). An
    acceptor without states has no start line."""
    lines = [f"#version {WFSA_FORMAT_VERSION}", f"states\t{w.num_states}"]
    if w.num_states:
        lines.append(f"start\t{w.start}")
    lines.extend(f"final\t{f}" for f in sorted(w.finals))
    arcs = sorted(
        ((s, arc) for s, arc in w.all_arcs()),
        key=lambda e: (e[0], e[1].label != EPSILON, e[1].label != SIGMA, e[1].label, e[1].dst, e[1].weight),
    )
    lines.extend(f"{s}\t{a.dst}\t{_label_to_text(a.label)}\t{a.weight!r}" for s, a in arcs)
    return "\n".join(lines) + "\n"


def load_wfsa(text: str) -> Wfsa:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != f"#version {WFSA_FORMAT_VERSION}":
        raise ValueError("missing or unsupported automaton dump version")
    start = 0
    finals: set[int] = set()
    named: list[tuple[str, int]] = []  # each start or final line and its state
    arcs: list[tuple[int, int, int, float]] = []
    num_states = None
    for line in lines[1:]:
        fields = line.split("\t")
        try:
            if fields[0] == "states":
                (num_states,) = map(_decimal, fields[1:])
            elif fields[0] in ("start", "final"):
                (state,) = map(_decimal, fields[1:])
                named.append((line, state))
                if fields[0] == "start":
                    start = state
                else:
                    finals.add(state)
            else:
                src, dst, label, cost = fields
                arcs.append((_decimal(src), _decimal(dst), _label_from_text(label), _cost(cost)))
        except ValueError as exc:
            raise ValueError(f"malformed line {line!r}: {exc}") from None
    if num_states is None:
        raise ValueError("dump lacks a states header")
    for line, state in named:
        if not 0 <= state < num_states:
            raise ValueError(f"line {line!r} names no state of {num_states}")
    w = Wfsa(num_states=num_states, start=start, finals=finals)
    for src, dst, label, cost in arcs:
        w.add_arc(src, label, cost, dst)
    return w
