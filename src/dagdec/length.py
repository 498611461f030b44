"""Target-length prediction and length-constrained lattice decoding.

The decoder finds, for every candidate length l up to an upper bound, the
cheapest accepting path with exactly l arcs. It searches a pruned lattice
directly, with each kept (emission, transition) pair of a vertex as one
arc, or an acceptor without epsilon or sigma arcs, such as a constrained
product; both are read as one sorted row of (weight, label, dst) arcs per
state. The search is Mohri's topological shortest distance (2002) over
the product of the lattice with a length counter, with
cumulative-probability arc pruning, in two passes over the states. A
forward pass builds each state's arc row, prunes it, and finds each
state's depth, the fewest pruned arcs from the start. A backward pass
then keeps, per state, a dense row of the costs delta(state, l) over a
contiguous range of lengths, filled from the rows of all its successors
at once. The finite entries of the start row then compete on their cost
scaled by an exponential penalty for falling short of the target length,
and the arcs of the winner are recovered from the rows along its path alone.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from .dag import Dag
from .result import STATUS_INFEASIBLE, STATUS_OK, DecodeResult
from .wfsa import EPSILON, SIGMA, Wfsa, _lattice_acceptor, _topological_order, shortest_path


@dataclass(frozen=True)
class LengthPredictor:
    """First-order model mapping input token length to target output length."""

    slope: float
    intercept: float


def fit_length_predictor(pairs: Sequence[tuple[float, float]]) -> LengthPredictor:
    """Ordinary least squares over (input length, output length) pairs."""
    import statistics  # here, not at start-up: it loads fractions and decimal

    if len(pairs) < 2:
        raise ValueError("need at least two pairs to fit a length predictor")
    xs = [float(x) for x, _ in pairs]
    ys = [float(y) for _, y in pairs]
    if not all(map(math.isfinite, xs + ys)):
        raise ValueError("length pairs must be finite numbers")
    if max(xs) == min(xs):
        raise ValueError("degenerate regression: all input lengths are equal")
    # Scaling by powers of two is exact (short of underflow) and keeps the
    # centred sums of the regression from overflowing or underflowing at
    # extreme lengths.
    kx = math.frexp(max(map(abs, xs)))[1]
    ky = math.frexp(max(map(abs, ys)))[1]
    fit = statistics.linear_regression(
        [math.ldexp(x, -kx) for x in xs], [math.ldexp(y, -ky) for y in ys]
    )
    try:
        slope = math.ldexp(fit.slope, ky - kx)
        intercept = math.ldexp(fit.intercept, ky)
    except OverflowError:
        raise ValueError("length fit overflows a float") from None
    return LengthPredictor(slope=slope, intercept=intercept)


def predict_target_length(pred: LengthPredictor, x: int) -> int:
    """ceil(slope * x + intercept), clamped to at least one token."""
    if x < 0:
        raise ValueError("input length must be >= 0")
    try:
        length = pred.slope * x + pred.intercept
    except OverflowError:  # x is an int too large for a float
        length = math.inf
    if not math.isfinite(length):
        raise ValueError(f"predicted target length {length} is not finite")
    return max(1, math.ceil(length))


def save_length_predictor(pred: LengthPredictor, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{pred.slope!r}\n{pred.intercept!r}\n")


def load_length_predictor(path: str) -> LengthPredictor:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise ValueError("predictor file must have two lines: slope, intercept")
    slope, intercept = float(lines[0]), float(lines[1])
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise ValueError(f"predictor slope and intercept must be finite, got {slope}, {intercept}")
    return LengthPredictor(slope=slope, intercept=intercept)


def default_upper_bound(target_length: int) -> int:
    """min(L_tgt + 5, floor(1.5 * L_tgt)), in integers, so a target too
    large for a float has a bound too."""
    return min(target_length + 5, target_length * 3 // 2)


@dataclass(frozen=True)
class LcConfig:
    """Length-constraint parameters.

    `edge_prune_threshold` is the cumulative-probability mass of out-arcs
    explored per state; 1.0 disables pruning and makes the search exact.
    """

    target_length: int
    strictness: float = 1.0
    edge_prune_threshold: float = 0.7
    upper_bound: int | None = None

    def __post_init__(self) -> None:
        for name in ("target_length", "upper_bound"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.target_length < 1:
            raise ValueError("target_length must be >= 1")
        for name in ("strictness", "edge_prune_threshold"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not (math.isfinite(self.strictness) and self.strictness >= 0):
            raise ValueError(f"strictness must be a finite number >= 0, got {self.strictness}")
        if not 0.0 < self.edge_prune_threshold <= 1.0:
            raise ValueError("edge_prune_threshold must be in (0, 1]")
        if self.upper_bound is None:
            object.__setattr__(self, "upper_bound", default_upper_bound(self.target_length))
        if self.upper_bound < 1:
            raise ValueError("upper_bound must be >= 1")


def length_penalty(l: int, target_length: int, strictness: float) -> float:
    """exp(A * (L_tgt / l - 1)) for strings shorter than target, else 1;
    inf when that exceeds the largest float."""
    if l < 1:
        raise ValueError("length must be >= 1")
    if l >= target_length or strictness == 0.0:
        return 1.0
    try:
        return math.exp(strictness * (target_length / l - 1.0))
    except OverflowError:
        return math.inf


# A search arc (weight, label, dst): a row of them sorts by weight, then
# label, then target with no key.
_SearchArc = tuple[float, int, int]


def _lattice_rows(lattice: Dag) -> Iterator[list[_SearchArc]]:
    """Each vertex's arcs as a sorted row of search arcs: the arcs of the
    acceptor `dag_to_wfsa` makes of a pruned lattice, without making it.
    A `Dag`'s transitions all go forward. Raises what `dag_to_wfsa` raises
    (`_check_overflow`) when a row holds an arc that weighs inf; inf sorts
    last, so only the last arc need be read."""
    inf = math.inf
    for emissions, transitions in zip(lattice.emissions, lattice.transitions):
        row = [(-(elp + tlp) + 0.0, token, v) for token, elp in emissions for v, tlp in transitions]
        row.sort()
        if row and row[-1][0] == inf:
            raise ValueError(f"arc weight {inf} is not a finite cost >= 0")
        yield row


def _acceptor_arcs(w: Wfsa) -> tuple[list[list[_SearchArc]], int, set[int]]:
    """Each state's arcs as a sorted row of search arcs, in a numbering
    where every arc goes to a higher state, with the start and the finals
    in it. The acceptor must have no epsilon or sigma arc; it is renumbered
    by `_topological_order` when some arc does not go forward, as
    `topological_sort` would number it, but no second acceptor is built.
    One without states is searched as one state without arcs that is not
    final."""
    if not w.num_states:
        return [[]], 0, set()
    forward = True
    for u in range(w.num_states):
        for label, _, dst in w.arcs_from(u):
            if label == EPSILON:
                raise ValueError("epsilon arcs must be removed before length-constrained decoding")
            if label == SIGMA:
                raise ValueError("cannot decode a path through a sigma arc")
            if dst <= u:
                forward = False
    order = range(w.num_states) if forward else _topological_order(w)
    renum = [0] * w.num_states
    for new, old in enumerate(order):
        renum[old] = new
    arcs = [sorted([(weight, label, renum[dst]) for label, weight, dst in w.arcs_from(old)])
            for old in order]
    return arcs, renum[w.start], {renum[f] for f in w.finals}


def _pruned_arcs(
    lattice: Dag | Wfsa, cfg: LcConfig
) -> tuple[int, set[int], list[list[_SearchArc]], list[int]]:
    """The forward pass: the start, the finals, each state's pruned arcs,
    and the fewest pruned arcs from the start to each state (past the
    bound, `upper_bound + 1`).

    A state's sorted row is cut to the minimal cheapest-first prefix whose
    renormalized probability mass exceeds the threshold (kept in full if
    the mass never does), then to the first arc into each successor: any
    later one weighs at least as much, so it can never offer a strictly
    lower cost. Every arc goes forward, so a state's depth is final when
    the pass reaches it.
    """
    if isinstance(lattice, Wfsa):
        arcs, start, finals = _acceptor_arcs(lattice)
        n, rows = len(arcs), arcs
    else:
        start, finals = 0, {lattice.final_vertex}
        n, rows = lattice.num_vertices, _lattice_rows(lattice)
    threshold = cfg.edge_prune_threshold
    exp = math.exp
    depth = [cfg.upper_bound + 1] * n
    depth[start] = 0
    pruned = []
    for u, row in enumerate(rows):
        if threshold < 1.0 and row:
            probs = [exp(-arc[0]) for arc in row]
            total = math.fsum(probs)
            if total > 0.0:
                mass = 0.0
                for i, p in enumerate(probs):
                    mass += p / total
                    if mass > threshold:
                        del row[i + 1:]
                        break
        d = depth[u] + 1
        kept = {}
        for arc in row:
            v = arc[2]
            if v not in kept:
                kept[v] = arc
                if d < depth[v]:
                    depth[v] = d
        pruned.append(list(kept.values()))
    return start, finals, pruned, depth


def _length_rows(
    lattice: Dag | Wfsa, cfg: LcConfig
) -> tuple[int, list[list[_SearchArc]], list[int], list[list[float]]]:
    """delta(state, l) for the lengths that can still fit under the bound,
    as one dense row per state: rows[s][i] is delta(s, first[s] + i), inf
    only where a length in between has no path.

    Two passes over the states, numbered so that every arc goes forward:
    `_pruned_arcs` prunes each state's arcs and finds its depth, the fewest
    pruned arcs from the start; a backward pass then fills each state's
    row up to the bound less that depth, from the tails of all its
    successors' rows at once. The tails are padded with inf to one common
    range, and each entry takes the first strictly least sum in pruned
    order. No back-pointers are kept; `_best_arc` recovers them along one
    path. Returns the start, the pruned arcs, and each state's first
    length and cost row.
    """
    start, finals, pruned, depth = _pruned_arcs(lattice, cfg)
    n = len(pruned)
    bound = cfg.upper_bound
    inf = math.inf
    first = [0] * n
    rows: list[list[float]] = [[] for _ in range(n)]
    for u in range(n - 1, -1, -1):
        limit = bound - depth[u]
        if limit < 0:
            continue
        tails = []
        lo, hi = limit + 1, 0  # every tail begins at or before the limit
        for weight, _, dst in pruned[u]:
            tail = rows[dst]
            begin = first[dst] + 1
            keep = limit - begin + 1
            if not tail or keep <= 0:
                continue
            if keep < len(tail):
                tail = tail[:keep]
                while tail and tail[-1] == inf:
                    tail.pop()
                if not tail:
                    continue
            end = begin + len(tail)
            if begin < lo:
                lo = begin
            if end > hi:
                hi = end
            tails.append((weight, begin, tail))
        if len(tails) == 1:
            w1, _, t1 = tails[0]
            row = [w1 + c for c in t1]
        elif tails:
            padded = []
            for weight, begin, tail in tails:
                if begin > lo:
                    tail = [inf] * (begin - lo) + tail
                if len(tail) < hi - lo:
                    tail = tail + [inf] * (hi - lo - len(tail))
                padded.append((weight, tail))
            (w1, t1), (w2, t2) = padded[:2]
            if len(padded) == 2:
                row = [x if (y := w2 + c2) >= (x := w1 + c1) else y for c1, c2 in zip(t1, t2)]
            else:
                w3, t3 = padded[2]
                row = [x if (y := w3 + c3) >= (x := a if (b := w2 + c2) >= (a := w1 + c1) else b)
                       else y for c1, c2, c3 in zip(t1, t2, t3)]
                for w, t in padded[3:]:
                    row = [x if (y := w + c) >= x else y for x, c in zip(row, t)]
        else:
            lo, row = 0, []
        if u in finals:
            row = [0.0, *[inf] * (lo - 1), *row] if row else [0.0]
            lo = 0
        rows[u] = row
        first[u] = lo
    return start, pruned, first, rows


def _best_arc(
    pruned: list[list[_SearchArc]], first: list[int], rows: list[list[float]], u: int, l: int
) -> _SearchArc | None:
    """The arc that starts the best length-l path from u: the first pruned
    arc whose weight plus delta(dst, l - 1) is strictly least, the same
    sum and tie rule the backward sweep applied."""
    inf = math.inf
    best = inf
    best_arc = None
    for arc in pruned[u]:
        weight, _, dst = arc
        i = l - 1 - first[dst]
        row = rows[dst]
        c = weight + (row[i] if 0 <= i < len(row) else inf)
        if c < best:
            best = c
            best_arc = arc
    return best_arc


def _start_costs(start: int, first: list[int], rows: list[list[float]]) -> dict[int, float]:
    """delta(start, l) for l >= 1, finite entries of the start row only."""
    lo = first[start]
    return {lo + i: c for i, c in enumerate(rows[start]) if lo + i >= 1 and c != math.inf}


def length_cost_table(lattice: Dag | Wfsa, cfg: LcConfig) -> dict[int, float]:
    """delta(start, l) for l = 1..upper_bound, finite entries only, of a
    pruned lattice or an acceptor without epsilon or sigma arcs."""
    start, _, first, rows = _length_rows(lattice, cfg)
    return _start_costs(start, first, rows)


def dfs_viterbi(lattice: Dag | Wfsa, cfg: LcConfig) -> DecodeResult:
    """Best length-penalized hypothesis among all lengths up to the bound.

    Searches a pruned lattice from `prune_dag`, which gives the result the
    acceptor `dag_to_wfsa` makes of it would, or any acyclic acceptor
    without epsilon or sigma arcs, such as a constrained product, in the
    two passes of `_length_rows`. A `Dag` checked its rows when it was
    made, so the only error it can raise here is `dag_to_wfsa`'s for an
    arc whose weight overflows to inf, reached or not: the forward pass
    builds every vertex's arcs.

    Returns the candidate minimizing length_penalty(l) * delta(start, l),
    preferring longer candidates on exact ties; the result carries both the
    raw path cost and the penalty-adjusted cost. A candidate whose adjusted
    cost is not a finite float loses to every other. When no accepting path
    of any permitted length exists, or no candidate has a finite adjusted
    cost, reports infeasibility along with what the unconstrained cheapest
    path would have looked like.
    """
    start, pruned, first, rows = _length_rows(lattice, cfg)
    candidates = _start_costs(start, first, rows)
    best_l = None
    best_cost = math.inf
    best_adjusted = math.inf
    for l, c in candidates.items():
        adjusted = length_penalty(l, cfg.target_length, cfg.strictness) * c
        if adjusted <= best_adjusted and adjusted < math.inf:
            best_adjusted = adjusted
            best_cost = c
            best_l = l
    if best_l is None:
        if candidates:
            note = (
                f"no candidate length up to {cfg.upper_bound} has a finite length-penalized "
                f"cost at target length {cfg.target_length} and strictness {cfg.strictness}"
            )
        else:
            # the lattice is already pruned: pruning it again could drop
            # the emissions its phrases forced
            w = lattice if isinstance(lattice, Wfsa) else _lattice_acceptor(lattice)
            unconstrained = shortest_path(w)
            if unconstrained.status != STATUS_OK:
                note = "no accepting path of any length"
            else:
                note = (
                    f"no accepting path with length <= {cfg.upper_bound}; unconstrained "
                    f"shortest path has {len(unconstrained.tokens)} tokens at cost "
                    f"{unconstrained.cost}"
                )
        return DecodeResult(status=STATUS_INFEASIBLE, note=note)
    tokens = []
    state = start
    for l in range(best_l, 0, -1):
        _, label, state = _best_arc(pruned, first, rows, state, l)
        tokens.append(label)
    return DecodeResult(
        status=STATUS_OK,
        tokens=tuple(tokens),
        cost=best_cost,
        adjusted_cost=best_adjusted,
    )
