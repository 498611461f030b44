"""Target-length prediction and length-constrained lattice decoding.

The decoder finds, for every candidate length l up to an upper bound, the
cheapest accepting path with exactly l arcs. It searches a pruned lattice
directly, with each kept (emission, transition) pair of a vertex as one
arc, or an epsilon-free acceptor such as a constrained product; both are
read into one list of (weight, label, dst) arcs per state. One backward
sweep over the states in reverse topological order keeps, per state, a
dense row of the costs delta(state, l) over a contiguous range of
lengths: this is Mohri's topological shortest distance (2002) over the
product of the lattice with a length counter, with cumulative-probability
arc pruning. The finite entries of the start row then compete on their
cost scaled by an exponential penalty for falling short of the target
length, and the arcs of the winner are recovered from the rows along its
path alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dag import Dag
from .result import STATUS_INFEASIBLE, STATUS_OK, DecodeResult
from .wfsa import (EPSILON, Wfsa, _check_overflow, _lattice_acceptor, _topological_order,
                   shortest_path)


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


def _search_arcs(lattice: Dag | Wfsa) -> tuple[list[list[_SearchArc]], int, set[int]]:
    """Each state's arcs as sorted search arcs, in a numbering where every
    arc goes to a higher state, with the start and the finals in it.

    A pruned `Dag` gives the arcs of the acceptor `dag_to_wfsa` makes of
    it without making it, and raises what that raises (`_check_overflow`)
    for any kept arc, reached or not; its transitions all go forward. A
    `Wfsa` must be epsilon-free; it is renumbered by `_topological_order`
    when some arc does not go forward, as `topological_sort` would number
    it, but no second acceptor is built.
    """
    if isinstance(lattice, Wfsa):
        return _acceptor_arcs(lattice)
    _check_overflow(lattice)
    arcs = []
    for emissions, transitions in zip(lattice.emissions, lattice.transitions):
        row = [(-(elp + tlp) + 0.0, token, v) for token, elp in emissions for v, tlp in transitions]
        row.sort()
        arcs.append(row)
    return arcs, 0, {lattice.final_vertex}


def _acceptor_arcs(w: Wfsa) -> tuple[list[list[_SearchArc]], int, set[int]]:
    """`_search_arcs` of an acceptor; one without states is searched as one
    state without arcs that is not final."""
    if not w.num_states:
        return [[]], 0, set()
    forward = True
    for u in range(w.num_states):
        for label, _, dst in w.arcs_from(u):
            if label == EPSILON:
                raise ValueError("epsilon arcs must be removed before length-constrained decoding")
            if dst <= u:
                forward = False
    order = range(w.num_states) if forward else _topological_order(w)
    renum = [0] * w.num_states
    for new, old in enumerate(order):
        renum[old] = new
    arcs = [sorted([(weight, label, renum[dst]) for label, weight, dst in w.arcs_from(old)])
            for old in order]
    return arcs, renum[w.start], {renum[f] for f in w.finals}


def _prune_arcs(ordered: list[_SearchArc], threshold: float) -> list[_SearchArc]:
    """A sorted row cut to the minimal cheapest-first prefix whose
    renormalized probability mass exceeds the threshold (kept in full if
    the mass never does), then to the first arc into each successor: any
    later one weighs at least as much, so it can never offer a strictly
    lower cost."""
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
    first: dict[int, _SearchArc] = {}
    for arc in ordered:
        if arc[2] not in first:
            first[arc[2]] = arc
    return list(first.values())


def _length_rows(
    arcs: list[list[_SearchArc]], start: int, finals: set[int], cfg: LcConfig
) -> tuple[list[list[_SearchArc]], list[int], list[list[float]]]:
    """delta(state, l) for the lengths that can still fit under the bound,
    as one dense row per state: rows[s][i] is delta(s, first[s] + i), inf
    only where a length in between has no path.

    `arcs` holds each state's sorted search arcs in a numbering where every
    arc goes forward, as `_search_arcs` gives them. A forward pass finds
    the fewest pruned arcs from the start to each state; a backward pass
    then fills each state's row up to the bound less that depth, trying
    arcs in pruned order and replacing only on strict <, so the work is
    one row scan per pruned arc. No back-pointers are kept; `_best_arc`
    recovers them along one path. Returns the pruned arcs, and each
    state's first length and cost row.
    """
    n = len(arcs)
    bound = cfg.upper_bound
    threshold = cfg.edge_prune_threshold
    pruned = [_prune_arcs(row, threshold) for row in arcs]
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
    pruned lattice or an epsilon-free acceptor."""
    arcs, start, finals = _search_arcs(lattice)
    _, first, rows = _length_rows(arcs, start, finals, cfg)
    return _start_costs(start, first, rows)


def dfs_viterbi(lattice: Dag | Wfsa, cfg: LcConfig) -> DecodeResult:
    """Best length-penalized hypothesis among all lengths up to the bound.

    Searches a pruned lattice from `prune_dag`, which gives the result the
    acceptor `dag_to_wfsa` makes of it would, or any epsilon-free acyclic
    acceptor, such as a constrained product. A `Dag` checked its rows when
    it was made, so the only error it can raise here is `dag_to_wfsa`'s
    for an arc whose weight overflows to inf.

    Returns the candidate minimizing length_penalty(l) * delta(start, l),
    preferring longer candidates on exact ties; the result carries both the
    raw path cost and the penalty-adjusted cost. A candidate whose adjusted
    cost is not a finite float loses to every other. When no accepting path
    of any permitted length exists, or no candidate has a finite adjusted
    cost, reports infeasibility along with what the unconstrained cheapest
    path would have looked like.
    """
    arcs, start, finals = _search_arcs(lattice)
    pruned, first, rows = _length_rows(arcs, start, finals, cfg)
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
