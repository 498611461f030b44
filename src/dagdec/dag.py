"""Directed acyclic token lattices: model, serialization, pruning.

A lattice has one emission distribution and one forward transition
distribution per vertex, both stored sparsely as (index, log-probability)
pairs sorted by descending probability. Vertex 0 is the start, vertex L-1
the unique final. The loaders and the `Dag` constructor read each row
with one reader, which checks and orders it in one pass, so no reader of
a `Dag` checks its rows again. Pruning keeps the top-k entries per
vertex and force-emits constraint-phrase continuation tokens so
constrained paths survive. `read_pruned_dag` reads, checks and prunes a
lattice file in one loop over its vertices, with `prune_dag`'s step.
`generate_synthetic_dag`, behind `synth`, loads `random` only when called.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable, Iterable
from dataclasses import dataclass

DAG_FORMAT_VERSION = 1
_MIN_LOGPROB = -sys.float_info.max
_ANY_TOKEN = sys.maxsize  # the emission bound without a token table; `_odd_entry` takes ids past it


class DagFormatError(ValueError):
    """Raised when a lattice document violates the format or invariants."""


@dataclass(frozen=True)
class Dag:
    """Immutable token lattice.

    emissions[u]  : tuple of (token_id >= 0, logprob), descending probability
    transitions[u]: tuple of (target, logprob) with u < target < num_vertices,
                    descending probability
    (ties: smaller index first). Every log-prob is a finite float <= 0, and
    no row names an index twice. The constructor checks every row, vertex
    by vertex, and raises `DagFormatError` for the first error, with the
    words `load_dag` uses. A row is a list or a tuple of pairs, and a pair
    is a list or a tuple (not a dict, a set or another iterable) of index
    and log-prob. It stores both as tuples, with integer log-probs made
    floats; a row that is not in this order is sorted. Pruning and beam
    search take top-k entries as prefixes, and every reader relies on the
    order and the ranges without checking them again.
    """

    num_vertices: int
    emissions: tuple[tuple[tuple[int, float], ...], ...]
    transitions: tuple[tuple[tuple[int, float], ...], ...]

    def __post_init__(self) -> None:
        n = self.num_vertices
        if type(n) is not int or n < 1:
            raise DagFormatError("num_vertices must be a positive integer")
        for key in ("emissions", "transitions"):
            rows = getattr(self, key)
            if not isinstance(rows, (list, tuple)) or len(rows) != n:
                raise DagFormatError(f"{key} must be a list of one row per vertex ({n})")
        emissions = []
        transitions = []
        for u, (em, tr) in enumerate(zip(self.emissions, self.transitions)):
            emissions.append(_read_row(u, em, "emission", 0, _ANY_TOKEN))
            transitions.append(_read_row(u, tr, "transition", u + 1, n))
        object.__setattr__(self, "emissions", tuple(emissions))
        object.__setattr__(self, "transitions", tuple(transitions))

    @property
    def start_vertex(self) -> int:
        return 0

    @property
    def final_vertex(self) -> int:
        return self.num_vertices - 1


def _checked_dag(num_vertices: int, emissions: tuple, transitions: tuple) -> Dag:
    """A `Dag` of rows that already keep its rule, such as subsequences of
    a `Dag`'s rows, made without checking them again."""
    dag = object.__new__(Dag)
    dag.__dict__.update(num_vertices=num_vertices, emissions=emissions, transitions=transitions)
    return dag


@dataclass(frozen=True)
class PruneConfig:
    """Per-vertex pruning degrees plus the phrases to keep emittable."""

    k_e: int
    k_t: int
    constraints: tuple["ConstraintPhrase", ...] = ()

    def __post_init__(self) -> None:
        for name in ("k_e", "k_t"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
        object.__setattr__(self, "constraints", tuple(self.constraints))


def _sort_sparse(pairs: Iterable[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    # Descending probability; ties broken by smaller index for determinism.
    return tuple(sorted(pairs, key=lambda p: (-p[1], p[0])))


def load_dag(source: str | bytes) -> Dag:
    """Parse the versioned JSON lattice format, validating all invariants."""
    return _load(source, _ANY_TOKEN, None)


def _load(source: str | bytes, num_tokens: int, prune: Callable | None) -> Dag:
    """`load_dag`, refusing an emission id >= num_tokens, with each vertex's
    rows passed through `prune` (a `_vertex_pruner` step), if given."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    try:
        doc = json.loads(source)
    except json.JSONDecodeError as exc:
        raise DagFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DagFormatError("top-level document must be an object")
    version = doc.get("version")
    if isinstance(version, bool) or version != DAG_FORMAT_VERSION:
        raise DagFormatError(f"unsupported version {version!r}")
    num_vertices = doc.get("num_vertices")
    if type(num_vertices) is not int or num_vertices < 1:
        raise DagFormatError("num_vertices must be a positive integer")
    vertices = doc.get("vertices")
    if not isinstance(vertices, list) or len(vertices) != num_vertices:
        raise DagFormatError("vertices list does not match num_vertices")
    emissions = []
    transitions = []
    for u, vertex in enumerate(vertices):
        if not isinstance(vertex, dict):
            raise DagFormatError(f"vertex {u}: not an object")
        em = _read_row(u, vertex.get("emissions", []), "emission", 0, num_tokens)
        tr = _read_row(u, vertex.get("transitions", []), "transition", u + 1, num_vertices)
        if prune is not None:
            em, tr = prune(u, em, tr)
        emissions.append(em)
        transitions.append(tr)
    return _checked_dag(num_vertices, tuple(emissions), tuple(transitions))


def _read_row(
    u: int, pairs: object, kind: str, lo: int, hi: int
) -> tuple[tuple[int, float], ...]:
    """Vertex u's row of `kind` ("emission" or "transition") pairs, sorted
    only if it is not listed in order.

    An entry is taken as it stands if it is a list or tuple of an int index
    in [lo, hi) that the row has not named yet and a float log-prob in
    [-max, 0]. The first entry that is not goes to `_odd_entry`, which
    raises its error or accepts it, so errors come in row order.
    """
    if not isinstance(pairs, (list, tuple)):
        raise DagFormatError(f"vertex {u}: {kind}s must be a list")
    row = {}  # index -> log-prob, in the order listed
    last = 1.0  # above any log-prob, so the first pair is in order
    ordered = True
    for pair in pairs:
        try:
            i, lp = pair
        except (TypeError, ValueError):  # an entry that is not a pair
            i = lp = None
        if (type(pair) is not list and type(pair) is not tuple
                or type(i) is not int or type(lp) is not float
                or not lo <= i < hi or not _MIN_LOGPROB <= lp <= 0.0 or i in row):
            i, lp = _odd_entry(u, pair, kind, hi, row)
        if lp >= last:  # a tie or a rise: let the sort settle it
            ordered = False
        last = lp
        row[i] = lp
    return tuple(row.items()) if ordered else _sort_sparse(row.items())


def _odd_entry(u: int, pair: object, kind: str, hi: int, row: dict) -> tuple[int, float]:
    """An entry of vertex u's `kind` row that `_read_row` did not take as
    it stands. Raises its first error, an emission index past the token
    bound `hi` last and as a plain `ValueError`, or returns the pair the row
    stores: a list- or tuple-subclass pair, an int-subclass index, an emission
    index of `_ANY_TOKEN` or more, or an int or float-subclass log-prob made a float.
    """
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise DagFormatError(f"vertex {u}: {kind} entry must be a [index, logprob] pair")
    index, logp = pair
    if not isinstance(index, int) or isinstance(index, bool):
        raise DagFormatError(f"vertex {u}: {kind} index must be an integer")
    if isinstance(logp, bool) or not isinstance(logp, (int, float)):
        raise DagFormatError(f"vertex {u}: {kind} log-probability must be a number, not {logp!r}")
    if logp > 0.0:
        raise DagFormatError(f"vertex {u}: {kind} probability > 0 in log space ({logp})")
    if not logp >= _MIN_LOGPROB:  # -inf, NaN, or an int below the float range
        raise DagFormatError(f"vertex {u}: {kind} log-probability {logp} is not a finite float")
    emission = kind == "emission"
    if emission and index < 0:
        raise DagFormatError(f"vertex {u}: negative token id {index}")
    if not emission and index <= u:
        raise DagFormatError(f"vertex {u}: backward edge {u}->{index}")
    if not emission and index >= hi:
        raise DagFormatError(f"vertex {u}: dangling vertex index {index} (num_vertices={hi})")
    if index in row:
        noun = "token" if emission else "target"
        raise DagFormatError(f"vertex {u}: duplicate {kind} {noun} {index}")
    if emission and hi != _ANY_TOKEN and index >= hi:
        raise ValueError(f"vertex {u}: token id {index} is outside the token table ({hi} tokens)")
    return index, float(logp)


def dump_dag(dag: Dag) -> str:
    """Serialize to the canonical JSON form (round-trips bit-exactly)."""
    doc = {
        "version": DAG_FORMAT_VERSION,
        "num_vertices": dag.num_vertices,
        "vertices": [
            {
                "emissions": [[t, lp] for t, lp in dag.emissions[u]],
                "transitions": [[v, lp] for v, lp in dag.transitions[u]],
            }
            for u in range(dag.num_vertices)
        ],
    }
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


def read_dag(path: str) -> Dag:
    with open(path, encoding="utf-8") as fh:
        return load_dag(fh.read())


def read_pruned_dag(path: str, cfg: PruneConfig, num_tokens: int) -> Dag:
    """`prune_dag(read_dag(path), cfg)` in one loop that checks and prunes
    each vertex's rows as it reads them, and refuses an emission id >=
    num_tokens with a plain `ValueError`. An error names the first fault in
    vertex order: emissions before transitions, each row entry by entry."""
    with open(path, encoding="utf-8") as fh:
        return _load(fh.read(), num_tokens, _vertex_pruner(cfg))


def write_dag(dag: Dag, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_dag(dag))
        fh.write("\n")


def prune_dag(dag: Dag, cfg: PruneConfig) -> Dag:
    """Keep the top-k_e emissions and top-k_t transitions per vertex, plus
    the forced constraint continuations (see `_vertex_pruner`)."""
    prune = _vertex_pruner(cfg)
    rows = [prune(u, em, tr) for u, (em, tr) in enumerate(zip(dag.emissions, dag.transitions))]
    emissions, transitions = zip(*rows)
    return _checked_dag(dag.num_vertices, emissions, transitions)


def _vertex_pruner(cfg: PruneConfig) -> Callable:
    """The one pruning step, `prune(u, emissions, transitions)` -> vertex
    u's kept rows, to be called on every vertex in order.

    It keeps the top-k_e emissions and top-k_t transitions with their raw
    log-probabilities, and the forced constraint continuations below the
    top k_e; a forced token absent from the row cannot be added. A phrase
    token kept at a vertex forces the phrase token after it at each target
    of the vertex's kept transitions. Every predecessor of a vertex has a
    lower number, so its forced tokens are complete when the step reaches it.
    """
    k_e, k_t = cfg.k_e, cfg.k_t
    follow: dict[int, set[int]] = {}
    for phrase in cfg.constraints:
        toks = phrase.tokens
        for j in range(len(toks) - 1):
            follow.setdefault(toks[j], set()).add(toks[j + 1])
    forced_at: dict[int, set[int]] = {}  # vertex -> tokens its predecessors force

    def prune(u: int, emissions: tuple, transitions: tuple) -> tuple[tuple, tuple]:
        kept_tr = transitions[:k_t]
        kept = emissions[:k_e]
        forced = forced_at.pop(u, None)
        if forced:
            extra = tuple(p for p in emissions[k_e:] if p[0] in forced)
            if extra:
                kept += extra  # both parts keep the row's order
        if follow:
            pushed: set[int] = set()
            for t, _ in kept:
                if t in follow:
                    pushed |= follow[t]
            if pushed:
                for v, _ in kept_tr:
                    forced_at.setdefault(v, set()).update(pushed)
        return kept, kept_tr

    return prune


def generate_synthetic_dag(
    seed: int,
    num_vertices: int,
    emission_degree: int,
    transition_degree: int,
    concentration: float,
    vocab_size: int = 32,
) -> Dag:
    """Deterministic random lattice with Dirichlet-distributed probabilities.

    `concentration` is the symmetric Dirichlet parameter: small values give
    peaked distributions (few entries above 0.2 per vertex, mimicking the
    sparsity of trained lattice generators), large values give flat ones.
    Every vertex links to its successor, so an accepting path always exists.
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be >= 2")
    if emission_degree < 1 or transition_degree < 1:
        raise ValueError("degrees must be >= 1")
    # random.gammavariate never returns once 2 * alpha overflows, and a
    # Dirichlet draw sums up to one gamma variate near alpha per degree
    bound = sys.float_info.max / (2 * max(emission_degree, transition_degree))
    if not 0 < concentration <= bound:
        raise ValueError(f"concentration must be in (0, {bound!r}], got {concentration!r}")
    if transition_degree > num_vertices - 1:
        raise ValueError(
            f"transition degree {transition_degree} exceeds feasible forward-edge "
            f"count {num_vertices - 1}"
        )
    if emission_degree > vocab_size:
        raise ValueError(
            f"emission degree {emission_degree} exceeds vocabulary size {vocab_size}"
        )

    import random  # here, not at start-up: only `synth` draws lattices

    rng = random.Random(seed)
    emissions = []
    transitions = []
    final = num_vertices - 1
    for u in range(num_vertices):
        tokens = rng.sample(range(vocab_size), emission_degree)
        probs = _dirichlet(rng, emission_degree, concentration)
        emissions.append(_sort_sparse(zip(tokens, map(math.log, probs))))

        if u == final:
            transitions.append(())
            continue
        degree = min(transition_degree, num_vertices - 1 - u)
        targets = [u + 1]
        if degree > 1:
            targets += rng.sample(range(u + 2, num_vertices), degree - 1)
        probs = _dirichlet(rng, degree, concentration)
        transitions.append(_sort_sparse(zip(targets, map(math.log, probs))))

    return Dag(
        num_vertices=num_vertices,
        emissions=tuple(emissions),
        transitions=tuple(transitions),
    )


def _dirichlet(rng: random.Random, size: int, concentration: float) -> list[float]:
    if size == 1:
        return [1.0]
    gammas = [max(rng.gammavariate(concentration, 1.0), 1e-300) for _ in range(size)]
    total = math.fsum(gammas)
    return [g / total for g in gammas]
