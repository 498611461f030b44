"""Deterministic fixture builders for lattices, automata, and token tables."""

from __future__ import annotations

import math
import random
from dataclasses import replace

from dagdec.constraints import (
    ConstraintPhrase,
    build_hlc_fsa,
    build_vocab_fsa,
    constrained_product,
)
from dagdec.dag import Dag, PruneConfig, generate_synthetic_dag, prune_dag
from dagdec.tokens import TokenTable
from dagdec.wfsa import (
    EPSILON,
    Wfsa,
    _backward_trim,
    dag_to_wfsa,
    intersect,
    lexicon_register,
    register_acceptor,
)


def build_dag(emission_probs, transition_probs) -> Dag:
    """Build a lattice from probability-space per-vertex pair lists, in any
    order: the `Dag` sorts each row, and raises `DagFormatError` on a row
    that names one token or target twice."""

    def rows(vertices):
        return [[(index, math.log(p)) for index, p in vertex] for vertex in vertices]

    return Dag(num_vertices=len(emission_probs), emissions=rows(emission_probs),
               transitions=rows(transition_probs))


def tiny4() -> Dag:
    """Hand-authored 4-vertex lattice with two emissions per vertex."""
    return build_dag(
        emission_probs=[
            [(0, 0.5), (1, 0.5)],
            [(2, 0.8), (3, 0.2)],
            [(4, 0.9), (5, 0.1)],
            [(6, 0.7), (7, 0.3)],
        ],
        transition_probs=[
            [(1, 0.75), (2, 0.25)],
            [(2, 0.6), (3, 0.4)],
            [(3, 1.0)],
            [],
        ],
    )


def random_acyclic_wfsa(
    seed: int,
    max_states: int = 8,
    alphabet: tuple[int, ...] = (0, 1, 2),
    arc_density: float = 0.6,
    with_epsilon: bool = False,
) -> Wfsa:
    """Forward-arc acceptor with random weights; final state is the last."""
    rng = random.Random(seed)
    n = rng.randint(2, max_states)
    w = Wfsa(num_states=n, start=0, finals={n - 1})
    for src in range(n - 1):
        for dst in range(src + 1, n):
            for _ in range(rng.choice((1, 1, 2))):
                if rng.random() > arc_density:
                    continue
                if with_epsilon and rng.random() < 0.25:
                    label = EPSILON
                else:
                    label = rng.choice(alphabet)
                w.add_arc(src, label, round(rng.uniform(0.0, 3.0), 6), dst)
    if rng.random() < 0.3 and n > 2:
        w.finals.add(rng.randrange(1, n - 1))
    return w


def random_nfa(
    seed: int,
    max_states: int = 5,
    alphabet: tuple[int, ...] = (0, 1, 2),
    with_epsilon: bool = True,
) -> Wfsa:
    """Unweighted nondeterministic acceptor, cycles allowed."""
    rng = random.Random(seed)
    n = rng.randint(1, max_states)
    a = Wfsa(num_states=n, start=0)
    num_finals = rng.randint(1, n)
    a.finals = set(rng.sample(range(n), num_finals))
    for _ in range(rng.randint(0, 3 * n)):
        src = rng.randrange(n)
        dst = rng.randrange(n)
        if with_epsilon and rng.random() < 0.15:
            label = EPSILON
        else:
            label = rng.choice(alphabet)
        a.add_arc(src, label, 0.0, dst)
    return a


def linear_acceptor(tokens, weight: float = 0.0) -> Wfsa:
    """Chain acceptor for exactly one token sequence."""
    w = Wfsa(num_states=len(tokens) + 1, start=0, finals={len(tokens)})
    for i, t in enumerate(tokens):
        w.add_arc(i, t, weight, i + 1)
    return w


def _copy_into(dst: Wfsa, src: Wfsa, offset: int) -> None:
    """Copy src's arcs into dst, shifted by offset, and enter src's start
    by an epsilon arc from dst's state 0; src without states has no start."""
    for s, arc in src.all_arcs():
        dst.add_arc(s + offset, arc.label, arc.weight, arc.dst + offset)
    if src.num_states:
        dst.add_arc(0, EPSILON, 0.0, src.start + offset)


def union(first: Wfsa, *rest: Wfsa) -> Wfsa:
    """Thompson union: accepts any operand's language."""
    operands = (first, *rest)
    total = 1 + sum(a.num_states for a in operands)
    out = Wfsa(num_states=total, start=0)
    offset = 1
    for a in operands:
        _copy_into(out, a, offset)
        out.finals.update(f + offset for f in a.finals)
        offset += a.num_states
    return out


def closure(a: Wfsa) -> Wfsa:
    """Kleene closure: L(a)*, accepting the empty string."""
    out = Wfsa(num_states=a.num_states + 1, start=0, finals={0})
    _copy_into(out, a, 1)
    for f in sorted(a.finals):
        out.add_arc(f + 1, EPSILON, 0.0, 0)
    return out


def lexicon_dfa(words) -> Wfsa:
    """Minimal deterministic acceptor for a finite set of token sequences:
    `lexicon_register`'s states built as one `Wfsa` by `register_acceptor`,
    so state 0 is the start and each state's arcs are in label order."""
    return register_acceptor(*lexicon_register(words))


def trim(w: Wfsa) -> Wfsa:
    """Drop states not on any start-to-final path (keeps relative order): a
    forward walk marks the states the start reaches and records their
    predecessors, then `_backward_trim`, the pass the constraint product
    ends with, keeps those that reach a final. A kept arc whose weight is
    not a finite cost >= 0 raises `add_arc`'s error."""
    reached = [False] * w.num_states
    preds: list[list[int]] = [[] for _ in reached]
    stack = [w.start] if reached else []  # an acceptor without states has no start
    while stack:
        s = stack.pop()
        if not reached[s]:
            reached[s] = True
            for arc in w.arcs_from(s):
                preds[arc.dst].append(s)
                stack.append(arc.dst)
    out = _backward_trim(w.start, [f for f in w.finals if reached[f]], w._arcs, preds)
    for _, arc in out.all_arcs():
        if not 0.0 <= arc.weight < math.inf:
            raise ValueError(f"arc weight {arc.weight} is not a finite cost >= 0")
    return out


def random_kept_path(dag: Dag, cfg: PruneConfig, seed: int) -> tuple[int, ...]:
    """Token sequence of a random path through the pruned lattice.

    Spelled source-vertex-wise (the automaton-path convention), so any
    window of it is realizable in the converted acceptor.
    """
    rng = random.Random(seed)
    pruned = prune_dag(dag, cfg)
    tokens = []
    u = pruned.start_vertex
    while u != pruned.final_vertex:
        token, _ = rng.choice(pruned.emissions[u])
        v, _ = rng.choice(pruned.transitions[u])
        tokens.append(token)
        u = v
    return tuple(tokens)


def plant_phrases(
    dag: Dag, cfg: PruneConfig, seed: int, num_phrases: int
) -> list[ConstraintPhrase]:
    """Non-overlapping windows of one kept path, guaranteed jointly feasible."""
    rng = random.Random(seed)
    path = random_kept_path(dag, cfg, seed + 1)
    phrases = []
    pos = 0
    for _ in range(num_phrases):
        if pos >= len(path):
            break
        width = rng.randint(1, min(3, len(path) - pos))
        start = rng.randint(pos, len(path) - width)
        phrases.append(ConstraintPhrase(tokens=path[start : start + width]))
        pos = start + width
    return phrases


def random_constrained_lattice(rng: random.Random, vocab_size: int) -> tuple[Dag, PruneConfig]:
    """A lattice of 1-7 vertices over a few tokens, so phrases repeat
    tokens and overlap, with random pruning degrees and one or two phrases
    in the config's constraints: planted on a kept path (none on a single
    vertex), or drawn at random and often infeasible."""
    n = rng.randint(1, 7)
    if n == 1:
        dag = build_dag([[(rng.randrange(vocab_size), 1.0)]], [[]])
    else:
        dag = generate_synthetic_dag(
            seed=rng.randrange(2**32),
            num_vertices=n,
            emission_degree=rng.randint(1, vocab_size),
            transition_degree=rng.randint(1, min(3, n - 1)),
            concentration=rng.choice((0.3, 1.0, 5.0)),
            vocab_size=vocab_size,
        )
    k_e, k_t = rng.randint(1, 3), rng.randint(1, 3)
    count = rng.randint(1, 2)
    if rng.random() < 0.6:
        phrases = plant_phrases(dag, PruneConfig(k_e=k_e, k_t=k_t), rng.randrange(2**32), count)
    else:
        phrases = [
            ConstraintPhrase(tokens=tuple(rng.choices(range(vocab_size), k=rng.randint(1, 3))))
            for _ in range(count)
        ]
    return dag, PruneConfig(k_e=k_e, k_t=k_t, constraints=tuple(phrases))


def random_constraint_draw(
    seed: int, vocab_size: int = 4
) -> tuple[Wfsa, tuple[ConstraintPhrase, ...], Wfsa | None]:
    """A random constrained lattice, converted, with its phrases and, half
    the time, a vocabulary closure of single-token words plus multi-word
    entities."""
    rng = random.Random(seed)
    dag, cfg = random_constrained_lattice(rng, vocab_size)
    vocab = None
    if rng.random() < 0.5:
        table = toy_table(vocab_size)
        words = [f"w{i:03d}" for i in range(vocab_size)]
        dictionary = rng.sample(words, rng.randint(1, vocab_size))
        entities = [" ".join(rng.choices(words, k=rng.randint(2, 3))) for _ in range(rng.randint(0, 2))]
        vocab = build_vocab_fsa(dictionary, [], entities, table).automaton
    return dag_to_wfsa(dag, cfg), cfg.constraints, vocab


def random_constrained_product(seed: int, vocab_size: int = 4) -> Wfsa:
    """A random constraint draw intersected one constraint at a time: one
    `intersect` per phrase acceptor, then one with the vocabulary."""
    w, phrases, vocab = random_constraint_draw(seed, vocab_size)
    for phrase in phrases:
        w = intersect(w, build_hlc_fsa(phrase))
    if vocab is not None:
        w = intersect(w, vocab)
    return w


def random_joint_product(seed: int, vocab_size: int = 4) -> Wfsa:
    """The acceptor an lc or control-dag decode searches: the same draw
    as `random_constrained_product`, in one `constrained_product`."""
    w, phrases, vocab = random_constraint_draw(seed, vocab_size)
    return constrained_product(w, phrases, vocab)


def uniform_lattice(rng: random.Random) -> tuple[Dag, tuple[ConstraintPhrase, ...]]:
    """A tie-heavy lattice of 1-8 vertices: uniform emission and transition
    probabilities over 2-4 tokens, now and then a vertex with no emissions,
    and 0-3 random phrases of 1-3 tokens, so tokens repeat within and
    across phrases."""
    n = rng.randint(1, 8)
    vocab_size = rng.randint(2, 4)
    emissions = []
    transitions = []
    for u in range(n):
        size = 0 if u and rng.random() < 0.05 else rng.randint(1, vocab_size)
        emissions.append([(t, 1.0 / size) for t in rng.sample(range(vocab_size), size)])
        targets = rng.sample(range(u + 1, n), min(rng.randint(1, 3), n - 1 - u))
        transitions.append([(v, 1.0 / len(targets)) for v in targets])
    phrases = tuple(
        ConstraintPhrase(tokens=tuple(rng.choices(range(vocab_size), k=rng.randint(1, 3))))
        for _ in range(rng.randint(0, 3))
    )
    return build_dag(emissions, transitions), phrases


def window_lattice(seed: int, gold_tokens: int = 40) -> tuple[Dag, tuple[ConstraintPhrase, ...]]:
    """A smaller lattice of the benchmark's cbs-phrases shape.

    Transitions are local (u -> u+1..u+8), each vertex has 6 emissions, and
    a planted gold path has the top emission and the top transition at each
    of its vertices. The 2-3 phrases are disjoint 3-token windows of the
    gold tokens, one per equal slice of them.
    """
    rng = random.Random(seed)
    window, degree, vocab_size = 8, 6, 60
    gold = [rng.randrange(vocab_size) for _ in range(gold_tokens)]
    jumps = [1 + i % window for i in range(gold_tokens)]
    rng.shuffle(jumps)
    n = 1 + sum(jumps)
    plan = {}
    u = 0
    for token, jump in zip(gold, jumps):
        plan[u] = (token, u + jump)
        u += jump
    emissions = []
    transitions = []
    for u in range(n):
        token, succ = plan.get(u, (None, None))
        sample = rng.sample(range(vocab_size), degree)
        head = token if token is not None else rng.randrange(vocab_size)
        tokens = [head] + [t for t in sample if t != head][: degree - 1]
        targets = [v for v in range(u + 1, min(u + window, n - 1) + 1) if v != succ]
        rng.shuffle(targets)
        if succ is not None:
            targets.insert(0, succ)
        emissions.append(list(zip(tokens, _descending_probs(rng, len(tokens)))))
        transitions.append(list(zip(targets, _descending_probs(rng, len(targets)))))
    count = 2 + seed % 2
    size = gold_tokens // count
    phrases = []
    for k in range(count):
        start = rng.randint(k * size, (k + 1) * size - 3)
        phrases.append(ConstraintPhrase(tokens=tuple(gold[start : start + 3])))
    return build_dag(emissions, transitions), tuple(phrases)


def dead_end(dag: Dag, u: int) -> Dag:
    """`dag` with no transitions out of vertex u."""
    transitions = list(dag.transitions)
    transitions[u] = ()
    return replace(dag, transitions=tuple(transitions))


def overflowing(dag: Dag, u: int) -> Dag:
    """`dag` with every log-prob at vertex u so low that an emission plus a
    transition there is -inf, so each arc out of u would weigh inf."""

    def low(rows):
        rows = list(rows)
        rows[u] = tuple(sorted((i, -1.7e308) for i, _ in rows[u]))  # ties: by index
        return tuple(rows)

    return replace(dag, emissions=low(dag.emissions), transitions=low(dag.transitions))


def _descending_probs(rng: random.Random, size: int) -> list[float]:
    weights = sorted((rng.random() + 1e-9 for _ in range(size)), reverse=True)
    total = sum(weights)
    return [w / total for w in weights]


def toy_table(vocab_size: int, width: int = 3) -> TokenTable:
    """Single-token words w000..; ids beyond vocab_size are sos/eos."""
    surfaces = [f"▁w{i:0{width}d}" for i in range(vocab_size)]
    surfaces += ["<s>", "</s>"]
    return TokenTable(
        surfaces=tuple(surfaces),
        sow_mark="▁",
        eos_id=vocab_size + 1,
        sos_id=vocab_size,
    )


def vocab_fixture(
    seed: int,
    num_vertices: int = 9,
    vocab_size: int = 24,
    lexicon_share: float = 0.5,
    plant_oov: bool = False,
) -> tuple[Dag, TokenTable, list[str], list[int]]:
    """Lattice mixing in-lexicon and out-of-lexicon word tokens.

    Returns (dag, table, lexicon words, in-lexicon token ids). Every vertex
    keeps an in-lexicon emission among its top two, so a vocabulary-
    constrained path always exists - except with plant_oov, where vertex 0
    emits only out-of-lexicon tokens and every path is contaminated.
    """
    rng = random.Random(seed)
    table = toy_table(vocab_size)
    ids = list(range(vocab_size))
    rng.shuffle(ids)
    cut = max(1, int(vocab_size * lexicon_share))
    lex_ids, oov_ids = ids[:cut], ids[cut:]
    lexicon = sorted(table.surface(i).lstrip(table.sow_mark) for i in lex_ids)

    emissions = []
    transitions = []
    final = num_vertices - 1
    for u in range(num_vertices):
        if plant_oov and u == 0:
            a, b = rng.sample(oov_ids, 2)
        else:
            a = rng.choice(lex_ids)
            b = rng.choice([i for i in oov_ids + lex_ids if i != a])
        p = rng.uniform(0.55, 0.9)
        emissions.append([(a, p), (b, 1.0 - p)])
        if u == final:
            transitions.append([])
        elif u == final - 1:
            transitions.append([(final, 1.0)])
        else:
            p = rng.uniform(0.6, 0.95)
            skip = rng.randint(u + 2, min(u + 3, final))
            transitions.append([(u + 1, p), (skip, 1.0 - p)])
    return build_dag(emissions, transitions), table, lexicon, lex_ids


def control_fixture(
    seed: int, chain_len: int = 10, vocab_size: int = 40
) -> tuple[Dag, TokenTable, list[str], list[str], int]:
    """Lattice with a designed in-lexicon chain carrying planted phrases.

    Returns (dag, table, lexicon, phrase surfaces, target length). The
    full chain realizes every phrase, stays inside the lexicon, and has
    length >= the target, so all constraints are jointly satisfiable.
    """
    rng = random.Random(seed)
    table = toy_table(vocab_size)
    ids = list(range(vocab_size))
    rng.shuffle(ids)
    chain = ids[:chain_len]
    lex_ids = set(chain) | set(ids[chain_len : chain_len + 8])
    oov_ids = [i for i in ids if i not in lex_ids]
    lexicon = sorted(table.surface(i).lstrip(table.sow_mark) for i in lex_ids)

    emissions = []
    transitions = []
    for u in range(chain_len):
        distract = rng.choice(oov_ids)
        p = rng.uniform(0.5, 0.85)
        emissions.append([(chain[u], p), (distract, 1.0 - p)])
        if u + 2 < chain_len and rng.random() < 0.4:
            q = rng.uniform(0.6, 0.9)
            transitions.append([(u + 1, q), (u + 2, 1.0 - q)])
        else:
            transitions.append([(u + 1, 1.0)])
    emissions.append([(table.eos_id, 1.0)])
    transitions.append([])

    num_phrases = rng.randint(1, 3)
    phrases = []
    pos = 0
    for _ in range(num_phrases):
        if pos >= chain_len:
            break
        width = rng.randint(1, min(3, chain_len - pos))
        start = rng.randint(pos, chain_len - width)
        surface = " ".join(
            table.surface(chain[i]).lstrip(table.sow_mark)
            for i in range(start, start + width)
        )
        phrases.append(surface)
        pos = start + width
    target = max(2, chain_len - 2)
    return build_dag(emissions, transitions), table, lexicon, phrases, target
