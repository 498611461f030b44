"""Constraint automata: must-appear phrases and permitted vocabularies.

A hard lexical constraint compiles to an acceptor for "anything, then the
phrase, then anything", built from the phrase's string-matching automaton.
A vocabulary constraint is the Kleene closure of the union of a dictionary
automaton, a special-token automaton, and per-input entity automata; only
token sequences that concatenate permitted word units survive it. A
decode intersects the pruned lattice with all of its constraints at once,
in one product over the lattice, the phrase matchers and the vocabulary.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import wfsa
from .dag import Dag
from .tokens import TokenTable
from .wfsa import SIGMA, Arc, Wfsa, _backward_trim, _check_overflow, _label_index
from .words import content_words

# Punctuation accepted by the default special-token automaton.
DEFAULT_SPECIAL_PUNCTUATION = "$&'()*+,-./:;=>?@[]_"


@dataclass(frozen=True)
class ConstraintPhrase:
    """A token sequence that must appear contiguously in the output."""

    tokens: tuple[int, ...]
    surface: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("constraint phrase must be nonempty")
        for token in self.tokens:
            # the rule a `Dag` keeps for its token ids
            if not isinstance(token, int) or isinstance(token, bool) or token < 0:
                raise ValueError(f"constraint phrase tokens must be non-negative integers, "
                                 f"got {token!r}")

    def __len__(self) -> int:
        return len(self.tokens)


# One state's arcs grouped by label: `{label: destinations}` and the sigma
# destinations (see `wfsa._label_index`).
_LabelIndex = tuple[dict[int, tuple[int, ...]], tuple[int, ...]]


def _with_heads(entry: _LabelIndex, heads: Sequence[Arc]) -> _LabelIndex:
    """A state's label index after `heads` are appended to its arcs."""
    by_label, sigma = entry
    by_label = dict(by_label)
    for label, _, dst in heads:
        by_label[label] = by_label.get(label, sigma) + (dst,)
    return by_label, sigma


@dataclass(frozen=True, eq=False)
class LexiconFsa:
    """Vocabulary acceptor, epsilon-free, one row of arcs per state: a
    `Wfsa`'s `Arc`s or a `wfsa.lexicon_register`'s `(label, dst)` pairs.

    `index` holds the label index of each row a product has visited, filled
    on first visit. `build_vocab_fsa` lays one input's entity chains over
    the cached closure of a lexicon, sharing its `rows` and `index` without
    copying them. The chain states are numbered after the rows; `heads` are
    the arcs into the chains, which the start and every final state have
    after their own arcs; `finals` adds the chain ends to the closure's
    finals. `overlay` holds the label index of every state whose arcs are
    not its row's: the chain states, and the finals as a product visits
    them. So the shared index never sees an entity. The rows must not be
    changed, and the index only gains entries. Two threads may index the
    same state at once; both build equal entries, so either may stay.
    `constrained_product` reads the parts and builds no acceptor;
    `automaton` builds the whole acceptor as one `Wfsa` on first use.
    """

    rows: Sequence[Sequence[tuple]]
    finals: set[int]
    start: int
    index: dict[int, _LabelIndex] = field(default_factory=dict)
    chains: tuple[tuple[int, ...], ...] = ()
    heads: tuple[Arc, ...] = ()
    overlay: dict[int, _LabelIndex] = field(default_factory=dict)

    def label_index(self, q: int) -> _LabelIndex:
        """State q's arcs grouped by label, as `wfsa._label_index` gives them."""
        entry = self.overlay.get(q)
        if entry is None:
            entry = self.index.get(q)
            if entry is None:
                entry = self.index[q] = _label_index(self.rows[q])
            if self.heads and q in self.finals:
                entry = self.overlay[q] = _with_heads(entry, self.heads)
        return entry

    @functools.cached_property
    def automaton(self) -> Wfsa:
        """The acceptor as one `Wfsa`: the rows, register pairs or `Arc`s,
        numbered as `wfsa.register_acceptor` numbers them, then one token
        chain per entity, whose last state is final and has the start's
        arcs, then `heads` after the arcs of every final state."""
        lex = wfsa.register_acceptor(self.rows, self.finals, self.start)
        start_arcs = lex.arcs_from(lex.start)
        for tokens in self.chains:
            state = lex.add_state()
            for token in tokens[1:]:
                nxt = lex.add_state()
                lex.add_arc(state, token, 0.0, nxt)
                state = nxt
            lex.arcs_from(state).extend(start_arcs)
            lex.finals.add(state)
        for f in lex.finals:
            lex.arcs_from(f).extend(self.heads)
        return lex


@functools.lru_cache(maxsize=4096)
def _step_table(tokens: tuple[int, ...]) -> tuple[dict[int, int], ...]:
    """The phrase's KMP automaton: row `s` maps each token to the matcher
    state it leads to from state `s < len(tokens)`, when that is not 0.

    Row `s` is row `fail(s)` with `tokens[s]` leading to `s + 1`, where
    `fail(s)` is the state reached on `tokens[1:s]`, so each row is one
    copy and matching follows no failure link. The rows are shared by
    every caller and must not be changed.
    """
    rows = [{tokens[0]: 1}]
    fail = 0
    for s in range(1, len(tokens)):
        rows.append({**rows[fail], tokens[s]: s + 1})
        fail = rows[fail].get(tokens[s], 0)
    return tuple(rows)


def _completion_masks(
    lattice: Dag, phrases: Sequence[ConstraintPhrase]
) -> tuple[list[int], list[int]]:
    """Per vertex of a pruned `Dag`, the phrases' matcher states from which
    the vertex can still complete them, packed in one int, and the bit
    offset of each phrase in it.

    Phrase `i` of `L` tokens owns bits `offsets[i] + s` for its states
    `s = 0..L`. Bit `s < L` is set when some path from the vertex, starting
    in state `s`, completes the phrase and reaches the final vertex; bit
    `L`, done, is set when the vertex reaches the final vertex. So bit
    `offsets[i]` of vertex 0 says whether phrase `i` alone can appear in
    the lattice.

    One backward pass ORs a vertex's successors' masks, then steps each
    kept emission through `_step_table`. A token foreign to a phrase sends
    its every state short of done to 0, so one such token sets all of the
    phrase's bits below done when the OR has its bit 0; that part depends
    on the OR alone and is worked out once per OR.
    """
    offsets = []
    foreign = []  # per phrase: its bit 0, and its bits below done
    done = width = 0
    # token of some phrase -> {bit of a next state: bits of the states that
    # step to it}, over the phrases that hold the token; and -> the bits of
    # those phrases
    by_token: dict[int, dict[int, int]] = {}
    owned: dict[int, int] = {}
    for phrase in phrases:
        zero, end = 1 << width, 1 << width + len(phrase)
        offsets.append(width)
        foreign.append((zero, end - zero))
        done |= end
        for t in set(phrase.tokens):
            by_next = by_token.setdefault(t, {})
            by_next[end] = end  # done stays done
            owned[t] = owned.get(t, 0) | (end << 1) - zero
            for s, row in enumerate(_step_table(phrase.tokens)):
                nxt = 1 << width + row.get(t, 0)
                by_next[nxt] = by_next.get(nxt, 0) | 1 << width + s
        width += len(phrase) + 1
    every = (1 << width) - 1
    # token of some phrase -> (the bits of the phrases it is foreign to, its steps)
    steps = {t: (every & ~owned[t], tuple(by_next.items())) for t, by_next in by_token.items()}
    resets: dict[int, int] = {}  # OR of the successors -> what a foreign token sets
    emissions, transitions = lattice.emissions, lattice.transitions
    masks = [0] * lattice.num_vertices
    masks[-1] = done
    for u in range(lattice.num_vertices - 2, -1, -1):
        succ = 0
        for v, _ in transitions[u]:
            succ |= masks[v]
        if not succ:
            continue
        mask = foreign_at = 0  # the bits of the phrases that see a foreign token at u
        for t, _ in emissions[u]:
            step = steps.get(t)
            if step is None:
                foreign_at = every
            else:
                others, pairs = step
                foreign_at |= others
                for nxt, srcs in pairs:
                    if succ & nxt:
                        mask |= srcs
        if foreign_at:
            reset = resets.get(succ)
            if reset is None:
                reset = succ & done
                for zero, below in foreign:
                    if succ & zero:
                        reset |= below
                resets[succ] = reset
            mask |= reset & foreign_at
        masks[u] = mask
    return masks, offsets


class _Matchers:
    """The constraint phrases' KMP matchers, stepped together.

    A joint state is `(match_states, unmet tokens, moves, index, need)`;
    `moves` caches `token -> next joint state` for tokens of the phrase
    alphabet, so each such (state, token) pair goes through the per-phrase
    tables once per matcher set, and `index` numbers the joint states in the
    order they are first made; `states[index]` is the joint state. `need`
    sets, for each phrase, the bit of its matcher state at the phrase's
    offset in the packed masks of `_completion_masks`, when `offsets` are
    given, and is 0 without them: each phrase can still complete from the
    joint state at a vertex whose mask has every bit of `need`. A phrase's
    `_step_table`, cached per phrase, holds per state short of completion
    `{token: next}` for the phrase tokens whose next state is not 0; any
    other token resets the matcher to 0, and a completed phrase stays
    completed. So every token outside `alphabet` leads a joint state to one
    successor, its reset successor: completed phrases stay completed and
    every other matcher is at 0. `resets[index]` holds it once made, and
    `step` returns it for such a token without building a tuple or filling
    `moves`.
    """

    def __init__(
        self, constraints: tuple[ConstraintPhrase, ...], offsets: Sequence[int] = ()
    ) -> None:
        self.tables = [(p.tokens, _step_table(p.tokens)) for p in constraints]
        self.alphabet = frozenset(t for p in constraints for t in p.tokens)
        self.total = sum(len(p) for p in constraints)
        self.offsets = offsets
        self._joint: dict[tuple[int, ...], tuple] = {}
        self.states: list[tuple] = []
        self.resets: list[tuple | None] = []
        self.start = self._state((0,) * len(constraints))

    def _state(self, match_states: tuple[int, ...]) -> tuple:
        state = self._joint.get(match_states)
        if state is None:
            need = 0
            for offset, s in zip(self.offsets, match_states):
                need |= 1 << offset + s
            state = (match_states, self.total - sum(match_states), {}, len(self._joint), need)
            self._joint[match_states] = state
            self.states.append(state)
            self.resets.append(None)
        return state

    def reset(self, state: tuple) -> tuple:
        """The successor of `state` on any token outside the phrase alphabet."""
        nxt = self.resets[state[3]]
        if nxt is None:
            nxt = self.resets[state[3]] = self._state(tuple(
                s if s == len(tokens) else 0 for s, (tokens, _) in zip(state[0], self.tables)
            ))
        return nxt

    def step(self, state: tuple, token: int) -> tuple:
        if token not in self.alphabet:
            return self.reset(state)
        nxt = self._state(tuple(
            table[s].get(token, 0) if s < len(tokens) else s
            for s, (tokens, table) in zip(state[0], self.tables)
        ))
        state[2][token] = nxt
        return nxt


def build_hlc_fsa(phrase: ConstraintPhrase) -> Wfsa:
    """Acceptor for all strings containing the phrase contiguously.

    States are matcher states 0..m, and each state's token arcs are its
    `_step_table` row in label order (so overlapping prefixes such as "aab"
    in "aaab" are tracked correctly); every other token falls back to state
    0 via a wildcard arc, and the accepting state absorbs everything. A
    token leading back to state 0 gets no arc: the wildcard covers it, and
    a parallel arc would duplicate arcs in every intersection.
    """
    m = len(phrase.tokens)
    a = Wfsa(num_states=m + 1, start=0, finals={m})
    for state, row in enumerate(_step_table(phrase.tokens)):
        for token, dst in sorted(row.items()):
            a.add_arc(state, token, 0.0, dst)
        a.add_arc(state, SIGMA, 0.0, 0)
    a.add_arc(m, SIGMA, 0.0, m)
    return a


def _as_lexicon(a: Wfsa) -> LexiconFsa:
    """A plain vocabulary acceptor, without epsilons, with an index of its own."""
    if a.has_epsilon():
        a = wfsa._rm_epsilon_unweighted(a)
    return LexiconFsa(a._arcs, a.finals, a.start)


# Accepts every string: the vocabulary side of a product without one.
_ANY_STRING = LexiconFsa([[Arc(SIGMA, 0.0, 0)]], {0}, 0)


def _label_runs(arcs: list[Arc]) -> list[tuple[int, list[tuple[float, int]]]]:
    """One acceptor state's arcs as label runs `(label, [(weight, dst), ...])`:
    each run holds consecutive arcs with one label, in arc order."""
    return [
        (label, [(weight, dst) for _, weight, dst in run])
        for label, run in itertools.groupby(arcs, operator.itemgetter(0))
    ]


# The most joint states one product may find. Phrases whose tokens recur
# all over a lattice keep every subset of them completable, and so live: 9
# one-token phrases that each recur 8-11 times on a 902-vertex lattice give
# about 300,000 states and 770 MB, and 12 such phrases more than 3 GB.
MAX_PRODUCT_STATES = 200_000


def constrained_product(
    lattice: Dag | Wfsa,
    phrases: Sequence[ConstraintPhrase],
    vocab: LexiconFsa | Wfsa | None = None,
) -> Wfsa:
    """The lattice intersected with every constraint at once.

    The lattice is a pruned `Dag` from `prune_dag`, or an acceptor such as
    `dag_to_wfsa` makes of one; both give the same product. Accepts the
    strings of the lattice that contain every phrase and, when `vocab` is
    given, that `vocab` accepts, each at its cost in the lattice; `vocab`
    is unweighted and its sigma arcs match any token. A `LexiconFsa` from
    `build_vocab_fsa` brings the rows and label index of its cached
    closure, shared by every decode with that lexicon, plus its own entity
    states; a plain `Wfsa` has its epsilon arcs removed up front and is
    indexed for this call alone. One breadth-first pass explores the joint
    states `(lattice state, matcher state, vocab state)` reachable from the
    start: on a token arc of the lattice the phrases step together through
    their deterministic `_Matchers` tables, and the vocab state through its
    label index; an epsilon arc of the lattice keeps both. A joint state is
    final when its lattice and vocab states are and every phrase has
    completed.

    On a `Dag`, the pass makes a joint state only when every phrase can
    still complete from its vertex and matcher state (`_completion_masks`
    and `_Matchers`' `need`). This is necessary for
    acceptance, so it drops only states that cannot accept, and the product
    is the same; the pass no longer finds a state for every subset of
    completed phrases it can reach, only for those whose other phrases
    still lie ahead. A `Wfsa` lattice is explored without this filter.
    A pass that would find more than `MAX_PRODUCT_STATES` states raises
    `ValueError`.

    The pass walks each lattice state's arcs as label runs, so the vocab
    lookup and the matcher step run once per run, not once per arc. A
    `Dag` vertex (its state in `dag_to_wfsa`'s numbering, with vertex 0 as
    start and the last vertex as the only final) gives one run per kept
    emission over its kept transitions, and each arc's weight
    `-(emission + transition log-prob)` is made only once the vocabulary
    accepts the token. A `Wfsa` state gives its consecutive same-label
    arcs. A `Dag` has checked its own rows; the one error left, an arc
    whose weight overflows to inf, is raised first as `dag_to_wfsa`
    raises it, for every kept arc, reached or not.

    The pass records each found state's arcs and predecessors; every
    found state is reachable from the start, so `wfsa._backward_trim`
    then keeps the states that can still accept, numbered in the order
    they were found. Each state's arcs follow its lattice arcs, and each
    lattice arc's matches follow the vocab state's arc order. The result
    is epsilon-free and acyclic whenever the lattice is; it has a final
    state exactly when it accepts some string.

    A sigma arc of a `Wfsa` lattice raises `ValueError` when the pass
    reaches its source state. One the pass never reaches is not rejected:
    it lies on no path from the start, so it cannot change the product's
    language.
    """
    if isinstance(lattice, Dag):
        _check_overflow(lattice)
        num_states, lattice_start = lattice.num_vertices, 0
        lattice_finals = {lattice.final_vertex}
        dag_rows = lattice.transitions
        # a run is (token, emission log-prob); its arcs are made from dag_rows
        runs = [em if tr else () for em, tr in zip(lattice.emissions, dag_rows)]
        completion, offsets = _completion_masks(lattice, phrases)
    else:
        num_states, lattice_start = lattice.num_states, lattice.start
        lattice_finals = lattice.finals
        dag_rows = None
        runs = [_label_runs(lattice.arcs_from(p)) for p in range(num_states)]
        completion, offsets = [0] * num_states, []
    if vocab is None:
        vocab = _ANY_STRING
    elif isinstance(vocab, Wfsa):
        vocab = _as_lexicon(vocab)
    if num_states == 0 or not vocab.rows:
        return Wfsa(num_states=1, start=0)
    matchers = _Matchers(tuple(phrases), offsets)
    joint = matchers.states
    vocab_finals = vocab.finals
    vocab_index: dict[int, _LabelIndex] = {}
    limit = MAX_PRODUCT_STATES

    # A state is `(lattice state, matcher index, vocab state)`, and its id
    # is its position in `queue`; rows[s] holds its arcs and preds[s] the
    # source of each arc into it.
    start = (lattice_start, matchers.start[3], vocab.start)
    queue = [start]
    ids = {start: 0}
    rows: list[list[tuple[int, float, int]]] = []
    preds: list[list[int]] = [[]]
    finals = []
    for src, (p, m, q) in enumerate(queue):  # grows as states are found
        row = []
        rows.append(row)
        match = joint[m]
        if not match[1] and p in lattice_finals and q in vocab_finals:
            finals.append(src)
        index = vocab_index.get(q)
        if index is None:
            index = vocab_index[q] = vocab.label_index(q)
        by_label, sigma = index
        moves = match[2]
        for label, run in runs[p]:
            if label < 0:
                if label == SIGMA:
                    raise ValueError("lattice acceptor must have no sigma arcs")
                q_dsts, nxt = (q,), match  # an epsilon consumes no token
            else:
                q_dsts = by_label.get(label, sigma)
                if not q_dsts:
                    continue
                nxt = moves.get(label) or matchers.step(match, label)
            if dag_rows is not None:  # run is the emission log-prob
                run = [(-(run + tlp) + 0.0, v) for v, tlp in dag_rows[p]]
            m_dst, need = nxt[3], nxt[4]
            for weight, p_dst in run:
                for q_dst in q_dsts:
                    key = (p_dst, m_dst, q_dst)
                    dst = ids.get(key)
                    if dst is None:
                        if completion[p_dst] & need != need:
                            continue  # some phrase can no longer complete from p_dst
                        dst = ids[key] = len(queue)
                        if dst == limit:
                            raise ValueError(f"the constraint product exceeds {limit} states")
                        queue.append(key)
                        preds.append([])
                    preds[dst].append(src)
                    row.append((label, weight, dst))
    return _backward_trim(0, finals, rows, preds)


def tokenize_phrase(surface: str, table: TokenTable) -> ConstraintPhrase:
    """Greedy longest-match segmentation against the token table.

    Word-initial pieces are looked up with the start-of-word mark first
    (falling back to the bare form, which covers punctuation-only words);
    continuations are looked up bare. Multi-word surfaces tokenize word by
    word into a single phrase. No candidate longer than the table's
    longest surface is looked up (see `_segment`).
    """
    return ConstraintPhrase(tokens=_segment(surface, table), surface=surface)


def _segment(surface: str, table: TokenTable) -> tuple[int, ...]:
    """The tokens of `tokenize_phrase`'s phrase, or its error.

    Each piece is the longest candidate in the table, tried from the
    longest down. A candidate longer than the table's longest surface
    cannot be in it, so none is built: a piece at `pos` of a word ends at
    most at `pos + table.longest`, less the start-of-word mark's length
    when the mark is prefixed. Lexicon words, entities and phrases are all
    segmented here.
    """
    words = surface.split()
    if not words:
        raise ValueError("cannot tokenize an empty phrase")
    lookup = table._index.get
    sow = table.sow_mark
    longest = table.longest
    sow_longest = longest - len(sow)
    tokens: list[int] = []
    for word in words:
        n = len(word)
        pos = 0
        while pos < n:
            tid = None
            if pos == 0:  # a word-initial piece: with the mark first
                for end in range(n if n < sow_longest else sow_longest, 0, -1):
                    tid = lookup(sow + word[:end])
                    if tid is not None:
                        break
            if tid is None:
                last = pos + longest
                for end in range(n if n < last else last, pos, -1):
                    tid = lookup(word[pos:end])
                    if tid is not None:
                        break
                else:
                    raise ValueError(
                        f"cannot segment {word[pos:]!r} of word {word!r} with this token table"
                    )
            tokens.append(tid)
            pos = end
    return tuple(tokens)


def extract_lexicon(corpus: Iterable[str], cumulative_cutoff: float) -> list[str]:
    """Frequent unigrams covering the requested share of the corpus mass.

    The unigrams are each line's `content_words`, in true case. Words are
    ordered by descending frequency (ties lexicographic) and truncated at
    the smallest prefix whose cumulative frequency reaches the cutoff.
    """
    if not 0.0 < cumulative_cutoff <= 1.0:
        raise ValueError("cumulative_cutoff must be in (0, 1]")
    counts = Counter(word for line in corpus for word in content_words(line))
    total = sum(counts.values())
    if total == 0:
        return []
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    lexicon: list[str] = []
    mass = 0
    for word, count in ranked:
        lexicon.append(word)
        mass += count
        if mass >= cumulative_cutoff * total:
            break
    return lexicon


def default_specials(table: TokenTable) -> list[str]:
    """Sequence markers, the start-of-word mark, and available punctuation.

    Candidates absent from the table (a bare start-of-word token, most
    punctuation in toy tables) are skipped.
    """
    specials = [table.surface(table.sos_id), table.surface(table.eos_id)]
    for ch in (table.sow_mark,) + tuple(DEFAULT_SPECIAL_PUNCTUATION):
        if table.lookup(ch) is not None:
            specials.append(ch)
    seen: set[str] = set()
    out = []
    for s in specials:
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


# Static closures kept in memory per process, keyed by content and
# evicted least recently used first, like the token table cache.
STATIC_CACHE_SIZE = 16


def build_static_vocab_fsa(
    dictionary: Sequence[str], specials: Sequence[str], table: TokenTable
) -> tuple[list[tuple], set[int], int]:
    """The register (`wfsa.lexicon_register`) of the dictionary words,
    specials and digits: the static component, built once per lexicon;
    dynamic entities are added afterwards, per input."""
    words = [_segment(word, table) for word in dictionary]
    for s in specials:
        tid = table.lookup(s)
        if tid is None:
            raise ValueError(f"special token {s!r} is not in the token table")
        words.append((tid,))
    words.extend((tid,) for tid in table.numeric_ids)
    return wfsa.lexicon_register(words)


@functools.lru_cache(maxsize=STATIC_CACHE_SIZE)
def _static_closure(
    dictionary: tuple[str, ...], specials: tuple[str, ...], table: TokenTable
) -> LexiconFsa:
    """Kleene closure of the static component, cached for the
    STATIC_CACHE_SIZE most recently used lexicons: its register's rows,
    closed once, here. The start becomes final, and every other final gets
    the start's pairs that it lacks after its own; no arc enters a
    register's start, so no epsilon is needed. The result is shared: its
    rows must not be changed, and its index is filled as products visit
    its states."""
    rows, finals, start = build_static_vocab_fsa(dictionary, specials, table)
    for f in finals - {start}:
        rows[f] += tuple(pair for pair in rows[start] if pair not in rows[f])
    return LexiconFsa(tuple(rows), finals | {start}, start)


# `lru_cache` does not merge misses that happen at once: threads that first
# use a lexicon together would each build a closure, and split its index.
_STATIC_LOCK = threading.Lock()


def build_vocab_fsa(
    dictionary: Sequence[str],
    specials: Sequence[str] | None,
    dynamic_entities: Sequence[str],
    table: TokenTable,
) -> LexiconFsa:
    """Closure of (static dictionary+specials) union (per-input entities).

    The static component is built once as the register of a minimal
    acyclic DFA, closed, and cached in memory by its content
    (`_static_closure`); no acceptor is built, and a product indexes a
    state from its row on first visit. Each call returns a `LexiconFsa`
    that shares the cached rows and index, and lays one token chain per
    entity over them without copying them: the start and every final state
    get an arc into each chain, after their other arcs, and each chain's
    last state is final and gets copies of the static start arcs. The
    chain states and the final states are indexed apart from the shared
    index (see `LexiconFsa`). The result has no epsilon arcs and accepts
    exactly the concatenations of permitted word units, including the
    empty string.
    """
    if specials is None:
        specials = default_specials(table)
    with _STATIC_LOCK:
        static = _static_closure(tuple(dictionary), tuple(specials), table)
    chains = tuple(_segment(entity, table) for entity in dynamic_entities)
    heads: list[Arc] = []
    overlay: dict[int, _LabelIndex] = {}
    ends = []
    state = len(static.rows)
    for tokens in chains:
        heads.append(Arc(tokens[0], 0.0, state))
        for token in tokens[1:]:
            overlay[state] = ({token: (state + 1,)}, ())
            state += 1
        ends.append(state)
        state += 1
    finals = static.finals
    if ends:
        finals = finals | set(ends)
        # a chain end's arcs are the start's: the static start arcs, then heads
        entry = _with_heads(static.label_index(static.start), heads)
        for q in (static.start, *ends):
            overlay[q] = entry
    return LexiconFsa(
        static.rows, finals, static.start, static.index, chains, tuple(heads), overlay
    )
