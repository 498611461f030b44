"""Acceptor algebra: conversion, intersection, determinization, search."""

from __future__ import annotations

import gc
import itertools
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagdec.constraints import ConstraintPhrase, build_hlc_fsa
from dagdec.dag import PruneConfig, load_dag
from dagdec.length import LcConfig, dfs_viterbi, length_cost_table
from dagdec.result import STATUS_EMPTY, STATUS_INFEASIBLE, STATUS_OK
from dagdec.wfsa import (
    EPSILON,
    SIGMA,
    Arc,
    Wfsa,
    _label_index,
    dag_to_wfsa,
    determinize_min,
    dump_wfsa,
    has_accepting_path,
    intersect,
    lexicon_register,
    load_wfsa,
    rm_epsilon,
    shortest_path,
    string_cost,
    topological_sort,
)

from .lattices import (
    build_dag,
    closure,
    lexicon_dfa,
    linear_acceptor,
    random_acyclic_wfsa,
    random_constrained_product,
    random_nfa,
    tiny4,
    trim,
    union,
)
from .oracles import (
    arc_scan_intersect,
    min_wfsa_path,
    nfa_accepts,
    reference_lexicon_register,
    reference_trim,
)

INF = float("inf")


def sigma_star() -> Wfsa:
    w = Wfsa(num_states=1, start=0, finals={0})
    w.add_arc(0, SIGMA, 0.0, 0)
    return w


def weighted_two_string() -> Wfsa:
    """Accepts 'ab' (tokens 0,1) at cost 1 and 'ba' at cost 2."""
    w = Wfsa(num_states=5, start=0, finals={4})
    w.add_arc(0, 0, 0.5, 1)
    w.add_arc(1, 1, 0.5, 4)
    w.add_arc(0, 1, 1.0, 3)
    w.add_arc(3, 0, 1.0, 4)
    return w


class TestAddArc:
    @pytest.mark.parametrize("weight", (-0.5, INF, -INF, float("nan")))
    def test_rejects_negative_and_non_finite_weights(self, weight):
        w = Wfsa(num_states=2, start=0, finals={1})
        with pytest.raises(ValueError, match="arc weight"):
            w.add_arc(0, 0, weight, 1)
        assert w.num_arcs == 0

    def test_accepts_zero_and_finite_weights(self):
        w = Wfsa(num_states=2, start=0, finals={1})
        for weight in (0.0, -0.0, 0, 1e300):
            w.add_arc(0, 0, weight, 1)
        assert w.num_arcs == 4

    @pytest.mark.parametrize("label", (-3, -4, -(10**20)))
    def test_rejects_a_negative_label_that_is_no_sentinel(self, label):
        # such an arc decoded as a token, and its dump did not load again
        w = Wfsa(num_states=2, start=0, finals={1})
        message = f"^arc label {label} is not a token id, EPSILON or SIGMA$"
        with pytest.raises(ValueError, match=message):
            w.add_arc(0, label, 0.5, 1)
        assert w.num_arcs == 0

    @pytest.mark.parametrize("label", (1.5, 1.0, True, False, "1", None), ids=repr)
    def test_rejects_a_label_that_is_not_an_int(self, label):
        # the acceptor 0 -(1.5)/0.5-> 1 decoded to (1.5,), and its dump
        # (tok:1.5) did not load again
        w = Wfsa(num_states=2, start=0, finals={1})
        message = f"^arc label {re.escape(repr(label))} is not a token id, EPSILON or SIGMA$"
        with pytest.raises(ValueError, match=message):
            w.add_arc(0, label, 0.5, 1)
        assert w.num_arcs == 0

    def test_accepts_tokens_and_the_sentinels(self):
        w = Wfsa(num_states=2, start=0, finals={1})
        for label in (0, 7, EPSILON, SIGMA):
            w.add_arc(0, label, 0.5, 1)
        assert [arc.label for arc in w.arcs_from(0)] == [0, 7, EPSILON, SIGMA]
        assert sorted(load_wfsa(dump_wfsa(w)).arcs_from(0)) == sorted(w.arcs_from(0))


class TestDagToWfsa:
    def test_single_arc_weight(self):
        dag = build_dag(
            emission_probs=[[(7, 0.5)], [(9, 1.0)]],
            transition_probs=[[(1, 1.0)], []],
        )
        w = dag_to_wfsa(dag, PruneConfig(k_e=1, k_t=1))
        arcs = list(w.all_arcs())
        assert len(arcs) == 1
        src, arc = arcs[0]
        assert (src, arc.label, arc.dst) == (0, 7, 1)
        assert arc.weight == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_cartesian_product_arcs(self):
        dag = build_dag(
            emission_probs=[[(0, 0.5), (1, 0.5)], [(9, 1.0)], [(9, 1.0)]],
            transition_probs=[[(1, 0.5), (2, 0.5)], [(2, 1.0)], []],
        )
        w = dag_to_wfsa(dag, PruneConfig(k_e=2, k_t=2))
        assert sum(1 for s, _ in w.all_arcs() if s == 0) == 4

    def test_tiny4_arc_count_matches_direct_count(self, tiny4_path):
        with open(tiny4_path, encoding="utf-8") as fh:
            dag = load_dag(fh.read())
        cfg = PruneConfig(k_e=2, k_t=2)
        w = dag_to_wfsa(dag, cfg)
        # independent count: sum over vertices of kept emissions x transitions
        expected = 0
        for u in range(dag.num_vertices):
            kept_e = min(2, len(dag.emissions[u]))
            kept_t = min(2, len(dag.transitions[u]))
            expected += kept_e * kept_t
        assert w.num_arcs == expected == 10

    def test_acyclic_and_epsilon_free(self):
        w = dag_to_wfsa(tiny4(), PruneConfig(k_e=2, k_t=2))
        assert not w.has_epsilon()
        topological_sort(w)  # raises on cycles


class TestIntersect:
    def test_phrase_filter(self):
        w = weighted_two_string()
        a = build_hlc_fsa(ConstraintPhrase(tokens=(0, 1)))
        got = intersect(w, a)
        assert string_cost(got, (0, 1)) == pytest.approx(1.0)
        assert string_cost(got, (1, 0)) == INF

    def test_universal_acceptor_is_identity(self):
        w = weighted_two_string()
        got = intersect(w, sigma_star())
        for s in ((0, 1), (1, 0), (0, 0), (1,)):
            assert string_cost(got, s) == string_cost(w, s)

    def test_disjoint_languages(self):
        w = linear_acceptor((0, 1), weight=0.5)
        a = linear_acceptor((2, 3))
        got = intersect(w, a)
        assert not has_accepting_path(got)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_language_and_cost_equivalence(self, seed):
        w = random_acyclic_wfsa(seed, max_states=6, alphabet=(0, 1), with_epsilon=True)
        a = _random_constraint(seed + 1)
        got = intersect(w, a)
        for length in range(0, 5):
            for s in itertools.product((0, 1), repeat=length):
                cw = string_cost(w, s)
                in_a = nfa_accepts(a, s)
                cr = string_cost(got, s)
                if math.isfinite(cw) and in_a:
                    assert cr == pytest.approx(cw, abs=1e-9)
                else:
                    assert cr == INF

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_preserves_acyclicity(self, seed):
        w = random_acyclic_wfsa(seed, max_states=6, with_epsilon=True)
        a = _random_constraint(seed + 2)
        topological_sort(intersect(w, a))  # raises on cycles


def _random_constraint(seed: int) -> Wfsa:
    """A mix of the constraint shapes the pipeline actually builds."""
    import random

    rng = random.Random(seed)
    kind = rng.randrange(4)
    if kind == 0:
        return sigma_star()
    if kind == 1:
        toks = tuple(rng.choice((0, 1)) for _ in range(rng.randint(1, 3)))
        return build_hlc_fsa(ConstraintPhrase(tokens=toks))
    if kind == 2:
        words = [
            tuple(rng.choice((0, 1)) for _ in range(rng.randint(1, 2)))
            for _ in range(rng.randint(1, 3))
        ]
        return closure(union(*[linear_acceptor(t) for t in words]))
    return random_nfa(seed + 77, max_states=4, alphabet=(0, 1))


class TestIntersectArcOrder:
    """The label index must emit the product arcs the arc scan emits, in
    the same order; dump_wfsa sorts arcs, so this compares arc lists."""

    @staticmethod
    def _mixed_constraint(seed: int) -> Wfsa:
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 4)
        a = Wfsa(num_states=n, start=0, finals=rng.sample(range(n), rng.randint(1, n)))
        for src in range(n):
            for _ in range(rng.randint(0, 6)):
                label = rng.choice((0, 1, 2, SIGMA, SIGMA, EPSILON))
                a.add_arc(src, label, 0.0, rng.randrange(n))
        return a

    def test_matches_arc_scan_reference(self):
        orders = set()
        for seed in range(300):
            w = random_acyclic_wfsa(seed, max_states=7, with_epsilon=True)
            a = self._mixed_constraint(seed + 40_000)
            for s in range(a.num_states):
                labels = [arc.label for arc in a.arcs_from(s) if arc.label != EPSILON]
                for i, j in itertools.combinations(range(len(labels)), 2):
                    if (labels[i] == SIGMA) != (labels[j] == SIGMA):
                        orders.add("sigma first" if labels[i] == SIGMA else "label first")
            got = intersect(w, a)
            ref = arc_scan_intersect(w, a)
            assert (got.num_states, got.start, got.finals) == (ref.num_states, ref.start, ref.finals)
            for s in range(ref.num_states):
                assert got.arcs_from(s) == ref.arcs_from(s), (seed, s)
        assert orders == {"sigma first", "label first"}

    def test_sigma_arcs_keep_their_positions(self):
        # After token 0, constraint states 1, 2 and 3 accept tokens 5, 6
        # and 7; the product must reach them in arc order: sigma, 0, sigma.
        w = Wfsa(num_states=3, start=0, finals={2})
        w.add_arc(0, 0, 0.0, 1)
        for token in (5, 6, 7):
            w.add_arc(1, token, 0.0, 2)
        a = Wfsa(num_states=5, start=0, finals={4})
        a.add_arc(0, SIGMA, 0.0, 1)
        a.add_arc(0, 0, 0.0, 2)
        a.add_arc(0, 1, 0.0, 4)
        a.add_arc(0, SIGMA, 0.0, 3)
        for state, token in ((1, 5), (2, 6), (3, 7)):
            a.add_arc(state, token, 0.0, 4)
        got = intersect(w, a)
        firsts = [arc.dst for arc in got.arcs_from(got.start)]
        assert [[arc.label for arc in got.arcs_from(s)] for s in firsts] == [[5], [6], [7]]

    def test_label_index_holds_untracked_int_tuples(self):
        # An index lives as long as the product that uses it; int tuples
        # drop out of the garbage collector's sight after one collection,
        # so the index adds nothing to the collections during the product.
        a = Wfsa(num_states=4, start=0)
        a.add_arc(0, 0, 0.0, 1)
        a.add_arc(0, SIGMA, 0.0, 2)
        a.add_arc(0, 1, 0.0, 3)
        by_label, sigma = _label_index(a.arcs_from(0))
        assert by_label == {0: (1, 2), 1: (2, 3)} and sigma == (2,)
        gc.collect()
        assert not any(gc.is_tracked(dsts) for dsts in (sigma, *by_label.values()))

    def test_constraint_is_not_mutated(self):
        a = build_hlc_fsa(ConstraintPhrase(tokens=(0, 1)))
        before = [list(a.arcs_from(s)) for s in range(a.num_states)]
        intersect(weighted_two_string(), a)
        assert [a.arcs_from(s) for s in range(a.num_states)] == before


class TestConstrainedProduct:
    """Decoding searches the intersection as it comes out: no epsilon
    removal, re-sort or separate path check runs in between."""

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_hlc_token_arc_never_parallels_a_sigma_arc(self, tokens):
        a = build_hlc_fsa(ConstraintPhrase(tokens=tuple(tokens)))
        for s in range(a.num_states):
            sigma_dsts = {arc.dst for arc in a.arcs_from(s) if arc.label == SIGMA}
            for arc in a.arcs_from(s):
                assert arc.label == SIGMA or arc.dst not in sigma_dsts, (s, arc)

    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from((3, 4)))
    @settings(max_examples=200, deadline=None)
    def test_epsilon_free_without_parallel_duplicates(self, seed, vocab_size):
        w = random_constrained_product(seed, vocab_size)
        assert not w.has_epsilon()
        for s in range(w.num_states):
            pairs = [(arc.label, arc.dst) for arc in w.arcs_from(s)]
            assert len(pairs) == len(set(pairs)), s

    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from((3, 4)))
    @settings(max_examples=200, deadline=None)
    def test_has_finals_exactly_when_accepting(self, seed, vocab_size):
        w = random_constrained_product(seed, vocab_size)
        assert bool(w.finals) == has_accepting_path(w)


_piece = st.lists(st.integers(min_value=0, max_value=2), max_size=2).map(tuple)
_stem = st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=2).map(tuple)


@st.composite
def _lexicons(draw) -> list[tuple[int, ...]]:
    """Words made of shared prefixes, stems and suffixes over {0, 1, 2}."""
    prefixes = draw(st.lists(_piece, min_size=1, max_size=3))
    stems = draw(st.lists(_stem, min_size=1, max_size=3))
    suffixes = draw(st.lists(_piece, min_size=1, max_size=3))
    combos = [p + m + x for p in prefixes for m in stems for x in suffixes]
    return draw(st.lists(st.sampled_from(combos), min_size=1, max_size=8))


_chain = st.lists(st.integers(min_value=0, max_value=2), max_size=4).map(tuple)


@st.composite
def _register_word_sets(draw) -> list[tuple[int, ...]]:
    """Word sets with leaves, one-child chains (pieces up to 4 tokens long),
    words that are prefixes of others (an empty suffix), duplicates (a word
    sampled twice), shared suffixes, the empty word (every piece empty),
    and no word at all."""
    stems = draw(st.lists(_chain, min_size=1, max_size=3))
    suffixes = draw(st.lists(_chain, min_size=1, max_size=3))
    combos = [m + x for m in stems for x in suffixes]
    return draw(st.lists(st.sampled_from(combos), max_size=8))


class TestLexiconDfa:
    @given(_register_word_sets())
    @example([])
    @example([()])
    @example([(), (0,), (0,)])
    @example([(0, 1, 2, 0), (0, 1), (2, 2, 2)])
    @example([(0, 1), (2, 1), (1,), (1,)])
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_register_matches_the_reference_state_for_state(self, words):
        # the product reads states by their register numbers, so the rows,
        # finals and start must match, not only the language
        assert lexicon_register(words) == reference_lexicon_register(words)

    @given(_lexicons())
    @settings(max_examples=40, deadline=None)
    def test_equals_determinize_min_without_dead_state(self, words):
        got = lexicon_dfa(words)
        ref = determinize_min(union(*[linear_acceptor(word) for word in words]))
        assert got.num_states == ref.num_states - 1
        assert got.start == 0
        assert trim(got).num_states == got.num_states  # no dead state
        assert all(arc.dst != got.start for _, arc in got.all_arcs())
        for state in range(got.num_states):
            labels = [arc.label for arc in got.arcs_from(state)]
            assert labels == sorted(set(labels))  # deterministic, label order
        for length in range(0, 7):
            for s in itertools.product((0, 1, 2), repeat=length):
                assert nfa_accepts(got, s) == nfa_accepts(ref, s) == (s in words), s

    def test_empty_word_set(self):
        got = lexicon_dfa([])
        assert (got.num_states, got.finals, got.num_arcs) == (1, set(), 0)

    def test_shared_suffixes_merge(self):
        # "ab", "cb" and "b" share a final state; "a" and "c" share a state
        got = lexicon_dfa([(0, 1), (2, 1), (1,)])
        assert got.num_states == 3
        assert [(arc.label, arc.dst) for arc in got.arcs_from(0)] == [(0, 1), (1, 2), (2, 1)]


class TestRegularOps:
    def test_union(self):
        got = union(linear_acceptor((0,)), linear_acceptor((1,)))
        assert string_cost(got, (0,)) == 0.0
        assert string_cost(got, (1,)) == 0.0
        assert string_cost(got, (0, 1)) == INF

    def test_closure_accepts_powers(self):
        got = closure(linear_acceptor((0, 1)))
        accepted = {
            s
            for length in range(7)
            for s in itertools.product((0, 1), repeat=length)
            if string_cost(got, s) < INF
        }
        expected = {(), (0, 1), (0, 1, 0, 1), (0, 1, 0, 1, 0, 1)}
        assert accepted == expected

    def test_lexicon_closure_accepts_concatenations(self):
        # three "words" as token sequences; closure of their union accepts
        # exactly the concatenations, checked to length 9 against a
        # brute-force membership predicate
        words = [(0,), (1, 2), (3, 4, 5)]
        vocab_fsa = closure(union(*[linear_acceptor(w) for w in words]))

        def is_concatenation(s: tuple[int, ...]) -> bool:
            if not s:
                return True
            return any(
                s[: len(w)] == w and is_concatenation(s[len(w) :]) for w in words
            )

        alphabet = (0, 1, 2, 3, 4, 5)
        for length in range(0, 10):
            for s in itertools.product(alphabet, repeat=length):
                assert nfa_accepts(vocab_fsa, s) == is_concatenation(s), s
            if length >= 4:
                break  # full cross-product beyond this is redundant and slow
        # spot-check longer concatenations up to length 9
        import random

        rng = random.Random(0)
        for _ in range(200):
            s = []
            while len(s) < 9:
                s.extend(rng.choice(words))
            s = tuple(s[:rng.randint(5, 9)])
            assert nfa_accepts(vocab_fsa, s) == is_concatenation(s)


    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_union_enters_no_operand_without_states(self, at):
        operands = [linear_acceptor((0,)), linear_acceptor((1,))]
        operands.insert(at, Wfsa())
        got = union(*operands)
        # an operand without states takes no state and no epsilon arc
        assert [(s, arc.dst) for s, arc in got.all_arcs() if arc.label == EPSILON] == [(0, 1), (0, 3)]
        assert got.num_states == 5
        assert string_cost(got, (0,)) == string_cost(got, (1,)) == 0.0
        assert string_cost(got, ()) == INF


# Wfsa() is the default acceptor, and load_wfsa reads one from a dump of
# zero states; each operation treats it as an acceptor of no string.
_NO_STATES = {
    "trim": (lambda w: dump_wfsa(trim(w)), "#version 1\nstates\t1\nstart\t0\n"),
    "topological_sort": (lambda w: dump_wfsa(topological_sort(w)), "#version 1\nstates\t0\n"),
    "determinize_min": (lambda w: dump_wfsa(determinize_min(w)), "#version 1\nstates\t1\nstart\t0\n"),
    "closure": (lambda w: dump_wfsa(closure(w)), "#version 1\nstates\t1\nstart\t0\nfinal\t0\n"),
    "dfs_viterbi": (lambda w: dfs_viterbi(w, LcConfig(target_length=2)).status, STATUS_INFEASIBLE),
    "length_cost_table": (lambda w: length_cost_table(w, LcConfig(target_length=2)), {}),
}


class TestAcceptorWithoutStates:
    @pytest.mark.parametrize("name", sorted(_NO_STATES))
    def test_operation(self, name):
        op, expected = _NO_STATES[name]
        for w in (Wfsa(), load_wfsa("#version 1\nstates\t0\n")):
            assert op(w) == expected

    def test_dump_round_trip(self):
        blob = dump_wfsa(Wfsa())
        assert blob == "#version 1\nstates\t0\n"
        got = load_wfsa(blob)
        assert got.num_states == 0 and not got.finals
        assert dump_wfsa(got) == blob


@st.composite
def _trim_inputs(draw) -> Wfsa:
    """An acceptor of 1-7 states with arcs drawn at will: cycles, epsilon
    and sigma labels, states the start does not reach and states that
    reach no final, any start, and zero, one or several finals. Built
    without `add_arc`, so now and then an arc weighs inf, which `trim`
    refuses only when it keeps the arc."""
    n = draw(st.integers(1, 7))
    rows: list[list[Arc]] = [[] for _ in range(n)]
    state = st.integers(0, n - 1)
    label = st.sampled_from((EPSILON, SIGMA, 0, 1, 2))
    weight = st.sampled_from((0.0, 0.5, 1.25, 3.0, 0.0, 0.5, 2.0, INF))
    for src, arc in draw(st.lists(st.tuples(state, st.builds(Arc, label, weight, state)),
                                  max_size=3 * n)):
        rows[src].append(arc)
    finals = draw(st.sets(state, max_size=3))
    return Wfsa(num_states=n, start=draw(state), finals=finals, arcs=rows)


class TestTrim:
    @given(_trim_inputs())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_same_as_the_reference(self, w):
        def outcome(op) -> str:
            try:
                return dump_wfsa(op(w))
            except ValueError as exc:
                return f"ValueError: {exc}"

        assert outcome(trim) == outcome(reference_trim)


class TestDeterminizeMin:
    def test_merges_redundant_paths(self):
        a = Wfsa(num_states=5, start=0, finals={2, 4})
        a.add_arc(0, 0, 0.0, 1)
        a.add_arc(1, 1, 0.0, 2)
        a.add_arc(0, 0, 0.0, 3)
        a.add_arc(3, 1, 0.0, 4)
        d = determinize_min(a)
        assert nfa_accepts(d, (0, 1))
        # one live path; states: start, after-0, after-01, dead
        assert d.num_states == 4

    def test_minimal_dfa_for_a_ab(self):
        a = union(linear_acceptor((0,)), linear_acceptor((0, 1)))
        d = determinize_min(a)
        assert d.num_states == 4  # start, two finals, dead

    def test_deterministic_output(self):
        for seed in range(40):
            a = random_nfa(seed, max_states=5)
            d = determinize_min(a)
            for s in range(d.num_states):
                labels = [arc.label for arc in d.arcs_from(s)]
                assert len(labels) == len(set(labels))

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_language_equivalent(self, seed):
        a = random_nfa(seed, max_states=5, alphabet=(0, 1, 2))
        d = determinize_min(a)
        for length in range(0, 6):
            for s in itertools.product((0, 1, 2), repeat=length):
                assert nfa_accepts(d, s) == nfa_accepts(a, s)

    def test_states_are_numbered_breadth_first(self):
        for seed in range(300):
            alphabet = (0, 1, 2, 3)[: 2 + seed % 3]
            a = random_nfa(seed, max_states=8, alphabet=alphabet)
            tokens = sorted({arc.label for _, arc in a.all_arcs()} - {EPSILON})
            d = determinize_min(a)
            assert d.start == 0
            order = [0]
            for s in order:
                arcs = sorted(d.arcs_from(s))
                assert [arc.label for arc in arcs] == tokens, (seed, s)
                for arc in arcs:
                    if arc.dst not in order:
                        order.append(arc.dst)
            assert order == list(range(d.num_states)), seed

    def test_refinement_fixpoint(self):
        # No refinement step can split any block of the minimized DFA
        for seed in range(30):
            d = determinize_min(random_nfa(seed, max_states=5))
            nxt = [{arc.label: arc.dst for arc in d.arcs_from(s)} for s in range(d.num_states)]
            alphabet = sorted({l for row in nxt for l in row})
            blocks = {s: (s in d.finals) for s in range(d.num_states)}
            changed = True
            while changed:
                changed = False
                signatures = {
                    s: (blocks[s], tuple(blocks[nxt[s][c]] for c in alphabet))
                    for s in range(d.num_states)
                }
                refined = {s: signatures[s] for s in range(d.num_states)}
                if len(set(refined.values())) != len(set(blocks.values())):
                    blocks = refined
                    changed = True
            assert len(set(blocks.values())) == d.num_states


class TestRmEpsilon:
    def test_folds_epsilon_cost(self):
        w = Wfsa(num_states=3, start=0, finals={2})
        w.add_arc(0, EPSILON, 0.5, 1)
        w.add_arc(1, 5, 1.0, 2)
        got = rm_epsilon(w)
        assert not got.has_epsilon()
        assert string_cost(got, (5,)) == pytest.approx(1.5)

    def test_identity_on_epsilon_free(self):
        w = weighted_two_string()
        got = rm_epsilon(w)
        assert dump_wfsa(got) == dump_wfsa(w)

    def test_trailing_epsilon_into_final(self):
        w = Wfsa(num_states=3, start=0, finals={2})
        w.add_arc(0, 5, 1.0, 1)
        w.add_arc(1, EPSILON, 0.25, 2)
        got = rm_epsilon(w)
        assert string_cost(got, (5,)) == pytest.approx(1.25)

    def test_unrepresentable_epsilon_acceptance(self):
        w = Wfsa(num_states=2, start=0, finals={1})
        w.add_arc(0, EPSILON, 0.5, 1)
        with pytest.raises(ValueError, match="epsilon-only accepting path"):
            rm_epsilon(w)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_preserves_min_cost_map(self, seed):
        w = random_acyclic_wfsa(seed, max_states=7, alphabet=(0, 1), with_epsilon=True)
        try:
            got = rm_epsilon(w)
        except ValueError:
            return  # epsilon-only acceptance with cost: legitimately rejected
        assert not got.has_epsilon()
        for length in range(0, 6):
            for s in itertools.product((0, 1), repeat=length):
                a, b = string_cost(w, s), string_cost(got, s)
                if a == INF:
                    assert b == INF
                else:
                    assert b == pytest.approx(a, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_shortest_path_cost_unchanged(self, seed):
        w = random_acyclic_wfsa(seed, max_states=8, with_epsilon=True)
        try:
            got = rm_epsilon(w)
        except ValueError:
            return
        before = shortest_path(w)
        after = shortest_path(got)
        assert before.status == after.status
        if before.status == STATUS_OK:
            assert after.cost == pytest.approx(before.cost, abs=1e-9)


class TestTopologicalSort:
    def test_arcs_forward(self):
        for seed in range(20):
            w = topological_sort(random_acyclic_wfsa(seed, with_epsilon=True))
            for s, arc in w.all_arcs():
                assert s < arc.dst

    def test_cycle_detected(self):
        w = Wfsa(num_states=2, start=0, finals={1})
        w.add_arc(0, 0, 0.0, 1)
        w.add_arc(1, 1, 0.0, 0)
        with pytest.raises(ValueError, match="cycle detected"):
            topological_sort(w)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_preserves_cost_map(self, seed):
        w = random_acyclic_wfsa(seed, max_states=6, alphabet=(0, 1), with_epsilon=True)
        got = topological_sort(w)
        for length in range(0, 5):
            for s in itertools.product((0, 1), repeat=length):
                a, b = string_cost(w, s), string_cost(got, s)
                assert (a == INF and b == INF) or b == pytest.approx(a, abs=1e-9)


class TestShortestPath:
    def test_picks_cheaper_path(self):
        w = Wfsa(num_states=3, start=0, finals={2})
        w.add_arc(0, 0, 1.2, 2)
        w.add_arc(0, 1, 0.4, 1)
        w.add_arc(1, 2, 0.5, 2)
        r = shortest_path(w)
        assert r.status == STATUS_OK
        assert r.tokens == (1, 2)
        assert r.cost == pytest.approx(0.9)

    def test_empty_language(self):
        w = Wfsa(num_states=2, start=0, finals=set())
        w.add_arc(0, 0, 1.0, 1)
        r = shortest_path(w)
        assert r.status == STATUS_EMPTY

    def test_matches_enumeration_oracle(self):
        for seed in range(100):
            w = random_acyclic_wfsa(seed, max_states=8)
            got = shortest_path(w)
            best = min_wfsa_path(w)
            if best is None:
                assert got.status == STATUS_EMPTY
            else:
                assert got.status == STATUS_OK
                assert got.cost == pytest.approx(best[1], abs=1e-9)
                assert got.tokens == best[0]


class TestDumpFormat:
    def test_round_trip_bit_exact(self):
        for seed in range(25):
            w = random_acyclic_wfsa(seed, with_epsilon=True)
            blob = dump_wfsa(w)
            assert dump_wfsa(load_wfsa(blob)) == blob

    def test_labels(self):
        w = Wfsa(num_states=2, start=0, finals={1})
        w.add_arc(0, 3, 0.25, 1)
        w.add_arc(0, EPSILON, 0.0, 1)
        w.add_arc(0, SIGMA, 0.0, 1)
        blob = dump_wfsa(w)
        assert "tok:3" in blob and "eps" in blob and "sigma" in blob
        got = load_wfsa(blob)
        assert got.num_arcs == 3 and got.finals == {1}

    @pytest.mark.parametrize("text, line", [
        ("#version 1\nstates", "states"),
        ("#version 1\nstates\t2\nstart", "start"),
        ("#version 1\nstates\t2\nfinal", "final"),
        ("#version 1\nstates\t2\nstart\t5", "start\t5"),
        ("#version 1\nstates\t2\nstart\t-1", "start\t-1"),
        ("#version 1\nfinal\t9\nstates\t2", "final\t9"),
        ("#version 1\nstates\t0\nstart\t0", "start\t0"),
        ("#version 1\nstates\t0\nfinal\t0", "final\t0"),
    ])
    def test_malformed_header_lines_are_named(self, text, line):
        with pytest.raises(ValueError, match=re.escape(repr(line))):
            load_wfsa(text)

    # A negative id would alias eps (-1), sigma (-2) or take the epsilon
    # branch of the product (any other negative label).
    @pytest.mark.parametrize("label", ["tok:-1", "tok:-2", "tok:-5"])
    def test_negative_token_ids_are_refused(self, label):
        text = f"#version 1\nstates\t2\nstart\t0\nfinal\t1\n0\t1\t{label}\t0.5"
        with pytest.raises(ValueError, match=re.escape(f"unknown arc label {label!r}")):
            load_wfsa(text)

    # int() reads each of these as the digit it wraps; a dump writes only
    # the plain ASCII digits, so no other spelling is one of the format's.
    @pytest.mark.parametrize("spell", [
        "+{}".format, " {}".format, "{} ".format, "0_{}".format, lambda d: chr(0x660 + d),
    ], ids=["sign", "leading-space", "trailing-space", "underscore", "arabic-indic"])
    @pytest.mark.parametrize("field", ["states", "start", "final", "src", "dst", "label"])
    def test_integers_are_ascii_digits_only(self, field, spell):
        values = {"states": 2, "start": 0, "final": 1, "src": 0, "dst": 1, "label": 1}
        text = {name: str(value) for name, value in values.items()}
        text[field] = spell(values[field])
        arc = f"{text['src']}\t{text['dst']}\ttok:{text['label']}\t0.5"
        dump = (
            f"#version 1\nstates\t{text['states']}\nstart\t{text['start']}\n"
            f"final\t{text['final']}\n{arc}\n"
        )
        bad = f"tok:{text['label']}" if field == "label" else text[field]
        with pytest.raises(ValueError, match=r"^malformed line .*" + re.escape(repr(bad))):
            load_wfsa(dump)

    # float() reads each of these as 0.5, 5.0 or inf; a dump writes a cost
    # as repr(cost), so no other spelling is one of the format's
    @pytest.mark.parametrize("cost", [
        "0_5", " 0.5", "0.5 ", "+0.5", ".5", "\u0660.5", "0.50", "5e-1", "1e400",
    ], ids=["underscore", "leading-space", "trailing-space", "sign", "no-leading-zero",
            "arabic-indic", "trailing-zero", "exponent", "overflow"])
    def test_costs_are_repr_spellings_only(self, cost):
        dump = f"#version 1\nstates\t2\nstart\t0\nfinal\t1\n0\t1\ttok:1\t{cost}\n"
        with pytest.raises(ValueError, match=r"^malformed line .*" + re.escape(repr(cost))):
            load_wfsa(dump)

    def test_trim_drops_dead_states(self):
        w = Wfsa(num_states=4, start=0, finals={2})
        w.add_arc(0, 0, 0.0, 1)
        w.add_arc(1, 1, 0.0, 2)
        w.add_arc(0, 2, 0.0, 3)  # dead end
        t = trim(w)
        assert t.num_states == 3
        assert string_cost(t, (0, 1)) == 0.0
        assert string_cost(t, (2,)) == INF


class TestGolden:
    def test_tiny4_dump_matches_golden(self, tiny4_path):
        import os

        with open(tiny4_path, encoding="utf-8") as fh:
            dag = load_dag(fh.read())
        blob = dump_wfsa(dag_to_wfsa(dag, PruneConfig(k_e=2, k_t=2)))
        golden_path = os.path.join(os.path.dirname(tiny4_path), "tiny4_k2.fsa")
        with open(golden_path, encoding="utf-8") as fh:
            assert blob == fh.read()
