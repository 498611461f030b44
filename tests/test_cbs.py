"""Greedy walk, plain beam, constrained beam with banks, matcher advance."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagdec.cbs import (
    _sweep,
    _tokens,
    beam_decode,
    cbs_dag_decode,
    effective_beam_size,
    greedy_decode,
)
from dagdec.constraints import ConstraintPhrase, _Matchers, _step_table
from dagdec.dag import Dag, PruneConfig, generate_synthetic_dag, prune_dag
from dagdec.result import STATUS_OK

from .lattices import build_dag, plant_phrases, tiny4, uniform_lattice, window_lattice
from .oracles import (
    contains_subsequence,
    emission_logprob,
    naive_find_all,
    reference_beam_search,
    reference_match_step,
)


def match_states(phrases, text) -> list[tuple[int, ...]]:
    """The matcher states `_Matchers.step` reaches after each token of text."""
    matchers = _Matchers(tuple(ConstraintPhrase(tokens=p) for p in phrases))
    state, out = matchers.start, []
    for token in text:
        state = matchers.step(state, token)
        out.append(state[0])
    return out


def table_states(phrase, text) -> list[int]:
    """The states a walk of `_step_table`'s rows reaches on text, up to completion."""
    table, state, out = _step_table(phrase), 0, []
    for token in text:
        state = table[state].get(token, 0)
        out.append(state)
        if state == len(phrase):
            break
    return out


class TestKmpAdvance:
    """The phrase matchers the constrained searches step."""

    def test_completion(self):
        assert table_states((0, 1), (0, 1)) == [1, 2]
        assert match_states([(0, 1)], (0, 1)) == [(1,), (2,)]

    def test_failure_link(self):
        assert table_states((0, 1), (0, 0)) == [1, 1]
        assert match_states([(0, 1)], (0, 0)) == [(1,), (1,)]

    def test_streaming_overlap(self):
        # "aab" completes inside "aaab"
        assert table_states((0, 0, 1), (0, 0, 0, 1)) == [1, 2, 2, 3]
        assert match_states([(0, 0, 1)], (0, 0, 0, 1)) == [(1,), (2,), (2,), (3,)]

    def test_sticky_completion(self):
        assert len(_step_table((0, 1))) == 2  # no row past completion
        for token in (7, 0, 1):  # a foreign token, then each phrase token
            assert match_states([(0, 1)], (0, 1, token)) == [(1,), (2,), (2,)]

    @given(
        st.lists(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=5),
                 min_size=1, max_size=3),
        st.lists(st.integers(min_value=0, max_value=2), max_size=16),
    )
    @example([[0, 0, 1], [0, 1, 0, 1]], [0, 0, 0, 1, 0, 1, 0, 1, 2, 0])
    @example([[1, 1, 1], [1]], [1, 1, 0, 1, 1, 1, 1])
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_step_equals_the_brute_force_step(self, phrases, text):
        # tokens 0 and 1 repeat and overlap within a phrase; 2 is foreign to all
        constraints = tuple(ConstraintPhrase(tokens=tuple(p)) for p in phrases)
        matchers = _Matchers(constraints)
        state, want = matchers.start, (0,) * len(constraints)
        for token in text:
            state = matchers.step(state, token)
            want = tuple(reference_match_step(s, token, p) for s, p in zip(want, constraints))
            assert state[0] == want, (text, token)
            assert state[1] == matchers.total - sum(want)

    @given(
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4),
        st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_completion_iff_substring(self, pattern, text):
        completed_at = None
        for i, (state,) in enumerate(match_states([tuple(pattern)], text)):
            if completed_at is None:
                # the longest suffix of the text read so far that is a prefix of the phrase
                read = text[: i + 1]
                border = max(k for k in range(len(pattern) + 1) if read[i + 1 - k :] == pattern[:k])
                assert state == border, (read, state)
                if state == len(pattern):
                    completed_at = i
        hits = naive_find_all(text, pattern)
        if hits:
            assert completed_at == hits[0] + len(pattern) - 1
        else:
            assert completed_at is None


class TestGreedy:
    def test_single_path(self):
        dag = build_dag(
            emission_probs=[[(5, 1.0)], [(6, 1.0)], [(7, 1.0)]],
            transition_probs=[[(1, 1.0)], [(2, 1.0)], []],
        )
        r = greedy_decode(dag)
        assert r.tokens == (6, 7)
        assert r.cost == pytest.approx(0.0)

    def test_takes_argmax_transition(self):
        dag = build_dag(
            emission_probs=[[(0, 1.0)], [(1, 1.0)], [(2, 1.0)]],
            transition_probs=[[(1, 0.6), (2, 0.4)], [(2, 1.0)], []],
        )
        assert greedy_decode(dag).tokens == (1, 2)

    def test_vertex_without_emissions_is_named(self):
        dag = build_dag(
            emission_probs=[[(0, 1.0)], [], [(2, 1.0)]],
            transition_probs=[[(1, 1.0)], [(2, 1.0)], []],
        )
        with pytest.raises(ValueError, match="^vertex 1 has no emissions$"):
            greedy_decode(dag)

    def test_tiny4_hand_trace(self):
        # 0 -(.75)-> 1 emits 2(.8); 1 -(.6)-> 2 emits 4(.9); 2 -(1.0)-> 3 emits 6(.7)
        r = greedy_decode(tiny4())
        assert r.tokens == (2, 4, 6)
        import math

        expected = -(math.log(0.75) + math.log(0.8) + math.log(0.6)
                     + math.log(0.9) + math.log(1.0) + math.log(0.7))
        assert r.cost == pytest.approx(expected, abs=1e-12)


class TestEffectiveBeam:
    def test_paper_rule(self):
        assert effective_beam_size(4, 5) == 6
        assert effective_beam_size(4, 2) == 4
        assert effective_beam_size(1, 0) == 1


class TestCbsDag:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_no_constraints_beam_one_equals_greedy(self, seed):
        dag = generate_synthetic_dag(seed=seed, num_vertices=10, emission_degree=3,
                                     transition_degree=3, concentration=0.6,
                                     vocab_size=16)
        pruned = prune_dag(dag, PruneConfig(k_e=3, k_t=3))
        greedy = greedy_decode(pruned)
        cbs = cbs_dag_decode(pruned, [], base_beam=1)
        assert cbs.tokens == greedy.tokens
        assert cbs.cost == pytest.approx(greedy.cost, abs=1e-12)

    def test_planted_constraint_is_found(self):
        # argmax path omits token 9, an alternate path emits it
        dag = build_dag(
            emission_probs=[
                [(0, 1.0)],
                [(1, 0.9), (9, 0.1)],
                [(2, 1.0)],
                [(3, 1.0)],
            ],
            transition_probs=[[(1, 1.0)], [(2, 1.0)], [(3, 1.0)], []],
        )
        phrase = ConstraintPhrase(tokens=(9,))
        greedy = greedy_decode(dag)
        assert 9 not in greedy.tokens
        r = cbs_dag_decode(dag, [phrase], base_beam=2)
        assert r.constraints_met == (True,)
        assert contains_subsequence(r.tokens, (9,))

    def test_unmet_constraints_flagged_not_fatal(self):
        dag = build_dag(
            emission_probs=[[(0, 1.0)], [(1, 1.0)], [(2, 1.0)]],
            transition_probs=[[(1, 1.0)], [(2, 1.0)], []],
        )
        phrase = ConstraintPhrase(tokens=(7, 8))  # not emittable anywhere
        r = cbs_dag_decode(dag, [phrase], base_beam=2)
        assert r.status == STATUS_OK
        assert r.constraints_met == (False,)
        assert r.note == "constraints unmet"

    @given(st.integers(min_value=0, max_value=3_000))
    @settings(max_examples=60, deadline=None)
    def test_satisfied_flag_implies_contiguous_presence(self, seed):
        dag = generate_synthetic_dag(seed=seed, num_vertices=12, emission_degree=3,
                                     transition_degree=2, concentration=0.7,
                                     vocab_size=10)
        cfg = PruneConfig(k_e=2, k_t=2)
        phrases = plant_phrases(dag, cfg, seed=seed + 9, num_phrases=2)
        if not phrases:
            return
        pruned = prune_dag(dag, PruneConfig(k_e=2, k_t=2, constraints=tuple(phrases)))
        r = cbs_dag_decode(pruned, phrases, base_beam=4)
        for phrase, met in zip(phrases, r.constraints_met):
            if met:
                assert contains_subsequence(r.tokens, phrase.tokens)

    @given(st.integers(min_value=0, max_value=3_000))
    @settings(max_examples=40, deadline=None)
    def test_flags_match_recomputed_matcher(self, seed):
        dag = generate_synthetic_dag(seed=seed, num_vertices=10, emission_degree=3,
                                     transition_degree=2, concentration=0.7,
                                     vocab_size=8)
        phrases = plant_phrases(dag, PruneConfig(k_e=2, k_t=2), seed + 5, 2)
        if not phrases:
            return
        pruned = prune_dag(dag, PruneConfig(k_e=2, k_t=2, constraints=tuple(phrases)))
        r = cbs_dag_decode(pruned, phrases, base_beam=4)
        for phrase, met in zip(phrases, r.constraints_met):
            state = 0
            for token in r.tokens:
                state = reference_match_step(state, token, phrase)
            assert met == (state == len(phrase.tokens))


class TestPlainBeam:
    def test_wider_beam_no_worse(self):
        for seed in range(20):
            dag = generate_synthetic_dag(seed=seed, num_vertices=10, emission_degree=3,
                                         transition_degree=3, concentration=0.6)
            pruned = prune_dag(dag, PruneConfig(k_e=3, k_t=3))
            narrow = beam_decode(pruned, 1)
            wide = beam_decode(pruned, 8)
            assert wide.cost <= narrow.cost + 1e-12

    def test_requires_positive_beam(self):
        with pytest.raises(ValueError):
            beam_decode(tiny4(), 0)
        with pytest.raises(ValueError):
            cbs_dag_decode(tiny4(), [], 0)

    @pytest.mark.parametrize("width", (2.5, 1.0, True, None, "2"))
    @pytest.mark.parametrize("decode", (
        lambda dag, width: beam_decode(dag, width),
        lambda dag, width: cbs_dag_decode(dag, [], width),
    ), ids=("beam", "cbs"))
    def test_width_must_be_an_int(self, decode, width):
        with pytest.raises(ValueError, match="must be an integer"):
            decode(tiny4(), width)


def offered_candidates(dag, constraints, banks, v, beam_width):
    """Every candidate the search makes at v from the items kept upstream, as
    (unmet tokens, score, tokens), rebuilt with the brute-force matcher step."""
    total = sum(len(p) for p in constraints)
    menu = dict(dag.emissions[v][:beam_width])
    out = []
    for u in range(v):
        for target, tlp in dag.transitions[u][:beam_width]:
            if target != v:
                continue
            for item in (it for bank in banks[u].values() for it in bank):
                tokens = _tokens(item[1])
                states = [0] * len(constraints)
                for token in tokens:
                    states = [reference_match_step(s, token, p) for s, p in zip(states, constraints)]
                candidates = dict(menu)
                for state, phrase in zip(states, constraints):
                    if state < len(phrase) and math.isfinite(
                        lp := emission_logprob(dag, v, phrase.tokens[state])
                    ):
                        candidates.setdefault(phrase.tokens[state], lp)
                for token, elp in candidates.items():
                    met = sum(reference_match_step(s, token, p) for s, p in zip(states, constraints))
                    out.append((total - met, item[0] + tlp + elp, tokens + (token,)))
    return out


class TestBankRetention:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_one_item_per_bank_within_beam(self, seed):
        dag, phrases = uniform_lattice(random.Random(seed))
        width = effective_beam_size(2, sum(len(p) for p in phrases))
        banks = _sweep(dag, phrases, width, cap=1)
        for v in range(1, dag.num_vertices):
            kept = {unmet: [(it[0], _tokens(it[1])) for it in bank]
                    for unmet, bank in banks[v].items()}
            assert sum(len(bank) for bank in kept.values()) <= width
            best = {}
            for unmet, score, tokens in offered_candidates(dag, phrases, banks, v, width):
                if unmet not in best or (-score, tokens) < (-best[unmet][0], best[unmet][1]):
                    best[unmet] = (score, tokens)
            # exactly one survivor per bank that got a candidate: its best
            assert kept == {unmet: [item] for unmet, item in best.items()}

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_plain_beam_keeps_the_top_width(self, seed, width):
        dag, _ = uniform_lattice(random.Random(seed))
        banks = _sweep(dag, (), width, cap=width)
        for v in range(1, dag.num_vertices):
            kept = [(it[0], _tokens(it[1])) for it in banks[v].get(0, [])]
            offered = [(-score, tokens) for _, score, tokens in
                       offered_candidates(dag, (), banks, v, width)]
            assert kept == [(-key, tokens) for key, tokens in sorted(offered)[:width]]


class TestMatchesReferenceSearch:
    """The search as first written (every candidate built, then sorted) is
    the reference: results must be equal field for field."""

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=5))
    @settings(max_examples=400, deadline=None)
    def test_tie_heavy_lattices(self, seed, beam):
        dag, phrases = uniform_lattice(random.Random(seed))
        width = effective_beam_size(beam, sum(len(p) for p in phrases))
        assert cbs_dag_decode(dag, phrases, beam) == reference_beam_search(
            dag, phrases, width, use_banks=True
        )
        assert beam_decode(dag, beam) == reference_beam_search(dag, (), beam, use_banks=False)

    @pytest.mark.parametrize("seed", range(48))
    def test_benchmark_shaped_lattices(self, seed):
        dag, phrases = window_lattice(seed)
        pruned = prune_dag(dag, PruneConfig(k_e=3, k_t=3, constraints=phrases))
        width = effective_beam_size(4, sum(len(p) for p in phrases))
        assert cbs_dag_decode(pruned, phrases, 4) == reference_beam_search(
            pruned, phrases, width, use_banks=True
        )
        assert beam_decode(pruned, 4) == reference_beam_search(pruned, (), 4, use_banks=False)

    @pytest.mark.parametrize("seed", range(24))
    def test_menus_cut_below_the_emissions(self, seed):
        # One 1-2-token phrase and base beam 1 give a width of 2-3, below
        # the 6 emissions per vertex, so phrase tokens come from past the
        # menu and foreign tokens past it are never offered.
        dag, phrases = window_lattice(seed)
        phrase = ConstraintPhrase(tokens=phrases[0].tokens[: 1 + seed % 2])
        width = effective_beam_size(1, len(phrase))
        assert width < min(len(row) for row in dag.emissions)
        assert cbs_dag_decode(dag, [phrase], 1) == reference_beam_search(
            dag, (phrase,), width, use_banks=True
        )
        assert beam_decode(dag, width) == reference_beam_search(
            dag, (), width, use_banks=False
        )


class TestForeignTokens:
    """Foreign candidates of one item share a bank and come in
    non-increasing score order, so the search stops at the first refusal."""

    # -1000 + -1.0 and -1000 + nextafter(-1.0, -inf) round to the same sum:
    # the later token 3 ties the earlier token 5 and wins on its smaller id.
    LOW = math.nextafter(-1.0, -math.inf)
    DAG = Dag(
        num_vertices=2,
        emissions=(((0, 0.0),), ((5, -1.0), (3, LOW))),
        transitions=(((1, -1000.0),), ()),
    )

    def test_rounding_tie_keeps_the_smaller_token(self):
        assert -1000.0 + -1.0 == -1000.0 + self.LOW
        dag = self.DAG
        for phrases, base in (((), 2), ((ConstraintPhrase(tokens=(9,)),), 1)):
            width = effective_beam_size(base, sum(len(p) for p in phrases))
            got = cbs_dag_decode(dag, phrases, base)
            assert got == reference_beam_search(dag, phrases, width, use_banks=True)
            assert got.tokens == (3,)
        for beam in (1, 2):
            assert beam_decode(dag, beam) == reference_beam_search(dag, (), beam, use_banks=False)
        assert beam_decode(dag, 2).tokens == (3,)

    def test_three_way_rounding_tie_follows_the_menu(self):
        # All three sums round to -1001.0, so the smallest id inside the
        # menu wins: the foreign list must be neither cut nor reordered.
        low = self.LOW
        lower = math.nextafter(low, -math.inf)
        assert -1000.0 + -1.0 == -1000.0 + low == -1000.0 + lower
        dag = Dag(
            num_vertices=2,
            emissions=(((0, 0.0),), ((7, -1.0), (5, low), (3, lower))),
            transitions=(((1, -1000.0),), ()),
        )
        for beam, token in ((1, 7), (2, 5), (3, 3)):
            assert beam_decode(dag, beam).tokens == (token,)
        for phrases in ((), (ConstraintPhrase(tokens=(9,)),)):
            for base in (1, 2):
                width = effective_beam_size(base, sum(len(p) for p in phrases))
                assert cbs_dag_decode(dag, phrases, base) == reference_beam_search(
                    dag, phrases, width, use_banks=True
                )
