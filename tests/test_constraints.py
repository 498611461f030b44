"""Phrase automata, tokenization, lexicon extraction, vocabulary automata."""

from __future__ import annotations

import copy
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dagdec.constraints as constraints_mod
from dagdec import wfsa
from dagdec.constraints import (
    ConstraintPhrase,
    LexiconFsa,
    _as_lexicon,
    _Matchers,
    _segment,
    build_hlc_fsa,
    build_vocab_fsa,
    constrained_product,
    default_specials,
    extract_lexicon,
    tokenize_phrase,
)
from dagdec.dag import Dag, DagFormatError, PruneConfig, prune_dag
from dagdec.length import LcConfig, dfs_viterbi
from dagdec.tokens import TokenTable
from dagdec.wfsa import (
    EPSILON,
    SIGMA,
    Arc,
    Wfsa,
    _label_index,
    _lattice_acceptor,
    closure,
    dag_to_wfsa,
    determinize_min,
    dump_wfsa,
    has_accepting_path,
    intersect,
    lexicon_dfa,
    linear_acceptor,
    shortest_path,
    string_cost,
    trim,
    union,
)

from .lattices import (
    build_dag,
    dead_end,
    overflowing,
    random_acyclic_wfsa,
    random_constrained_lattice,
    random_constrained_product,
    random_joint_product,
    random_kept_path,
    random_nfa,
    toy_table,
    uniform_lattice,
    window_lattice,
)
from .oracles import (
    arc_scan_intersect,
    contains_subsequence,
    enumerate_dag_paths,
    enumerate_wfsa_paths,
    lexicon_closure,
    nfa_accepts,
    reference_tokenize_phrase,
    with_entity_chains,
    word_frequencies,
)


@pytest.fixture()
def subword_table() -> TokenTable:
    surfaces = (
        "▁cat", "▁ca", ".", "▁Hong", "▁Kong",
        "▁photo", "synthesis", "<s>", "</s>", "▁",
    )
    return TokenTable(surfaces=surfaces, sow_mark="▁", eos_id=8, sos_id=7)


class TestHlcFsa:
    def test_accepts_when_phrase_present(self):
        a = build_hlc_fsa(ConstraintPhrase(tokens=(0, 1)))
        assert nfa_accepts(a, (1, 0, 1))   # "bab" contains "ab"
        assert not nfa_accepts(a, (1, 0))  # "ba" does not

    def test_overlapping_prefixes(self):
        a = build_hlc_fsa(ConstraintPhrase(tokens=(0, 0, 1)))
        assert nfa_accepts(a, (0, 0, 0, 1))  # "aab" inside "aaab"

    def test_empty_phrase_rejected(self):
        with pytest.raises(ValueError):
            ConstraintPhrase(tokens=())

    @pytest.mark.parametrize("token", (True, 1.0, "a", -1))
    def test_tokens_are_non_negative_integers(self, token):
        # a lattice index keeps the same rule: True and 1.0 would match
        # token 1, and "a" or -1 no token at all
        with pytest.raises(ValueError, match=rf"^constraint phrase tokens must be non-negative "
                                             rf"integers, got {re.escape(repr(token))}$"):
            ConstraintPhrase(tokens=(0, token))

    @pytest.mark.parametrize("tokens", [(0,), (0, 1), (1, 0, 1), (0, 0, 1), (2, 2)])
    def test_language_is_exactly_containment(self, tokens):
        a = build_hlc_fsa(ConstraintPhrase(tokens=tokens))
        alphabet = (0, 1, 2)
        for length in range(0, 7):
            for s in itertools.product(alphabet, repeat=length):
                assert nfa_accepts(a, s) == contains_subsequence(s, tokens), s


class TestTokenizePhrase:
    def test_multipiece_word(self, subword_table):
        got = tokenize_phrase("photosynthesis", subword_table)
        assert got.tokens == (5, 6)
        assert got.surface == "photosynthesis"

    def test_single_token_word(self, subword_table):
        assert tokenize_phrase("cat", subword_table).tokens == (0,)

    def test_phrase_spanning_space(self, subword_table):
        got = tokenize_phrase("Hong Kong", subword_table)
        assert got.tokens == (3, 4)

    def test_greedy_longest_match(self, subword_table):
        # "cat." segments as the longest word-initial piece plus punctuation
        assert tokenize_phrase("cat.", subword_table).tokens == (0, 2)

    def test_unsegmentable_span_reported(self, subword_table):
        with pytest.raises(ValueError, match="dog"):
            tokenize_phrase("dog", subword_table)

    def test_detokenize_round_trip(self, subword_table):
        phrase = tokenize_phrase("Hong Kong", subword_table)
        assert subword_table.detokenize(phrase.tokens) == "Hong Kong"

    # Overlapping pieces ("▁ab" and "▁a", "abc", "ab" and "bc"), word-initial
    # pieces found only bare ("c", "."), and a letter no piece covers ("z").
    PIECES = TokenTable(
        surfaces=("▁ab", "▁a", "▁b", "abc", "ab", "bc", "b", "c", ".", "a", "<s>", "</s>"),
        sow_mark="▁", eos_id=11, sos_id=10,
    )

    # A two-character mark, pieces up to the longest surface with and
    # without it ("##abcab" and the special "abcabca", 7 characters each),
    # a bare mark and a bare "#", so a piece may end at the bound exactly.
    WIDE = TokenTable(
        surfaces=("##abcab", "##ab", "##a", "##b", "##", "#", "abc", "ab", "bc", "b", "c",
                  ".", "a", "<s>", "</s>", "abcabca"),
        sow_mark="##", eos_id=14, sos_id=13,
    )

    @given(st.text("abcz.▁ \t", max_size=12))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_same_tokens_or_error_as_the_reference(self, surface):
        self.assert_same_as_the_reference(surface, self.PIECES)

    @given(st.text("abcz.# \t", max_size=16))
    @example("abcabcabca cabcabcab ##abcabx")
    @example("###a #abcabca abcabcab.")
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_same_tokens_or_error_with_a_two_character_mark(self, surface):
        self.assert_same_as_the_reference(surface, self.WIDE)

    @staticmethod
    def assert_same_as_the_reference(surface, table):
        try:
            want = reference_tokenize_phrase(surface, table)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                tokenize_phrase(surface, table)
            assert str(got.value) == str(exc)
            with pytest.raises(ValueError) as got:
                _segment(surface, table)
            assert str(got.value) == str(exc)
        else:
            assert tokenize_phrase(surface, table) == want
            assert _segment(surface, table) == want.tokens

    @pytest.mark.parametrize("table, longest, word, tokens, lookups", [
        # the longest surface is "</s>": "▁abc", "▁ab"; "cabc" down to "c";
        # "abca", "abc" twice; the last "abc" ends the word
        (PIECES, 4, "abcabcabcabc", (0, 7, 3, 3, 3), 11),
        # "##abcab"; "cabcabc" down to "c"; "abcabca"; "b" ends the word
        (WIDE, 7, "abcabcabcabcab", (0, 10, 15, 9), 10),
    ])
    def test_no_candidate_is_longer_than_the_longest_surface(
        self, table, longest, word, tokens, lookups
    ):
        asked = []

        class Counting(dict):
            def get(self, key, default=None):
                asked.append(key)
                return super().get(key, default)

            def __getitem__(self, key):
                asked.append(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                asked.append(key)
                return super().__contains__(key)

        table = TokenTable(table.surfaces, table.sow_mark, table.eos_id, table.sos_id)
        object.__setattr__(table, "_index", Counting(table._index))
        assert _segment(word, table) == tokens
        assert table.longest == longest
        assert max(map(len, asked)) <= longest
        assert len(asked) == lookups


class TestExtractLexicon:
    def test_cutoff_keeps_mass(self):
        assert extract_lexicon(["a a a b"], 0.7) == ["a"]

    def test_cutoff_one_keeps_all(self):
        assert extract_lexicon(["a a a b"], 1.0) == ["a", "b"]

    def test_empty_corpus(self):
        assert extract_lexicon([], 0.9) == []

    def test_strips_punct_and_numbers(self):
        got = extract_lexicon(["Call 555-1234 now, really now."], 1.0)
        assert got == ["now", "Call", "really"]

    def test_matches_independent_counter(self):
        corpus = [
            "the cat sat on the mat",
            "the dog sat on the log 42 times",
            "cats and dogs, dogs and cats!",
        ]
        counts = word_frequencies(corpus)
        total = sum(counts.values())
        for cutoff in (0.3, 0.5, 0.9, 1.0):
            got = extract_lexicon(corpus, cutoff)
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            expect = []
            mass = 0
            for w, c in ranked:
                expect.append(w)
                mass += c
                if mass >= cutoff * total:
                    break
            assert got == expect

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            extract_lexicon(["a"], 0.0)
        with pytest.raises(ValueError):
            extract_lexicon(["a"], 1.5)


class TestVocabFsa:
    def test_accepts_dictionary_sentences(self, subword_table):
        lex = build_vocab_fsa(["cat"], ["."], [], subword_table)
        a = lex.automaton
        assert nfa_accepts(a, (0, 2))        # "cat."
        assert nfa_accepts(a, (0, 0, 2))     # "cat cat."
        assert not nfa_accepts(a, (1,))      # "ca"

    def test_dynamic_entity_not_constituents(self, subword_table):
        lex = build_vocab_fsa([], ["."], ["Hong Kong"], subword_table)
        a = lex.automaton
        assert nfa_accepts(a, (3, 4))        # "Hong Kong"
        assert not nfa_accepts(a, (3,))      # "Hong" alone
        assert not nfa_accepts(a, (4, 3))    # "Kong Hong"

    def test_accepts_empty_string(self, subword_table):
        lex = build_vocab_fsa(["cat"], None, [], subword_table)
        assert string_cost(lex.automaton, ()) == 0.0

    def test_default_specials_filtered_to_table(self, subword_table):
        got = default_specials(subword_table)
        assert "<s>" in got and "</s>" in got and "▁" in got
        assert "." in got
        assert "$" not in got  # not in this table

    def test_multi_word_sentence_via_closure(self, subword_table):
        lex = build_vocab_fsa(["cat", "photosynthesis"], ["."], [], subword_table)
        a = lex.automaton
        assert nfa_accepts(a, (5, 6, 0, 2))     # "photosynthesis cat."
        assert not nfa_accepts(a, (5, 0))       # dangling "photo" prefix
        assert not nfa_accepts(a, (6,))         # bare continuation piece

    def test_cache_equivalence(self, subword_table):
        args = (["cat", "Hong"], ["."], ["Hong Kong"], subword_table)
        constraints_mod._static_closure.cache_clear()
        build_vocab_fsa(*args)
        hit = build_vocab_fsa(*args).automaton
        info = constraints_mod._static_closure.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
        constraints_mod._static_closure.cache_clear()
        fresh = build_vocab_fsa(*args).automaton
        assert dump_wfsa(hit) == dump_wfsa(fresh)
        for s in range(fresh.num_states):
            assert hit.arcs_from(s) == fresh.arcs_from(s)
        for length in range(0, 5):
            for s in itertools.product((0, 2, 3, 4), repeat=length):
                assert nfa_accepts(fresh, s) == nfa_accepts(hit, s)

    @pytest.mark.parametrize(
        "dictionary,entities",
        [
            (["cat", "photosynthesis"], []),
            # "photo" is final and shares its arc on "synthesis" with the start
            (["photo", "photosynthesis", "synthesis", "ca"], ["Hong Kong"]),
            ([], ["Hong Kong", "cat", "Hong Kong"]),
        ],
    )
    def test_product_matches_epsilon_closure_construction(
        self, subword_table, dictionary, entities
    ):
        # The vocabulary automaton used to be the epsilon closure of the
        # union of determinize_min(words) and the entity chains; intersect
        # removed its epsilons per call. The product must not change.
        words = [tokenize_phrase(w, subword_table).tokens for w in dictionary]
        words += [(subword_table.lookup(s),) for s in default_specials(subword_table)]
        static = determinize_min(union(*[linear_acceptor(t) for t in words]))
        chains = [linear_acceptor(tokenize_phrase(e, subword_table).tokens) for e in entities]
        old = closure(union(static, *chains))
        new = build_vocab_fsa(dictionary, None, entities, subword_table).automaton
        assert not new.has_epsilon()
        for seed in range(40):
            w = random_acyclic_wfsa(seed, max_states=8, alphabet=tuple(range(10)),
                                    arc_density=0.9, with_epsilon=seed % 2 == 1)
            got = intersect(w, new)
            ref = arc_scan_intersect(w, old)
            assert (got.num_states, got.finals) == (ref.num_states, ref.finals)
            for s in range(ref.num_states):
                assert got.arcs_from(s) == ref.arcs_from(s), (seed, s)

    def test_every_arc_is_live(self, subword_table):
        a = build_vocab_fsa(["photo", "photosynthesis", "cat"], None, ["Hong Kong"],
                            subword_table).automaton
        t = trim(a)
        assert (t.num_states, t.num_arcs) == (a.num_states, a.num_arcs)

    def test_concurrent_builds_share_the_cache_safely(self, subword_table):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        constraints_mod._static_closure.cache_clear()
        entity_sets = [[], ["Hong Kong"], ["Kong"], ["Hong Kong", "Kong"]] * 6

        def build(entities):
            return build_vocab_fsa(["cat", "photo", "photosynthesis"], ["."], entities,
                                   subword_table).automaton

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(build, entity_sets, timeout=60))
        finally:
            sys.setswitchinterval(old_interval)
        for entities, a in zip(entity_sets, results):
            assert nfa_accepts(a, (0, 3, 4)) == ("Hong Kong" in entities)
            assert nfa_accepts(a, (4, 5, 6)) == ("Kong" in entities)
            assert not nfa_accepts(a, (3,))

    # Single-word lexicons over subword_table, each with the tokens of its word.
    LEXICONS = {"cat": (0,), "ca": (1,), "Hong": (3,), "Kong": (4,), "photo": (5,),
                "photosynthesis": (5, 6)}
    # 21 distinct dictionaries of one or two of those words, more than the cache holds
    DICTIONARIES = [*itertools.combinations(LEXICONS, 1), *itertools.combinations(LEXICONS, 2)]

    def test_cache_evicts_the_least_recently_used(self, subword_table, monkeypatch):
        compiled = []
        real = constraints_mod.build_static_vocab_fsa

        def counting(dictionary, *args):
            compiled.append(tuple(dictionary))
            return real(dictionary, *args)

        def build(dictionary):
            build_vocab_fsa(list(dictionary), ["."], [], subword_table)

        monkeypatch.setattr(constraints_mod, "build_static_vocab_fsa", counting)
        constraints_mod._static_closure.cache_clear()
        size = constraints_mod.STATIC_CACHE_SIZE
        first, second, *rest = self.DICTIONARIES[: size + 1]
        for dictionary in self.DICTIONARIES[:size]:
            build(dictionary)
        build(first)
        build(rest[-1])
        assert compiled == self.DICTIONARIES[: size + 1]
        # the second was the least recently used when the last came, so
        # it alone was evicted: every other one is still a hit
        for dictionary in [first, *rest, second]:
            build(dictionary)
        assert compiled == self.DICTIONARIES[: size + 1] + [second]
        assert constraints_mod._static_closure.cache_info().currsize == size

    def test_eviction_under_threads_keeps_the_bound_and_the_content(self, subword_table):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        constraints_mod._static_closure.cache_clear()
        dictionaries = self.DICTIONARIES * 3

        def build(dictionary):
            return build_vocab_fsa(list(dictionary), ["."], [], subword_table).automaton

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(build, dictionaries, timeout=60))
        finally:
            sys.setswitchinterval(old_interval)
        info = constraints_mod._static_closure.cache_info()
        assert info.currsize <= constraints_mod.STATIC_CACHE_SIZE
        assert info.misses > len(self.DICTIONARIES)  # some closures were evicted
        for dictionary, a in zip(dictionaries, results):
            for word, tokens in self.LEXICONS.items():
                assert nfa_accepts(a, tokens + (2,)) == (word in dictionary), (dictionary, word)

    def test_cache_key_follows_the_table_content(self, subword_table):
        def build(table):
            build_vocab_fsa(["cat"], ["."], [], table)
            info = constraints_mod._static_closure.cache_info()
            return info.hits, info.misses

        same = TokenTable(surfaces=subword_table.surfaces, sow_mark="▁", eos_id=8, sos_id=7)
        swapped = TokenTable(surfaces=subword_table.surfaces, sow_mark="▁", eos_id=7, sos_id=8)
        assert same == subword_table and same is not subword_table
        constraints_mod._static_closure.cache_clear()
        assert build(subword_table) == (0, 1)
        assert build(same) == (1, 1)
        assert build(swapped) == (1, 2)

    def test_numeric_tokens_accepted(self):
        surfaces = ("▁cat", "▁1984", "7", "<s>", "</s>", "▁")
        table = TokenTable(surfaces=surfaces, sow_mark="▁", eos_id=4, sos_id=3)
        lex = build_vocab_fsa(["cat"], None, [], table)
        assert nfa_accepts(lex.automaton, (0, 1))  # "cat 1984"
        assert nfa_accepts(lex.automaton, (2,))    # bare digit token


def _cost_map(w: Wfsa) -> dict[tuple[int, ...], float]:
    """Each accepted string of an acyclic acceptor at its cheapest cost."""
    out: dict[tuple[int, ...], float] = {}
    for tokens, cost in enumerate_wfsa_paths(w):
        out[tokens] = min(cost, out.get(tokens, cost))
    return out


_draws = st.integers(min_value=0, max_value=10**9), st.sampled_from((3, 4))


class TestConstrainedProduct:
    """One product over the lattice, every phrase matcher and the
    vocabulary, against one `intersect` per constraint."""

    @given(*_draws)
    @settings(max_examples=300, deadline=None)
    def test_same_language_costs_and_decodes_as_sequential(self, seed, vocab_size):
        seq = random_constrained_product(seed, vocab_size)
        joint = random_joint_product(seed, vocab_size)
        assert bool(joint.finals) == bool(seq.finals)
        assert _cost_map(joint) == _cost_map(seq)
        assert shortest_path(joint) == shortest_path(seq)
        for target in range(1, 7):
            cfg = LcConfig(target_length=target, edge_prune_threshold=1.0)
            assert dfs_viterbi(joint, cfg) == dfs_viterbi(seq, cfg), target

    @given(*_draws)
    @settings(max_examples=200, deadline=None)
    def test_trim_epsilon_free_without_parallel_duplicates(self, seed, vocab_size):
        w = random_joint_product(seed, vocab_size)
        assert not w.has_epsilon() and not w.has_sigma()
        for s in range(w.num_states):
            pairs = [(arc.label, arc.dst) for arc in w.arcs_from(s)]
            assert len(pairs) == len(set(pairs)), s
        assert bool(w.finals) == has_accepting_path(w)
        if w.finals:  # every state lies on a start-to-final path
            assert trim(w).num_states == w.num_states
            assert w.start == 0

    def test_redundant_sigma_branches_no_longer_skew_arc_pruning(self):
        # The sequential product also follows each HLC sigma arc on a token
        # with its own arc, so one lattice arc appears twice in a state's
        # out-arcs and counts twice in the 0.7 pruning mass.
        cfg = LcConfig(target_length=1, edge_prune_threshold=0.7)
        seq = dfs_viterbi(random_constrained_product(106, 3), cfg)
        joint = dfs_viterbi(random_joint_product(106, 3), cfg)
        assert seq.status == "infeasible"
        assert joint.status == "ok" and joint.tokens == (2,)
        assert joint.cost == pytest.approx(1.4481009410513033)

    def test_completed_phrase_stays_completed(self):
        w = linear_acceptor((0, 1, 0, 2), weight=0.5)
        got = constrained_product(w, [ConstraintPhrase(tokens=(0, 1))])
        assert _cost_map(got) == {(0, 1, 0, 2): 2.0}

    def test_every_phrase_must_complete(self):
        w = linear_acceptor((0, 1, 2))
        phrases = [ConstraintPhrase(tokens=(0, 1)), ConstraintPhrase(tokens=(1, 2))]
        assert _cost_map(constrained_product(w, phrases)) == {(0, 1, 2): 0.0}
        assert not constrained_product(w, phrases + [ConstraintPhrase(tokens=(2, 0))]).finals

    def test_final_needs_a_final_vocab_state(self):
        w = linear_acceptor((0, 1), weight=0.25)
        assert not constrained_product(w, [], linear_acceptor((0, 1, 1))).finals
        assert _cost_map(constrained_product(w, [], linear_acceptor((0, 1)))) == {(0, 1): 0.5}

    def test_keeps_every_state_that_can_still_accept(self):
        # 0 -a-> 1 -b-> 3 and 0 -a-> 2 -c-> 3; only "a c" contains "c".
        w = Wfsa(num_states=4, start=0, finals={3})
        w.add_arc(0, 0, 1.0, 1)
        w.add_arc(0, 0, 2.0, 2)
        w.add_arc(1, 1, 0.0, 3)
        w.add_arc(2, 2, 0.0, 3)
        got = constrained_product(w, [ConstraintPhrase(tokens=(2,))])
        assert got.num_states == 3
        assert _cost_map(got) == {(0, 2): 2.0}

    def test_vocab_epsilons_are_removed(self):
        vocab = closure(union(linear_acceptor((0,)), linear_acceptor((1,))))
        assert vocab.has_epsilon()
        got = constrained_product(linear_acceptor((0, 1, 0), weight=0.5), [], vocab)
        assert not got.has_epsilon()
        assert _cost_map(got) == {(0, 1, 0): 1.5}

    def test_lattice_with_sigma_is_rejected(self):
        w = linear_acceptor((0,))
        w.add_arc(0, SIGMA, 0.0, 1)
        with pytest.raises(ValueError, match="sigma"):
            constrained_product(w, [])

    def test_lattice_epsilons_keep_matcher_and_vocab_states(self):
        # `intersect` is the phrase-less product, so a lattice epsilon must
        # give the arc-scan product, arc for arc.
        vocab = closure(union(linear_acceptor((0,)), linear_acceptor((1, 2))))
        for seed in range(200):
            w = random_acyclic_wfsa(seed, max_states=6, with_epsilon=True)
            got = constrained_product(w, [], vocab)
            ref = arc_scan_intersect(w, vocab)
            assert (got.num_states, got.start, got.finals) == (ref.num_states, ref.start, ref.finals)
            for s in range(ref.num_states):
                assert got.arcs_from(s) == ref.arcs_from(s), (seed, s)
        # 0 -a-> 1 -eps-> 2 -b-> 3: the matcher waits at "a" across the epsilon.
        w = linear_acceptor((0, EPSILON, 1), weight=0.5)
        got = constrained_product(w, [ConstraintPhrase(tokens=(0, 1))])
        assert _cost_map(got) == {(0, 1): 1.5}


def _outcome(make) -> tuple:
    """The dump and the arc lists of the acceptor `make` returns, or the
    message of the ValueError it raises."""
    try:
        w = make()
    except ValueError as exc:
        return ("ValueError", str(exc))
    return dump_wfsa(w), [w.arcs_from(s) for s in range(w.num_states)]


class TestPrunedLatticeProduct:
    """`constrained_product` on the pruned `Dag` itself, against the
    product of the acceptor `dag_to_wfsa` makes of the same lattice."""

    def test_same_product_or_error_as_the_lattice_acceptor(self):
        table = toy_table(4)
        words = [f"w{i:03d}" for i in range(4)]
        for seed in range(2000):
            rng = random.Random(seed)
            if seed % 2:
                dag, cfg = random_constrained_lattice(rng, rng.choice((3, 4)))
            else:  # tie-heavy, some vertices without emissions
                dag, phrases = uniform_lattice(rng)
                cfg = PruneConfig(k_e=rng.randint(1, 3), k_t=rng.randint(1, 3),
                                  constraints=phrases)
            if dag.num_vertices > 1 and rng.random() < 0.2:
                dag = dead_end(dag, rng.randrange(dag.num_vertices - 1))
            if rng.random() < 0.05:
                dag = overflowing(dag, rng.randrange(dag.num_vertices))
            entities = [" ".join(rng.choices(words, k=rng.randint(2, 3)))
                        for _ in range(rng.randint(0, 2))]
            lexicon = build_vocab_fsa(rng.sample(words, rng.randint(1, 4)), [], entities, table)
            pruned = prune_dag(dag, cfg)
            for vocab in (lexicon, lexicon.automaton, None):
                for phrases in (cfg.constraints, ()):
                    got = _outcome(lambda: constrained_product(pruned, phrases, vocab))
                    want = _outcome(
                        lambda: constrained_product(dag_to_wfsa(dag, cfg), phrases, vocab)
                    )
                    assert got == want, (seed, phrases, vocab)

    def test_unknown_target_is_the_converters_error(self):
        # the Dag rejects a transition to no vertex, so no product reads it
        with pytest.raises(DagFormatError,
                           match=r"^vertex 0: dangling vertex index 2 \(num_vertices=2\)$"):
            Dag(num_vertices=2, emissions=(((0, -0.5),), ((1, 0.0),)),
                transitions=(((1, -0.1), (2, -0.2)), ()))

    def test_runs_keep_the_arc_order_of_an_acceptor(self):
        # the two arcs on token 0 out of state 0 are not adjacent, so they
        # are two runs, and the product keeps the token-1 arc between them
        w = Wfsa(num_states=4, start=0, finals={3})
        w.add_arc(0, 0, 1.0, 1)
        w.add_arc(0, 1, 2.0, 2)
        w.add_arc(0, 0, 0.5, 2)
        w.add_arc(1, 1, 0.0, 3)
        w.add_arc(2, 0, 0.0, 3)
        got = constrained_product(w, [])
        assert got.arcs_from(0) == [Arc(0, 1.0, 1), Arc(1, 2.0, 2), Arc(0, 0.5, 2)]
        assert _cost_map(got) == {(0, 1): 1.0, (1, 0): 2.0, (0, 0): 0.5}


# One piece per letter: "▁a" starts a word and "a" continues one, but no
# piece starts a word with c, so a word ending in a state with an arc on
# "c" may meet a word starting with "c" there.
_LETTERS = TokenTable(surfaces=("▁a", "▁b", "a", "b", "c", "<s>", "</s>"),
                      sow_mark="▁", eos_id=6, sos_id=5)


def _gold_path(dag: Dag) -> list[int]:
    """The tokens of a lattice's top path: the top emission at each vertex
    and the top transition out of it. On a `window_lattice` this is the
    planted gold path, which every top-k pruning keeps."""
    u, gold = 0, []
    while u != dag.final_vertex:
        gold.append(dag.emissions[u][0][0])
        u = dag.transitions[u][0][0]
    return gold


def _many_phrase_draw(seed: int) -> tuple[Dag, tuple[ConstraintPhrase, ...], LexiconFsa | None]:
    """A pruned lattice with 1-12 phrases and, half the time, a vocabulary.

    The phrases are windows of one path, overlapping and repeated, and now
    and then a random phrase. Odd seeds take a `random_constrained_lattice`
    (a `generate_synthetic_dag` lattice, or a single vertex), its phrases
    and a kept path of it; even seeds take a small `window_lattice` and its
    gold path. A vocabulary always has the path's words, and may have more.
    A fifth of the lattices get a dead end.
    """
    rng = random.Random(seed)
    count = rng.randint(1, 12)
    if seed % 2:
        vocab_size = rng.choice((3, 4))
        dag, cfg = random_constrained_lattice(rng, vocab_size)
        k_e, k_t = cfg.k_e, cfg.k_t
        path = random_kept_path(dag, cfg, rng.randrange(2**32))
        phrases = list(cfg.constraints)
    else:
        vocab_size = 60
        dag, _ = window_lattice(seed, gold_tokens=rng.randint(9, 16))
        k_e, k_t = rng.randint(1, 3), rng.randint(1, 3)
        path = _gold_path(dag)
        phrases = []
    while len(phrases) < count:
        if path and rng.random() < 0.9:
            start = rng.randrange(len(path))
            tokens = path[start : start + rng.randint(1, 3)]
        else:
            tokens = rng.choices(range(vocab_size), k=rng.randint(1, 3))
        phrases.append(ConstraintPhrase(tokens=tuple(tokens)))
    if dag.num_vertices > 1 and rng.random() < 0.2:
        dag = dead_end(dag, rng.randrange(dag.num_vertices - 1))
    phrases = tuple(phrases[:count])
    pruned = prune_dag(dag, PruneConfig(k_e=k_e, k_t=k_t, constraints=phrases))
    vocab = None
    if rng.random() < 0.5:
        table = toy_table(vocab_size)
        words = [f"w{i:03d}" for i in range(vocab_size)]
        dictionary = {words[t] for t in path} | set(rng.sample(words, rng.randint(0, 3)))
        entities = [" ".join(rng.choices(words, k=2)) for _ in range(rng.randint(0, 2))]
        vocab = build_vocab_fsa(sorted(dictionary), [], entities, table)
    return pruned, phrases, vocab


class TestCompletionFilter:
    """The `Dag` path of `constrained_product` makes a joint state only when
    every phrase can still complete from its vertex (`_completion_masks`);
    the `Wfsa` path has no such filter and is the reference."""

    def test_masks_against_enumeration(self):
        # bit s of a phrase at vertex u: some path from u completes it when
        # its matcher starts in state s, that is after tokens[:s]; bit L:
        # some path from u reaches the final vertex
        for seed in range(300):
            rng = random.Random(seed)
            dag, cfg = random_constrained_lattice(rng, rng.choice((2, 3)))
            if dag.num_vertices > 1 and rng.random() < 0.3:
                dag = dead_end(dag, rng.randrange(dag.num_vertices - 1))
            pruned = prune_dag(dag, cfg)
            phrases = cfg.constraints + tuple(
                ConstraintPhrase(tokens=tuple(rng.choices(range(3), k=rng.randint(1, 3))))
                for _ in range(rng.randint(0, 2))
            )
            masks, offsets = constraints_mod._completion_masks(pruned, phrases)
            assert offsets == [sum(len(p) + 1 for p in phrases[:i]) for i in range(len(phrases))]
            for u in range(pruned.num_vertices):
                sub = Dag(num_vertices=pruned.num_vertices - u,
                          emissions=pruned.emissions[u:],
                          transitions=tuple(tuple((v - u, lp) for v, lp in row)
                                            for row in pruned.transitions[u:]))
                spellings = [t for t, _ in enumerate_dag_paths(sub)]
                want = 0
                for phrase, offset in zip(phrases, offsets):
                    tokens = phrase.tokens
                    want |= sum(
                        1 << s for s in range(len(tokens))
                        if any(contains_subsequence(tokens[:s] + t, tokens) for t in spellings)
                    ) + (1 << len(tokens) if spellings else 0) << offset
                assert masks[u] == want, (seed, phrases, u)

    def test_same_product_as_the_unfiltered_acceptor_path(self):
        for seed in range(400):
            pruned, phrases, vocab = _many_phrase_draw(seed)
            got = _outcome(lambda: constrained_product(pruned, phrases, vocab))
            want = _outcome(lambda: constrained_product(_lattice_acceptor(pruned), phrases, vocab))
            assert got == want, (seed, phrases)

    def test_twelve_phrases_find_few_states(self, monkeypatch):
        # twelve two-token windows of the gold path of a 73-vertex lattice:
        # without the filter the pass finds tens of thousands of states,
        # one for every subset of completed phrases it can reach
        found = []

        def counting(start, finals, rows, preds):
            found.append(len(rows))
            return trim_found(start, finals, rows, preds)

        trim_found = constraints_mod._backward_trim
        monkeypatch.setattr(constraints_mod, "_backward_trim", counting)
        dag, _ = window_lattice(16, gold_tokens=16)
        gold = _gold_path(dag)
        phrases = tuple(ConstraintPhrase(tokens=tuple(gold[s : s + 2]))
                        for s in (round(i * (len(gold) - 2) / 11) for i in range(12)))
        pruned = prune_dag(dag, PruneConfig(k_e=2, k_t=2, constraints=phrases))
        got = constrained_product(pruned, phrases)
        assert got.finals
        filtered = found.pop()
        assert dump_wfsa(constrained_product(_lattice_acceptor(pruned), phrases)) == dump_wfsa(got)
        unfiltered = found.pop()
        assert filtered <= 3 * got.num_states
        assert unfiltered > 100 * filtered

    def test_found_states_are_bounded(self, monkeypatch):
        # a chain of 5 vertices and no constraint finds its 5 states
        chain = build_dag([[(0, 1.0)]] * 5, [[(u + 1, 1.0)] for u in range(4)] + [[]])
        for lattice in (chain, _lattice_acceptor(chain)):
            monkeypatch.setattr(constraints_mod, "MAX_PRODUCT_STATES", 5)
            assert constrained_product(lattice, []).num_states == 5
            monkeypatch.setattr(constraints_mod, "MAX_PRODUCT_STATES", 4)
            with pytest.raises(ValueError, match=r"^the constraint product exceeds 4 states$"):
                constrained_product(lattice, [])


@st.composite
def _letter_vocabularies(draw) -> tuple[list[str], list[str]]:
    """A dictionary over a, b and c, and entities. Stems share suffixes, and
    the empty suffix makes a stem a word that is a prefix of others; the
    dictionary may be empty, and an entity may be a dictionary word."""
    stems = draw(st.lists(st.text("abc", min_size=1, max_size=2), min_size=1, max_size=3))
    suffixes = draw(st.lists(st.text("abc", max_size=2), min_size=1, max_size=3))
    words = [stem + suffix for stem in stems for suffix in suffixes]
    dictionary = draw(st.lists(st.sampled_from(words), max_size=8))
    entity = st.lists(st.text("abc", min_size=1, max_size=3), min_size=1, max_size=2).map(" ".join)
    if dictionary:
        entity = st.one_of(entity, st.sampled_from(dictionary))
    return dictionary, draw(st.lists(entity, max_size=3))


class TestIndexedVocab:
    """The product over a `LexiconFsa`: the label index of the cached
    closure, shared across decodes, and each decode's entity overlay."""

    @given(_letter_vocabularies(), st.integers(min_value=0, max_value=10**6))
    # the final state of "a" has an arc on "c", and so has the start, to
    # another state: "ac" ends after "c", but "c" may go on to "ccc"
    @example((["a", "ac", "c", "cc", "ccc"], ["a c"]), 19)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_register_against_the_epsilon_closure_construction(self, vocabulary, seed):
        dictionary, entities = vocabulary
        lex = build_vocab_fsa(dictionary, [], entities, _LETTERS)
        words = [tokenize_phrase(word, _LETTERS).tokens for word in dictionary]
        chains = [tokenize_phrase(entity, _LETTERS).tokens for entity in entities]
        static = (determinize_min(union(*[linear_acceptor(t) for t in words])) if words
                  else Wfsa(num_states=1, start=0))
        ref = closure(union(static, *[linear_acceptor(t) for t in chains]))
        for draw in (seed, seed + 1):
            w = random_acyclic_wfsa(draw, max_states=7, alphabet=tuple(range(5)),
                                    arc_density=0.9, with_epsilon=draw % 2 == 1)
            got = constrained_product(w, [], lex)
            want = arc_scan_intersect(w, ref)
            assert (got.num_states, got.finals) == (want.num_states, want.finals), draw
            for q in range(want.num_states):
                assert got.arcs_from(q) == want.arcs_from(q), (draw, q)
        oracle = with_entity_chains(lexicon_closure(lexicon_dfa(words)), chains)
        assert dump_wfsa(lex.automaton) == dump_wfsa(oracle)

    def test_a_compile_builds_no_acceptor(self, subword_table, monkeypatch):
        def refuse(*args):
            raise AssertionError("an acceptor was built")

        dag = build_dag(
            [[(0, 0.5), (3, 0.3), (5, 0.2)], [(4, 0.6), (6, 0.3), (0, 0.1)],
             [(2, 0.7), (3, 0.3)], []],
            [[(1, 0.7), (2, 0.3)], [(2, 0.6), (3, 0.4)], [(3, 1.0)], []],
        )
        pruned = prune_dag(dag, PruneConfig(k_e=3, k_t=2))
        constraints_mod._static_closure.cache_clear()
        monkeypatch.setattr(wfsa.Wfsa, "add_arc", refuse)
        lex = build_vocab_fsa(["cat", "photosynthesis"], ["."], ["Hong Kong"], subword_table)
        got = dump_wfsa(constrained_product(pruned, [], lex))
        assert got == (
            "#version 1\nstates\t8\nstart\t0\nfinal\t5\nfinal\t7\n"
            "0\t1\ttok:0\t1.0498221244986778\n0\t2\ttok:0\t1.8971199848858813\n"
            "0\t3\ttok:3\t1.5606477482646686\n0\t4\ttok:5\t1.9661128563728327\n"
            "1\t2\ttok:0\t2.8134107167600364\n1\t5\ttok:0\t3.2188758248682006\n"
            "2\t5\ttok:2\t0.35667494393873245\n3\t6\ttok:4\t1.0216512475319814\n"
            "3\t7\ttok:4\t1.4271163556401456\n4\t2\ttok:6\t1.7147984280919268\n"
            "4\t5\ttok:6\t2.120263536200091\n6\t5\ttok:2\t0.35667494393873245\n"
        )

    # "Hong Kong" and "photo cat" start with a dictionary word's first
    # token, so every final state has two arcs on that token.
    VOCABS = [
        (["cat", "photosynthesis"], []),
        (["photo", "photosynthesis", "Hong"], ["Hong Kong"]),
        (["cat", "Hong", "photo"], ["Hong Kong", "photo cat", "Kong"]),
        ([], ["Hong Kong", "cat"]),
        # Most words go on with a token the lattices never emit ("▁ca",
        # "<s>", "</s>"), so about 3 in 4 found states share no label with
        # their lattice state: they take no step.
        (["Hong</s>", "Kong<s>", "photo</s>", "cat<s>", "ca", "synthesis<s>"], ["Kong</s>"]),
    ]
    ALPHABET = (0, 2, 3, 4, 5, 6)

    @staticmethod
    def lattice(seed: int) -> Wfsa:
        return random_acyclic_wfsa(seed, max_states=7, alphabet=TestIndexedVocab.ALPHABET,
                                   arc_density=0.9, with_epsilon=seed % 3 == 0)

    def test_the_acceptor_of_a_wfsa_vocabulary(self):
        # `_as_lexicon` keeps a `Wfsa`'s `Arc`s as its rows; its acceptor
        # must read them as it reads register pairs
        one_arc = Wfsa(num_states=2, start=0, finals={1})
        one_arc.add_arc(0, 3, 0.0, 1)
        vocabs = [one_arc] + [
            random_nfa(seed, max_states=5, alphabet=self.ALPHABET + (SIGMA,), with_epsilon=False)
            for seed in range(40)
        ]
        for i, vocab in enumerate(vocabs):
            lex = _as_lexicon(vocab)
            for seed in range(5):
                w = self.lattice(seed)
                want = dump_wfsa(arc_scan_intersect(w, vocab))
                assert dump_wfsa(arc_scan_intersect(w, lex.automaton)) == want, (i, seed)
                assert dump_wfsa(constrained_product(w, [], lex)) == want, (i, seed)

    @pytest.mark.parametrize("dictionary, entities", VOCABS)
    def test_arc_for_arc_against_the_arc_scan(self, subword_table, dictionary, entities):
        constraints_mod._static_closure.cache_clear()
        accepted = 0
        for seed in range(200):
            lex = build_vocab_fsa(dictionary, ["."], entities, subword_table)
            w = self.lattice(seed)
            got = constrained_product(w, [], lex)
            assert dump_wfsa(got) == dump_wfsa(arc_scan_intersect(w, lex.automaton)), seed
            accepted += bool(got.finals)
        info = constraints_mod._static_closure.cache_info()
        assert (info.misses, info.hits) == (1, 199)
        assert accepted > 20

    def test_entities_of_one_decode_stay_out_of_later_ones(self, subword_table):
        constraints_mod._static_closure.cache_clear()
        dictionary = ["photo", "Hong"]
        hong_kong = linear_acceptor((3, 4, 2), weight=0.5)  # "Hong Kong."
        with_entity = build_vocab_fsa(dictionary, ["."], ["Hong Kong"], subword_table)
        compiled = copy.deepcopy(with_entity.rows)
        assert _cost_map(constrained_product(hong_kong, [], with_entity)) == {(3, 4, 2): 1.5}
        without = build_vocab_fsa(dictionary, ["."], [], subword_table)
        assert without.rows is with_entity.rows and without.index is with_entity.index
        assert not constrained_product(hong_kong, [], without).finals
        self.assert_shared_index_has_no_entity(without, compiled)

    def test_entities_stay_apart_under_threads(self, subword_table):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        constraints_mod._static_closure.cache_clear()
        entity_sets = [[], ["Hong Kong"], ["Kong", "photo cat"], ["cat"]] * 12
        # the rows as compiled, before any product: the uncached closure
        compiled = constraints_mod._static_closure.__wrapped__(("photo", "Hong"), (".",),
                                                               subword_table).rows

        def decode(job):
            seed, entities = job
            lex = build_vocab_fsa(["photo", "Hong"], ["."], entities, subword_table)
            w = self.lattice(seed)
            got = constrained_product(w, [], lex)
            return lex, dump_wfsa(got) == dump_wfsa(arc_scan_intersect(w, lex.automaton))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(decode, enumerate(entity_sets), timeout=60))
        finally:
            sys.setswitchinterval(old_interval)
        assert all(same for _, same in results)
        assert len({id(lex.index) for lex, _ in results}) == 1
        self.assert_shared_index_has_no_entity(results[0][0], compiled)

    @staticmethod
    def assert_shared_index_has_no_entity(lex, compiled):
        """The cached rows are still the `compiled` ones, and every entry of
        the shared index indexes the closure alone: no entity arc."""
        assert all(type(row) is tuple for row in lex.rows)
        assert lex.rows == compiled
        assert lex.index
        for q, entry in lex.index.items():
            assert entry == _label_index(lex.rows[q]), q
            by_label, sigma = entry
            # entity chain states are numbered from the register's size
            assert all(dst < len(lex.rows) for dsts in by_label.values() for dst in dsts), q

    def test_static_states_are_indexed_once_per_closure(self, subword_table, monkeypatch):
        indexed = []
        real_index = constraints_mod._label_index

        def counting(arcs):
            indexed.append(arcs)
            return real_index(arcs)

        monkeypatch.setattr(constraints_mod, "_label_index", counting)
        constraints_mod._static_closure.cache_clear()
        lattices = [self.lattice(seed) for seed in range(30)]

        def decode_all():
            for w in lattices:
                constrained_product(w, [], build_vocab_fsa(["cat", "photo"], ["."], [], subword_table))

        decode_all()
        first = len(indexed)
        # every index entry is built from one cached row, and no row twice
        rows = build_vocab_fsa(["cat", "photo"], ["."], [], subword_table).rows
        assert first and len({id(arcs) for arcs in indexed}) == first
        assert all(any(arcs is row for row in rows) for arcs in indexed)
        decode_all()
        assert len(indexed) == first


class TestMatchers:
    def test_foreign_token_leads_to_the_reset_successor(self):
        # Completed phrases stay completed, every other matcher goes to 0.
        phrases = (
            ConstraintPhrase(tokens=(1, 2)),
            ConstraintPhrase(tokens=(3,)),
            ConstraintPhrase(tokens=(1, 1, 4)),
        )
        matchers = _Matchers(phrases)
        cases = [
            ((), (0, 0, 0), (0, 0, 0)),
            ((1,), (1, 0, 1), (0, 0, 0)),
            ((1, 1), (1, 0, 2), (0, 0, 0)),
            ((3,), (0, 1, 0), (0, 1, 0)),
            ((1, 2), (2, 0, 0), (2, 0, 0)),
            ((1, 2, 3, 1, 1), (2, 1, 2), (2, 1, 0)),
            ((1, 1, 4), (0, 0, 3), (0, 0, 3)),
            ((1, 1, 4, 1), (1, 0, 3), (0, 0, 3)),
        ]
        for tokens, at, reset in cases:
            state = matchers.start
            for token in tokens:
                state = matchers.step(state, token)
            assert state[0] == at, tokens
            moves = dict(state[2])
            nxt = matchers.step(state, 7)
            assert nxt[0] == reset, tokens
            assert nxt[1] == sum(map(len, phrases)) - sum(reset)
            made = len(matchers.resets)
            for token in (0, 7, 99, 10**6):
                assert matchers.step(state, token) is nxt
            assert matchers.reset(state) is nxt
            assert len(matchers.resets) == made, tokens
            assert state[2] == moves, tokens  # no memo entry for a foreign token

    def test_alphabet_is_every_phrase_token(self):
        matchers = _Matchers((ConstraintPhrase(tokens=(5, 2, 5)), ConstraintPhrase(tokens=(9,))))
        assert matchers.alphabet == {2, 5, 9}
        assert _Matchers(()).alphabet == frozenset()
