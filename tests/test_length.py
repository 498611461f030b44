"""Length prediction, exponential penalty, and DFS-Viterbi search."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dagdec.dag import PruneConfig
from dagdec.length import (
    LcConfig,
    LengthPredictor,
    default_upper_bound,
    dfs_viterbi,
    fit_length_predictor,
    _length_rows,
    length_cost_table,
    length_penalty,
    load_length_predictor,
    predict_target_length,
    save_length_predictor,
)
from dagdec.result import STATUS_INFEASIBLE, STATUS_OK
from dagdec.wfsa import EPSILON, Wfsa, dag_to_wfsa, linear_acceptor, rm_epsilon, topological_sort

from .lattices import random_acyclic_wfsa, random_constrained_product, window_lattice
from .oracles import MemoLengthSearch, length_bucket_minima, ols_closed_form


class TestFit:
    def test_exact_linear_data(self):
        pred = fit_length_predictor([(1, 2), (2, 4), (3, 6)])
        assert pred.slope == pytest.approx(2.0, abs=1e-9)
        assert pred.intercept == pytest.approx(0.0, abs=1e-9)

    def test_flat_data(self):
        pred = fit_length_predictor([(0, 5), (10, 5)])
        assert pred.slope == pytest.approx(0.0, abs=1e-9)
        assert pred.intercept == pytest.approx(5.0, abs=1e-9)

    def test_matches_normal_equations(self):
        import random

        rng = random.Random(3)
        pairs = [(x, 0.5 * x + 11.9 + rng.gauss(0, 2.0)) for x in range(30)]
        pred = fit_length_predictor(pairs)
        slope, intercept = ols_closed_form(pairs)
        assert pred.slope == pytest.approx(slope, abs=1e-9)
        assert pred.intercept == pytest.approx(intercept, abs=1e-9)

    def test_degenerate_regression(self):
        with pytest.raises(ValueError, match="degenerate regression"):
            fit_length_predictor([(3, 1), (3, 9)])
        with pytest.raises(ValueError):
            fit_length_predictor([(3, 1)])

    def test_predictor_file_round_trip(self, tmp_path):
        pred = LengthPredictor(slope=0.5, intercept=11.9)
        path = str(tmp_path / "pred.txt")
        save_length_predictor(pred, path)
        assert load_length_predictor(path) == pred


class TestPredict:
    def test_ceiling(self):
        pred = LengthPredictor(slope=0.5, intercept=11.9)
        assert predict_target_length(pred, 10) == 17

    def test_clamped_to_one(self):
        pred = LengthPredictor(slope=0.0, intercept=0.2)
        assert predict_target_length(pred, 0) == 1

    def test_identity_slope(self):
        pred = LengthPredictor(slope=1.0, intercept=0.0)
        assert predict_target_length(pred, 7) == 7


class TestPenalty:
    def test_at_target(self):
        assert length_penalty(8, 8, 1.0) == 1.0

    def test_half_target(self):
        assert length_penalty(4, 8, 1.0) == pytest.approx(math.e, abs=1e-12)

    def test_beyond_target(self):
        assert length_penalty(9, 8, 1.0) == 1.0
        assert length_penalty(80, 8, 2.5) == 1.0

    def test_requires_positive_length(self):
        with pytest.raises(ValueError):
            length_penalty(0, 8, 1.0)

    @given(st.integers(min_value=2, max_value=60))
    @settings(max_examples=40, deadline=None)
    def test_nonincreasing_up_to_target(self, target):
        values = [length_penalty(l, target, 1.0) for l in range(1, target + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0


class TestLcConfig:
    def test_default_upper_bound(self):
        assert default_upper_bound(10) == 15
        assert default_upper_bound(20) == 25
        assert default_upper_bound(4) == 6
        assert LcConfig(target_length=10).upper_bound == 15

    def test_override(self):
        assert LcConfig(target_length=10, upper_bound=11).upper_bound == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            LcConfig(target_length=0)
        with pytest.raises(ValueError):
            LcConfig(target_length=5, edge_prune_threshold=0.0)

    @pytest.mark.parametrize("strictness", (math.nan, math.inf, -math.inf, -0.5))
    def test_strictness_must_be_finite_and_non_negative(self, strictness):
        with pytest.raises(ValueError, match="strictness"):
            LcConfig(target_length=5, strictness=strictness)


def two_lengths_wfsa() -> Wfsa:
    """A 2-arc path at cost 1.0 and a 4-arc path at cost 1.2."""
    w = Wfsa(num_states=6, start=0, finals={5})
    w.add_arc(0, 0, 0.5, 4)
    w.add_arc(4, 1, 0.5, 5)
    w.add_arc(0, 2, 0.3, 1)
    w.add_arc(1, 3, 0.3, 2)
    w.add_arc(2, 4, 0.3, 3)
    w.add_arc(3, 5, 0.3, 5)
    return w


def tie_prone_acceptor(seed: int) -> Wfsa:
    """Random acyclic acceptor with 1-9 states, weights drawn from a few
    values so equal-cost paths are common, any set of finals (possibly
    none), and state numbers shuffled half the time."""
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    ids = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(ids)
    w = Wfsa(num_states=n, start=ids[0], finals={ids[i] for i in range(n) if rng.random() < 0.4})
    for src in range(n):
        for dst in range(src + 1, n):
            for _ in range(rng.choice((0, 1, 1, 2, 3))):
                weight = rng.choice((0.0, 0.25, 0.5, 1.0, round(rng.uniform(0.0, 3.0), 3)))
                w.add_arc(ids[src], rng.choice((0, 1, 2)), weight, ids[dst])
    return w


def assert_matches_memo_search(w: Wfsa, cfg: LcConfig) -> None:
    ref = MemoLengthSearch(w, cfg)
    assert length_cost_table(w, cfg) == ref.table()
    # every finite (state, l) the memo visited, with the arc that starts it
    finite = {key: c for key, c in ref.delta.items() if math.isfinite(c)}
    _, costs, back = _length_rows(w, cfg)
    assert {(s, l): c for s, row in enumerate(costs) for l, c in row.items() if l > 0} == finite
    assert {(s, l): arc for s, row in enumerate(back) for l, arc in row.items()} == {
        key: ref.parent[key] for key in finite
    }
    r = dfs_viterbi(w, cfg)
    expected = ref.decode()
    if expected is None:
        assert r.status == STATUS_INFEASIBLE
    else:
        assert r.status == STATUS_OK
        assert (r.tokens, r.cost, r.adjusted_cost) == expected


class TestMatchesMemoSearch:
    """Bit-identical to the memoized DFS the backward sweep replaced."""

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from((0.7, 1.0)),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=300, deadline=None)
    def test_random_acceptors(self, seed, threshold, target, upper):
        cfg = LcConfig(target_length=target, edge_prune_threshold=threshold, upper_bound=upper)
        assert_matches_memo_search(tie_prone_acceptor(seed), cfg)

    @pytest.mark.parametrize("threshold", (0.7, 1.0))
    def test_edge_cases(self, threshold):
        cfg = LcConfig(target_length=3, edge_prune_threshold=threshold)
        single_final = Wfsa(num_states=1, start=0, finals={0})
        single = Wfsa(num_states=1, start=0)
        no_finals = linear_acceptor((1, 2), weight=0.5)
        no_finals.finals.clear()
        too_long = linear_acceptor(tuple(range(9)), weight=0.5)
        backward = Wfsa(num_states=3, start=2, finals={0})
        backward.add_arc(2, 4, 0.5, 1)
        backward.add_arc(1, 5, 0.5, 0)
        backward.add_arc(2, 6, 1.0, 0)
        for w in (single_final, single, no_finals, too_long, backward):
            assert_matches_memo_search(w, cfg)

    def test_lattice_acceptors(self):
        for seed in range(20):
            w = random_acyclic_wfsa(seed, max_states=12, arc_density=0.8)
            for threshold in (0.7, 1.0):
                cfg = LcConfig(target_length=6, edge_prune_threshold=threshold)
                assert_matches_memo_search(w, cfg)

    @pytest.mark.parametrize("threshold", (0.7, 1.0))
    def test_benchmark_shaped_lattices(self, threshold):
        # The lc-long shape: k_e = k_t = 3 gives 9 arcs per state into 3
        # destinations, so most arcs share their destination with another.
        for seed in range(4):
            dag, _ = window_lattice(seed, gold_tokens=24)
            w = dag_to_wfsa(dag, PruneConfig(k_e=3, k_t=3))
            assert max(len(w.arcs_from(u)) - len({a.dst for a in w.arcs_from(u)})
                       for u in range(w.num_states)) == 6
            cfg = LcConfig(target_length=24, edge_prune_threshold=threshold)
            assert_matches_memo_search(w, cfg)


class TestSearchesTheProductAsIs:
    """The search needs no epsilon removal or topological sort first."""

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.sampled_from((3, 4)),
        st.sampled_from((0.7, 1.0)),
        st.integers(min_value=1, max_value=6),
    )
    @example(seed=37, vocab_size=3, threshold=0.7, target=2)
    @example(seed=916, vocab_size=3, threshold=0.7, target=3)
    @settings(max_examples=300, deadline=None)
    def test_same_result_as_after_rm_epsilon_and_sort(self, seed, vocab_size, threshold, target):
        w = random_constrained_product(seed, vocab_size)
        cfg = LcConfig(target_length=target, edge_prune_threshold=threshold)
        assert dfs_viterbi(w, cfg) == dfs_viterbi(topological_sort(rm_epsilon(w)), cfg)


class TestDfsViterbi:
    def test_single_hypothesis_chain(self):
        w = linear_acceptor((3, 1, 4, 1, 5), weight=0.2)
        r = dfs_viterbi(w, LcConfig(target_length=5))
        assert r.status == STATUS_OK
        assert r.tokens == (3, 1, 4, 1, 5)
        assert r.cost == pytest.approx(1.0)
        assert r.adjusted_cost == pytest.approx(1.0)  # at target, penalty 1

    def test_penalty_prefers_target_length(self):
        # the short path's cost is scaled by e^(4/2 - 1) = e > 1.2 / 1.0
        r = dfs_viterbi(two_lengths_wfsa(), LcConfig(target_length=4, strictness=1.0))
        assert r.tokens == (2, 3, 4, 5)
        assert r.cost == pytest.approx(1.2)
        assert r.adjusted_cost == pytest.approx(1.2)

    def test_without_penalty_prefers_cheap(self):
        r = dfs_viterbi(two_lengths_wfsa(), LcConfig(target_length=4, strictness=0.0))
        assert r.tokens == (0, 1)
        assert r.cost == pytest.approx(1.0)

    def test_equal_cost_ties_take_the_first_arc_in_order(self):
        # Three length-2 paths of cost 0.75. Sorted by (weight, label, dst)
        # the arcs out of 0 are (0.5, 1, 1), (0.5, 1, 2), (0.5, 2, 1): the
        # first must win although it was added last, so the output reads
        # (1, 5), not (1, 6) or (2, 5).
        w = Wfsa(num_states=4, start=0, finals={3})
        w.add_arc(0, 2, 0.5, 1)
        w.add_arc(0, 1, 0.5, 2)
        w.add_arc(0, 1, 0.5, 1)
        w.add_arc(1, 5, 0.25, 3)
        w.add_arc(2, 6, 0.25, 3)
        for threshold in (0.7, 1.0):
            r = dfs_viterbi(w, LcConfig(target_length=2, edge_prune_threshold=threshold))
            assert r.tokens == (1, 5)
            assert r.cost == 0.75

    def test_equal_adjusted_cost_prefers_the_longer_candidate(self):
        # length 1 at cost 1.0 and length 2 at cost 0.5 + 0.5: exact tie
        w = Wfsa(num_states=3, start=0, finals={2})
        w.add_arc(0, 7, 1.0, 2)
        w.add_arc(0, 8, 0.5, 1)
        w.add_arc(1, 9, 0.5, 2)
        r = dfs_viterbi(w, LcConfig(target_length=2, strictness=0.0, edge_prune_threshold=1.0))
        assert r.tokens == (8, 9)
        assert r.cost == r.adjusted_cost == 1.0

    def test_rejects_epsilon_arcs(self):
        w = Wfsa(num_states=2, start=0, finals={1})
        w.add_arc(0, EPSILON, 0.1, 1)
        with pytest.raises(ValueError, match="epsilon"):
            dfs_viterbi(w, LcConfig(target_length=2))

    def test_infeasible_reports_diagnosis(self):
        w = linear_acceptor(tuple(range(12)), weight=0.1)
        r = dfs_viterbi(w, LcConfig(target_length=2))  # upper bound 3 < 12
        assert r.status == STATUS_INFEASIBLE
        assert "12 tokens" in r.note

    def test_empty_language_diagnosis(self):
        w = Wfsa(num_states=2, start=0, finals=set())
        w.add_arc(0, 0, 0.1, 1)
        r = dfs_viterbi(w, LcConfig(target_length=2))
        assert r.status == STATUS_INFEASIBLE
        assert "no accepting path of any length" in r.note

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_exact_at_full_mass(self, seed):
        w = random_acyclic_wfsa(seed, max_states=8)
        cfg = LcConfig(target_length=5, edge_prune_threshold=1.0)
        table = length_cost_table(w, cfg)
        oracle = length_bucket_minima(w, cfg.upper_bound)
        oracle = {l: c for l, c in oracle.items() if 1 <= l <= cfg.upper_bound}
        assert set(table) == set(oracle)
        for l, c in oracle.items():
            assert table[l] == pytest.approx(c, abs=1e-9)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_pruned_never_beats_exact(self, seed):
        w = random_acyclic_wfsa(seed, max_states=8)
        exact = length_cost_table(w, LcConfig(target_length=5, edge_prune_threshold=1.0))
        pruned = length_cost_table(w, LcConfig(target_length=5, edge_prune_threshold=0.7))
        for l, c in pruned.items():
            assert c >= exact[l] - 1e-12

    def test_selected_candidate_minimizes_adjusted_cost(self):
        for seed in range(50):
            w = random_acyclic_wfsa(seed, max_states=8)
            cfg = LcConfig(target_length=4, edge_prune_threshold=1.0)
            r = dfs_viterbi(w, cfg)
            oracle = {
                l: c
                for l, c in length_bucket_minima(w, cfg.upper_bound).items()
                if 1 <= l <= cfg.upper_bound
            }
            if not oracle:
                assert r.status == STATUS_INFEASIBLE
                continue
            best = min(
                (length_penalty(l, cfg.target_length, cfg.strictness) * c, -l)
                for l, c in oracle.items()
            )
            assert r.adjusted_cost == pytest.approx(best[0], abs=1e-9)
            assert len(r.tokens) == -best[1]

    def test_memo_size_bound(self):
        cases = [(random_acyclic_wfsa(seed, max_states=8), 9) for seed in range(20)]
        cases.append((two_lengths_wfsa(), 3))  # its 4-arc path overshoots the bound
        for w, upper in cases:
            cfg = LcConfig(target_length=6, edge_prune_threshold=1.0, upper_bound=upper)
            sorted_w, costs, back = _length_rows(w, cfg)
            entries = [(s, l, c) for s, row in enumerate(costs) for l, c in row.items()]
            assert all(math.isfinite(c) and 0 <= l <= cfg.upper_bound for _, l, c in entries)
            assert {s for s, l, _ in entries if l == 0} <= sorted_w.finals
            assert sum(1 for _, l, _ in entries if l > 0) <= cfg.upper_bound * w.num_states
            assert all(set(back[s]) == set(row) - {0} for s, row in enumerate(costs))

    def test_deep_search_does_not_overflow(self):
        w = linear_acceptor(tuple(i % 3 for i in range(1500)), weight=0.001)
        cfg = LcConfig(target_length=1500, upper_bound=1500)
        r = dfs_viterbi(w, cfg)
        assert r.status == STATUS_OK
        assert len(r.tokens) == 1500
