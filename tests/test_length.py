"""Length prediction, exponential penalty, and DFS-Viterbi search."""

from __future__ import annotations

import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dagdec.length as length_module
from dagdec.dag import Dag, DagFormatError, PruneConfig, prune_dag
from dagdec.length import (
    LcConfig,
    LengthPredictor,
    default_upper_bound,
    dfs_viterbi,
    fit_length_predictor,
    _best_arc,
    _acceptor_arcs,
    _length_rows,
    length_cost_table,
    length_penalty,
    load_length_predictor,
    predict_target_length,
    save_length_predictor,
)
from dagdec.result import STATUS_INFEASIBLE, STATUS_OK
from dagdec.wfsa import (
    EPSILON,
    SIGMA,
    Arc,
    Wfsa,
    dag_to_wfsa,
    rm_epsilon,
    topological_sort,
)

from .lattices import (
    dead_end,
    linear_acceptor,
    overflowing,
    random_acyclic_wfsa,
    random_constrained_lattice,
    random_constrained_product,
    uniform_lattice,
    window_lattice,
)
from .oracles import (MemoLengthSearch, length_bucket_minima, ols_closed_form,
                      reference_length_rows)


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

    @pytest.mark.parametrize("pair", [(math.nan, 1.0), (2.5, math.inf), (float("1e400"), 3.0)])
    def test_non_finite_pairs_are_rejected(self, pair):
        # they used to give a nan predictor that load_length_predictor refuses
        with pytest.raises(ValueError, match="finite"):
            fit_length_predictor([(1.0, 2.0), (2.0, 3.0), pair])

    def test_fit_that_overflows_is_rejected(self):
        # the exact slope is 1e600
        with pytest.raises(ValueError, match="overflows"):
            fit_length_predictor([(0.0, 0.0), (1e-300, 1e300)])
        # large pairs whose exact fit is finite are fitted, not rejected
        pred = fit_length_predictor([(0.0, 0.0), (1e300, 1e300), (5.0, 5.0)])
        assert (pred.slope, pred.intercept) == (1.0, 0.0)

    def test_huge_lengths_are_fitted_exactly(self):
        # the centred sums overflowed, which gave slope 0.0 and intercept 0.5
        pred = fit_length_predictor([(0, 0), (1e200, 1)])
        assert (pred.slope, pred.intercept) == (1e-200, 0.0)

    def test_tiny_lengths_are_not_constant(self):
        # the squared deviations underflowed to 0, so x looked constant
        pred = fit_length_predictor([(1e-300, 0), (2e-300, 1e-300)])
        assert pred.slope == pytest.approx(1.0, rel=1e-12)
        assert pred.intercept == pytest.approx(-1e-300, rel=1e-12)

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

    @pytest.mark.parametrize(
        "slope, x", [(1e308, 10), (math.nan, 1), (1.0, 10**400)], ids=["inf", "nan", "huge-input"]
    )
    def test_prediction_must_be_finite(self, slope, x):
        with pytest.raises(ValueError, match="not finite"):
            predict_target_length(LengthPredictor(slope=slope, intercept=0.0), x)


class TestPenalty:
    def test_at_target(self):
        assert length_penalty(8, 8, 1.0) == 1.0

    def test_half_target(self):
        assert length_penalty(4, 8, 1.0) == pytest.approx(math.e, abs=1e-12)

    def test_beyond_target(self):
        assert length_penalty(9, 8, 1.0) == 1.0
        assert length_penalty(80, 8, 2.5) == 1.0

    def test_too_large_for_a_float_is_inf(self):
        assert length_penalty(1, 50_000_000, 1.0) == math.inf
        assert length_penalty(1, 1000, 1.0) == math.inf
        assert length_penalty(2, 1000, 1.0) == pytest.approx(math.exp(499.0), rel=1e-12)
        assert length_penalty(1, 50_000_000, 0.0) == 1.0

    def test_no_strictness_is_no_penalty_at_any_target(self):
        # 10**400 / l is too large for a float, but exp(0 * x) is 1
        assert length_penalty(1, 10**400, 0.0) == 1.0
        assert length_penalty(1, 10**400, 1.0) == math.inf

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

    def test_default_upper_bound_in_integers(self):
        # the float form math.floor(t * 1.5) gives the same bound wherever
        # it works, and raised OverflowError for a target beyond a float
        for t in [*range(1, 2000), 2**53 + 1, 2**60 + 3, 10**300]:
            assert default_upper_bound(t) == min(t + 5, math.floor(t * 1.5))
        assert default_upper_bound(10**400) == 10**400 + 5
        assert LcConfig(target_length=10**400).upper_bound == 10**400 + 5

    def test_override(self):
        assert LcConfig(target_length=10, upper_bound=11).upper_bound == 11

    def test_validation(self):
        with pytest.raises(ValueError):
            LcConfig(target_length=0)
        with pytest.raises(ValueError):
            LcConfig(target_length=5, edge_prune_threshold=0.0)

    @pytest.mark.parametrize("field", ("target_length", "upper_bound"))
    @pytest.mark.parametrize("value", (8.0, 8.5, True))
    def test_lengths_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            LcConfig(**{"target_length": 8, field: value})

    @pytest.mark.parametrize("field", ("strictness", "edge_prune_threshold"))
    @pytest.mark.parametrize("value", (True, False, "0.5", None, [0.5]))
    def test_weights_must_be_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            LcConfig(**{"target_length": 5, field: value})

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


def finite_entries(first: list[int], rows: list[list[float]]) -> dict[tuple[int, int], float]:
    """{(state, l): delta(state, l)} over the finite entries of the dense rows."""
    return {
        (s, first[s] + i): c
        for s, row in enumerate(rows)
        for i, c in enumerate(row)
        if math.isfinite(c)
    }


def length_rows(w: Wfsa, cfg: LcConfig):
    """(start, finals, pruned arcs, first lengths, cost rows) of the length
    search over w, in the numbering the search gives its states."""
    start, pruned, first, rows = _length_rows(w, cfg)
    return start, _acceptor_arcs(w)[2], pruned, first, rows


def search_arc(arc: Arc) -> tuple[float, int, int]:
    """The search's (weight, label, dst) form of an acceptor arc."""
    return (arc.weight, arc.label, arc.dst)


def assert_matches_memo_search(w: Wfsa, cfg: LcConfig) -> None:
    ref = MemoLengthSearch(w, cfg)
    assert length_cost_table(w, cfg) == ref.table()
    # every finite (state, l) the memo visited, with the arc that starts it
    finite = {key: c for key, c in ref.delta.items() if math.isfinite(c)}
    _, _, pruned, first, rows = length_rows(w, cfg)
    assert {key: c for key, c in finite_entries(first, rows).items() if key[1] > 0} == finite
    assert {key: _best_arc(pruned, first, rows, *key) for key in finite} == {
        key: search_arc(ref.parent[key]) for key in finite
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
        # 1e308 + 1e308 is inf: state 2's row starts with it, and the
        # bound leaves state 1 only that entry of it
        overflowing = Wfsa(num_states=7, start=0, finals={6})
        for src, weight, dst in ((0, 0.5, 2), (0, 0.5, 1), (1, 0.5, 2), (2, 1e308, 3),
                                 (3, 1e308, 6), (2, 0.1, 4), (4, 0.1, 5), (5, 0.1, 6)):
            overflowing.add_arc(src, dst, weight, dst)
        for w in (single_final, single, no_finals, too_long, backward, overflowing):
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


def hole_wfsa() -> Wfsa:
    """Paths of length 1 (cost 2.0) and 4 (cost 0.4) only: the start row
    has a hole at lengths 2 and 3."""
    w = Wfsa(num_states=5, start=0, finals={4})
    w.add_arc(0, 1, 2.0, 4)
    w.add_arc(0, 2, 0.1, 1)
    w.add_arc(1, 3, 0.1, 2)
    w.add_arc(2, 4, 0.1, 3)
    w.add_arc(3, 5, 0.1, 4)
    return w


class TestDenseRows:
    """Rows are contiguous lists from their first finite length, inf only in
    real gaps, and match the memoized search entry for entry."""

    def test_hole_between_finite_lengths(self):
        w = hole_wfsa()
        cfg = LcConfig(target_length=4, edge_prune_threshold=1.0, upper_bound=6)
        _, _, _, first, rows = length_rows(w, cfg)
        assert first[0] == 1
        assert rows[0][1:3] == [math.inf, math.inf] and len(rows[0]) == 4
        assert set(length_cost_table(w, cfg)) == {1, 4}
        assert_matches_memo_search(w, cfg)

    def test_bound_that_cuts_a_row_inside_its_hole(self):
        # H (state 2) has lengths 1 and 4. U (state 1) sits as deep as H,
        # so the bound keeps H's lengths 1-3 for U: the cut ends in the
        # hole, and U's row must end at its last finite entry.
        w = Wfsa(num_states=7, start=0, finals={6})
        w.add_arc(0, 1, 0.5, 2)
        w.add_arc(0, 2, 0.5, 1)
        w.add_arc(1, 3, 0.5, 2)
        w.add_arc(2, 4, 2.0, 6)
        for i, s in enumerate((2, 3, 4, 5)):
            w.add_arc(s, 5 + i, 0.1, s + 1)
        cfg = LcConfig(target_length=5, edge_prune_threshold=1.0, upper_bound=5)
        _, _, _, first, rows = length_rows(w, cfg)
        assert (first[2], rows[2][1:3]) == (1, [math.inf, math.inf])
        assert (first[1], rows[1]) == (2, [2.5])
        assert first[0] == 2 and rows[0][2] == math.inf and len(rows[0]) == 4
        assert_matches_memo_search(w, cfg)

    def test_merge_extends_a_row_left_and_right(self):
        # Out of 0, in pruned order: A (lengths 2, 3), then B (length 1),
        # then C (length 4). Seen from 0 the first row covers 3-4, B
        # extends it left to 2 and C extends it right to 5.
        w = Wfsa(num_states=11, start=0, finals={10})
        w.add_arc(0, 1, 0.1, 1)  # A
        w.add_arc(1, 2, 0.1, 2)
        w.add_arc(2, 3, 0.1, 10)
        w.add_arc(1, 4, 0.2, 3)
        w.add_arc(3, 5, 0.1, 4)
        w.add_arc(4, 6, 0.1, 10)
        w.add_arc(0, 7, 0.2, 5)  # B
        w.add_arc(5, 8, 0.5, 10)
        w.add_arc(0, 9, 0.3, 6)  # C
        w.add_arc(6, 1, 0.1, 7)
        w.add_arc(7, 2, 0.1, 8)
        w.add_arc(8, 3, 0.1, 9)
        w.add_arc(9, 4, 0.1, 10)
        cfg = LcConfig(target_length=5, strictness=3.0, edge_prune_threshold=1.0, upper_bound=7)
        _, _, _, first, rows = length_rows(w, cfg)
        assert (first[1], first[5], first[6]) == (2, 1, 4)
        assert first[0] == 2 and len(rows[0]) == 4 and all(map(math.isfinite, rows[0]))
        assert_matches_memo_search(w, cfg)
        assert dfs_viterbi(w, cfg).tokens == (9, 1, 2, 3, 4)

    @pytest.mark.parametrize("threshold", (0.7, 1.0))
    def test_final_states_with_out_arcs(self, threshold):
        # 0 and 1 are final and both go on; 2 is not final, so from 1 the
        # lengths are 0 and 2 and from 0 they are 0, 1 and 3
        w = Wfsa(num_states=4, start=0, finals={0, 1, 3})
        w.add_arc(0, 1, 0.5, 1)
        w.add_arc(1, 2, 0.25, 2)
        w.add_arc(2, 3, 0.25, 3)
        cfg = LcConfig(target_length=3, edge_prune_threshold=threshold)
        _, _, _, first, rows = length_rows(w, cfg)
        assert (first[1], rows[1]) == (0, [0.0, math.inf, 0.5])
        assert (first[0], rows[0]) == (0, [0.0, 0.5, math.inf, 1.0])
        assert length_cost_table(w, cfg) == {1: 0.5, 3: 1.0}
        assert dfs_viterbi(w, cfg).tokens == (1, 2, 3)
        assert_matches_memo_search(w, cfg)

    def test_upper_bound_below_the_shortest_path(self):
        w = linear_acceptor((3, 1, 4, 1, 5), weight=0.2)
        cfg = LcConfig(target_length=3, edge_prune_threshold=1.0, upper_bound=4)
        start, _, _, _, rows = length_rows(w, cfg)
        assert rows[start] == []
        assert length_cost_table(w, cfg) == {}
        r = dfs_viterbi(w, cfg)
        assert r.status == STATUS_INFEASIBLE and "5 tokens" in r.note
        assert_matches_memo_search(w, cfg)

    def test_candidate_scan_reads_only_finite_start_row_entries(self, monkeypatch):
        calls = []

        def counting_penalty(l, target_length, strictness):
            calls.append(l)
            return length_penalty(l, target_length, strictness)

        monkeypatch.setattr(length_module, "length_penalty", counting_penalty)
        w = hole_wfsa()
        w.finals.add(0)  # a zero-length entry is no candidate either
        r = dfs_viterbi(w, LcConfig(target_length=4, edge_prune_threshold=1.0,
                                    upper_bound=10**9))
        assert calls == [1, 4]
        assert r.tokens == (2, 3, 4, 5)


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


def _outcome(make):
    """What `make` returns, or the message of the ValueError it raises."""
    try:
        return make()
    except ValueError as exc:
        return ("ValueError", str(exc))


class TestLengthSearchOnPrunedLattice:
    """`dfs_viterbi` and `length_cost_table` on the pruned `Dag` itself,
    against the same calls on the acceptor `dag_to_wfsa` makes of it."""

    @staticmethod
    def draw(seed: int) -> tuple[Dag, PruneConfig, LcConfig]:
        rng = random.Random(seed)
        if seed % 10 < 5:
            dag, cfg = random_constrained_lattice(rng, rng.choice((3, 4)))
        else:
            if seed % 10 < 9:  # tie-heavy, some vertices without emissions
                dag, phrases = uniform_lattice(rng)
            else:  # local windows: 6 emissions, so phrases force some
                dag, phrases = window_lattice(seed, gold_tokens=rng.randint(9, 16))
            cfg = PruneConfig(k_e=rng.randint(1, 4), k_t=rng.randint(1, 4), constraints=phrases)
        if dag.num_vertices > 1 and rng.random() < 0.2:
            dag = dead_end(dag, rng.randrange(dag.num_vertices - 1))
        if rng.random() < 0.05:
            dag = overflowing(dag, rng.randrange(dag.num_vertices))
        n = dag.num_vertices
        lc = LcConfig(
            target_length=rng.randint(1, n + 2) if rng.random() < 0.95 else 10**6,
            strictness=rng.choice((0.0, 1.0, 3.0)),
            edge_prune_threshold=rng.choice((0.7, 1.0)),
            upper_bound=rng.choice((None, rng.randint(1, max(1, n // 3)), rng.randint(1, n + 2))),
        )
        return dag, cfg, lc

    def test_same_result_or_error_as_the_lattice_acceptor(self):
        # outcomes, and the infeasible notes by their first words
        seen = dict.fromkeys(("ok", "error", "forced", "no accepting path with",
                              "no accepting path of", "no candidate length"), 0)
        for seed in range(2000):
            dag, cfg, lc = self.draw(seed)
            pruned = prune_dag(dag, cfg)
            got = _outcome(lambda: dfs_viterbi(pruned, lc))
            want = _outcome(lambda: dfs_viterbi(dag_to_wfsa(dag, cfg), lc))
            assert got == want, seed
            assert _outcome(lambda: length_cost_table(pruned, lc)) == _outcome(
                lambda: length_cost_table(dag_to_wfsa(dag, cfg), lc)
            ), seed
            if isinstance(got, tuple):
                seen["error"] += 1
            elif got.status == STATUS_OK:
                seen["ok"] += 1
            else:
                seen[next(key for key in seen if got.note.startswith(key))] += 1
            seen["forced"] += any(len(row) > cfg.k_e for row in pruned.emissions)
        assert min(seen.values()) >= 20, seen

    def test_rows_out_of_order_are_checked_in_full(self):
        # a row out of order with a bad middle pair, neither the first nor
        # the last: the Dag itself rejects it, so no search can read it
        with pytest.raises(DagFormatError,
                           match=r"^vertex 0: emission probability > 0 in log space \(0.5\)$"):
            Dag(num_vertices=2, emissions=(((0, -1.0), (1, 0.5), (2, -2.0)), ((2, 0.0),)),
                transitions=(((1, -0.1),), ()))

    def test_unknown_target_is_the_converters_error(self):
        with pytest.raises(DagFormatError,
                           match=r"^vertex 0: dangling vertex index 2 \(num_vertices=2\)$"):
            Dag(num_vertices=2, emissions=(((0, -0.5),), ((1, 0.0),)),
                transitions=(((1, -0.1), (2, -0.2)), ()))

    def test_weight_ties_are_cut_in_label_order(self):
        # out of 0, token 0 to vertex 2 and token 1 to vertex 1 both weigh
        # -log(0.24): in (weight, label, dst) order the mass cut at 0.5
        # keeps 0 -> 2, the only arc that makes length 2
        more, less = math.log(0.6), math.log(0.4)
        dag = Dag(num_vertices=4,
                  emissions=(((0, more), (1, less)), ((6, 0.0),), ((7, 0.0),), ((8, 0.0),)),
                  transitions=(((1, more), (2, less)), ((2, 0.0),), ((3, 0.0),), ()))
        lc = LcConfig(target_length=2, edge_prune_threshold=0.5)
        want = length_cost_table(dag_to_wfsa(dag, PruneConfig(k_e=2, k_t=2)), lc)
        assert want == {2: -(more + less) + 0.0, 3: -(more + more) + 0.0}
        assert length_cost_table(dag, lc) == want

    def test_backward_transitions_are_renumbered_as_the_acceptor(self):
        # 2 -> 1 goes backward: the paths are 0 -> 2 -> 1 -> 3 and 0 -> 3.
        # A Dag cannot hold such a transition, so this is the acceptor a
        # lattice with one would make, arc by arc.
        emissions = (((5, -0.1), (6, -0.2)), ((7, 0.0),), ((8, -0.3),), ((9, 0.0),))
        transitions = (((2, -0.1), (3, -0.5)), ((3, 0.0),), ((1, 0.0),), ())
        w = Wfsa(num_states=4, start=0, finals={3})
        for u, (em, tr) in enumerate(zip(emissions, transitions)):
            for token, elp in em:
                for v, tlp in tr:
                    w.add_arc(u, token, -(elp + tlp) + 0.0, v)
        results = set()
        for threshold in (0.7, 1.0):
            for upper in (1, 2, 3, 5):
                lc = LcConfig(target_length=3, edge_prune_threshold=threshold, upper_bound=upper)
                want = dfs_viterbi(topological_sort(w), lc)
                assert dfs_viterbi(w, lc) == want
                results.add(want.tokens)
        assert results == {(5,), (5, 8, 7)}


def hex_search(start, pruned, first, rows):
    """The search's start, pruned arcs, first lengths and rows, with every
    float as `float.hex`, so equal means bit-identical."""
    return (start, [[(w.hex(), label, dst) for w, label, dst in row] for row in pruned], first,
            [[c.hex() for c in row] for row in rows])


def assert_matches_the_sweep(lattice: Dag | Wfsa, cfg: LcConfig) -> None:
    """`_length_rows` equals `reference_length_rows` bit for bit, or both
    raise the same ValueError."""
    try:
        want = reference_length_rows(lattice, cfg)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            _length_rows(lattice, cfg)
        return
    assert hex_search(*_length_rows(lattice, cfg)) == hex_search(*want)


_THRESHOLDS = st.sampled_from((0.7, 1.0))
# 1e308 + 1e308 is inf: a row entry past two such arcs overflows
_TIE_WEIGHTS = st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0, 1e308))


@st.composite
def fan_acceptor(draw) -> Wfsa:
    """A start with 4-6 successors (heads) that join a spine of 2-6 states
    ending at the final. A spine state skips to the final now and then,
    so its row has holes, and the start enters the spine now and then, so
    a spine state sits shallower than a head that joins it and the bound
    cuts its row, sometimes inside a hole, where the head merges it. A
    spine state is final now and then, so some finals have out-arcs."""
    heads, spine = draw(st.integers(4, 6)), draw(st.integers(2, 6))
    final = heads + spine + 1
    w = Wfsa(num_states=final + 1, start=0, finals={final})

    def arc(src: int, dst: int) -> None:
        w.add_arc(src, draw(st.integers(0, 2)), draw(_TIE_WEIGHTS), dst)

    for h in range(1, heads + 1):
        arc(0, h)
        for _ in range(draw(st.integers(1, 2))):
            arc(h, draw(st.integers(heads + 1, final)))
    for s in range(heads + 1, final):
        arc(s, s + 1)
        if draw(st.booleans()):
            arc(s, final)
        if draw(st.integers(0, 2)) == 0:
            arc(0, s)
        if draw(st.integers(0, 5)) == 0:
            w.finals.add(s)
    return w


class TestTwoPassesMatchTheSweep:
    """The forward pass and the all-successors backward pass give the
    pruned arcs, first lengths and rows of the one-arc-at-a-time sweep
    they replaced (`reference_length_rows`), bit for bit."""

    @given(st.integers(0, 10**6), st.integers(1, 4), st.integers(9, 16), _THRESHOLDS,
           st.booleans(), st.integers(0, 24))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_window_lattices(self, seed, k, gold_tokens, threshold, forced, upper):
        dag, phrases = window_lattice(seed, gold_tokens=gold_tokens)
        pruned = prune_dag(dag, PruneConfig(k_e=k, k_t=k, constraints=phrases if forced else ()))
        # upper 0 keeps the default bound; a small one cuts rows
        cfg = LcConfig(target_length=gold_tokens, edge_prune_threshold=threshold,
                       upper_bound=upper or None)
        assert_matches_the_sweep(pruned, cfg)

    @given(st.integers(0, 10**9), _THRESHOLDS, st.integers(1, 10))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_tie_prone_acceptors(self, seed, threshold, upper):
        cfg = LcConfig(target_length=4, edge_prune_threshold=threshold, upper_bound=upper)
        assert_matches_the_sweep(tie_prone_acceptor(seed), cfg)

    @given(fan_acceptor(), _THRESHOLDS, st.integers(1, 8))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_four_or_more_successors_with_holes_and_overflow(self, w, threshold, upper):
        cfg = LcConfig(target_length=4, edge_prune_threshold=threshold, upper_bound=upper)
        assert_matches_the_sweep(w, cfg)
        if threshold == 1.0:
            assert len(_length_rows(w, cfg)[1][0]) >= 4

    @pytest.mark.parametrize("search", (dfs_viterbi, length_cost_table))
    def test_overflow_at_an_unreached_vertex_is_still_refused(self, search):
        # vertex 2 is kept but no path reaches it: 0 -> 1 -> 3 only
        dag = Dag(num_vertices=4,
                  emissions=(((0, 0.0),), ((1, 0.0),), ((2, -1.7e308),), ((3, 0.0),)),
                  transitions=(((1, 0.0),), ((3, 0.0),), ((3, -1.7e308),), ()))
        with pytest.raises(ValueError, match=r"^arc weight inf is not a finite cost >= 0$"):
            search(dag, LcConfig(target_length=2))


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

    def test_overflowed_penalty_loses_to_a_finite_one(self):
        # length 1 costs 0.0 but its penalty exp(999) overflows, so it is no
        # candidate; the length-3 path wins with a finite adjusted cost
        w = Wfsa(num_states=4, start=0, finals={3})
        w.add_arc(0, 1, 0.0, 3)
        w.add_arc(0, 2, 0.5, 1)
        w.add_arc(1, 3, 0.5, 2)
        w.add_arc(2, 4, 0.5, 3)
        r = dfs_viterbi(w, LcConfig(target_length=1000, edge_prune_threshold=1.0, upper_bound=5))
        assert r.status == STATUS_OK
        assert r.tokens == (2, 3, 4)
        assert r.adjusted_cost == length_penalty(3, 1000, 1.0) * 1.5 < math.inf

    @pytest.mark.parametrize("target, weight", ((50_000_000, 0.5), (701, 1e5)))
    def test_no_finite_adjusted_cost_is_infeasible(self, target, weight):
        # exp(5e7) overflows; exp(700) is finite but times 1e5 it is not
        r = dfs_viterbi(linear_acceptor((7,), weight=weight), LcConfig(target_length=target))
        assert r.status == STATUS_INFEASIBLE
        assert "finite length-penalized cost" in r.note and "\n" not in r.note

    def test_rejects_epsilon_arcs(self):
        w = Wfsa(num_states=2, start=0, finals={1})
        w.add_arc(0, EPSILON, 0.1, 1)
        with pytest.raises(ValueError, match="epsilon"):
            dfs_viterbi(w, LcConfig(target_length=2))

    @pytest.mark.parametrize("search", (dfs_viterbi, length_cost_table))
    def test_rejects_sigma_arcs(self, search):
        # the sigma label is no token: shortest_path refuses it as well
        w = Wfsa(num_states=2, start=0, finals={1})
        w.add_arc(0, SIGMA, 0.5, 1)
        with pytest.raises(ValueError, match=r"^cannot decode a path through a sigma arc$"):
            search(w, LcConfig(target_length=1))

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
            _, finals, pruned, first, rows = length_rows(w, cfg)
            # dense rows: inf only inside a row, never at either end
            assert all(math.isfinite(row[0]) and math.isfinite(row[-1]) for row in rows if row)
            assert all(0 <= first[s] and first[s] + len(row) - 1 <= upper
                       for s, row in enumerate(rows) if row)
            entries = finite_entries(first, rows)
            assert {s for s, l in entries if l == 0} <= finals
            assert sum(1 for _, l in entries if l > 0) <= cfg.upper_bound * w.num_states
            ref = MemoLengthSearch(w, cfg)
            ref.table()
            assert {key: _best_arc(pruned, first, rows, *key) for key in entries if key[1] > 0} == {
                key: search_arc(ref.parent[key]) for key in entries if key[1] > 0
            }

    def test_deep_search_does_not_overflow(self):
        w = linear_acceptor(tuple(i % 3 for i in range(1500)), weight=0.001)
        cfg = LcConfig(target_length=1500, upper_bound=1500)
        r = dfs_viterbi(w, cfg)
        assert r.status == STATUS_OK
        assert len(r.tokens) == 1500
