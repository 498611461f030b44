"""Lattice model: parsing, validation, pruning, forced emission, synthesis."""

from __future__ import annotations

import enum
import json
import math
import os
import random
import re
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dagdec import dag as dag_module
from dagdec.constraints import ConstraintPhrase
from dagdec.dag import (
    Dag,
    DagFormatError,
    PruneConfig,
    dump_dag,
    generate_synthetic_dag,
    load_dag,
    prune_dag,
    read_pruned_dag,
)

from .lattices import build_dag, uniform_lattice, window_lattice
from .oracles import (
    emission_logprob,
    force_emit,
    reference_dag_rows,
    reference_load_dag,
    reference_prune_dag,
)


def doc(num_vertices, vertices, version=1):
    return json.dumps({"version": version, "num_vertices": num_vertices, "vertices": vertices})


class TestLoadDag:
    def test_identity_two_vertex(self):
        src = doc(2, [
            {"emissions": [[5, 0.0]], "transitions": [[1, 0.0]]},
            {"emissions": [], "transitions": []},
        ])
        dag = load_dag(src)
        assert dag.num_vertices == 2
        assert dag.emissions[0] == ((5, 0.0),)
        assert dag.transitions[0] == ((1, 0.0),)

    def test_backward_edge_rejected(self):
        src = doc(4, [
            {"emissions": [[0, 0.0]], "transitions": [[1, 0.0]]},
            {"emissions": [[0, 0.0]], "transitions": [[2, 0.0]]},
            {"emissions": [[0, 0.0]], "transitions": []},
            {"emissions": [[0, 0.0]], "transitions": [[2, 0.0]]},
        ])
        with pytest.raises(DagFormatError, match="vertex 3: backward edge 3->2"):
            load_dag(src)

    def test_backward_edge_message(self):
        src = doc(4, [
            {"emissions": [[0, 0.0]], "transitions": [[3, 0.0]]},
            {"emissions": [[0, 0.0]], "transitions": []},
            {"emissions": [[0, 0.0]], "transitions": [[1, -0.1]]},
            {"emissions": [[0, 0.0]], "transitions": []},
        ])
        with pytest.raises(DagFormatError, match="vertex 2: backward edge"):
            load_dag(src)

    def test_self_edge_rejected(self):
        src = doc(2, [
            {"emissions": [[0, 0.0]], "transitions": [[0, 0.0]]},
            {"emissions": [], "transitions": []},
        ])
        with pytest.raises(DagFormatError, match="backward edge"):
            load_dag(src)

    def test_positive_log_probability_rejected(self):
        src = doc(2, [
            {"emissions": [[0, 0.25]], "transitions": [[1, 0.0]]},
            {"emissions": [], "transitions": []},
        ])
        with pytest.raises(DagFormatError, match="probability > 0 in log space"):
            load_dag(src)

    @pytest.mark.parametrize("kind", ("emission", "transition"))
    @pytest.mark.parametrize("logp", ('"-0.5"', "false", "true", "null", '"-inf"', "-1e999",
                                      "-Infinity", "NaN", "[-0.5]",
                                      pytest.param("-1" + "0" * 400, id="huge-int")))
    def test_log_probability_must_be_a_finite_json_number(self, kind, logp):
        em = f"[[0, {logp}]]" if kind == "emission" else "[[0, 0.0]]"
        tr = f"[[1, {logp}]]" if kind == "transition" else "[[1, 0.0]]"
        src = ('{"version": 1, "num_vertices": 2, "vertices": ['
               f'{{"emissions": {em}, "transitions": {tr}}}, '
               '{"emissions": [], "transitions": []}]}')
        with pytest.raises(DagFormatError, match=f"vertex 0: {kind} log-probability"):
            load_dag(src)

    @pytest.mark.parametrize("key", ("emissions", "transitions"))
    @pytest.mark.parametrize("value", (5, "5", {"0": -0.5}, None),
                             ids=("number", "string", "object", "null"))
    def test_pair_list_must_be_a_json_list(self, key, value):
        vertex = {"emissions": [[0, 0.0]], "transitions": [[1, 0.0]], key: value}
        src = doc(2, [vertex, {"emissions": [], "transitions": []}])
        with pytest.raises(DagFormatError, match=f"^vertex 0: {key} must be a list$"):
            load_dag(src)

    def test_integer_log_probability_accepted(self):
        dag = load_dag(doc(2, [
            {"emissions": [[0, 0]], "transitions": [[1, -1]]},
            {"emissions": [], "transitions": []},
        ]))
        assert dag.emissions[0] == ((0, 0.0),)
        assert dag.transitions[0] == ((1, -1.0),)
        assert isinstance(dag.transitions[0][0][1], float)

    def test_dangling_vertex_rejected(self):
        src = doc(2, [
            {"emissions": [[0, 0.0]], "transitions": [[7, 0.0]]},
            {"emissions": [], "transitions": []},
        ])
        with pytest.raises(DagFormatError, match="vertex 0: dangling vertex index 7"):
            load_dag(src)

    def test_final_vertex_with_outgoing_rejected(self):
        src = doc(2, [
            {"emissions": [[0, 0.0]], "transitions": [[1, 0.0]]},
            {"emissions": [], "transitions": [[1, 0.0]]},
        ])
        with pytest.raises(DagFormatError, match="vertex 1: backward edge 1->1"):
            load_dag(src)

    def test_malformed_json(self):
        with pytest.raises(DagFormatError, match="malformed JSON"):
            load_dag(b"{nope")

    @pytest.mark.parametrize("header, message", [
        ({"version": True, "num_vertices": 1}, "unsupported version True"),
        ({"version": 1, "num_vertices": True}, "num_vertices must be a positive integer"),
    ], ids=("version", "num_vertices"))
    def test_boolean_header_rejected(self, header, message):
        src = json.dumps({**header, "vertices": [{}]})
        with pytest.raises(DagFormatError, match=f"^{message}$"):
            load_dag(src)

    def test_missing_version(self):
        with pytest.raises(DagFormatError, match="version"):
            load_dag(json.dumps({"num_vertices": 1, "vertices": [{}]}))

    def test_tiny4_fixture_sums(self, tiny4_path):
        with open(tiny4_path, encoding="utf-8") as fh:
            dag = load_dag(fh.read())
        assert dag.num_vertices == 4
        assert all(len(dag.emissions[u]) == 2 for u in range(4))
        for u in range(4):
            esum = sum(math.exp(lp) for _, lp in dag.emissions[u])
            assert abs(esum - 1.0) <= 1e-6
            if u != dag.final_vertex:
                tsum = sum(math.exp(lp) for _, lp in dag.transitions[u])
                assert abs(tsum - 1.0) <= 1e-6

    def test_lists_sorted_by_descending_probability(self):
        src = doc(2, [
            {"emissions": [[3, -2.0], [1, -0.5], [2, -0.5]], "transitions": [[1, 0.0]]},
            {"emissions": [], "transitions": []},
        ])
        dag = load_dag(src)
        assert [t for t, _ in dag.emissions[0]] == [1, 2, 3]  # tie broken by id

    def test_well_formed_entries_never_reach_the_error_helper(self, monkeypatch, tiny4_path):
        calls = []
        helper = dag_module._odd_entry

        def counted(*args):
            calls.append(args)
            return helper(*args)

        monkeypatch.setattr(dag_module, "_odd_entry", counted)
        with open(tiny4_path, encoding="utf-8") as fh:
            load_dag(fh.read())
        load_dag(dump_dag(generate_synthetic_dag(3, 40, 4, 3, 0.5)))
        assert calls == []
        load_dag(doc(1, [{"emissions": [[0, 0]]}]))  # an int log-prob takes the helper
        assert len(calls) == 1


_EM = (((0, -0.5),), ((1, 0.0),))
_TR = (((1, -0.1),), ())


class TestDagConstructor:
    """A hand-built `Dag` keeps the rule `load_dag` applies, in its words."""

    @pytest.mark.parametrize("num_vertices, emissions, transitions, message", [
        # a bad pair in the middle of a row out of order
        (2, (((0, -1.0), (1, 0.5), (2, -2.0)), ((2, 0.0),)), _TR,
         "vertex 0: emission probability > 0 in log space (0.5)"),
        # a NaN between two good ends of a row
        (2, (((1, -1.0), (0, math.nan), (2, -2.0)), ((3, 0.0),)), (((1, -0.5),), ()),
         "vertex 0: emission log-probability nan is not a finite float"),
        (2, _EM, (((1, math.inf),), ()), "vertex 0: transition probability > 0 in log space (inf)"),
        (2, (((0, -0.5),), ((1, -math.inf),)), _TR,
         "vertex 1: emission log-probability -inf is not a finite float"),
        (2, (((0, -0.5), (0, -0.7)), ((1, 0.0),)), _TR, "vertex 0: duplicate emission token 0"),
        (3, (((0, 0.0),),) * 3, (((1, -0.5), (1, -0.7)), ((2, 0.0),), ()),
         "vertex 0: duplicate transition target 1"),
        (2, (((-1, -0.5),), ((1, 0.0),)), _TR, "vertex 0: negative token id -1"),
        (2, _EM, (((1, -0.1),), ((0, 0.0),)), "vertex 1: backward edge 1->0"),
        (2, _EM, (((1, -0.1), (2, -0.2)), ()),
         "vertex 0: dangling vertex index 2 (num_vertices=2)"),
        (2, _EM, (((True, 0.0),), ()), "vertex 0: transition index must be an integer"),
        (2, ((0, -0.5), ((1, 0.0),)), _TR,
         "vertex 0: emission entry must be a [index, logprob] pair"),
        (2, (5, ()), _TR, "vertex 0: emissions must be a list"),
        (2, _EM[:1], _TR, "emissions must be a list of one row per vertex (2)"),
        (2, _EM, _TR + ((),), "transitions must be a list of one row per vertex (2)"),
        (0, (), (), "num_vertices must be a positive integer"),
        (True, _EM[:1], _TR[:1], "num_vertices must be a positive integer"),
        # two-item iterables that are not lists or tuples
        (2, (({0: None, -0.5: None},), ((1, 0.0),)), _TR,
         "vertex 0: emission entry must be a [index, logprob] pair"),
        (2, (({0, -0.5},), ((1, 0.0),)), _TR,
         "vertex 0: emission entry must be a [index, logprob] pair"),
        (2, (((x for x in (2, -0.1)),), ((1, 0.0),)), _TR,
         "vertex 0: emission entry must be a [index, logprob] pair"),
    ])
    def test_bad_rows_are_rejected(self, num_vertices, emissions, transitions, message):
        with pytest.raises(DagFormatError, match=f"^{re.escape(message)}$"):
            Dag(num_vertices=num_vertices, emissions=emissions, transitions=transitions)

    def test_rows_are_ordered_as_the_loader_orders_them(self):
        rows = [[[3, -2.0], [1, -0.5], [2, -0.5], [0, 0]], []], [[[1, -1]], []]
        dag = Dag(2, *rows)
        assert dag.emissions == (((0, 0.0), (1, -0.5), (2, -0.5), (3, -2.0)), ())
        assert dag.transitions == (((1, -1.0),), ())
        assert type(dag.emissions[0][0][1]) is float
        src = doc(2, [{"emissions": em, "transitions": tr} for em, tr in zip(*rows)])
        assert dag == load_dag(src) and dump_dag(dag) == dump_dag(load_dag(src))


class TestRoundTrip:
    def test_value_round_trip(self):
        dag = generate_synthetic_dag(seed=11, num_vertices=7, emission_degree=3,
                                     transition_degree=2, concentration=0.6)
        assert load_dag(dump_dag(dag)) == dag

    def test_bit_exact_round_trip(self):
        dag = generate_synthetic_dag(seed=12, num_vertices=9, emission_degree=2,
                                     transition_degree=3, concentration=0.4)
        blob = dump_dag(dag)
        assert dump_dag(load_dag(blob)) == blob

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, seed):
        dag = generate_synthetic_dag(seed=seed, num_vertices=5, emission_degree=2,
                                     transition_degree=2, concentration=0.7)
        assert load_dag(dump_dag(dag)) == dag


class TestPrune:
    def test_top_k_emissions(self):
        dag = build_dag(
            emission_probs=[[(0, 0.6), (1, 0.3), (2, 0.1)], [(9, 1.0)]],
            transition_probs=[[(1, 1.0)], []],
        )
        pruned = prune_dag(dag, PruneConfig(k_e=2, k_t=1))
        assert {t for t, _ in pruned.emissions[0]} == {0, 1}

    def test_force_emit_keeps_constraint_continuation(self):
        # Vertex 1 emits (a=0.6, b=0.3, c=0.1); predecessor vertex 0 keeps b.
        dag = build_dag(
            emission_probs=[
                [(1, 0.9), (5, 0.1)],
                [(0, 0.6), (1, 0.3), (2, 0.1)],
                [(9, 1.0)],
            ],
            transition_probs=[[(1, 1.0)], [(2, 1.0)], []],
        )
        phrase = ConstraintPhrase(tokens=(1, 2))
        pruned = prune_dag(dag, PruneConfig(k_e=2, k_t=1, constraints=(phrase,)))
        assert {t for t, _ in pruned.emissions[1]} == {0, 1, 2}
        # the forced token keeps its original raw log-probability
        assert emission_logprob(pruned, 1, 2) == pytest.approx(math.log(0.1))

    @pytest.mark.parametrize("field", ("k_e", "k_t"))
    @pytest.mark.parametrize("value", (2.0, 2.5, True))
    def test_degrees_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PruneConfig(**{"k_e": 2, "k_t": 2, field: value})

    def test_noop_thresholds_identity(self):
        dag = generate_synthetic_dag(seed=4, num_vertices=8, emission_degree=3,
                                     transition_degree=3, concentration=0.6)
        assert prune_dag(dag, PruneConfig(k_e=8, k_t=8)) == dag

    @given(st.integers(min_value=0, max_value=5_000),
           st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, seed, k_e, k_t):
        dag = generate_synthetic_dag(seed=seed, num_vertices=7, emission_degree=4,
                                     transition_degree=3, concentration=0.6,
                                     vocab_size=12)
        phrase = ConstraintPhrase(tokens=(1, 2, 3))
        cfg = PruneConfig(k_e=k_e, k_t=k_t, constraints=(phrase,))
        once = prune_dag(dag, cfg)
        assert prune_dag(once, cfg) == once

    @given(st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=60, deadline=None)
    def test_degree_bounds(self, seed):
        dag = generate_synthetic_dag(seed=seed, num_vertices=8, emission_degree=4,
                                     transition_degree=4, concentration=0.6,
                                     vocab_size=10)
        phrases = (ConstraintPhrase(tokens=(0, 1)), ConstraintPhrase(tokens=(2, 3, 4)))
        cfg = PruneConfig(k_e=2, k_t=2, constraints=phrases)
        pruned = prune_dag(dag, cfg)
        total_constraint_tokens = sum(len(p) for p in phrases)
        for u in range(pruned.num_vertices):
            assert len(pruned.emissions[u]) <= cfg.k_e + total_constraint_tokens
            assert len(pruned.transitions[u]) <= cfg.k_t

    def test_force_emit_closure(self):
        # Wherever a kept predecessor chain emits a phrase prefix, the next
        # phrase token (if the lattice can emit it at all) is kept.
        for seed in range(25):
            dag = generate_synthetic_dag(seed=seed, num_vertices=9, emission_degree=3,
                                         transition_degree=2, concentration=0.8,
                                         vocab_size=6)
            phrase = ConstraintPhrase(tokens=(0, 1, 2))
            cfg = PruneConfig(k_e=1, k_t=2, constraints=(phrase,))
            pruned = prune_dag(dag, cfg)
            preds = [set() for _ in range(dag.num_vertices)]
            for u in range(dag.num_vertices):
                for v, _ in pruned.transitions[u]:
                    preds[v].add(u)
            for u in range(dag.num_vertices):
                for j in range(len(phrase.tokens) - 1):
                    if any(phrase.tokens[j] in {t for t, _ in pruned.emissions[v]}
                           for v in preds[u]):
                        nxt = phrase.tokens[j + 1]
                        if math.isfinite(emission_logprob(dag, u, nxt)):
                            assert nxt in {t for t, _ in pruned.emissions[u]}


class TestForceEmit:
    def test_no_constraints(self):
        assert force_emit(1, [], [set(), set()], [set(), {0}]) == set()

    def test_predecessor_match_forces_next(self):
        phrase = ConstraintPhrase(tokens=(7, 8, 9))
        kept = [{7}, set()]
        preds = [set(), {0}]
        assert force_emit(1, [phrase], kept, preds) == {8}

    def test_final_phrase_token_not_forced(self):
        phrase = ConstraintPhrase(tokens=(7, 8))
        kept = [{8}, set()]
        preds = [set(), {0}]
        assert force_emit(1, [phrase], kept, preds) == set()


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic_dag(seed=1, num_vertices=10, emission_degree=3,
                                   transition_degree=3, concentration=0.6)
        b = generate_synthetic_dag(seed=1, num_vertices=10, emission_degree=3,
                                   transition_degree=3, concentration=0.6)
        assert a == b

    def test_two_vertices_forced_edge(self):
        # only one legal structure: 0 -> 1 with probability 1
        dag = generate_synthetic_dag(seed=5, num_vertices=2, emission_degree=2,
                                     transition_degree=1, concentration=0.6)
        assert dag.transitions[0] == ((1, 0.0),)

    def test_degree_exceeds_feasible(self):
        with pytest.raises(ValueError, match="exceeds feasible"):
            generate_synthetic_dag(seed=0, num_vertices=3, emission_degree=2,
                                   transition_degree=5, concentration=0.6)
        with pytest.raises(ValueError, match="exceeds vocabulary"):
            generate_synthetic_dag(seed=0, num_vertices=3, emission_degree=50,
                                   transition_degree=2, concentration=0.6, vocab_size=8)

    def test_invariants_hold(self):
        for seed in range(30):
            dag = generate_synthetic_dag(seed=seed, num_vertices=12, emission_degree=3,
                                         transition_degree=3, concentration=0.6)
            # every unpruned row is a distribution, except the final vertex's
            # empty transition row
            for u in range(dag.num_vertices):
                rows = [dag.emissions[u]]
                if u != dag.final_vertex:
                    rows.append(dag.transitions[u])
                for row in rows:
                    assert math.fsum(math.exp(lp) for _, lp in row) == pytest.approx(1.0, abs=1e-6)
                for v, _ in dag.transitions[u]:
                    assert v > u
            assert dag.transitions[dag.final_vertex] == ()

    @pytest.mark.parametrize("concentration", [math.nan, math.inf, 1e308, 0.0, -1.0])
    def test_concentration_must_be_positive_and_finite(self, concentration):
        # random.gammavariate loops forever once 2 * concentration overflows
        with pytest.raises(ValueError, match="concentration"):
            generate_synthetic_dag(seed=0, num_vertices=4, emission_degree=3,
                                   transition_degree=2, concentration=concentration)

    def test_largest_concentration_is_a_flat_lattice(self):
        # the bound leaves room for the Dirichlet normalizer's sum of 3 draws
        dag = generate_synthetic_dag(seed=0, num_vertices=4, emission_degree=3,
                                     transition_degree=2, concentration=sys.float_info.max / 6)
        for lp in (lp for row in dag.emissions for _, lp in row):
            assert lp == pytest.approx(math.log(1 / 3))
        with pytest.raises(ValueError, match="concentration"):
            generate_synthetic_dag(seed=0, num_vertices=4, emission_degree=3,
                                   transition_degree=2,
                                   concentration=math.nextafter(sys.float_info.max / 6, math.inf))

    def test_sparsity_calibration(self):
        # Mean transitions with probability > 0.2 matches trained-lattice
        # sparsity; averaged over 1000 lattices at the calibrated default.
        total = vertices = 0
        for seed in range(1000):
            dag = generate_synthetic_dag(seed=seed + 7, num_vertices=16,
                                         emission_degree=3, transition_degree=3,
                                         concentration=0.6)
            for u in range(dag.num_vertices - 1):
                total += sum(1 for _, lp in dag.transitions[u] if math.exp(lp) > 0.2)
                vertices += 1
        mean = total / vertices
        assert 1.4 <= mean <= 2.0


class TestDuplicateEntries:
    def test_duplicate_emission_token_rejected(self):
        src = doc(2, [
            {"emissions": [[5, -0.5], [5, -1.0]], "transitions": [[1, 0.0]]},
            {"emissions": [], "transitions": []},
        ])
        with pytest.raises(DagFormatError, match="duplicate emission token 5"):
            load_dag(src)

    def test_duplicate_transition_target_rejected(self):
        src = doc(3, [
            {"emissions": [[0, 0.0]], "transitions": [[1, -0.5], [1, -1.0]]},
            {"emissions": [[0, 0.0]], "transitions": [[2, 0.0]]},
            {"emissions": [], "transitions": []},
        ])
        with pytest.raises(DagFormatError, match="duplicate transition target 1"):
            load_dag(src)

    def test_fixture_builder_rejects_duplicates(self):
        with pytest.raises(ValueError, match="vertex 0: duplicate emission token 5"):
            build_dag([[(5, 0.5), (5, 0.5)], []], [[(1, 1.0)], []])
        with pytest.raises(ValueError, match="vertex 1: duplicate transition target 2"):
            build_dag([[(0, 1.0)], [(0, 1.0)], []],
                      [[(1, 1.0)], [(2, 0.5), (2, 0.5)], []])


# Log-probs for generated rows: ties, both zeros, integers and tiny or huge
# magnitudes, so rows come in order, tied or out of order.
_LOGPROBS = st.sampled_from((0.0, -0.0, 0, -1, -0.5, -1.25, -3.0, -1e-300, -1.7e308)) | st.floats(
    min_value=-6.0, max_value=0.0
)

_MUTATIONS = (
    "bool index", "bool log-prob", "string log-prob", "nan", "-inf", "huge int", "positive",
    "negative id", "duplicate", "backward", "dangling", "final transition", "non-list pair",
    "1-item pair", "3-item pair", "pairs not a list", "vertex not an object", "missing key",
)


@st.composite
def lattice_documents(draw):
    """A valid lattice document, its rows sorted, shuffled or as drawn, and
    in about half the draws one field of it broken."""
    n = draw(st.integers(min_value=1, max_value=6))
    vertices = []
    for u in range(n):
        vertex = {}
        for key, ids in (
            ("emissions", st.integers(min_value=0, max_value=9)),
            ("transitions", st.integers(min_value=u + 1, max_value=max(u + 1, n - 1))),
        ):
            indices = [] if key == "transitions" and u == n - 1 else draw(
                st.lists(ids, unique=True, max_size=5)
            )
            pairs = [[i, draw(_LOGPROBS)] for i in indices]
            order = draw(st.sampled_from(("sorted", "shuffled", "drawn")))
            if order == "sorted":
                pairs.sort(key=lambda p: (-p[1], p[0]))
            elif order == "shuffled":
                pairs = draw(st.permutations(pairs))
            vertex[key] = pairs
        vertices.append(vertex)
    mutation = draw(st.none() | st.sampled_from(_MUTATIONS))
    if mutation is not None:
        _mutate(draw, vertices, n, mutation)
    return json.dumps({"version": 1, "num_vertices": n, "vertices": vertices})


def _mutate(draw, vertices, n, mutation):
    u = draw(st.integers(min_value=0, max_value=n - 1))
    vertex = vertices[u]
    key = draw(st.sampled_from(("emissions", "transitions")))
    if mutation == "pairs not a list":
        vertex[key] = draw(st.sampled_from((5, "ab", {"0": -0.5}, None)))
        return
    if mutation == "vertex not an object":
        vertices[u] = [vertex.get("emissions", [])]
        return
    if mutation == "missing key":
        del vertex[key]
        return
    if mutation == "backward":
        vertex["transitions"].append([draw(st.integers(min_value=0, max_value=u)), -0.5])
        return
    if mutation == "dangling":
        vertex["transitions"].append([n + draw(st.integers(min_value=0, max_value=3)), -0.5])
        return
    if mutation == "final transition":
        vertices[-1]["transitions"].append([n - 1, -0.5])
        return
    if not vertex[key]:
        key = "emissions"
        vertex[key].append([0, -0.5])
    pairs = vertex[key]
    j = draw(st.integers(min_value=0, max_value=len(pairs) - 1))
    if mutation == "bool index":
        pairs[j][0] = draw(st.booleans())
    elif mutation == "bool log-prob":
        pairs[j][1] = draw(st.booleans())
    elif mutation == "string log-prob":
        pairs[j][1] = "-0.5"
    elif mutation == "nan":
        pairs[j][1] = math.nan
    elif mutation == "-inf":
        pairs[j][1] = -math.inf
    elif mutation == "huge int":
        pairs[j][1] = -(10**400)
    elif mutation == "positive":
        pairs[j][1] = 0.25
    elif mutation == "negative id":
        pairs[j][0] = -1
    elif mutation == "duplicate":
        pairs.append([pairs[j][0], -4.0])
    elif mutation == "non-list pair":
        pairs[j] = draw(st.sampled_from((5, "ab", {"a": 1}, None)))
    elif mutation == "1-item pair":
        pairs[j] = pairs[j][:1]
    elif mutation == "3-item pair":
        pairs[j] = pairs[j] + [0]


def _load_outcome(load, src):
    try:
        dag = load(src)
    except DagFormatError as exc:
        return "error", str(exc)
    return "ok", dag, dump_dag(dag)


class TestAgainstReference:
    """The one-pass loader and the forward prune against the pair-by-pair
    reader and the per-vertex `force_emit` prune they replaced."""

    @given(lattice_documents())
    @settings(max_examples=600, deadline=None)
    def test_loader_matches_reference(self, src):
        # dump_dag tells -0.0 from 0.0, which Dag equality does not
        assert _load_outcome(load_dag, src) == _load_outcome(reference_load_dag, src)

    @given(st.integers(min_value=0, max_value=10**6), st.booleans(),
           st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
    @settings(max_examples=400, deadline=None)
    def test_prune_matches_reference(self, seed, ties, k_e, k_t):
        rng = random.Random(seed)
        if ties:
            dag, phrases = uniform_lattice(rng)
        else:
            n = rng.randint(2, 12)
            dag = generate_synthetic_dag(seed, n, rng.randint(1, 6), rng.randint(1, n - 1),
                                         0.6, vocab_size=8)
            phrases = tuple(
                ConstraintPhrase(tokens=tuple(rng.choices(range(8), k=rng.randint(1, 3))))
                for _ in range(rng.randint(0, 2))
            )
        phrases += tuple(_planted_below_top_k(rng, dag, k_e, k_t) for _ in range(2))
        cfg = PruneConfig(k_e=k_e, k_t=k_t, constraints=phrases)
        assert prune_dag(dag, cfg) == reference_prune_dag(dag, cfg)


    @given(lattice_documents())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_constructor_applies_the_loaders_rule(self, src):
        vertices = json.loads(src)["vertices"]
        assume(all(isinstance(vertex, dict) for vertex in vertices))

        def construct(_):
            return Dag(len(vertices), [vertex.get("emissions", []) for vertex in vertices],
                       [vertex.get("transitions", []) for vertex in vertices])

        assert _load_outcome(construct, src) == _load_outcome(load_dag, src)


class _Pair(tuple):
    """A pair of a tuple subclass."""


class _LogProb(float):
    """A log-prob of a float subclass."""


_Index = enum.IntEnum("_Index", [(f"I{k}", k) for k in range(10)])

# Entries that JSON cannot express. Each maker builds a fresh object, so
# that the constructor and the oracle each read a generator of their own.
_ODD_ENTRIES = {
    "tuple subclass": lambda i, lp: _Pair((i, lp)),
    "int-subclass index": lambda i, lp: (_Index(i), lp),
    "float-subclass log-prob": lambda i, lp: [i, _LogProb(lp)],
    "dict": lambda i, lp: {i: None, lp: None},
    "set": lambda i, lp: {i, lp},
    "generator": lambda i, lp: (x for x in (i, lp)),
    # one entry that breaks two rules, whichever its index and log-prob
    "two rules": lambda i, lp: (True, 0.5),
    "duplicate and positive": lambda i, lp: (i, 0.5),
    "negative and NaN": lambda i, lp: [-1, math.nan],
    "dangling and -inf": lambda i, lp: (99, -math.inf),
}
_NOT_A_PAIR = {"dict", "set", "generator"}


@st.composite
def hand_built_rows(draw):
    """(num_vertices, the odd entry's kind or None, row specs) for a
    hand-built `Dag`: each row spec is (tuple row?, [(maker, index,
    log-prob), ...]), with list and tuple pairs and at most one odd entry."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for u in range(n):
        targets = st.integers(min_value=u + 1, max_value=n - 1) if u < n - 1 else None
        for ids in (st.integers(min_value=0, max_value=9), targets):
            indices = draw(st.lists(ids, unique=True, max_size=4)) if ids is not None else []
            pair = draw(st.sampled_from(("list", "tuple")))
            rows.append((draw(st.booleans()), [(pair, i, draw(_LOGPROBS)) for i in indices]))
    odd = draw(st.none() | st.sampled_from(sorted(_ODD_ENTRIES)))
    candidates = [entries for _, entries in rows if entries]
    if odd is not None and candidates:
        entries = draw(st.sampled_from(candidates))
        j = draw(st.integers(min_value=0, max_value=len(entries) - 1))
        _, i, lp = entries[j]
        if odd == "duplicate and positive":
            i = entries[j - 1][1]  # the entry before it, or the last one
        entries[j] = (odd, i, lp)
    else:
        odd = None
    return n, odd, rows


def _build_rows(rows):
    """Fresh emissions and transitions of the row specs, as lists or tuples."""
    makers = {"list": lambda i, lp: [i, lp], "tuple": lambda i, lp: (i, lp), **_ODD_ENTRIES}
    built = [
        (tuple if as_tuple else list)(makers[maker](i, lp) for maker, i, lp in entries)
        for as_tuple, entries in rows
    ]
    return built[0::2], tuple(built[1::2])


def _rows_outcome(read, n, rows):
    try:
        emissions, transitions = read(n, *_build_rows(rows))
    except DagFormatError as exc:
        return "error", str(exc)
    return "ok", repr((emissions, transitions))


def _constructed_rows(n, emissions, transitions):
    dag = Dag(n, emissions, transitions)
    assert all(type(lp) is float for row in dag.emissions + dag.transitions for _, lp in row)
    return dag.emissions, dag.transitions


class TestHandBuiltRows:
    """`Dag(...)` on entries JSON cannot express, against the oracle's
    entry-by-entry reader."""

    @given(hand_built_rows())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_constructor_matches_the_reference(self, case):
        n, odd, rows = case
        got = _rows_outcome(_constructed_rows, n, rows)
        assert got == _rows_outcome(reference_dag_rows, n, rows)
        if odd in _NOT_A_PAIR:
            assert got[0] == "error" and got[1].endswith("entry must be a [index, logprob] pair")


def _planted_below_top_k(rng, dag, k_e, k_t):
    """A phrase along kept transitions whose tokens after the first sit
    below the top k_e at their vertex wherever the lattice allows it."""
    u = rng.randrange(dag.num_vertices)
    tokens = [rng.choice(dag.emissions[u])[0]] if dag.emissions[u] else [0]
    while len(tokens) < 4 and dag.transitions[u][:k_t]:
        u = rng.choice(dag.transitions[u][:k_t])[0]
        row = dag.emissions[u][k_e:] or dag.emissions[u]
        if not row:
            break
        tokens.append(rng.choice(row)[0])
    return ConstraintPhrase(tokens=tuple(tokens))


def _read_pruned_text(src, cfg, num_tokens):
    """`read_pruned_dag` of a document given as text or bytes."""
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "lattice.json")
        with open(path, "wb") as fh:
            fh.write(src if isinstance(src, bytes) else src.encode("utf-8"))
        return read_pruned_dag(path, cfg, num_tokens)


class TestLoadDagThroughThePrunedReader(TestLoadDag):
    """Every `TestLoadDag` test again, with `load_dag` read through
    `read_pruned_dag` under degrees that keep every entry and a token bound
    past every id, so each document gives the same lattice or error."""

    @pytest.fixture(autouse=True)
    def _pruned_reader(self, monkeypatch):
        keep_all = PruneConfig(k_e=10**6, k_t=10**6)
        read = lambda src: _read_pruned_text(src, keep_all, 10**6)  # noqa: E731
        monkeypatch.setitem(globals(), "load_dag", read)


@st.composite
def pruned_reads(draw):
    """(lattice, prune config, token bound, the lattice's document): a
    tie-heavy, `synth` or benchmark-shaped lattice, degrees from 1 to past
    its longest row, phrases of its tokens plus two planted below the top
    k_e so that some are forced, and each document row listed sorted or
    shuffled."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    kind = draw(st.sampled_from(("ties", "synth", "window")))
    if kind == "ties":
        dag, _ = uniform_lattice(rng)
    elif kind == "synth":
        n = rng.randint(2, 16)
        dag = generate_synthetic_dag(seed, n, rng.randint(1, 6), rng.randint(1, min(4, n - 1)),
                                     0.6, vocab_size=8)
    else:
        dag, _ = window_lattice(seed, gold_tokens=rng.randint(9, 14))
    longest = max(len(row) for row in dag.emissions + dag.transitions)
    k_e, k_t = (draw(st.integers(min_value=1, max_value=longest + 1)) for _ in range(2))
    tokens = sorted({t for row in dag.emissions for t, _ in row}) or [0]
    phrases = tuple(ConstraintPhrase(tokens=tuple(toks)) for toks in draw(
        st.lists(st.lists(st.sampled_from(tokens), min_size=1, max_size=3), max_size=3)
    ))
    phrases += tuple(_planted_below_top_k(rng, dag, k_e, k_t) for _ in range(2))
    document = json.loads(dump_dag(dag))
    for vertex in document["vertices"]:
        for key in ("emissions", "transitions"):
            if rng.random() < 0.5:
                rng.shuffle(vertex[key])
    bound = tokens[-1] + 1 + draw(st.integers(min_value=0, max_value=2))
    return dag, PruneConfig(k_e=k_e, k_t=k_t, constraints=phrases), bound, json.dumps(document)


class TestReadPrunedDag:
    """`read_pruned_dag` against `prune_dag` of the loaded lattice, and
    against `load_dag` on bad documents."""

    @given(pruned_reads())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_equals_prune_dag_bit_for_bit(self, case):
        dag, cfg, bound, src = case
        got = _read_pruned_text(src, cfg, bound)
        want = prune_dag(dag, cfg)
        assert got == want
        assert dump_dag(got) == dump_dag(want)  # tells -0.0 from 0.0

    @given(lattice_documents(), st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=6),
           st.lists(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=3),
                    max_size=2))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_same_lattice_or_error_as_the_loader(self, src, k_e, k_t, phrases):
        # lattice_documents emits ids 0-9, so a bound of 10 refuses none
        cfg = PruneConfig(k_e=k_e, k_t=k_t,
                          constraints=tuple(ConstraintPhrase(tokens=tuple(p)) for p in phrases))
        want = _load_outcome(lambda text: prune_dag(load_dag(text), cfg), src)
        assert _load_outcome(lambda text: _read_pruned_text(text, cfg, 10), src) == want


_KEEP_ALL = PruneConfig(k_e=8, k_t=8)


class TestTokenBound:
    """`read_pruned_dag` refuses an emission id past the token table with a
    plain `ValueError`, after every format check of the entry and in
    vertex order among the lattice's faults."""

    def test_token_past_the_table_is_a_plain_value_error(self):
        src = doc(2, [
            {"emissions": [[0, -0.5], [4, -1.0]], "transitions": [[1, 0.0]]},
            {"emissions": [[3, 0.0]], "transitions": []},
        ])
        assert _read_pruned_text(src, _KEEP_ALL, 5) == load_dag(src)
        with pytest.raises(ValueError) as caught:
            _read_pruned_text(src, _KEEP_ALL, 4)
        assert type(caught.value) is ValueError
        assert str(caught.value) == "vertex 0: token id 4 is outside the token table (4 tokens)"

    @pytest.mark.parametrize("entry", ("[9]", "[9, -0.5, 0]", "[9.0, -0.5]", "[true, -0.5]",
                                       '[9, "-0.5"]', "[9, 0.5]", "[9, NaN]", "[9, -1e999]"))
    def test_format_checks_of_an_entry_come_first(self, entry):
        src = ('{"version": 1, "num_vertices": 1, "vertices": '
               f'[{{"emissions": [[0, 0.0], {entry}]}}]}}')
        with pytest.raises(DagFormatError) as want:
            load_dag(src)
        with pytest.raises(DagFormatError, match=f"^{re.escape(str(want.value))}$"):
            _read_pruned_text(src, _KEEP_ALL, 1)

    def test_first_fault_in_vertex_order_wins(self):
        document = json.loads(dump_dag(generate_synthetic_dag(3, 12, 3, 3, 0.6)))
        document["vertices"][3]["emissions"][0][0] = 40
        document["vertices"][9]["emissions"][1][1] = math.nan
        src = json.dumps(document)
        with pytest.raises(DagFormatError, match="^vertex 9: emission log-probability nan"):
            load_dag(src)
        message = "^vertex 3: token id 40 is outside the token table \\(34 tokens\\)$"
        with pytest.raises(ValueError, match=message):
            _read_pruned_text(src, _KEEP_ALL, 34)
