"""End-to-end command-line behavior: decode modes, batch, tooling commands."""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import sys
import tempfile
import threading
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dagdec.length as length_module
from dagdec import cli
from dagdec.cli import (
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    DecodeJob,
    _add_decode_args,
    _job_from_args,
    _job_from_manifest,
    main,
    run_decode,
)
from dagdec.constraints import constrained_product
from dagdec.dag import PruneConfig, dump_dag, generate_synthetic_dag, prune_dag, read_dag, write_dag
from dagdec.length import default_upper_bound, length_penalty
from dagdec.tokens import TokenTable, read_token_table, write_token_table
from dagdec.wfsa import dag_to_wfsa, shortest_path

from .lattices import (
    build_dag,
    control_fixture,
    plant_phrases,
    random_constrained_lattice,
    tiny4,
    toy_table,
    vocab_fixture,
)
from .oracles import contains_subsequence, enumerate_dag_paths


def phrase_surface(table, tokens):
    return " ".join(table.surface(t).lstrip(table.sow_mark) for t in tokens)


@pytest.fixture()
def workspace(tmp_path):
    """tiny4 lattice + a toy table wide enough for its token ids."""
    dag_path = tmp_path / "tiny4.json"
    write_dag(tiny4(), str(dag_path))
    table = toy_table(10)
    table_path = tmp_path / "toy.table"
    write_token_table(table, str(table_path))
    return tmp_path, str(dag_path), str(table_path), table


def write_constraints(tmp_path, entries):
    path = tmp_path / "constraints.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
    return str(path)


def write_lexicon(tmp_path, words):
    path = tmp_path / "lexicon.txt"
    path.write_text("".join(w + "\n" for w in words), encoding="utf-8")
    return str(path)


class TestDecodeModes:
    def test_wfsa_shortest_is_thin_binding(self, workspace):
        tmp_path, dag_path, table_path, table = workspace
        job = DecodeJob(dag_path=dag_path, table_path=table_path,
                        mode="wfsa-shortest", k_e=2, k_t=2)
        got = run_decode(job)
        lib = shortest_path(dag_to_wfsa(tiny4(), PruneConfig(k_e=2, k_t=2)))
        assert got.tokens == lib.tokens
        assert got.cost == pytest.approx(lib.cost, abs=1e-12)
        assert got.text == table.detokenize(lib.tokens)
        assert got.extra["wall_time_s"] >= 0.0

    def test_hlc_contains_phrase(self, workspace):
        tmp_path, dag_path, table_path, table = workspace
        # plant the less likely bigram (1, 3): emissions at vertices 0 and 1
        surface = phrase_surface(table, (1, 3))
        cons = write_constraints(tmp_path, [{"phrases": [surface]}])
        job = DecodeJob(dag_path=dag_path, table_path=table_path, mode="hlc",
                        constraints_path=cons, k_e=2, k_t=2)
        got = run_decode(job)
        assert got.status == "ok"
        assert contains_subsequence(got.tokens, (1, 3))
        assert got.constraints_met == (True,)
        assert surface in got.text

    def test_hlc_unreachable_phrase_empty_intersection(self, workspace):
        tmp_path, dag_path, table_path, table = workspace
        cons = write_constraints(tmp_path, [{"phrases": [phrase_surface(table, (9, 9))]}])
        job = DecodeJob(dag_path=dag_path, table_path=table_path, mode="hlc",
                        constraints_path=cons, k_e=2, k_t=2)
        got = run_decode(job)
        assert got.status == "empty_intersection"

    def test_greedy_and_beam_and_cbs(self, workspace):
        tmp_path, dag_path, table_path, table = workspace
        for mode in ("greedy", "beam", "cbs-dag"):
            cons = None
            if mode == "cbs-dag":
                cons = write_constraints(tmp_path, [{"phrases": [phrase_surface(table, (3,))]}])
            job = DecodeJob(dag_path=dag_path, table_path=table_path, mode=mode,
                            constraints_path=cons, k_e=2, k_t=2, beam=3)
            got = run_decode(job)
            assert got.status == "ok"
            assert got.tokens

    def test_vc_mode_stays_in_lexicon(self, tmp_path):
        dag, table, lexicon, lex_ids = vocab_fixture(seed=5)
        dag_path = tmp_path / "vc.json"
        write_dag(dag, str(dag_path))
        table_path = tmp_path / "vc.table"
        write_token_table(table, str(table_path))
        lex_path = write_lexicon(tmp_path, lexicon)
        job = DecodeJob(dag_path=str(dag_path), table_path=str(table_path),
                        mode="vc", lexicon_path=lex_path, k_e=2, k_t=2)
        got = run_decode(job)
        assert got.status == "ok"
        assert all(t in lex_ids for t in got.tokens)

    def test_lc_mode_respects_upper_bound(self, workspace):
        tmp_path, dag_path, table_path, table = workspace
        job = DecodeJob(dag_path=dag_path, table_path=table_path, mode="lc",
                        target_length=3, k_e=2, k_t=2, edge_prune_threshold=1.0)
        got = run_decode(job)
        assert got.status == "ok"
        assert 1 <= len(got.tokens) <= 4  # min(3+5, floor(4.5)) = 4
        assert got.adjusted_cost is not None

    def test_control_dag_composite(self, tmp_path):
        dag, table, lexicon, phrases, target = control_fixture(seed=3)
        dag_path = tmp_path / "c.json"
        write_dag(dag, str(dag_path))
        table_path = tmp_path / "c.table"
        write_token_table(table, str(table_path))
        lex_path = write_lexicon(tmp_path, lexicon)
        cons = write_constraints(tmp_path, [{"phrases": phrases, "entities": phrases}])
        job = DecodeJob(dag_path=str(dag_path), table_path=str(table_path),
                        mode="control-dag", constraints_path=cons,
                        lexicon_path=lex_path, target_length=target,
                        k_e=2, k_t=2, edge_prune_threshold=1.0)
        got = run_decode(job)
        assert got.status == "ok"
        for surface in phrases:
            assert surface in got.text
        assert all(got.constraints_met)

    def test_predictor_resolves_target(self, workspace, tmp_path):
        _, dag_path, table_path, _ = workspace
        pred_path = tmp_path / "pred.txt"
        pred_path.write_text("0.5\n1.9\n", encoding="utf-8")
        job = DecodeJob(dag_path=dag_path, table_path=table_path, mode="lc",
                        predictor_path=str(pred_path), input_length=2,
                        k_e=2, k_t=2)
        got = run_decode(job)  # target ceil(0.5*2+1.9) = 3
        assert got.status == "ok"

    def test_job_validation(self, workspace):
        _, dag_path, table_path, _ = workspace
        with pytest.raises(ValueError, match="requires a constraint file"):
            run_decode(DecodeJob(dag_path=dag_path, table_path=table_path, mode="hlc"))
        with pytest.raises(ValueError, match="requires a lexicon"):
            run_decode(DecodeJob(dag_path=dag_path, table_path=table_path, mode="vc"))
        with pytest.raises(ValueError, match="--target-len or --len-predictor"):
            run_decode(DecodeJob(dag_path=dag_path, table_path=table_path, mode="lc"))
        with pytest.raises(ValueError, match="unknown mode"):
            run_decode(DecodeJob(dag_path=dag_path, table_path=table_path, mode="nope"))

    def test_descriptor_as_a_path_is_one_value_error_and_stays_open(self, workspace):
        _, dag_path, table_path, _ = workspace
        fd = os.open(dag_path, os.O_RDONLY)
        try:
            with pytest.raises(ValueError, match=rf"^dag_path must be a path string, got {fd}$"):
                run_decode(DecodeJob(dag_path=fd, table_path=table_path, mode="greedy"))
            os.fstat(fd)  # raises EBADF once the descriptor is closed
        finally:
            os.close(fd)

    @pytest.mark.parametrize(
        "field, value, wanted",
        [
            ("table_path", b"toy.table", "a path string"),
            ("lexicon_path", 3, "a path string or None"),
            ("constraint_line", 0.0, "an integer"),
            ("k_e", True, "an integer"),
            ("beam", "4", "an integer"),
            ("target_length", 3.5, "an integer or None"),
            ("upper_bound", False, "an integer or None"),
            ("strictness", "1.0", "a number"),
            ("edge_prune_threshold", True, "a number"),
            ("edge_prune_threshold", None, "a number"),
        ],
    )
    def test_value_of_the_wrong_kind_is_one_value_error(self, workspace, field, value, wanted):
        _, dag_path, table_path, _ = workspace
        fields = dict(dag_path=dag_path, table_path=table_path, mode="greedy")
        job = DecodeJob(**dict(fields, **{field: value}))
        with pytest.raises(ValueError) as err:
            run_decode(job)
        assert str(err.value) == f"{field} must be {wanted}, got {value!r}"

    def test_numbers_of_every_accepted_kind_decode(self, workspace):
        _, dag_path, table_path, _ = workspace
        job = DecodeJob(dag_path=dag_path, table_path=table_path, mode="lc",
                        target_length=3, upper_bound=None, strictness=1,
                        edge_prune_threshold=1.0, k_e=2, k_t=2)
        assert run_decode(job).status == "ok"


class TestConstrainedModesSearchThePrunedLattice:
    """hlc, vc and control-dag intersect the pruned lattice directly and
    never build its acceptor."""

    @pytest.mark.parametrize("mode", ("hlc", "vc", "control-dag"))
    def test_decodes_without_the_lattice_acceptor(self, tmp_path, monkeypatch, mode):
        jobs = []
        for seed in range(4):
            dag, table, lexicon, phrases, target = control_fixture(seed=seed)
            folder = tmp_path / str(seed)
            folder.mkdir()
            write_dag(dag, str(folder / "c.json"))
            write_token_table(table, str(folder / "c.table"))
            jobs.append(DecodeJob(
                dag_path=str(folder / "c.json"), table_path=str(folder / "c.table"), mode=mode,
                constraints_path=write_constraints(folder, [{"phrases": phrases,
                                                             "entities": phrases}]),
                lexicon_path=write_lexicon(folder, lexicon), target_length=target,
                k_e=2, k_t=2, edge_prune_threshold=1.0,
            ))

        want = [run_decode(job) for job in jobs]  # results compare without `extra`

        def refuse(*args):
            raise AssertionError("a constrained decode built the lattice acceptor")

        monkeypatch.setattr(cli, "_lattice_acceptor", refuse)
        got = [run_decode(job) for job in jobs]
        assert all(result.status == "ok" for result in got)
        assert got == want


class TestLengthModesSearchThePrunedLattice:
    """lc, and control-dag without phrases or a lexicon, search the pruned
    lattice directly and never build its acceptor."""

    @pytest.mark.parametrize("mode", ("lc", "control-dag"))
    def test_decodes_without_the_lattice_acceptor(self, tmp_path, monkeypatch, mode):
        jobs = []
        for seed in range(6):
            dag, table, _, _, target = control_fixture(seed=seed)
            folder = tmp_path / str(seed)
            folder.mkdir()
            write_dag(dag, str(folder / "c.json"))
            write_token_table(table, str(folder / "c.table"))
            jobs.append(DecodeJob(
                dag_path=str(folder / "c.json"), table_path=str(folder / "c.table"), mode=mode,
                target_length=target + seed % 3 - 1, k_e=2, k_t=2,
                edge_prune_threshold=(0.7, 1.0)[seed % 2],
            ))

        want = [run_decode(job) for job in jobs]  # results compare without `extra`

        def refuse(*args):
            raise AssertionError("a length-constrained decode built the lattice acceptor")

        monkeypatch.setattr(cli, "_lattice_acceptor", refuse)
        monkeypatch.setattr(length_module, "_lattice_acceptor", refuse)
        got = [run_decode(job) for job in jobs]
        assert all(result.status == "ok" for result in got)
        assert got == want


class TestPhrasesShapeOnlyTheModesThatEnforceThem:
    """A constraint file's phrases force emissions in pruning only for
    `hlc`, `control-dag` and `cbs-dag`."""

    @pytest.mark.parametrize("mode", ("vc", "lc", "wfsa-shortest", "beam"))
    def test_decode_is_the_same_without_the_phrases(self, tmp_path, mode):
        # at --ke 1 vertex 1 keeps only w001, unless the phrase forces w002
        dag = build_dag(
            emission_probs=[[(0, 1.0)], [(1, 0.9), (2, 0.1)], [(3, 1.0)]],
            transition_probs=[[(1, 0.9), (2, 0.1)], [(2, 1.0)], []],
        )
        write_dag(dag, str(tmp_path / "d.json"))
        write_token_table(toy_table(4), str(tmp_path / "t.table"))
        lexicon = write_lexicon(tmp_path, ["w000", "w002", "w003"])

        def decode(phrases):
            path = tmp_path / "c.jsonl"
            path.write_text(json.dumps({"phrases": phrases}) + "\n", encoding="utf-8")
            job = DecodeJob(dag_path=str(tmp_path / "d.json"),
                            table_path=str(tmp_path / "t.table"), mode=mode,
                            constraints_path=str(path), lexicon_path=lexicon,
                            target_length=2, k_e=1, k_t=1)
            result = run_decode(job)
            return result.status, result.tokens, result.cost

        assert decode(["w000 w002"]) == decode([])


class TestEmptyIntersectionNote:
    """An empty product names the first constraint that alone empties it:
    each phrase in turn, then the vocabulary. tiny4 pruned at k=2 spells
    [0|1][2|3][4|5], [0|1][2|3] and [0|1][4|5]."""

    @staticmethod
    def decode(workspace, mode, phrases, lexicon=None, target_length=None):
        tmp_path, dag_path, table_path, table = workspace
        cons = write_constraints(
            tmp_path, [{"phrases": [phrase_surface(table, p) for p in phrases]}]
        )
        lex = None if lexicon is None else write_lexicon(
            tmp_path, [phrase_surface(table, (t,)) for t in lexicon]
        )
        return run_decode(DecodeJob(dag_path=dag_path, table_path=table_path, mode=mode,
                                    constraints_path=cons, lexicon_path=lex,
                                    target_length=target_length, k_e=2, k_t=2))

    def test_names_the_phrase_that_cannot_appear(self, workspace):
        got = self.decode(workspace, "hlc", [(0, 2), (2, 0)])
        assert got.status == "empty_intersection"
        assert got.note == "phrase 1 ('w002 w000') cannot appear in the pruned lattice"

    def test_phrases_feasible_alone_but_not_together(self, workspace):
        got = self.decode(workspace, "hlc", [(0,), (1,)])
        assert got.status == "empty_intersection"
        assert got.note == "no path of the pruned lattice meets every constraint together"

    def test_names_the_vocabulary(self, workspace):
        got = self.decode(workspace, "vc", [], lexicon=(0, 1))
        assert got.status == "empty_intersection"
        assert got.note == "no path of the pruned lattice stays inside the vocabulary"

    def test_phrase_before_vocabulary(self, workspace):
        got = self.decode(workspace, "control-dag", [(3, 2)], lexicon=(0,), target_length=3)
        assert got.note == "phrase 0 ('w003 w002') cannot appear in the pruned lattice"

    def test_phrase_and_vocabulary_feasible_alone(self, workspace):
        got = self.decode(workspace, "control-dag", [(0,)], lexicon=(1, 2, 3, 4, 5),
                          target_length=3)
        assert got.status == "empty_intersection"
        assert got.note == "no path of the pruned lattice meets every constraint together"

    def test_lattice_without_a_path(self, workspace):
        tmp_path, _, table_path, table = workspace
        dag_path = tmp_path / "dead_end.json"  # vertex 1 has no way on to vertex 2
        write_dag(build_dag([[(0, 1.0)], [(1, 1.0)], [(2, 1.0)]], [[(1, 1.0)], [], []]),
                  str(dag_path))
        cons = write_constraints(tmp_path, [{"phrases": [phrase_surface(table, (0,))]}])
        got = run_decode(DecodeJob(dag_path=str(dag_path), table_path=table_path, mode="hlc",
                                   constraints_path=cons))
        assert got.status == "empty_intersection"
        assert got.note == "the pruned lattice has no accepting path"

    def test_phrase_that_completes_only_into_a_dead_end(self, workspace):
        tmp_path, _, table_path, table = workspace
        dag_path = tmp_path / "dead_branch.json"  # 0 -> 1 -> 4 spells w000 w001;
        # 0 -> 2 -> 3 spells w000 w002, but vertex 3 has no way on to vertex 4
        write_dag(build_dag([[(0, 1.0)], [(1, 1.0)], [(2, 1.0)], [(3, 1.0)], [(4, 1.0)]],
                            [[(1, 0.5), (2, 0.5)], [(4, 1.0)], [(3, 1.0)], [], []]),
                  str(dag_path))
        cons = write_constraints(tmp_path, [{"phrases": [phrase_surface(table, (0, 2))]}])
        got = run_decode(DecodeJob(dag_path=str(dag_path), table_path=table_path, mode="hlc",
                                   constraints_path=cons))
        assert got.status == "empty_intersection"
        assert got.note == "phrase 0 ('w000 w002') cannot appear in the pruned lattice"

    def test_the_note_builds_no_product_per_phrase(self, workspace, monkeypatch):
        from dagdec import cli

        calls = []

        def counting(*args):
            calls.append(args)
            return constrained_product(*args)

        monkeypatch.setattr(cli, "constrained_product", counting)
        got = self.decode(workspace, "hlc", [(0,), (1,), (2,), (4,)])
        assert got.note == "no path of the pruned lattice meets every constraint together"
        assert len(calls) == 2  # the decode's, and the one without constraints

    def test_success_builds_one_product(self, workspace, monkeypatch):
        from dagdec import cli

        calls = []

        def counting(*args):
            calls.append(args)
            return constrained_product(*args)

        monkeypatch.setattr(cli, "constrained_product", counting)
        got = self.decode(workspace, "control-dag", [(0, 2)], lexicon=(0, 2, 4),
                          target_length=3)
        assert got.status == "ok" and got.tokens == (0, 2, 4)
        assert len(calls) == 1


class TestDecodeMatchesEnumeration:
    """run_decode, end to end, against every path of the pruned lattice."""

    @staticmethod
    def assert_optimal(got, paths, score):
        """got is ok, its cost is its cheapest path's, and score is minimal."""
        assert got.status == "ok"
        own = [c for t, c in paths if t == got.tokens]
        assert own and math.isclose(got.cost, min(own), abs_tol=1e-9)
        best = min(score(t, c) for t, c in paths)
        assert math.isclose(score(got.tokens, got.cost), best, abs_tol=1e-9)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=80, deadline=None)
    def test_shortest_hlc_and_lc(self, seed):
        rng = random.Random(seed)
        dag, cfg = random_constrained_lattice(rng, vocab_size=4)
        k_e, k_t, phrases = cfg.k_e, cfg.k_t, cfg.constraints
        table = toy_table(4)
        target = rng.randint(1, 6)
        with tempfile.TemporaryDirectory() as tmp:
            dag_path = os.path.join(tmp, "dag.json")
            table_path = os.path.join(tmp, "toy.table")
            cons = os.path.join(tmp, "constraints.jsonl")
            write_dag(dag, dag_path)
            write_token_table(table, table_path)
            surfaces = [phrase_surface(table, p.tokens) for p in phrases]
            with open(cons, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"phrases": surfaces}) + "\n")

            def decode(mode, **kw):
                return run_decode(DecodeJob(dag_path=dag_path, table_path=table_path,
                                            mode=mode, k_e=k_e, k_t=k_t, **kw))

            shortest = decode("wfsa-shortest")
            hlc = decode("hlc", constraints_path=cons)
            lc = decode("lc", target_length=target, edge_prune_threshold=1.0)

        paths = enumerate_dag_paths(prune_dag(dag, PruneConfig(k_e=k_e, k_t=k_t)))
        self.assert_optimal(shortest, paths, lambda t, c: c)

        hlc_paths = [
            (t, c) for t, c in enumerate_dag_paths(prune_dag(dag, cfg))
            if all(contains_subsequence(t, p.tokens) for p in phrases)
        ]
        if hlc_paths:
            self.assert_optimal(hlc, hlc_paths, lambda t, c: c)
            assert all(hlc.constraints_met)
        else:
            assert hlc.status == "empty_intersection"

        upper = default_upper_bound(target)
        lc_paths = [(t, c) for t, c in paths if 1 <= len(t) <= upper]
        if lc_paths:
            self.assert_optimal(lc, lc_paths, lambda t, c: length_penalty(len(t), target, 1.0) * c)
            assert math.isclose(
                lc.adjusted_cost, length_penalty(len(lc.tokens), target, 1.0) * lc.cost,
                abs_tol=1e-9,
            )
        else:
            assert lc.status == "infeasible"


class TestMainEntry:
    def test_decode_writes_json_line(self, workspace, capsys):
        _, dag_path, table_path, _ = workspace
        code = main(["decode", "--dag", dag_path, "--table", table_path,
                     "--mode", "wfsa-shortest", "--ke", "2", "--kt", "2"])
        assert code == EXIT_OK
        line = capsys.readouterr().out.strip()
        doc = json.loads(line)
        assert doc["status"] == "ok"
        assert doc["mode"] == "wfsa-shortest"
        assert isinstance(doc["tokens"], list)

    def test_infeasible_exit_code(self, workspace):
        tmp_path, dag_path, table_path, table = workspace
        cons = write_constraints(tmp_path, [{"phrases": [phrase_surface(table, (9, 9))]}])
        code = main(["decode", "--dag", dag_path, "--table", table_path,
                     "--mode", "hlc", "--constraints", cons,
                     "--ke", "2", "--kt", "2", "--out", str(tmp_path / "o.jsonl")])
        assert code == EXIT_INFEASIBLE

    def test_whitespace_only_lexicon_and_specials_lines_are_skipped(self, tmp_path):
        dag, table, lexicon, _ = vocab_fixture(seed=5)
        write_dag(dag, str(tmp_path / "vc.json"))
        write_token_table(table, str(tmp_path / "vc.table"))

        def run(command, lines, specials):
            folder = tmp_path / f"{command}-{len(lines)}"
            folder.mkdir()
            (folder / "lexicon.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
            (folder / "specials.txt").write_text("\n".join(specials) + "\n", encoding="utf-8")
            job = {"dag": str(tmp_path / "vc.json"), "table": str(tmp_path / "vc.table"),
                   "mode": "vc", "lexicon": str(folder / "lexicon.txt"),
                   "specials": str(folder / "specials.txt"), "references": ["w001 w002"]}
            out = folder / "out.jsonl"
            if command == "decode":
                args = ["--dag", job["dag"], "--table", job["table"], "--mode", "vc",
                        "--lexicon", job["lexicon"], "--specials", job["specials"]]
            else:
                (folder / "m.jsonl").write_text(json.dumps(job) + "\n", encoding="utf-8")
                args = ["--manifest", str(folder / "m.jsonl")]
            assert main([command, *args, "--ke", "2", "--kt", "2", "--out", str(out)]) == EXIT_OK
            docs = [json.loads(line) for line in out.read_text().splitlines()]
            for doc in docs:
                doc.pop("wall_time_s", None)
            return docs

        spaced = [lexicon[0], "   ", *lexicon[1:], "\t"]
        for command in ("decode", "batch"):
            want = run(command, lexicon, ["</s>"])
            assert want[0]["status"] == "ok"
            assert run(command, spaced, ["</s>", " "]) == want, command

    def test_product_over_the_state_bound_exits_1_with_one_line(
        self, workspace, capsys, monkeypatch
    ):
        import dagdec.constraints as constraints_module

        tmp_path, dag_path, table_path, table = workspace
        monkeypatch.setattr(constraints_module, "MAX_PRODUCT_STATES", 3)
        cons = write_constraints(tmp_path, [{"phrases": [phrase_surface(table, (0,))]}])
        code = main(["decode", "--dag", dag_path, "--table", table_path, "--mode", "hlc",
                     "--constraints", cons, "--ke", "2", "--kt", "2"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: the constraint product exceeds 3 states\n"

    def test_io_error_exit_code(self, tmp_path, capsys):
        code = main(["decode", "--dag", str(tmp_path / "missing.json"),
                     "--table", str(tmp_path / "missing.table")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ("greedy", "wfsa-shortest", "lc"))
    def test_out_of_table_token_id_exits_1_with_one_line(self, tmp_path, capsys, mode):
        dag_path = tmp_path / "tiny4.json"
        write_dag(tiny4(), str(dag_path))  # emits token ids up to 7
        table_path = tmp_path / "small.table"
        write_token_table(toy_table(5), str(table_path))
        code = main(["decode", "--dag", str(dag_path), "--table", str(table_path),
                     "--mode", mode, "--target-len", "3", "--ke", "2", "--kt", "2"])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "token table" in err
        assert len(err.strip().splitlines()) == 1

    def test_greedy_vertex_without_emissions_exits_1_with_one_line(self, tmp_path, capsys):
        dag_path = tmp_path / "gap.json"
        dag = build_dag(
            emission_probs=[[(0, 1.0)], [], [(2, 1.0)]],
            transition_probs=[[(1, 1.0)], [(2, 1.0)], []],
        )
        write_dag(dag, str(dag_path))
        table_path = tmp_path / "t.table"
        write_token_table(toy_table(5), str(table_path))
        code = main(["decode", "--dag", str(dag_path), "--table", str(table_path),
                     "--mode", "greedy"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: vertex 1 has no emissions\n"

    def test_lexicon_command(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a a a b\n", encoding="utf-8")
        code = main(["lexicon", "--corpus", str(corpus), "--cutoff", "0.7"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.split() == ["a"]

    def test_fit_length_command(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("1\t2\n2\t4\n3\t6\n", encoding="utf-8")
        out = tmp_path / "pred.txt"
        code = main(["fit-length", "--pairs", str(pairs), "--out", str(out)])
        assert code == EXIT_OK
        slope, intercept = [float(x) for x in out.read_text().split()]
        assert slope == pytest.approx(2.0, abs=1e-9)
        assert intercept == pytest.approx(0.0, abs=1e-9)

    def test_synth_command_round_trips(self, tmp_path):
        out = tmp_path / "synth.json"
        table_out = tmp_path / "synth.table"
        code = main(["synth", "--seed", "7", "--vertices", "12", "--out", str(out),
                     "--table-out", str(table_out), "--vocab-size", "16"])
        assert code == EXIT_OK
        code = main(["decode", "--dag", str(out), "--table", str(table_out),
                     "--mode", "greedy", "--out", str(tmp_path / "g.jsonl")])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "g.jsonl").read_text())
        assert doc["status"] == "ok"

    def test_evaluate_command(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text(
            json.dumps({"output": "a b", "required_values": ["a"], "references": ["a b"]})
            + "\n",
            encoding="utf-8",
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("a\nb\n", encoding="utf-8")
        code = main(["evaluate", "--records", str(records), "--vocab", str(vocab)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["ser"] == 0.0 and report["neo"] == 0.0 and report["bp"] == 1.0


class TestTokenTableReuse:
    def test_table_rewritten_between_decodes_is_read_anew(self, workspace):
        _, dag_path, table_path, _ = workspace
        job = DecodeJob(dag_path=dag_path, table_path=table_path,
                        mode="wfsa-shortest", k_e=2, k_t=2)
        before = run_decode(job)
        write_token_table(toy_table(10, width=4), table_path)  # same path, new surfaces
        after = run_decode(job)
        assert after.tokens == before.tokens
        assert before.text.split() == [f"w{t:03d}" for t in before.tokens]
        assert after.text.split() == [f"w{t:04d}" for t in after.tokens]

    def test_non_integer_table_id_exits_1_with_one_line(self, workspace, capsys):
        _, dag_path, table_path, _ = workspace
        with open(table_path, "a", encoding="utf-8") as fh:
            fh.write("x\t</s>\n")
        argv = ["decode", "--dag", dag_path, "--table", table_path, "--mode", "greedy"]
        assert main(argv) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "'x'" in err
        assert len(err.strip().splitlines()) == 1

    def test_malformed_table_fails_every_time_until_fixed(self, workspace, capsys):
        _, dag_path, table_path, table = workspace
        with open(table_path, encoding="utf-8") as fh:
            bad = fh.read().replace("#version 1", "#version 2")
        with open(table_path, "w", encoding="utf-8") as fh:
            fh.write(bad)
        argv = ["decode", "--dag", dag_path, "--table", table_path,
                "--mode", "wfsa-shortest", "--ke", "2", "--kt", "2"]
        for _ in range(2):
            assert main(argv) == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error:") and "version" in err
            assert len(err.strip().splitlines()) == 1
        write_token_table(table, table_path)
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["status"] == "ok"


class TestBatch:
    def _manifest(self, tmp_path, workspace, n=3):
        _, dag_path, table_path, table = workspace
        cons = write_constraints(tmp_path, [{"phrases": [phrase_surface(table, (1,))]}])
        entries = []
        for i in range(n):
            entries.append({
                "dag": dag_path, "table": table_path,
                "mode": "hlc" if i % 2 else "wfsa-shortest",
                "constraints": cons if i % 2 else None,
                "references": ["w001 w004 w006"],
            })
        # drop null constraint keys so defaults apply cleanly
        entries = [{k: v for k, v in e.items() if v is not None} for e in entries]
        path = tmp_path / "manifest.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
        return str(path)

    def test_three_jobs_three_lines_plus_summary(self, workspace, tmp_path):
        manifest = self._manifest(tmp_path, workspace)
        out = tmp_path / "batch.jsonl"
        code = main(["batch", "--manifest", manifest, "--ke", "2", "--kt", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        summary = json.loads(lines[-1])["summary"]
        assert summary["jobs"] == 3
        assert summary["decoded"] == 3
        assert summary["metrics"]["ser"] == 0.0

    def test_job_failure_recorded_batch_continues(self, workspace, tmp_path):
        _, dag_path, table_path, _ = workspace
        entries = [
            {"dag": str(tmp_path / "nope.json"), "table": table_path, "mode": "greedy"},
            {"dag": dag_path, "table": table_path, "mode": "greedy"},
        ]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert lines[0]["status"] == "error"
        assert lines[1]["status"] == "ok"
        assert lines[2]["summary"]["errors"] == 1


    def test_any_job_exception_is_recorded_with_its_type(self, workspace, tmp_path):
        _, dag_path, table_path, _ = workspace
        small_table = tmp_path / "small.table"
        write_token_table(toy_table(5), str(small_table))
        entries = [
            {"dag": dag_path, "table": str(small_table), "mode": "greedy"},
            {"dag": str(tmp_path), "table": table_path, "mode": "beam"},
            {"dag": dag_path, "table": table_path, "mode": "greedy"},
        ]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [d.get("status") for d in lines[:3]] == ["error", "error", "ok"]
        assert lines[0]["error_type"] == "ValueError"
        assert "token table" in lines[0]["error"]
        assert lines[1]["error_type"] == "IsADirectoryError"
        assert lines[3]["summary"]["errors"] == 2

    @pytest.mark.parametrize(
        "content, error_type",
        [(None, "FileNotFoundError"), (b"w001\n\xff\xfe\n", "UnicodeDecodeError")],
        ids=["missing", "invalid-utf8"],
    )
    def test_unreadable_lexicon_is_one_failed_job(self, workspace, tmp_path, content, error_type):
        # the evaluation read of a decoded job's lexicon used to end the batch,
        # even in a mode whose decode never opens it
        _, dag_path, table_path, _ = workspace
        lexicon = tmp_path / "lexicon.txt"
        if content is not None:
            lexicon.write_bytes(content)
        entries = [
            {"dag": dag_path, "table": table_path, "mode": "greedy", "lexicon": str(lexicon)},
            {"dag": dag_path, "table": table_path, "mode": "greedy"},
        ]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [d.get("status") for d in lines[:2]] == ["error", "ok"]
        assert lines[0]["error_type"] == error_type
        assert lines[2]["summary"] == dict(lines[2]["summary"], jobs=2, decoded=1, errors=1)

    @pytest.mark.parametrize(
        "key, value, kind",
        [
            ("len_upper", 12.5, "an integer"),
            ("ke", 2.5, "an integer"),
            ("kt", "two", "an integer"),
            ("target_len", 8.5, "an integer"),
            ("beam", True, "an integer"),
            ("constraint_line", 0.0, "an integer"),
            ("input_len", False, "an integer"),
            ("ke", None, "an integer"),
            ("strictness", "1.0", "a number"),
            ("edge_prune_p", True, "a number"),
            ("dag", 5, "a path string"),
            ("table", None, "a path string"),
            ("lexicon", ["words.txt"], "a path string"),
        ],
        ids=["len_upper-float", "ke-float", "kt-string", "target_len-float", "beam-bool",
             "constraint_line-float", "input_len-bool", "ke-null", "strictness-string",
             "edge_prune_p-bool", "dag-number", "table-null", "lexicon-list"],
    )
    def test_manifest_value_of_the_wrong_kind_is_one_value_error(
        self, workspace, tmp_path, key, value, kind
    ):
        _, dag_path, table_path, _ = workspace
        job = {"dag": dag_path, "table": table_path, "mode": "lc", "target_len": 3,
               "ke": 2, "kt": 2}
        entries = [dict(job, **{key: value}), job]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        assert [d.get("status") for d in docs[:2]] == ["error", "ok"]
        assert docs[0]["error_type"] == "ValueError"
        assert f"{key!r} must be {kind}" in docs[0]["error"]
        assert "\n" not in docs[0]["error"]

    def test_manifest_null_leaves_an_optional_field_unset(self, workspace, tmp_path):
        _, dag_path, table_path, _ = workspace
        job = {"dag": dag_path, "table": table_path, "mode": "lc", "target_len": 3,
               "ke": 2, "kt": 2, "strictness": 1, "len_upper": None, "input_len": None,
               "constraints": None, "lexicon": None}
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps(job) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        assert docs[0]["status"] == "ok"
        assert len(docs[0]["tokens"]) <= default_upper_bound(3)

    @pytest.mark.parametrize("flags, key", [([], "dag"), (["--dag", "x.json"], "table")])
    def test_job_without_a_lattice_or_table_names_the_key(self, tmp_path, flags, key):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"mode": "greedy"}) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["batch", "--manifest", str(manifest), *flags, "--out", str(out)]) == EXIT_OK
        doc = json.loads(out.read_text().splitlines()[0])
        assert doc["error_type"] == "ValueError"
        assert doc["error"] == f"{manifest} job 0: {key!r} must be a path string, got null"

    def test_malformed_manifest_line_is_one_failed_job(self, workspace, tmp_path):
        _, dag_path, table_path, _ = workspace
        job = {"dag": dag_path, "table": table_path, "mode": "greedy"}
        lines = [
            json.dumps(job),
            json.dumps([job]),
            '"greedy"',
            '{"dag": ',
            json.dumps(dict(job, references="w001 w004")),
            json.dumps(job),
        ]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        docs = [json.loads(l) for l in out.read_text().splitlines()]
        assert [d.get("status") for d in docs[:-1]] == ["ok", "error", "error", "error", "error", "ok"]
        assert [d["job"] for d in docs[:-1]] == list(range(6))
        assert "JSON object" in docs[1]["error"] and "JSON object" in docs[2]["error"]
        assert docs[3]["error_type"] == "JSONDecodeError"
        assert "list of strings" in docs[4]["error"]
        assert docs[-1]["summary"] == dict(docs[-1]["summary"], jobs=6, decoded=2, errors=4)


class TestDecodeFields:
    """Each decode flag and its manifest key set one `DecodeJob` field."""

    @staticmethod
    def parse(flags):
        parser = argparse.ArgumentParser()
        _add_decode_args(parser)
        return _job_from_args(parser.parse_args(flags))

    def test_no_flags_give_the_job_defaults(self):
        assert self.parse([]) == DecodeJob(dag_path=None, table_path=None, mode="wfsa-shortest")

    @pytest.mark.parametrize("f", [f for f in fields(DecodeJob) if f.name != "references"],
                             ids=lambda f: f.name)
    def test_flag_and_manifest_key_set_the_same_field(self, f):
        key = f.metadata["key"]
        if key == "mode":
            value = "hlc"
        else:
            value = {"a path string": f"{key}.txt", "an integer": 7, "a number": 0.5}[
                f.metadata["kind"][1]
            ]
        paths = ["--dag", "d.json", "--table", "t.table"]
        from_flag = self.parse(paths + ["--" + key.replace("_", "-"), str(value)])
        defaults = self.parse(paths)
        from_key = _job_from_manifest(json.dumps({key: value}), "m.jsonl job 0", defaults)
        assert getattr(from_flag, f.name) == value
        assert from_flag == from_key
        assert from_key == replace(defaults, **{f.name: value})


class TestDeterminismAndSummary:
    def test_decode_bit_identical_modulo_wall_time(self, workspace):
        _, dag_path, table_path, _ = workspace
        job = DecodeJob(dag_path=dag_path, table_path=table_path,
                        mode="wfsa-shortest", k_e=2, k_t=2)
        a = run_decode(job).to_dict()
        b = run_decode(job).to_dict()
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_len_upper_flag_caps_output(self, workspace, tmp_path):
        _, dag_path, table_path, _ = workspace
        out = tmp_path / "lc.jsonl"
        code = main(["decode", "--dag", dag_path, "--table", table_path,
                     "--mode", "lc", "--target-len", "3", "--len-upper", "2",
                     "--ke", "2", "--kt", "2", "--edge-prune-p", "1.0",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["status"] == "ok"
        assert len(doc["tokens"]) <= 2

    def test_batch_summary_matches_direct_metrics(self, workspace, tmp_path):
        from dagdec.metrics import EvalRecord, build_eval_vocabulary, compute_report

        _, dag_path, table_path, table = workspace
        # required phrases that unconstrained decoding will often miss
        cons = write_constraints(
            tmp_path, [{"phrases": [phrase_surface(table, (1, 3)), "w009"]}]
        )
        lex = write_lexicon(tmp_path, [f"w{i:03d}" for i in range(8)])
        entries = [
            {"dag": dag_path, "table": table_path, "mode": "wfsa-shortest",
             "constraints": cons, "lexicon": lex, "references": ["w001 w002 w003"]}
            for _ in range(4)
        ]
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(json.dumps(e) + "\n" for e in entries),
                            encoding="utf-8")
        out = tmp_path / "b.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--ke", "2", "--kt", "2",
                     "--out", str(out)]) == EXIT_OK
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        summary = lines[-1]["summary"]

        phrases = [phrase_surface(table, (1, 3)), "w009"]
        records = [
            EvalRecord(output=d["text"], required_values=tuple(phrases),
                       references=("w001 w002 w003",))
            for d in lines[:-1]
        ]
        words = set(w for p in phrases for w in p.split())
        words.update(f"w{i:03d}" for i in range(8))
        direct = compute_report(records, build_eval_vocabulary(extra_words=words))
        assert summary["metrics"] == direct
        assert direct["ser"] > 0.0  # the cross-check must not be vacuous

    def test_lexicon_lines_count_as_their_words(self, tmp_path, capsys):
        dag, table, lexicon, _ = vocab_fixture(seed=5)
        write_dag(dag, str(tmp_path / "vc.json"))
        write_token_table(table, str(tmp_path / "vc.table"))

        def reports(name, lines):
            lex = tmp_path / f"{name}.txt"
            lex.write_text("\n".join(lines) + "\n", encoding="utf-8")
            job = {"dag": str(tmp_path / "vc.json"), "table": str(tmp_path / "vc.table"),
                   "mode": "vc", "lexicon": str(lex), "references": ["w001 w002"]}
            manifest = tmp_path / f"{name}.jsonl"
            manifest.write_text(json.dumps(job) + "\n", encoding="utf-8")
            out = tmp_path / f"{name}.out.jsonl"
            assert main(["batch", "--manifest", str(manifest), "--ke", "2", "--kt", "2",
                         "--out", str(out)]) == EXIT_OK
            docs = [json.loads(line) for line in out.read_text().splitlines()]
            records = tmp_path / f"{name}.records.jsonl"
            records.write_text(json.dumps({"output": docs[0]["text"]}) + "\n", encoding="utf-8")
            capsys.readouterr()
            assert main(["evaluate", "--records", str(records), "--vocab", str(lex)]) == EXIT_OK
            return docs[-1]["summary"], json.loads(capsys.readouterr().out)

        plain = reports("plain", lexicon)
        assert plain[0]["metrics"]["neo"] == 0.0 and plain[1]["neo"] == 0.0
        # a line's words, not the line, are the vocabulary, as `decode` reads them
        assert reports("spaced", [" " + word for word in lexicon]) == plain
        paired = [" ".join(lexicon[i:i + 2]) for i in (0, 2)] + lexicon[4:]
        assert reports("paired", paired) == plain

    def test_punctuated_entity_and_lexicon_words_are_in_vocabulary(self, tmp_path):
        # the vocabulary held `St.` while the check looked up `St`: neo read 100.0
        table = TokenTable(surfaces=("▁St.", "▁Louis", "▁is", "<s>", "</s>"),
                           sow_mark="▁", eos_id=4, sos_id=3)
        dag = build_dag(
            emission_probs=[[(0, 1.0)], [(1, 1.0)], [(2, 1.0)], [(4, 1.0)]],
            transition_probs=[[(1, 1.0)], [(2, 1.0)], [(3, 1.0)], []],
        )
        write_dag(dag, str(tmp_path / "d.json"))
        write_token_table(table, str(tmp_path / "t.table"))
        job = {"dag": str(tmp_path / "d.json"), "table": str(tmp_path / "t.table"),
               "mode": "vc", "lexicon": write_lexicon(tmp_path, ["is"]),
               "constraints": write_constraints(tmp_path, [{"entities": ["St. Louis"]}])}
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps(job) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert docs[0]["text"] == "St. Louis is"
        assert docs[1]["summary"]["metrics"]["neo"] == 0.0

    def test_evaluate_vocabulary_words_lose_their_edge_punctuation(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"output": "Mr. Smith"}) + "\n", encoding="utf-8")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("Mr.\nSmith\n", encoding="utf-8")
        assert main(["evaluate", "--records", str(records), "--vocab", str(vocab)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["neo"] == 0.0

    def test_batch_whose_jobs_bring_no_word_has_no_neologism_rate(self, workspace, tmp_path):
        _, dag_path, table_path, _ = workspace
        job = {"dag": dag_path, "table": table_path, "mode": "greedy",
               "lexicon": write_lexicon(tmp_path, ["555-1234", "42"])}
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps(job) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        summary = json.loads(out.read_text().splitlines()[-1])["summary"]
        assert summary["decoded"] == 1 and summary["metrics"]["neo"] is None


@pytest.fixture()
def gc_starts():
    """Generations of the collections that start while the test runs."""
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.callbacks.append(record)
    try:
        yield started
    finally:
        gc.callbacks.remove(record)


@pytest.fixture()
def collector_on():
    was_on = gc.isenabled()
    gc.enable()
    try:
        yield
    finally:
        if not was_on:
            gc.disable()


@pytest.fixture()
def collector_off():
    was_on = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_on:
            gc.enable()


class TestCollectorPause:
    """`run_decode` keeps the cyclic collector off for the decode and
    restores the state it found."""

    @staticmethod
    def jobs(workspace):
        tmp_path, dag_path, table_path, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        good = DecodeJob(dag_path=dag_path, table_path=table_path,
                         mode="wfsa-shortest", k_e=2, k_t=2)
        return good, replace(good, dag_path=str(bad))

    def test_on_stays_on(self, workspace, collector_on):
        good, bad = self.jobs(workspace)
        assert run_decode(good).status == "ok"
        assert gc.isenabled()
        with pytest.raises(ValueError):
            run_decode(bad)
        assert gc.isenabled()

    def test_off_stays_off_and_nothing_is_collected(self, workspace, collector_off,
                                                     gc_starts):
        good, bad = self.jobs(workspace)
        for _ in range(3):
            assert run_decode(good).status == "ok"
            assert not gc.isenabled()
            with pytest.raises(ValueError):
                run_decode(bad)
            assert not gc.isenabled()
        assert gc_starts == []

    def test_overlapping_pauses_end_with_the_last(self, collector_on):
        first, second = cli._collector_paused(), cli._collector_paused()
        first.__enter__()
        second.__enter__()
        assert not gc.isenabled()
        first.__exit__(None, None, None)  # the first to start leaves first
        assert not gc.isenabled()
        second.__exit__(None, None, None)
        assert gc.isenabled()

    def test_concurrent_decodes_restore_the_collector(self, workspace, collector_on):
        good, _ = self.jobs(workspace)
        jobs = [replace(good, k_e=k_e, k_t=k_t) for k_e in (1, 2, 3) for k_t in (1, 2)]

        def outcome(result):
            return result.status, result.tokens, result.cost

        serial = [outcome(run_decode(job)) for job in jobs]
        results = [[] for _ in range(4)]

        def work(out):
            for i in range(20):
                out.append(outcome(run_decode(jobs[i % len(jobs)])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(out,)) for out in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert gc.isenabled()
        for out in results:
            assert out == [serial[i % len(jobs)] for i in range(20)]

    def test_long_lattice_runs_no_automatic_collection(self, tmp_path, collector_on,
                                                        gc_starts, monkeypatch):
        dag_path, table_path = tmp_path / "long.json", tmp_path / "long.table"
        assert main(["synth", "--seed", "3", "--vertices", "900", "--out", str(dag_path),
                     "--table-out", str(table_path)]) == EXIT_OK
        explicit = []
        collect = gc.collect

        def counted_collect(generation=2):
            explicit.append(generation)
            return collect(generation)

        monkeypatch.setattr(gc, "collect", counted_collect)
        gc_starts.clear()  # synth collected too
        job = DecodeJob(dag_path=str(dag_path), table_path=str(table_path),
                        mode="lc", target_length=300, k_e=3, k_t=3)
        assert run_decode(job).status == "ok"
        # at most the one young-generation collection that came due, on exit
        assert gc_starts == explicit and explicit in ([], [0])
        assert gc.get_count()[0] <= gc.get_threshold()[0]


class TestConstraintFileHandling:
    def test_constraint_line_out_of_range(self, workspace, tmp_path):
        _, dag_path, table_path, _ = workspace
        cons = write_constraints(tmp_path, [{"phrases": ["w001"]}])
        job = DecodeJob(dag_path=dag_path, table_path=table_path, mode="hlc",
                        constraints_path=cons, constraint_line=5, k_e=2, k_t=2)
        with pytest.raises(ValueError, match="out of range"):
            run_decode(job)

    def test_constraint_line_selects_entry(self, workspace, tmp_path):
        _, dag_path, table_path, table = workspace
        cons = write_constraints(tmp_path, [
            {"phrases": [phrase_surface(table, (9, 9))]},  # infeasible
            {"phrases": [phrase_surface(table, (1,))]},    # feasible
        ])
        job = DecodeJob(dag_path=dag_path, table_path=table_path, mode="hlc",
                        constraints_path=cons, constraint_line=1, k_e=2, k_t=2)
        got = run_decode(job)
        assert got.status == "ok"
        assert got.constraints_met == (True,)


class TestOutOfTableToken:
    """A token id past the table is a plain `ValueError`, and the lattice's
    first fault in vertex order: here it wins over a NaN at a later vertex,
    which won while the ids were checked after the whole lattice was read."""

    MESSAGE = "vertex 3: token id 40 is outside the token table (34 tokens)"

    @pytest.fixture()
    def paths(self, tmp_path):
        document = json.loads(dump_dag(generate_synthetic_dag(3, 12, 3, 3, 0.6)))
        document["vertices"][3]["emissions"][0][0] = 40
        document["vertices"][9]["emissions"][1][1] = math.nan
        dag_path = tmp_path / "d.json"
        dag_path.write_text(json.dumps(document), encoding="utf-8")
        table_path = tmp_path / "t.table"
        write_token_table(cli.synthetic_token_table(32), str(table_path))  # 34 tokens
        return str(dag_path), str(table_path)

    @pytest.mark.parametrize("mode", ("greedy", "cbs-dag", "wfsa-shortest", "lc"))
    def test_decode_exits_1_with_one_line(self, tmp_path, capsys, paths, mode):
        cons = write_constraints(tmp_path, [{"phrases": ["w001"]}])
        code = main(["decode", "--dag", paths[0], "--table", paths[1], "--mode", mode,
                     "--constraints", cons, "--target-len", "4"])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {self.MESSAGE}\n"

    def test_batch_records_a_value_error(self, tmp_path, paths):
        manifest = tmp_path / "m.jsonl"
        manifest.write_text(json.dumps({"dag": paths[0], "table": paths[1]}) + "\n",
                            encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        record = json.loads(out.read_text().splitlines()[0])
        assert (record["status"], record["error_type"]) == ("error", "ValueError")
        assert record["error"] == self.MESSAGE


class TestBadInput:
    """Malformed input files exit 1 with a one-line message."""

    @staticmethod
    def assert_one_line_error(capsys, code, fragment):
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ('["w001"]', "JSON object"),
            ('"w001"', "JSON object"),
            ('{"phrases": "w001"}', "list of strings"),
            ('{"phrases": [1]}', "list of strings"),
            ('{"phrases": ["w001"], "entities": "w001"}', "list of strings"),
        ],
        ids=["list", "string", "phrases-string", "phrases-number", "entities-string"],
    )
    def test_malformed_constraint_line(self, workspace, capsys, line, fragment):
        tmp_path, dag_path, table_path, _ = workspace
        cons = tmp_path / "c.jsonl"
        cons.write_text(line + "\n", encoding="utf-8")
        code = main(["decode", "--dag", dag_path, "--table", table_path, "--mode", "hlc",
                     "--constraints", str(cons), "--ke", "2", "--kt", "2"])
        self.assert_one_line_error(capsys, code, fragment)

    @pytest.mark.parametrize(
        "record",
        ['{"required_values": ["a"]}', '["a b"]', '{"output": 3}'],
        ids=["no-output", "list", "number-output"],
    )
    def test_malformed_evaluation_record(self, tmp_path, capsys, record):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"output": "a b"}) + "\n" + record + "\n",
                           encoding="utf-8")
        code = main(["evaluate", "--records", str(records)])
        self.assert_one_line_error(capsys, code, "line 2")

    @pytest.mark.parametrize(
        "field",
        [
            '"required_values": 5',
            '"required_values": [1, 2]',
            '"references": [3]',
            '"references": "abc"',
        ],
        ids=["values-number", "values-numbers", "references-numbers", "references-string"],
    )
    def test_evaluation_lists_must_hold_strings(self, tmp_path, capsys, field):
        # a string of references used to be scored as one reference per character
        records = tmp_path / "records.jsonl"
        records.write_text('{"output": "a b", ' + field + "}\n", encoding="utf-8")
        code = main(["evaluate", "--records", str(records)])
        self.assert_one_line_error(capsys, code, "list of strings")

    def test_evaluation_vocabulary_of_numbers_only(self, tmp_path, capsys):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"output": "a b"}) + "\n", encoding="utf-8")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("42\n555-1234\n", encoding="utf-8")
        code = main(["evaluate", "--records", str(records), "--vocab", str(vocab)])
        self.assert_one_line_error(capsys, code, "evaluation vocabulary must be nonempty")

    def test_decode_without_a_lattice(self, workspace, capsys):
        _, _, table_path, _ = workspace
        code = main(["decode", "--table", table_path])
        self.assert_one_line_error(capsys, code, "--dag and --table are required")

    @pytest.mark.parametrize(
        "files, flags, message",
        [
            ({"pred": "1\n0\n"}, "--mode lc --len-predictor {pred}",
             "--len-predictor requires --input-len"),
            ({"pred": "1\n0\n"}, "--mode lc --len-predictor {pred} --input-len -1",
             "input length must be >= 0"),
            ({"pred": "1\n"}, "--mode lc --len-predictor {pred} --input-len 2",
             "predictor file must have two lines"),
            ({}, "--mode lc --target-len 3 --len-upper 0", "upper_bound must be >= 1"),
            ({"table": "#version 1\n#sow ▁\n#eos 0\n#sos 0\n"}, "", "token table is empty"),
            ({"table": "#version 1\n#eos 1\n#sos 0\n0\t<s>\n1\t</s>\n"}, "",
             "start-of-word mark is empty"),
            ({"table": "#version 1\n#colour red\n"}, "", "line 2: unknown header #colour"),
            ({"dag": "[]"}, "", "top-level document must be an object"),
            ({"dag": '{"version": 1, "num_vertices": 2, "vertices": [{}]}'}, "",
             "vertices list does not match num_vertices"),
            ({"dag": json.dumps({"version": 1, "num_vertices": 3, "vertices": [
                {"emissions": [[0, 0.0]], "transitions": [[1, 0.0]]},
                {"emissions": [[1, 0.0]], "transitions": []},
                {"emissions": [[2, 0.0]], "transitions": []},
            ]})}, "--mode greedy", "vertex 1 has no outgoing transitions"),
        ],
        ids=["predictor-without-input-len", "negative-input-len", "one-line-predictor",
             "len-upper-0", "empty-table", "no-sow-mark", "unknown-table-header",
             "lattice-not-an-object", "vertex-count", "greedy-dead-end"],
    )
    def test_decode_input_errors(self, workspace, capsys, files, flags, message):
        tmp_path, dag_path, table_path, _ = workspace
        paths = {"dag": dag_path, "table": table_path}
        for name, text in files.items():
            paths[name] = str(tmp_path / f"bad-{name}")
            (tmp_path / f"bad-{name}").write_text(text, encoding="utf-8")
        code = main(["decode", "--dag", paths["dag"], "--table", paths["table"],
                     *flags.format(**paths).split()])
        self.assert_one_line_error(capsys, code, message)

    @pytest.mark.parametrize("value", ["nan", "inf", "1e308"])
    def test_synth_concentration_too_large_or_not_a_number(self, tmp_path, capsys, value):
        # random.gammavariate never returned for these
        code = main(["synth", "--seed", "1", "--vertices", "6", "--concentration", value,
                     "--out", str(tmp_path / "d.json")])
        self.assert_one_line_error(capsys, code, "concentration")
        assert not (tmp_path / "d.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
    def test_fit_length_pairs_must_be_finite(self, tmp_path, capsys, value):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(f"1\t2\n2\t4\n{value}\t6\n", encoding="utf-8")
        out = tmp_path / "pred.txt"
        code = main(["fit-length", "--pairs", str(pairs), "--out", str(out)])
        self.assert_one_line_error(capsys, code, "finite")
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("7", "expected two numbers, got one"),
            ("abc\t6", "could not convert string to float: 'abc'"),
            ("3\tx", "could not convert string to float: 'x'"),
        ],
        ids=["one-field", "non-numeric-input", "non-numeric-output"],
    )
    def test_fit_length_bad_line_names_file_and_line(self, tmp_path, capsys, line, message):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(f"1\t2\n\n{line}\n2\t4\n", encoding="utf-8")
        out = tmp_path / "pred.txt"
        code = main(["fit-length", "--pairs", str(pairs), "--out", str(out)])
        self.assert_one_line_error(capsys, code, f"{pairs} line 3: {message}")
        assert not out.exists()

    def test_fit_length_that_overflows(self, tmp_path, capsys):
        # the exact slope, 1e600, is too large for a float
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("0\t0\n1e-300\t1e300\n", encoding="utf-8")
        out = tmp_path / "pred.txt"
        code = main(["fit-length", "--pairs", str(pairs), "--out", str(out)])
        self.assert_one_line_error(capsys, code, "overflows")
        assert not out.exists()

    def test_prediction_too_large_for_a_float(self, workspace, capsys):
        # a finite predictor whose prediction overflows to inf
        tmp_path, dag_path, table_path, _ = workspace
        pred = tmp_path / "pred.txt"
        pred.write_text("1e308\n0\n", encoding="utf-8")
        code = main(["decode", "--dag", dag_path, "--table", table_path, "--mode", "lc",
                     "--len-predictor", str(pred), "--input-len", "10",
                     "--ke", "2", "--kt", "2"])
        self.assert_one_line_error(capsys, code, "not finite")

    @pytest.mark.parametrize(
        "text", ["inf\n1.0\n", "0.5\nnan\n", "-1e999\n0\n"], ids=["inf", "nan", "overflow"]
    )
    def test_non_finite_length_predictor(self, workspace, capsys, text):
        tmp_path, dag_path, table_path, _ = workspace
        pred = tmp_path / "pred.txt"
        pred.write_text(text, encoding="utf-8")
        code = main(["decode", "--dag", dag_path, "--table", table_path, "--mode", "lc",
                     "--len-predictor", str(pred), "--input-len", "2",
                     "--ke", "2", "--kt", "2"])
        self.assert_one_line_error(capsys, code, "finite")

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_strictness_must_be_finite_and_non_negative(self, workspace, capsys, value):
        # a NaN strictness used to pass validation and drop every candidate
        # shorter than the target, reporting a false infeasibility (exit 3)
        _, dag_path, table_path, _ = workspace
        code = main(["decode", "--dag", dag_path, "--table", table_path, "--mode", "lc",
                     "--target-len", "3", "--strictness", value, "--ke", "2", "--kt", "2"])
        self.assert_one_line_error(capsys, code, "strictness")

    def test_target_too_far_for_a_float_penalty_exits_3(self, tmp_path, capsys):
        # every candidate's penalty exp(A * (L_tgt / l - 1)) overflows a float
        dag_path, table_path = str(tmp_path / "d.json"), str(tmp_path / "t.txt")
        assert main(["synth", "--seed", "1", "--vertices", "12", "--out", dag_path,
                     "--table-out", table_path]) == EXIT_OK
        code = main(["decode", "--dag", dag_path, "--table", table_path, "--mode", "lc",
                     "--target-len", "50000000"])
        assert code == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["status"] == "infeasible"
        assert "finite length-penalized cost" in doc["note"] and "\n" not in doc["note"]

    @pytest.mark.parametrize("mode", ("lc", "control-dag"))
    @pytest.mark.parametrize("target", (10**300, 10**400), ids=("1e300", "1e400"))
    def test_target_beyond_a_float_exits_3(self, tmp_path, capsys, mode, target):
        # 10**400 made the default length bound raise OverflowError
        dag_path, table_path = str(tmp_path / "d.json"), str(tmp_path / "t.txt")
        assert main(["synth", "--seed", "1", "--vertices", "12", "--out", dag_path,
                     "--table-out", table_path]) == EXIT_OK
        code = main(["decode", "--dag", dag_path, "--table", table_path, "--mode", mode,
                     "--target-len", str(target)])
        assert code == EXIT_INFEASIBLE
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["status"] == "infeasible"
        assert doc["note"].startswith(f"no candidate length up to {target + 5} has")
        assert "\n" not in doc["note"]

    def test_target_beyond_a_float_in_a_batch_is_infeasible(self, tmp_path):
        dag_path, table_path = str(tmp_path / "d.json"), str(tmp_path / "t.txt")
        assert main(["synth", "--seed", "1", "--vertices", "12", "--out", dag_path,
                     "--table-out", table_path]) == EXIT_OK
        manifest = tmp_path / "m.jsonl"
        manifest.write_text("".join(
            json.dumps({"dag": dag_path, "table": table_path, "mode": mode,
                        "target_len": 10**400}) + "\n"
            for mode in ("lc", "control-dag")
        ), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["batch", "--manifest", str(manifest), "--out", str(out)]) == EXIT_OK
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert [d.get("status") for d in lines[:2]] == ["infeasible", "infeasible"]
        assert all(d["note"].startswith("no candidate length") for d in lines[:2])
        assert lines[2]["summary"]["errors"] == 0

    # every mode that converts the lattice or intersects it with constraints
    LATTICE_MODES = ("wfsa-shortest", "lc", "hlc", "vc", "control-dag")

    @staticmethod
    def decode_overflowing(workspace, mode, doc):
        """Decode the lattice `doc` with a feasible phrase and lexicon."""
        tmp_path, _, table_path, table = workspace
        bad = tmp_path / "overflow.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        cons = write_constraints(tmp_path, [{"phrases": [phrase_surface(table, (0,))]}])
        lex = write_lexicon(tmp_path, [phrase_surface(table, (t,)) for t in range(6)])
        return main(["decode", "--dag", str(bad), "--table", table_path, "--mode", mode,
                     "--constraints", cons, "--lexicon", lex,
                     "--target-len", "3", "--ke", "2", "--kt", "2"])

    @pytest.mark.parametrize("mode", LATTICE_MODES)
    def test_log_probs_whose_sums_overflow(self, workspace, capsys, mode):
        # each log-prob is finite, but an emission plus a transition is -inf
        _, dag_path, _, _ = workspace
        doc = json.loads(open(dag_path, encoding="utf-8").read())
        for vertex in doc["vertices"]:
            for key in ("emissions", "transitions"):
                vertex[key] = [[i, -1.7e308] for i, _ in vertex[key]]
        code = self.decode_overflowing(workspace, mode, doc)
        self.assert_one_line_error(capsys, code, "arc weight inf is not a finite cost >= 0")

    @pytest.mark.parametrize("mode", LATTICE_MODES)
    def test_overflow_at_a_vertex_no_path_reaches(self, workspace, capsys, mode):
        # 0 -> 1 -> 3 is the only path; vertex 2's one arc weighs inf
        doc = {"version": 1, "num_vertices": 4, "vertices": [
            {"emissions": [[0, -0.1]], "transitions": [[1, 0.0]]},
            {"emissions": [[1, -0.2]], "transitions": [[3, 0.0]]},
            {"emissions": [[2, -1.7e308]], "transitions": [[3, -1.7e308]]},
            {"emissions": [[4, 0.0]], "transitions": []},
        ]}
        code = self.decode_overflowing(workspace, mode, doc)
        self.assert_one_line_error(capsys, code, "arc weight inf is not a finite cost >= 0")

    @pytest.mark.parametrize("mode", ("greedy", "wfsa-shortest"))
    @pytest.mark.parametrize("key", ("emissions", "transitions"))
    def test_pair_list_that_is_not_a_list(self, workspace, capsys, mode, key):
        tmp_path, dag_path, table_path, _ = workspace
        doc = json.loads(open(dag_path, encoding="utf-8").read())
        doc["vertices"][0][key] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["decode", "--dag", str(bad), "--table", table_path, "--mode", mode])
        self.assert_one_line_error(capsys, code, f"vertex 0: {key} must be a list")


def _synth_files(folder, seed, vertices, emission_degree, transition_degree):
    """A `synth` lattice and its token table, written by the CLI."""
    dag_path = os.path.join(folder, f"{seed}.json")
    table_path = os.path.join(folder, f"{seed}.table")
    code = main(["synth", "--seed", str(seed), "--vertices", str(vertices),
                 "--emission-degree", str(emission_degree),
                 "--transition-degree", str(transition_degree),
                 "--out", dag_path, "--table-out", table_path])
    assert code == EXIT_OK
    return dag_path, table_path


_SYNTH = dict(
    seed=st.integers(min_value=0, max_value=10**6),
    vertices=st.integers(min_value=2, max_value=40),
    emission_degree=st.integers(min_value=1, max_value=6),
    transition_degree=st.integers(min_value=1, max_value=4),
)


class TestMetamorphicRelations:
    """Relations between `run_decode` calls on one `synth` lattice."""

    @given(**_SYNTH, k_e=st.integers(min_value=1, max_value=4),
           k_t=st.integers(min_value=1, max_value=4), more_e=st.integers(min_value=0, max_value=3),
           more_t=st.integers(min_value=0, max_value=3))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_larger_degrees_never_raise_the_wfsa_shortest_cost(
        self, seed, vertices, emission_degree, transition_degree, k_e, k_t, more_e, more_t
    ):
        # a larger degree keeps a superset of the arcs
        with tempfile.TemporaryDirectory() as folder:
            dag_path, table_path = _synth_files(
                folder, seed, vertices, emission_degree, min(transition_degree, vertices - 1)
            )
            small, large = (
                run_decode(DecodeJob(dag_path=dag_path, table_path=table_path,
                                     mode="wfsa-shortest", k_e=k_e + de, k_t=k_t + dt))
                for de, dt in ((0, 0), (more_e, more_t))
            )
        assert small.status == large.status == "ok"
        assert large.cost <= small.cost

    @given(**_SYNTH, target=st.integers(min_value=1, max_value=40),
           threshold=st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_full_edge_mass_never_raises_the_lc_adjusted_cost(
        self, seed, vertices, emission_degree, transition_degree, target, threshold
    ):
        # --edge-prune-p 1 searches every kept arc, a superset of any cut
        with tempfile.TemporaryDirectory() as folder:
            dag_path, table_path = _synth_files(
                folder, seed, vertices, emission_degree, min(transition_degree, vertices - 1)
            )
            cut, full = (
                run_decode(DecodeJob(dag_path=dag_path, table_path=table_path, mode="lc",
                                     target_length=target, edge_prune_threshold=p))
                for p in (threshold, 1.0)
            )
        if cut.status == "ok":
            assert full.status == "ok"
            assert full.adjusted_cost <= cut.adjusted_cost

    @given(**_SYNTH, left_out=st.sets(st.integers(min_value=0, max_value=31), max_size=12),
           back=st.sets(st.integers(min_value=0, max_value=31), max_size=12))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_a_superset_lexicon_never_raises_the_vc_cost(
        self, seed, vertices, emission_degree, transition_degree, left_out, back
    ):
        # every path inside the smaller vocabulary stays inside the larger;
        # `synth` lattices emit the 32 word tokens of their table
        with tempfile.TemporaryDirectory() as folder:
            dag_path, table_path = _synth_files(
                folder, seed, vertices, emission_degree, min(transition_degree, vertices - 1)
            )
            table = read_token_table(table_path)
            results = []
            for name, out in (("small", left_out), ("large", left_out - back)):
                lexicon_path = os.path.join(folder, f"{name}.txt")
                with open(lexicon_path, "w", encoding="utf-8") as fh:
                    fh.writelines(phrase_surface(table, (i,)) + "\n"
                                  for i in range(32) if i not in out)
                results.append(run_decode(DecodeJob(dag_path=dag_path, table_path=table_path,
                                                    mode="vc", lexicon_path=lexicon_path)))
        small, large = results
        if small.status == "ok":
            assert large.status == "ok"
            assert large.cost <= small.cost

    @given(**_SYNTH, k_e=st.integers(min_value=1, max_value=3),
           k_t=st.integers(min_value=1, max_value=3), wider=st.integers(min_value=0, max_value=3),
           num_phrases=st.integers(min_value=1, max_value=2))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_hlc_never_costs_less_than_wfsa_shortest(
        self, seed, vertices, emission_degree, transition_degree, k_e, k_t, wider, num_phrases
    ):
        # an hlc path runs over kept transitions, and each emission it adds
        # to a vertex's kept ones scores below them; phrases planted on a
        # path of a wider pruning need such added emissions, or cannot appear
        with tempfile.TemporaryDirectory() as folder:
            dag_path, table_path = _synth_files(
                folder, seed, vertices, emission_degree, min(transition_degree, vertices - 1)
            )
            table = read_token_table(table_path)
            planted = plant_phrases(read_dag(dag_path), PruneConfig(k_e=k_e + wider, k_t=k_t),
                                    seed, num_phrases)
            constraints_path = os.path.join(folder, "constraints.jsonl")
            with open(constraints_path, "w", encoding="utf-8") as fh:
                surfaces = [phrase_surface(table, p.tokens) for p in planted]
                fh.write(json.dumps({"phrases": surfaces}) + "\n")
            shortest, hlc = (
                run_decode(DecodeJob(dag_path=dag_path, table_path=table_path, mode=mode,
                                     constraints_path=constraints_path, k_e=k_e, k_t=k_t))
                for mode in ("wfsa-shortest", "hlc")
            )
        assert shortest.status == "ok"
        if hlc.status == "ok":
            assert hlc.cost >= shortest.cost
