"""Seconds-scale smoke runs of the benchmark harness.

The harness checks every output against the digests pinned in
perfbench/digests.json, so these runs guard the bit-identical decode of the
control-dag path (phrases, cached vocabulary, target length), of the vc
path (a lexicon compiled per job, and a product without phrases;
vocab-cold), of the length search on ~900-vertex lattices (lc-long: its
pinned digests guard the forward pass that prunes each vertex's arcs and
finds its depth, the backward pass that fills each dense row from all
its successors' rows at once, and the traceback that recovers the
winning arcs from the rows) and of the constrained beam search over
the lattice itself (cbs-phrases: its pinned digests guard the one-pass
split of each vertex's menu, the shared reset successor of foreign
tokens and the stop at the first foreign token that a full bank
refuses). Every
workload reads its lattices through `load_dag` and prunes them with
`prune_dag`, so the digests also guard the one-pass loader (rows kept as
the generator writes them) and the forward forced-emission prune. The
traced control-warm run (`--trace 1`) also replays each job stage by stage
through the public `build_hlc_fsa`, `intersect`, `rm_epsilon` and
`topological_sort`, one constraint at a time, and the harness requires the
replay to give the job's output. The traced vocab-cold run replays through
`LexiconFsa.automaton`, so it also guards the acceptor built on demand from
a lexicon compiled per job.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(workload: str, trace: int) -> None:
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "0", "--seconds", "2", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", ("control-warm", "vocab-cold", "lc-long", "cbs-phrases"))
def test_smoke_run_is_correct(workload):
    _run(workload, trace=0)


def test_traced_smoke_run_is_correct():
    _run("control-warm", trace=1)


def test_traced_vocab_cold_smoke_run_is_correct():
    _run("vocab-cold", trace=1)
