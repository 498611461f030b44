"""Traced replay of `dagdec.cli.run_decode`, one public call per stage.

The replay makes the calls `run_decode` makes, in the same order, and wraps
each in a span named `<layer>.<stage>`. The program itself is not
instrumented: spans are taken from outside, around calls into each module,
and kept in memory until the run ends. Counters (automaton sizes, pruning
and search statistics) are computed after a job's spans close, so they add
nothing to the traced job time.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

from dagdec.cbs import cbs_dag_decode, effective_beam_size
from dagdec.cli import DecodeJob
from dagdec.constraints import build_hlc_fsa, build_vocab_fsa, tokenize_phrase
from dagdec.dag import PruneConfig, prune_dag, read_dag
from dagdec.length import LcConfig, dfs_viterbi, length_cost_table
from dagdec.result import STATUS_EMPTY_INTERSECTION, STATUS_OK, DecodeResult
from dagdec.tokens import read_token_table
from dagdec.wfsa import (
    dag_to_wfsa,
    has_accepting_path,
    intersect,
    rm_epsilon,
    shortest_path,
    topological_sort,
)


class Tracer:
    """In-memory spans: (name, job, parent index, start ns, end ns)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._stack: list[int] = []
        self.job = -1

    def span(self, name: str) -> "_Span":
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> None:
        tr = self.tracer
        parent = tr._stack[-1] if tr._stack else -1
        self.index = len(tr.spans)
        tr.spans.append((self.name, tr.job, parent, time.perf_counter_ns(), 0))
        tr._stack.append(self.index)

    def __exit__(self, *exc) -> None:
        tr = self.tracer
        tr._stack.pop()
        name, job, parent, start, _ = tr.spans[self.index]
        tr.spans[self.index] = (name, job, parent, start, time.perf_counter_ns())


def _read_words(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [w for w in (line.rstrip("\n") for line in fh) if w]


def _contains(haystack: tuple[int, ...], needle: tuple[int, ...]) -> bool:
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


def live_arcs(w) -> int:
    """Arcs whose destination can still reach a final state."""
    rev: list[list[int]] = [[] for _ in range(w.num_states)]
    for src, arc in w.all_arcs():
        rev[arc.dst].append(src)
    alive = set(w.finals)
    stack = list(w.finals)
    while stack:
        for p in rev[stack.pop()]:
            if p not in alive:
                alive.add(p)
                stack.append(p)
    return sum(1 for _, arc in w.all_arcs() if arc.dst in alive)


def replay(job: DecodeJob, tr: Tracer, compiled: set[str]) -> tuple[DecodeResult, dict]:
    """Decode `job` stage by stage under spans; return the result and the
    objects the counters are computed from. `compiled` holds the lexicon
    paths this process has already built, so a build is labelled a cache
    hit or a compile."""
    job.validate()
    with tr.span("dag.read"):
        dag = read_dag(job.dag_path)
    with tr.span("tokens.read"):
        table = read_token_table(job.table_path)
    phrase_surfaces: list[str] = []
    entity_surfaces: list[str] = []
    if job.constraints_path is not None:
        with tr.span("cli.read_constraints"):
            with open(job.constraints_path, encoding="utf-8") as fh:
                lines = [ln for ln in fh.read().splitlines() if ln.strip()]
            doc = json.loads(lines[job.constraint_line])
            phrase_surfaces = list(doc.get("phrases", []))
            entity_surfaces = list(doc.get("entities", []))
    with tr.span("tokens.tokenize"):
        phrases = [tokenize_phrase(s, table) for s in phrase_surfaces]
        # build_vocab_fsa segments entities itself; this measures that cost
        # for the stage table without changing what the decode computes.
        for s in entity_surfaces:
            tokenize_phrase(s, table)

    use_hlc = job.mode in ("hlc", "control-dag") and bool(phrases)
    use_vc = job.mode in ("vc", "control-dag") and job.lexicon_path is not None
    use_lc = job.mode in ("lc", "control-dag")
    seen: dict = {"dag": dag, "phrases": phrases}

    vocab_fsa = None
    if use_vc:
        with tr.span("cli.read_lexicon"):
            dictionary = _read_words(job.lexicon_path)
        hit = job.lexicon_path in compiled
        with tr.span("constraints.vocab_hit" if hit else "constraints.vocab_compile"):
            vocab_fsa = build_vocab_fsa(dictionary, None, entity_surfaces, table)
        compiled.add(job.lexicon_path)
        seen["vocab"] = vocab_fsa.automaton

    prune_cfg = PruneConfig(k_e=job.k_e, k_t=job.k_t, constraints=tuple(phrases))
    seen["prune_cfg"] = prune_cfg
    if job.mode == "cbs-dag":
        with tr.span("dag.prune"):
            pruned = prune_dag(dag, prune_cfg)
        with tr.span("cbs.search"):
            result = cbs_dag_decode(pruned, phrases, job.beam)
    elif job.mode in ("wfsa-shortest", "hlc", "vc", "lc", "control-dag"):
        with tr.span("wfsa.convert"):
            w = dag_to_wfsa(dag, prune_cfg)
        seen["convert"] = w
        if use_hlc:
            for phrase in phrases:
                with tr.span("constraints.hlc_build"):
                    hlc = build_hlc_fsa(phrase)
                with tr.span("wfsa.hlc_intersect"):
                    w = intersect(w, hlc)
            seen["hlc"] = w
        if use_vc:
            with tr.span("wfsa.vc_intersect"):
                w = intersect(w, vocab_fsa.automaton)
            seen["vc"] = w
        feasible = True
        if use_hlc or use_vc:
            with tr.span("wfsa.has_path"):
                feasible = has_accepting_path(w)
        if not feasible:
            result = DecodeResult(
                status=STATUS_EMPTY_INTERSECTION,
                note="constraint intersection has no accepting path",
            )
        elif use_lc:
            with tr.span("wfsa.rm_epsilon"):
                w = rm_epsilon(w)
            with tr.span("wfsa.toposort"):
                w = topological_sort(w)
            cfg = LcConfig(
                target_length=job.target_length,
                strictness=job.strictness,
                edge_prune_threshold=job.edge_prune_threshold,
                upper_bound=job.upper_bound,
            )
            with tr.span("length.search"):
                result = dfs_viterbi(w, cfg)
            seen["length"] = (w, cfg)
        else:
            with tr.span("wfsa.shortest_path"):
                result = shortest_path(w)
    else:
        raise ValueError(f"the replay does not cover mode {job.mode!r}")

    with tr.span("cli.finish"):
        if result.status == STATUS_OK:
            flags = tuple(_contains(result.tokens, p.tokens) for p in phrases)
            if not result.constraints_met:
                result = replace(result, constraints_met=flags)
            result = replace(result, text=table.detokenize(result.tokens))
    return result, seen


def counters(job: DecodeJob, result: DecodeResult, seen: dict, with_buckets: bool) -> dict:
    """Per-job counts for the stage table, computed outside any span."""
    out: dict[str, float] = {}
    cfg = seen["prune_cfg"]
    pruned = prune_dag(seen["dag"], cfg)
    out["dag.forced_emissions"] = sum(max(0, len(em) - cfg.k_e) for em in pruned.emissions)
    if "convert" in seen:
        out["wfsa.convert_arcs"] = seen["convert"].num_arcs
    for stage in ("hlc", "vc"):
        if stage in seen:
            out[f"wfsa.{stage}_states"] = seen[stage].num_states
            out[f"wfsa.{stage}_arcs"] = seen[stage].num_arcs
    if "vocab" in seen:
        out["constraints.vocab_states"] = seen["vocab"].num_states
        out["constraints.vocab_arcs"] = seen["vocab"].num_arcs
        out["constraints.vocab_live_arcs"] = live_arcs(seen["vocab"])
    if "length" in seen and result.status == STATUS_OK:
        w, lc_cfg = seen["length"]
        out["length.output_ratio"] = len(result.tokens) / lc_cfg.target_length
        if with_buckets:
            out["length.finite_buckets"] = len(length_cost_table(w, lc_cfg))
    if job.mode == "cbs-dag":
        phrases = seen["phrases"]
        out["cbs.beam_width"] = effective_beam_size(job.beam, sum(len(p) for p in phrases))
        flags = result.constraints_met
        out["cbs.met_ratio"] = sum(flags) / len(flags) if flags else 1.0
    return out
