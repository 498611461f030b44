"""The measured process: one fresh interpreter per call, started by run.py.

It imports dagdec, runs the untimed warm-up job (the end of which closes
set-up time), then runs jobs one after another in a closed loop, each timed
from outside one `run_decode` call. With tracing on, every untraced job is
followed by a replay of its stages under spans (see replay.py). Results,
outputs and spans go to one JSON file that run.py reads.

    python3 perfbench/worker.py --jobs JOBS.json --out OUT.json --t0-ns NS \
        --phase run --seconds 20 --trace 0 --pool 16 --quality 16
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import math
import random
import resource
import time

from dagdec.cli import DecodeJob, run_decode
from dagdec.metrics import (
    EvalRecord,
    brevity_penalty,
    build_eval_vocabulary,
    compute_report,
    neologism_rate,
    slot_error_rate,
)
from dagdec.result import STATUS_OK

import replay


SETUP_CALIBRATIONS = 24  # kernel runs after a set-up-only warm-up


_LATTICE: list = []  # calibration lattice, built on first use (outside set-up)


def _calibration_lattice() -> list:
    if not _LATTICE:
        rng = random.Random(0)
        for v in range(300):
            _LATTICE.append([(v + 1 + rng.randrange(8), rng.expovariate(1.0)) for _ in range(3)])
    return _LATTICE


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python kernel of the kinds of work the
    decoder does: dict updates on tuple keys with a bounded heap, a
    (vertex, length) table filled like the length search's, and a
    40k-entry dict probed at scattered keys. The host's speed drifts by 10-50% over
    tens of seconds as other tenants load it; run.py divides each job's
    time by the kernel's time next to it, so that drift cancels."""
    t = time.perf_counter()
    scores: dict[tuple[int, int], float] = {}
    heap: list[tuple[float, int]] = []
    for i in range(6000):
        key = (i * 7919 % 1543, i & 7)
        scores[key] = scores.get(key, 0.0) + math.log1p(i)
        heapq.heappush(heap, (scores[key], i))
        if len(heap) > 64:
            heapq.heappop(heap)
    sorted(scores.items(), key=lambda kv: kv[1])

    lattice = _calibration_lattice()
    delta: dict[tuple[int, int], float] = {}
    for v in range(len(lattice) - 1, -1, -1):
        for length in range(1, 30):
            best = math.inf
            for dst, cost in lattice[v]:
                tail = delta.get((dst, length - 1), 0.0 if length == 1 else math.inf)
                best = min(best, cost + tail)
            delta[(v, length)] = best

    table = {(i * 2654435761) % 1000003: i for i in range(40000)}
    for i in range(0, 1000003, 17):
        table.get(i)
    return time.perf_counter() - t


def digest(tokens, cost) -> str:
    return hashlib.sha256(json.dumps([list(tokens), repr(cost)]).encode()).hexdigest()[:16]


def output_of(result) -> dict:
    return {
        "status": result.status,
        "tokens": list(result.tokens),
        "cost": repr(result.cost),
        "text": result.text,
        "constraints_met": list(result.constraints_met),
        "digest": digest(result.tokens, result.cost),
    }


def error_output(exc: Exception) -> dict:
    return {"status": "error", "error": f"{type(exc).__name__}: {exc}", "digest": None}


def job_order(i: int, pool: int, first: int, end: int) -> int | None:
    """Index of the i-th timed job: cycle the pool, or walk the distinct
    jobs first..end-1 (job 0 is the warm-up and its lexicon is already
    compiled)."""
    if pool:
        return i % pool
    return first + i if first + i < end else None


def timed_loop(jobs, seconds, pool, minimum, traced=None, first=1, end=0) -> dict:
    """Closed loop for `seconds` (and at least `minimum` jobs, while the
    distinct jobs first..end-1 last): the latency, job index and output
    digest of every job, plus first outputs.

    With a TracedRun, each untraced job is followed by a traced replay:
    of the same job when the pool is cycled, of the next distinct job
    otherwise (a lexicon must not be compiled twice). Interleaving keeps
    both sides under the same heap and cache conditions.

    One calibration kernel runs before the loop and one after each job,
    outside every latency; their times go to "calib_s"."""
    latencies, indices, digests, calibrations = [], [], [], [calibrate()]
    traced_latencies, traced_indices, traced_digests = [], [], []
    outputs: dict[int, dict] = {}
    i = 0
    exhausted = False
    began = time.perf_counter()
    while True:
        idx = job_order(i, pool, first, end)
        if idx is None:
            exhausted = True
            break
        i += 1
        job = DecodeJob(**jobs[idx]["fields"])
        t = time.perf_counter()
        try:
            result = run_decode(job)
        except Exception as exc:  # one bad job must not end the run
            result = exc
        latencies.append(time.perf_counter() - t)
        out = error_output(result) if isinstance(result, Exception) else output_of(result)
        indices.append(idx)
        digests.append(out["digest"])
        outputs.setdefault(idx, out)
        if traced is not None:
            if not pool:
                idx = job_order(i, pool, first, end)
                if idx is None:
                    exhausted = True
                    break
                i += 1
            elapsed, dig = traced.one(idx, i)
            traced_latencies.append(elapsed)
            traced_indices.append(idx)
            traced_digests.append(dig)
        calibrations.append(calibrate())
        if len(latencies) >= minimum and time.perf_counter() - began >= seconds:
            break
    loop = {
        "latencies": latencies,
        "indices": indices,
        "digests": digests,
        "outputs": outputs,
        "wall_s": time.perf_counter() - began,
        "calib_s": calibrations,
        "exhausted": exhausted,
    }
    if traced is not None:
        loop["traced"] = {
            "latencies": traced_latencies,
            "indices": traced_indices,
            "digests": traced_digests,
            "outputs": traced.outputs,
            "counters": traced.counts,
            "spans": traced.tracer.spans,
        }
    return loop


def quality(jobs, outputs: dict[int, dict], indices: list[int]) -> tuple[dict, list, object]:
    """Slot errors, neologisms and brevity via dagdec.metrics, over a fixed
    set of jobs so that the values depend on the seed alone. Also returns
    the records and their joint vocabulary, for timing compute_report."""
    records, per_job_neo, words, oov = [], [], 0, 0
    for idx in indices:
        out = outputs[idx]
        if out["status"] != STATUS_OK:
            continue
        job = jobs[idx]
        record = EvalRecord(
            output=out["text"],
            required_values=tuple(job["phrase_surfaces"]),
            references=(job["gold_text"],),
        )
        records.append(record)
        vocab = build_eval_vocabulary(extra_words=job["eval_words"])
        per_job_neo.append(neologism_rate([record], vocab))
        for word in out["text"].split():
            words += 1
            oov += neologism_rate([EvalRecord(output=word)], vocab) > 0
    if not records:
        return {}, [], None
    cands = [max(1, len(r.output.split())) for r in records]
    refs = [max(1, len(r.references[0].split())) for r in records]
    summary = {
        "records": len(records),
        "slot_error_rate": slot_error_rate(records),
        "neologism_rate": sum(per_job_neo) / len(per_job_neo) / 100.0,
        "word_oov_rate": oov / words if words else 0.0,
        "brevity_penalty": brevity_penalty(cands, refs),
    }
    joint = build_eval_vocabulary(extra_words=[w for i in indices for w in jobs[i]["eval_words"]])
    return summary, records, joint


class TracedRun:
    """Replays jobs under one tracer; keeps outputs and per-job counters."""

    def __init__(self, jobs) -> None:
        self.jobs = jobs
        self.tracer = replay.Tracer()
        self.compiled: set[str] = set()
        self.outputs: dict[int, dict] = {}
        self.counts: dict[int, dict] = {}

    def one(self, idx: int, span_job: int) -> tuple[float, str | None]:
        """Replay job `idx` as span job `span_job`; return its wall time and
        output digest."""
        job = DecodeJob(**self.jobs[idx]["fields"])
        self.tracer.job = span_job
        t = time.perf_counter()
        try:
            with self.tracer.span("job"):
                result, seen = replay.replay(job, self.tracer, self.compiled)
        except Exception as exc:  # one bad job must not end the run
            out = error_output(exc)
            self.outputs.setdefault(idx, out)
            return time.perf_counter() - t, out["digest"]
        elapsed = time.perf_counter() - t
        out = output_of(result)
        self.outputs.setdefault(idx, out)
        if idx not in self.counts:
            self.counts[idx] = replay.counters(job, result, seen, with_buckets=True)
        return elapsed, out["digest"]


def time_report(records: list, vocab, repeats: int = 5) -> list:
    """compute_report over the run's records, as a span per call."""
    tracer = replay.Tracer()
    for _ in range(repeats):
        with tracer.span("metrics.report"):
            compute_report(records, vocab)
    return tracer.spans


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--jobs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0-ns", type=int, required=True)
    ap.add_argument("--phase", choices=("setup", "run", "baseline"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--pool", type=int, default=0)
    ap.add_argument("--quality", type=int, default=0)
    ap.add_argument("--first", type=int, default=1, help="first distinct job to time")
    ap.add_argument("--limit", type=int, default=0, help="distinct jobs to take; 0 = all")
    args = ap.parse_args()

    if args.phase == "baseline":
        return baseline(args.jobs, args.out)
    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)

    # The warm-up closes set-up time. Traced runs replay it under spans,
    # so a cold lexicon compile shows in the stage table.
    traced_run = TracedRun(jobs) if args.trace else None
    if traced_run:
        traced_run.one(0, -1)  # span job -1; its time is not a traced latency
        warm_out = traced_run.outputs[0]
    else:
        warm_out = output_of(run_decode(DecodeJob(**jobs[0]["fields"])))
    report: dict = {"setup_s": (time.time_ns() - args.t0_ns) / 1e9}
    if args.phase == "setup":
        report["calib_s"] = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    if args.phase == "run":
        end = min(len(jobs), args.first + args.limit) if args.limit else len(jobs)
        if args.limit:  # the job range ends the loop
            minimum = args.limit
        else:
            minimum = 1 if args.trace else args.pool or args.quality
        loop = timed_loop(jobs, args.seconds, args.pool, minimum, traced_run, args.first, end)
        traced = loop.pop("traced", None)
        loop["outputs"].setdefault(0, warm_out)
        if args.trace:  # the replay took part of the loop's time
            wanted = sorted(loop["outputs"])
        elif args.pool:
            wanted = range(args.pool)
        else:  # only the interpreter that timed jobs 1..quality reports them
            wanted = [i for i in range(1, 1 + args.quality) if i in loop["outputs"]]
        q, records, vocab = quality(jobs, loop["outputs"], list(wanted))
        report.update(loop=loop, quality=q)
        if traced is not None:
            if records:
                traced["spans"] += time_report(records, vocab)
            report["traced"] = traced
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


def baseline(work_dir: str, out_path: str) -> int:
    """The ROADMAP's baseline decode, replayed twice under spans: cold (the
    lexicon is compiled) then warm (cache hit).

    Lattice: generate_synthetic_dag(seed=1, L=512, emission_degree=40,
    transition_degree=8, vocab_size=2000), k_e = k_t = 5, control-dag with
    target length 170. Lexicon: every word among the top-7 emissions of
    some vertex (1664 words; the ROADMAP used about 1.7k). Phrases: two
    2-token windows of the unconstrained shortest path.
    """
    from dagdec.cli import synthetic_token_table
    from dagdec.dag import PruneConfig, generate_synthetic_dag, prune_dag, write_dag
    from dagdec.tokens import write_token_table
    from dagdec.wfsa import dag_to_wfsa, shortest_path

    dag = generate_synthetic_dag(
        seed=1,
        num_vertices=512,
        emission_degree=40,
        transition_degree=8,
        concentration=0.6,
        vocab_size=2000,
    )
    table = synthetic_token_table(2000)
    cfg = PruneConfig(k_e=5, k_t=5)
    emitted = sorted({t for em in prune_dag(dag, PruneConfig(7, 5)).emissions for t, _ in em})
    path = shortest_path(dag_to_wfsa(dag, cfg)).tokens
    mid = len(path) // 2
    phrases = [table.detokenize(path[i : i + 2]) for i in (0, mid)]
    files = {name: f"{work_dir}/baseline_{name}" for name in ("dag", "table", "lex", "cons")}
    write_dag(dag, files["dag"])
    write_token_table(table, files["table"])
    with open(files["lex"], "w", encoding="utf-8") as fh:
        fh.write("".join(table.detokenize([t]) + "\n" for t in emitted))
    with open(files["cons"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"phrases": phrases, "entities": []}) + "\n")
    job = DecodeJob(
        dag_path=files["dag"],
        table_path=files["table"],
        mode="control-dag",
        constraints_path=files["cons"],
        lexicon_path=files["lex"],
        k_e=5,
        k_t=5,
        target_length=170,
    )
    compiled: set[str] = set()
    runs = []
    for attempt in range(2):
        tracer = replay.Tracer()
        tracer.job = attempt
        with tracer.span("job"):
            result, seen = replay.replay(job, tracer, compiled)
        counts = replay.counters(job, result, seen, with_buckets=False)
        runs.append({"spans": tracer.spans, "counters": counts, "output": output_of(result)})
    info = {"lexicon_words": len(emitted), "phrases": phrases, "path_tokens": len(path)}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "info": info}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
