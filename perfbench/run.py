"""dagdec benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload control-warm --seed 1 --seconds 20 --trace 0

Run from the repository root. The run generates its inputs from the seed
(gen.py), starts fresh interpreters for set-up and the timed loop
(worker.py), checks every output (check.py), and prints a run record line
followed by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-stage ones from a traced replay (replay.py). Spans and the run
record are also written under perfbench/out/.

    python3 perfbench/run.py --baseline     # the ROADMAP stage table
    python3 perfbench/run.py --pin --workload W --seeds 0-49
                                            # pin output digests
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import check
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")
WORK_DIR = os.path.join(HERE, "work")

SETUP_PROCESSES = 4  # set-up-only interpreters, besides the measured one
QUALITY_JOBS = 16  # distinct-job workloads: jobs 1..16 carry the quality metrics
MAX_JOBS_PER_S = 12  # distinct-job workloads get this many jobs per second; about
# three times the rate at this commit. A faster program ends the loop early
# ("loop_exhausted" in the record) rather than repeat a lexicon.
CHUNK_JOBS = 24  # distinct-job workloads: timed jobs per interpreter. The
# static-vocab cache never evicts, so peak RSS and GC pauses grow with the
# jobs a process has run; a fixed count per process keeps them from
# depending on how fast the program is.
RUN_BUDGET_S = 170  # a run must end within 180 s, set-up included
REFERENCE_CALIB_MS = 30.0  # worker.calibrate() at the reference speed (2-core
# shared x86-64 host, Python 3.11): every reported time is scaled to it

STAGES = (
    "dag.read",
    "dag.prune",
    "tokens.read",
    "tokens.tokenize",
    "constraints.hlc_build",
    "constraints.vocab_compile",
    "constraints.vocab_hit",
    "wfsa.convert",
    "wfsa.hlc_intersect",
    "wfsa.vc_intersect",
    "wfsa.has_path",
    "wfsa.rm_epsilon",
    "wfsa.toposort",
    "wfsa.shortest_path",
    "length.search",
    "cbs.search",
    "metrics.report",
)
COUNTERS = {
    "dag.forced_emissions": "count",
    "wfsa.convert_arcs": "count",
    "wfsa.hlc_states": "count",
    "wfsa.hlc_arcs": "count",
    "wfsa.vc_states": "count",
    "wfsa.vc_arcs": "count",
    "constraints.vocab_states": "count",
    "constraints.vocab_arcs": "count",
    "constraints.vocab_live_arcs": "count",
    "length.finite_buckets": "count",
    "length.output_ratio": "ratio",
    "cbs.beam_width": "count",
    "cbs.met_ratio": "ratio",
}


class BenchError(Exception):
    """The run could not produce a result."""


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and its
    value: the 11th largest sample. Below 21 samples that percentile would
    not exceed the median, so the maximum (percentile 100) stands in."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def slowdown(calib_s: list[float]) -> float:
    """How much slower than the reference speed a process ran: the median
    of its calibration kernels over REFERENCE_CALIB_MS. A time divided by
    this reads as it would at the reference speed."""
    return statistics.median(calib_s) * 1000 / REFERENCE_CALIB_MS


def scaled_latencies(loop: dict) -> list[float]:
    """Each job's latency (ms) at the reference speed: divided by the
    slowdown that the kernels run just before and just after it show."""
    calib = loop["calib_s"]
    out = []
    for i, latency in enumerate(loop["latencies"]):
        near = (calib[i] + calib[min(i + 1, len(calib) - 1)]) / 2
        out.append(latency * REFERENCE_CALIB_MS / near)
    return out


def spawn(args: list[str], work: str, timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; return what it wrote."""
    fd, out_path = tempfile.mkstemp(suffix=".json", dir=work)
    os.close(fd)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    t0 = time.time_ns()
    cmd = [sys.executable, WORKER, "--out", out_path, "--t0-ns", str(t0), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def source_digest() -> str:
    """Content hash of src/, standing in for the commit outside a git tree."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit() -> str | None:
    """HEAD of the repository the benchmark sits in; None outside git."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_pins(workload: str, seed: int) -> list[str]:
    if not os.path.exists(DIGESTS):
        return []
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed), "").split()


def prepare(workload: str, seed: int, seconds: float, work: str) -> tuple[list, list, list]:
    """Generate the workload's jobs; return them, the worker arguments that
    describe the loop, and the token surfaces for the checker."""
    spec = gen.WORKLOADS[workload]
    count = spec.pool or 1 + max(QUALITY_JOBS, math.ceil(MAX_JOBS_PER_S * seconds))
    jobs = gen.generate(workload, seed, work, count)
    jobs_path = os.path.join(work, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    loop_args = ["--jobs", jobs_path, "--pool", str(spec.pool), "--quality", str(QUALITY_JOBS)]
    return jobs, loop_args, list(gen.make_vocabulary(seed).surfaces)


def verify(jobs, surfaces, pins, outputs: dict, executions: list[tuple[int, str]]) -> dict:
    """Check every distinct output, then every execution against it."""
    problems: dict[int, list[str]] = {}
    for idx, out in outputs.items():
        pinned = pins[idx] if idx < len(pins) else None
        found = check.check(jobs[idx], out, surfaces, pinned)
        if found:
            problems[idx] = found
    failed = sum(
        1 for idx, dig in executions if idx in problems or dig != outputs[idx]["digest"]
    )
    return {"problems": problems, "failed": failed}


def stage_samples(spans: list) -> tuple[dict[str, list[float]], list[float]]:
    """Per-job self time (ms) summed per stage, and per-job summed stage
    time, from spans (name, job, parent, start, end)."""
    child_ns = [0] * len(spans)
    for name, job, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    per_job: dict[int, dict[str, float]] = {}
    staged: dict[int, float] = {}
    samples: dict[str, list[float]] = {}
    for i, (name, job, parent, start, end) in enumerate(spans):
        dur_ms = (end - start) / 1e6
        if name == "job":
            continue
        if name == "metrics.report":
            samples.setdefault(name, []).append(dur_ms)
            continue
        self_ms = dur_ms - child_ns[i] / 1e6
        stages = per_job.setdefault(job, {})
        stages[name] = stages.get(name, 0.0) + self_ms
        if parent >= 0 and spans[parent][0] == "job":
            staged[job] = staged.get(job, 0.0) + dur_ms
    for stages in per_job.values():
        for name, ms in stages.items():
            samples.setdefault(name, []).append(ms)
    return samples, list(staged.values())


def merged_spans(reports: list[dict]) -> list:
    """The traced spans of all interpreters in one list, with job ids and
    parent indices made unique across them."""
    spans = []
    for n, report in enumerate(reports):
        base = len(spans)
        for name, job, parent, start, end in report["traced"]["spans"]:
            parent = parent + base if parent >= 0 else -1
            spans.append((name, job + n * 1_000_000, parent, start, end))
    return spans


def per_layer(reports: list[dict]) -> tuple[dict, dict]:
    samples, staged = stage_samples(merged_spans(reports))
    slow = slowdown([c for r in reports for c in r["loop"]["calib_s"]])
    untraced = [s for r in reports for s in r["loop"]["latencies"]]
    traced_lat = [s for r in reports for s in r["traced"]["latencies"]]
    untraced_p50 = statistics.median(untraced) * 1000 / slow
    traced_p50 = statistics.median(traced_lat) * 1000 / slow
    staged = [ms / slow for ms in staged]
    metrics: dict[str, dict] = {}
    notes: dict = {"slowdown": slow}
    for stage in STAGES:
        values = [ms / slow for ms in samples.get(stage, [])]
        p50 = statistics.median(values) if values else 0.0
        pct, tail_ms = tail(values) if values else (0.0, 0.0)
        metrics[f"{stage}_ms"] = {"value": p50, "unit": "ms"}
        metrics[f"{stage}_ms.tail"] = {"value": tail_ms, "unit": "ms"}
        notes[stage] = {"samples": len(values), "tail_percentile": pct}
    counts: dict[str, list[float]] = {}
    counters = {idx: c for r in reports for idx, c in r["traced"]["counters"].items()}
    for per_job in counters.values():
        for name, value in per_job.items():
            counts.setdefault(name, []).append(value)
    for name, unit in COUNTERS.items():
        values = counts.get(name, [])
        metrics[name] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        notes[name] = {"samples": len(values)}
    metrics["cli.run_decode_ms"] = {"value": untraced_p50, "unit": "ms"}
    metrics["trace.coverage"] = {
        "value": statistics.median(staged) / untraced_p50 if staged else 0.0,
        "unit": "ratio",
    }
    metrics["trace.overhead"] = {"value": traced_p50 / untraced_p50, "unit": "ratio"}
    notes["traced_jobs"] = {"samples": len(traced_lat)}
    return metrics, notes


def end_to_end(
    reports: list[dict], setups: list[float], failed: int, attempted: int
) -> tuple[dict, dict]:
    """End-to-end metrics over the timed interpreters. Times are scaled to
    the reference speed by each process's own calibration (see
    scaled_latencies); throughput counts the loops' wall time less their
    calibration kernels; peak RSS is the median over the interpreters."""
    loops = [r["loop"] for r in reports]
    raw_ms = [s * 1000 for loop in loops for s in loop["latencies"]]
    lat_ms = [ms for loop in loops for ms in scaled_latencies(loop)]
    slow = sum(raw_ms) / sum(lat_ms)  # time-weighted, for the loop's wall time
    pct, tail_ms = tail(lat_ms)
    busy_s = sum(loop["wall_s"] - sum(loop["calib_s"][1:]) for loop in loops)
    q = reports[0]["quality"]
    metrics = {
        "jobs_per_s": {"value": len(lat_ms) / busy_s * slow, "unit": "1/s"},
        "job_ms.p50": {"value": statistics.median(lat_ms), "unit": "ms"},
        "job_ms.tail": {"value": tail_ms, "unit": "ms"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {
            "value": statistics.median(r["peak_rss_mb"] for r in reports),
            "unit": "MB",
        },
        "ok_share": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        "slot_fill_rate": {"value": 1.0 - q.get("slot_error_rate", 1.0), "unit": "ratio"},
        "in_vocab_rate": {"value": 1.0 - q.get("word_oov_rate", 1.0), "unit": "ratio"},
        "brevity_penalty": {"value": q.get("brevity_penalty", 0.0), "unit": "ratio"},
    }
    notes = {
        "job_ms": {"samples": len(lat_ms), "tail_percentile": pct},
        "slowdown": slow,
        "raw": {
            "jobs_per_s": len(raw_ms) / busy_s,
            "job_ms.p50": statistics.median(raw_ms),
            "job_ms.tail": tail(raw_ms)[1],
        },
        "setup_s": {"samples": setups},
        "quality": q,
        "interpreters": len(reports),
    }
    return metrics, notes


def run(args: argparse.Namespace) -> int:
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        jobs, loop_args, surfaces = prepare(args.workload, args.seed, args.seconds, work)
        setups = []
        if not args.trace:  # traced runs report no set-up time
            for _ in range(SETUP_PROCESSES):
                report = spawn(["--phase", "setup", *loop_args], work, deadline - time.monotonic())
                setups.append(report["setup_s"] / slowdown(report["calib_s"]))
        reports, exhausted = measure(args, len(jobs), loop_args, work, deadline)
        setups += [r["setup_s"] / slowdown(r["loop"]["calib_s"]) for r in reports]

        # Every execution, untraced or replayed, must give its job's first
        # output; the untraced one is checked when both exist.
        loops = [r["loop"] for r in reports] + [r["traced"] for r in reports if args.trace]
        outputs: dict[int, dict] = {}
        executions = []
        for loop in loops:
            for k, out in loop["outputs"].items():
                outputs.setdefault(int(k), out)
            executions += zip(loop["indices"], loop["digests"])
        pins = load_pins(args.workload, args.seed)
        verdict = verify(jobs, surfaces, pins, outputs, executions)
        attempted = len(executions)
        failed = verdict["failed"]

        if args.trace:
            metrics, notes = per_layer(reports)
        else:
            metrics, notes = end_to_end(reports, setups, failed, attempted)
        notes["loop_exhausted"] = exhausted
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "commit": commit(),
            "source_sha256": source_digest(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "jobs": {
                "generated": len(jobs),
                "timed": sum(len(r["loop"]["latencies"]) for r in reports),
                "traced": sum(len(r["traced"]["latencies"]) for r in reports if args.trace),
                "distinct_checked": len(outputs),
                "digests_pinned": min(len(pins), len(jobs)),
            },
            "problems": verdict["problems"],
            "notes": notes,
            "metrics": metrics,
        }
        write_outputs(args, record, merged_spans(reports) if args.trace else [])
        correct = not verdict["problems"] and failed == 0
        print(json.dumps(record, default=str))
        print(
            json.dumps(
                {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
            )
        )
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, count: int, loop_args: list, work: str, deadline: float) -> tuple[list, bool]:
    """Run the timed loop; return the interpreters' reports and whether the
    generated jobs ran out before --seconds of loop time. A pool runs in
    one interpreter. Distinct jobs run CHUNK_JOBS to an interpreter, in
    fresh interpreters one after another, until --seconds of loop time."""
    run_args = ["--phase", "run", "--trace", str(args.trace), *loop_args]
    if gen.WORKLOADS[args.workload].pool:
        cmd = [*run_args, "--seconds", str(args.seconds)]
        return [spawn(cmd, work, deadline - time.monotonic())], False
    reports, first, looped = [], 1, 0.0
    while looped < args.seconds:
        if first + CHUNK_JOBS > count:
            return reports, True
        cmd = [*run_args, "--first", str(first), "--limit", str(CHUNK_JOBS)]
        reports.append(spawn(cmd, work, deadline - time.monotonic()))
        looped += reports[-1]["loop"]["wall_s"]
        first += CHUNK_JOBS
    return reports, False


def write_outputs(args, record: dict, spans: list) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if args.trace:
        with open(stem + ".spans.jsonl", "w", encoding="utf-8") as fh:
            for name, job, parent, start, end in spans:
                doc = {"name": name, "job": job, "parent": parent, "start_ns": start, "end_ns": end}
                fh.write(json.dumps(doc) + "\n")


def pin(args: argparse.Namespace) -> int:
    """Record the digest of every generated job's output for each seed in
    --seeds. Outputs must pass every other check first."""
    first, last = (int(x) for x in args.seeds.split("-"))
    pinned = {}
    os.makedirs(WORK_DIR, exist_ok=True)
    for seed in range(first, last + 1):
        work = tempfile.mkdtemp(prefix=f"pin-{args.workload}-{seed}-", dir=WORK_DIR)
        try:
            jobs, loop_args, surfaces = prepare(args.workload, seed, 0, work)
            report = spawn(["--phase", "run", "--seconds", "0", *loop_args], work, 600)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        outputs = {int(k): v for k, v in report["loop"]["outputs"].items()}
        verdict = verify(jobs, surfaces, [], outputs, [])
        if verdict["problems"]:
            raise BenchError(f"seed {seed}: {verdict['problems']}")
        pinned[str(seed)] = " ".join(outputs[i]["digest"] for i in range(len(outputs)))
        print(f"{args.workload} seed {seed}: {len(outputs)} digests", file=sys.stderr)
    table = {}
    if os.path.exists(DIGESTS):  # re-read: other workloads may be pinning too
        with open(DIGESTS, encoding="utf-8") as fh:
            table = json.load(fh)
    table.setdefault(args.workload, {}).update(pinned)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def baseline() -> int:
    """Replay the ROADMAP's baseline decode under spans and print its table."""
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="baseline-", dir=WORK_DIR)
    try:
        report = spawn(["--phase", "baseline", "--jobs", work], work, timeout=600)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cold, warm = report["runs"]

    def ms(run: dict, *names: str) -> str:
        times = [(e - s) / 1e6 for name, _, _, s, e in run["spans"] if name in names]
        return " + ".join(f"{t:.0f} ms" if t < 1000 else f"{t / 1000:.2f} s" for t in times)

    def size(prefix: str) -> str:
        counts = cold["counters"]
        return f"{counts[prefix + '_states']} st / {counts[prefix + '_arcs']} arcs"

    rows = [
        ("prune + dag_to_wfsa", ms(cold, "wfsa.convert"), f"{cold['counters']['wfsa.convert_arcs']} arcs"),
        ("HLC intersect x2", ms(cold, "wfsa.hlc_intersect"), size("wfsa.hlc")),
        (
            "build_vocab_fsa cold / warm",
            f"{ms(cold, 'constraints.vocab_compile')} / {ms(warm, 'constraints.vocab_hit')}",
            size("constraints.vocab"),
        ),
        ("VC intersect", ms(cold, "wfsa.vc_intersect"), size("wfsa.vc")),
        ("rm_epsilon + topological_sort", ms(cold, "wfsa.rm_epsilon", "wfsa.toposort"), ""),
        ("dfs_viterbi (target 170)", ms(cold, "length.search"), ""),
    ]
    lines = ["| stage | time | size after |", "|---|---|---|"]
    lines += [f"| {a} | {b} | {c} |" for a, b, c in rows]
    out, info = cold["output"], report["info"]
    same = warm["output"]["digest"] == out["digest"]
    lines.append(
        f"\nlexicon {info['lexicon_words']} words, phrases {info['phrases']}; output "
        f"{len(out['tokens'])} tokens at cost {out['cost']}; warm output identical: {same}"
    )
    print("\n".join(lines))
    return 0 if same else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true", help="print the ROADMAP stage table")
    ap.add_argument("--pin", action="store_true", help="pin output digests for --seeds")
    ap.add_argument("--seeds", default="0-9", help="seed range for --pin, as A-B")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "dagdec")):
        print(f"error: no dagdec sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.baseline:
            return baseline()
        if args.workload is None:
            ap.error("--workload is required")
        if args.pin:
            return pin(args)
        return run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
