"""Command-line surface: decode lattices under constraints, build lexicons,
fit length predictors, evaluate outputs, and generate synthetic fixtures.

All decode output is JSON-lines (UTF-8, LF). Exit codes: 0 on success, 1
for I/O and validation errors, 3 when decoding itself is infeasible (an
empty constraint intersection or no path within the length bound).
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import MISSING, Field, dataclass, field, fields, replace

from .cbs import beam_decode, cbs_dag_decode, greedy_decode
from .constraints import (
    ConstraintPhrase,
    LexiconFsa,
    _completion_masks,
    build_vocab_fsa,
    constrained_product,
    extract_lexicon,
    tokenize_phrase,
)
from .dag import Dag, PruneConfig, generate_synthetic_dag, read_pruned_dag, write_dag
from .length import (
    LcConfig,
    dfs_viterbi,
    fit_length_predictor,
    load_length_predictor,
    predict_target_length,
    save_length_predictor,
)
from .metrics import EvalRecord, build_eval_vocabulary, compute_report
from .result import STATUS_EMPTY_INTERSECTION, STATUS_OK, DecodeResult
from .tokens import TokenTable, read_token_table, write_token_table
from .wfsa import _lattice_acceptor, shortest_path

MODES = ("greedy", "beam", "cbs-dag", "wfsa-shortest", "hlc", "vc", "lc", "control-dag")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 3


_PATH = ((str,), "a path string")
_INTEGER = ((int,), "an integer")
_NUMBER = ((int, float), "a number")  # the last type parses the flag


def _field(key: str, kind: tuple | None, default: object = MISSING, help: str | None = None):
    """A `DecodeJob` field with its batch manifest key, which with `-` for
    `_` is also its decode flag, the kind of value it accepts (None for mode
    and references, which are checked on their own), and its flag help. The
    field may be None exactly when its default is None."""
    return field(default=default, metadata={"key": key, "kind": kind, "help": help})


@dataclass(frozen=True)
class DecodeJob:
    """Everything one decode needs; validated for value kinds and against
    the selected mode. A bool is never a number here."""

    dag_path: str = _field("dag", _PATH, help="lattice JSON file")
    table_path: str = _field("table", _PATH, help="token table file")
    mode: str = _field("mode", None)
    constraints_path: str | None = _field("constraints", _PATH, None, "JSON-lines constraint file")
    constraint_line: int = _field("constraint_line", _INTEGER, 0)
    lexicon_path: str | None = _field("lexicon", _PATH, None, "word-per-line lexicon file")
    specials_path: str | None = _field("specials", _PATH, None, "token-per-line specials file")
    k_e: int = _field("ke", _INTEGER, 3, "emission pruning degree")
    k_t: int = _field("kt", _INTEGER, 3, "transition pruning degree")
    beam: int = _field("beam", _INTEGER, 4, "base beam size")
    target_length: int | None = _field("target_len", _INTEGER, None, "target output length in tokens")
    predictor_path: str | None = _field("len_predictor", _PATH, None, "two-line slope/intercept file")
    input_length: int | None = _field("input_len", _INTEGER, None, "input length for the predictor")
    strictness: float = _field("strictness", _NUMBER, 1.0)
    edge_prune_threshold: float = _field("edge_prune_p", _NUMBER, 0.7)
    upper_bound: int | None = _field("len_upper", _INTEGER, None, "override the length upper bound")
    references: tuple[str, ...] = _field("references", None, ())  # a manifest key, not a flag

    def validate(self) -> None:
        for f in _JOB_SPECS:
            value = getattr(self, f.name)
            if (wanted := _wrong_kind(f, value, "None")) is not None:
                raise ValueError(f"{f.name} must be {wanted}, got {value!r}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r} (expected one of {MODES})")
        if self.mode in ("hlc", "cbs-dag") and self.constraints_path is None:
            raise ValueError(f"mode {self.mode} requires a constraint file")
        if self.mode == "vc" and self.lexicon_path is None:
            raise ValueError("mode vc requires a lexicon")
        if self.mode in ("lc", "control-dag"):
            if self.target_length is None and self.predictor_path is None:
                raise ValueError(f"mode {self.mode} requires --target-len or --len-predictor")
            if self.predictor_path is not None and self.target_length is None and self.input_length is None:
                raise ValueError("--len-predictor requires --input-len")


# DecodeJob's fields with their metadata, read once: `validate` runs per decode
_JOB_SPECS = fields(DecodeJob)


def _wrong_kind(f: Field, value: object, null: str) -> str | None:
    """What field `f` must be, as `null` names the empty value, when `value`
    is not of its kind; None when it is, or when the field is unchecked."""
    kind = f.metadata["kind"]
    nullable = f.default is None
    if kind is None or (value is None and nullable):
        return None
    types, name = kind
    if isinstance(value, types) and not isinstance(value, bool):
        return None
    return f"{name} or {null}" if nullable else name


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


def _content_lines(path: str) -> list[str]:
    """The file's lines, less the blank and whitespace-only ones."""
    return [line for line in _read_lines(path) if line.strip()]


def _json_object(line: str, where: str) -> dict:
    doc = json.loads(line)
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _string_list(doc: dict, key: str, where: str) -> list[str]:
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ValueError(f"{where}: {key!r} must be a list of strings")
    return value


def _load_constraints(job: DecodeJob) -> tuple[list[str], list[str]]:
    """Phrase and entity surfaces for this job from its constraint file."""
    if job.constraints_path is None:
        return [], []
    lines = _content_lines(job.constraints_path)
    if not 0 <= job.constraint_line < len(lines):
        raise ValueError(
            f"constraint line {job.constraint_line} out of range for {job.constraints_path}"
        )
    where = f"{job.constraints_path} constraint line {job.constraint_line}"
    doc = _json_object(lines[job.constraint_line], where)
    return _string_list(doc, "phrases", where), _string_list(doc, "entities", where)


def _resolve_target_length(job: DecodeJob) -> int:
    if job.target_length is not None:
        return job.target_length
    pred = load_length_predictor(job.predictor_path)
    return predict_target_length(pred, job.input_length)


# Decodes under way in this process, and whether the cyclic collector was on
# when the first of them started; both change only under the lock.
_pause_lock = threading.Lock()
_pauses = 0
_gc_was_enabled = False


@contextmanager
def _collector_paused():
    """Keep the cyclic garbage collector off while any decode runs.

    A decode allocates tens of thousands of acyclic containers (parsed JSON,
    pair tuples, arcs, beam items) that reference counting frees anyway, so
    automatic collections would only walk them. The first decode to enter
    turns the collector off; the last to leave turns it back on if it was on
    at the start, and then runs the young-generation collection that came
    due, so the decode pays for it and not the caller's next allocation. The
    count makes overlapping decodes on several threads safe, where each
    saving and restoring `gc.isenabled()` on its own would not be.
    """
    global _pauses, _gc_was_enabled
    with _pause_lock:
        if _pauses == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _pauses += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pauses -= 1
            collect = _pauses == 0 and _gc_was_enabled
            if collect:
                gc.enable()
        # outside the lock: a finalizer the collection runs may start a decode
        if collect and gc.get_count()[0] > gc.get_threshold()[0]:
            gc.collect(0)


def run_decode(job: DecodeJob) -> DecodeResult:
    """Execute one decode job; the wall time covers decoding only.

    The cyclic garbage collector is paused for the whole call (see
    `_collector_paused`); the library functions it calls leave it alone.
    """
    with _collector_paused():
        return _run_decode(job)


def _run_decode(job: DecodeJob) -> DecodeResult:
    job.validate()
    table = read_token_table(job.table_path)
    phrase_surfaces, entity_surfaces = _load_constraints(job)
    phrases = [tokenize_phrase(s, table) for s in phrase_surfaces]

    use_hlc = job.mode in ("hlc", "control-dag") and bool(phrases)
    use_vc = job.mode in ("vc", "control-dag") and job.lexicon_path is not None
    use_lc = job.mode in ("lc", "control-dag")

    # only the modes that enforce phrases force their emissions in pruning
    enforced = phrases if use_hlc or job.mode == "cbs-dag" else []
    prune_cfg = PruneConfig(k_e=job.k_e, k_t=job.k_t, constraints=tuple(enforced))
    lattice = read_pruned_dag(job.dag_path, prune_cfg, len(table))

    vocab_fsa = None
    if use_vc:
        dictionary = _content_lines(job.lexicon_path)
        specials = None if job.specials_path is None else _content_lines(job.specials_path)
        vocab_fsa = build_vocab_fsa(dictionary, specials, entity_surfaces, table)

    started = time.perf_counter()
    if job.mode == "greedy":  # each row's first entry survives pruning
        result = greedy_decode(lattice)
    elif job.mode == "beam":
        result = beam_decode(lattice, job.beam)
    elif job.mode == "cbs-dag":
        result = cbs_dag_decode(lattice, phrases, job.beam)
    elif not (use_hlc or use_vc or use_lc):  # wfsa-shortest, or hlc without phrases
        result = shortest_path(_lattice_acceptor(lattice))
    else:
        product = None  # without constraints the pruned lattice is searched as it is
        if use_hlc or use_vc:
            product = constrained_product(lattice, enforced, vocab_fsa)
        if product is not None and not product.finals:
            result = DecodeResult(
                status=STATUS_EMPTY_INTERSECTION,
                note=_empty_product_note(lattice, enforced, vocab_fsa),
            )
        elif use_lc:
            cfg = LcConfig(
                target_length=_resolve_target_length(job),
                strictness=job.strictness,
                edge_prune_threshold=job.edge_prune_threshold,
                upper_bound=job.upper_bound,
            )
            result = dfs_viterbi(lattice if product is None else product, cfg)
        else:
            result = shortest_path(product)
    elapsed = time.perf_counter() - started

    extra = {**result.extra, "mode": job.mode, "wall_time_s": elapsed, "dag": job.dag_path}
    changes: dict[str, object] = {"extra": extra}
    if result.status == STATUS_OK:
        changes["text"] = table.detokenize(result.tokens)
        if not result.constraints_met:
            changes["constraints_met"] = tuple(_contains(result.tokens, p.tokens) for p in phrases)
    return replace(result, **changes)


def _empty_product_note(
    lattice: Dag, phrases: list[ConstraintPhrase], vocab: LexiconFsa | None
) -> str:
    """Names the first constraint that alone empties the product of the
    pruned lattice: each phrase in turn, then the vocabulary. A phrase
    alone can appear when its bit 0 is set in vertex 0's completion mask."""
    if not constrained_product(lattice, []).finals:
        return "the pruned lattice has no accepting path"
    masks, offsets = _completion_masks(lattice, phrases)
    for i, (phrase, offset) in enumerate(zip(phrases, offsets)):
        if not masks[0] >> offset & 1:
            return f"phrase {i} ({phrase.surface!r}) cannot appear in the pruned lattice"
    if vocab is not None and not constrained_product(lattice, [], vocab).finals:
        return "no path of the pruned lattice stays inside the vocabulary"
    return "no path of the pruned lattice meets every constraint together"


def _contains(haystack: tuple[int, ...], needle: tuple[int, ...]) -> bool:
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))


# ---------------------------------------------------------------------------
# Batch running


def _job_from_manifest(line: str, where: str, defaults: DecodeJob) -> DecodeJob:
    """The job a manifest line describes: each key it gives replaces that
    field of `defaults`, and every value is checked by its manifest key."""
    entry = _json_object(line, where)
    values = {}
    for f in _JOB_SPECS:
        key = f.metadata["key"]
        if key not in entry:
            value = getattr(defaults, f.name)
        elif key == "references":
            value = tuple(_string_list(entry, key, where))
        else:
            value = entry[key]
        if (wanted := _wrong_kind(f, value, "null")) is not None:
            got = json.dumps(value, default=repr)  # a default may be no JSON value
            raise ValueError(f"{where}: {key!r} must be {wanted}, got {got}")
        values[f.name] = value
    return DecodeJob(**values)


def run_batch(manifest_path: str, defaults: DecodeJob) -> dict:
    """Run the manifest's jobs in order; failures are recorded, not fatal.

    Returns {"results": [per-job dicts in manifest order], "summary": {...}}.
    """
    lines = _content_lines(manifest_path)
    results = []
    records = []
    vocab_texts: set[str] = set()  # surfaces and lexicon lines, read whole
    for idx, line in enumerate(lines):
        try:
            job = _job_from_manifest(line, f"{manifest_path} job {idx}", defaults)
            payload = run_decode(job).to_dict()
            if payload["status"] == STATUS_OK:
                phrases, entities = _load_constraints(job)
                lexicon = [] if job.lexicon_path is None else _read_lines(job.lexicon_path)
                records.append(EvalRecord(payload["text"], phrases, job.references))
                vocab_texts.update(phrases, entities, lexicon)
        except Exception as exc:  # one bad job must not take down the batch
            payload = {"status": "error", "error": str(exc), "error_type": type(exc).__name__}
        payload["job"] = idx
        results.append(payload)

    try:
        vocab = build_eval_vocabulary(extra_words=vocab_texts)
    except ValueError:  # no job brought a word, so there is no neologism rate
        vocab = None
    summary = {
        "jobs": len(lines),
        "decoded": sum(1 for r in results if r.get("status") == STATUS_OK),
        "errors": sum(1 for r in results if r.get("status") == "error"),
        "infeasible": sum(
            1 for r in results if r.get("status") not in (STATUS_OK, "error")
        ),
        "metrics": compute_report(records, vocab) if records else None,
    }
    return {"results": results, "summary": summary}


# ---------------------------------------------------------------------------
# Argument parsing


def _add_decode_args(p: argparse.ArgumentParser) -> None:
    for f in _JOB_SPECS:
        flag = "--" + f.metadata["key"].replace("_", "-")
        if f.name == "mode":
            p.add_argument(flag, choices=MODES, default="wfsa-shortest")
        elif (kind := f.metadata["kind"]) is not None:
            default = None if f.default is MISSING else f.default
            p.add_argument(flag, type=kind[0][-1], default=default, help=f.metadata["help"])
    p.add_argument("--out", help="output file (default stdout)")


def _job_from_args(args: argparse.Namespace) -> DecodeJob:
    """The job the decode flags give (references has no flag); a path no
    flag gave is None."""
    given = vars(args)
    return DecodeJob(**{
        f.name: given[f.metadata["key"]] for f in _JOB_SPECS if f.metadata["key"] in given
    })


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "".join(line + "\n" for line in lines)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dagdec", description="Constrained decoding over token lattices"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_decode = sub.add_parser("decode", help="decode one lattice")
    _add_decode_args(p_decode)

    p_batch = sub.add_parser("batch", help="decode a manifest of jobs")
    _add_decode_args(p_batch)
    p_batch.add_argument("--manifest", required=True, help="JSON-lines job manifest")

    p_lex = sub.add_parser("lexicon", help="extract a frequency lexicon from a corpus")
    p_lex.add_argument("--corpus", required=True, help="text file, one sentence per line")
    p_lex.add_argument("--cutoff", type=float, default=0.9)
    p_lex.add_argument("--out", help="output file (default stdout)")

    p_fit = sub.add_parser("fit-length", help="fit the linear length predictor")
    p_fit.add_argument("--pairs", required=True, help="TSV file: input_len<TAB>output_len")
    p_fit.add_argument("--out", help="predictor file (default stdout)")

    p_synth = sub.add_parser("synth", help="generate a synthetic lattice fixture")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--vertices", type=int, required=True)
    p_synth.add_argument("--emission-degree", type=int, default=3)
    p_synth.add_argument("--transition-degree", type=int, default=3)
    p_synth.add_argument(
        "--concentration",
        type=float,
        default=0.6,
        help="Dirichlet concentration; 0.6 matches trained-lattice sparsity",
    )
    p_synth.add_argument("--vocab-size", type=int, default=32)
    p_synth.add_argument("--out", required=True, help="lattice JSON output path")
    p_synth.add_argument("--table-out", help="also write a matching token table")

    p_eval = sub.add_parser("evaluate", help="score decoded outputs")
    p_eval.add_argument("--records", required=True, help="JSON-lines eval records")
    p_eval.add_argument("--vocab", help="word-per-line vocabulary for neologism rate")
    p_eval.add_argument("--out", help="report file (default stdout)")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "decode":
        if not args.dag or not args.table:
            raise ValueError("--dag and --table are required")
        result = run_decode(_job_from_args(args))
        _emit([json.dumps(result.to_dict(), ensure_ascii=False)], args.out)
        return EXIT_OK if result.status == STATUS_OK else EXIT_INFEASIBLE

    if args.command == "batch":
        # jobs may supply dag/table themselves, so the defaults can omit them
        outcome = run_batch(args.manifest, _job_from_args(args))
        lines = [json.dumps(r, ensure_ascii=False) for r in outcome["results"]]
        lines.append(json.dumps({"summary": outcome["summary"]}, ensure_ascii=False))
        _emit(lines, args.out)
        return EXIT_OK

    if args.command == "lexicon":
        corpus = _read_lines(args.corpus)
        words = extract_lexicon(corpus, args.cutoff)
        _emit(words, args.out)
        return EXIT_OK

    if args.command == "fit-length":
        pairs = []
        for n, line in enumerate(_read_lines(args.pairs), 1):
            fields = line.split()
            if not fields:
                continue
            try:
                if len(fields) < 2:
                    raise ValueError("expected two numbers, got one")
                pairs.append((float(fields[0]), float(fields[1])))
            except ValueError as exc:
                raise ValueError(f"{args.pairs} line {n}: {exc}") from None
        pred = fit_length_predictor(pairs)
        if args.out:
            save_length_predictor(pred, args.out)
        else:
            _emit([repr(pred.slope), repr(pred.intercept)], None)
        return EXIT_OK

    if args.command == "synth":
        dag = generate_synthetic_dag(
            seed=args.seed,
            num_vertices=args.vertices,
            emission_degree=args.emission_degree,
            transition_degree=args.transition_degree,
            concentration=args.concentration,
            vocab_size=args.vocab_size,
        )
        write_dag(dag, args.out)
        if args.table_out:
            write_token_table(synthetic_token_table(args.vocab_size), args.table_out)
        return EXIT_OK

    if args.command == "evaluate":
        records = []
        for number, line in enumerate(_read_lines(args.records), start=1):
            if not line.strip():
                continue
            where = f"{args.records} line {number}"
            doc = _json_object(line, where)
            if not isinstance(doc.get("output"), str):
                raise ValueError(f"{where}: 'output' must be a string")
            records.append(
                EvalRecord(
                    output=doc["output"],
                    required_values=tuple(_string_list(doc, "required_values", where)),
                    references=tuple(_string_list(doc, "references", where)),
                )
            )
        vocab = None
        if args.vocab:
            vocab = build_eval_vocabulary(extra_words=_read_lines(args.vocab))
        _emit([json.dumps(compute_report(records, vocab), ensure_ascii=False)], args.out)
        return EXIT_OK

    raise ValueError(f"unknown command {args.command!r}")


def synthetic_token_table(vocab_size: int) -> TokenTable:
    """Toy table covering synthetic lattice ids: word tokens plus markers."""
    width = max(3, len(str(vocab_size - 1)))
    surfaces = [f"▁w{i:0{width}d}" for i in range(vocab_size)]
    surfaces += ["<s>", "</s>"]
    return TokenTable(
        surfaces=tuple(surfaces),
        sow_mark="▁",
        eos_id=vocab_size + 1,
        sos_id=vocab_size,
    )


if __name__ == "__main__":
    raise SystemExit(main())
