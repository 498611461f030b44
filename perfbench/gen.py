"""Seeded input generator for the benchmark.

Everything the program reads is made here from (workload, seed, job index):
a subword token table, lexicons, lattices with a planted gold path, and
constraint files. The program sees only the written files; the expectations
the output checker needs travel separately in `jobs.json`.

Lattices use local forward transitions (u -> u+1 .. u+window), so paths
through an L-vertex lattice have roughly L/window to L tokens and the length
search has real work to do. At every gold vertex the gold token is the top
emission and the gold successor the top transition, so the gold path
survives any top-k pruning and the cumulative-mass arc pruning of the
length search. Gold tokens spell lexicon or entity words and phrases are
whole-word windows of the gold path, so every constrained job is feasible
by construction.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

SOW = "▁"
LETTERS = "abcdefghijklmnopqrstuvwxyz"
INITIAL_PIECES = 600
CONTINUATION_PIECES = 300
INVENTORY_WORDS = 4000
CONCENTRATION = 0.6


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's jobs; job i picks cycled values by index."""

    mode: str
    k: int  # k_e = k_t
    gold_tokens: int  # planted gold length in tokens (words may overshoot it)
    window: int  # forward transitions per vertex
    emissions: int  # emission candidates per vertex
    phrases: tuple[int, ...] = (0,)  # phrase count, cycled by job index
    phrase_tokens: int = 2  # tokens per phrase, so constraint sizes repeat
    entities: tuple[int, ...] = (0,)  # entity count, cycled by job index
    lexicon: str = "none"  # "shared", "per-job" or "none"
    lexicon_words: int = 0
    pool: int = 0  # distinct jobs cycled by the loop; 0 = every job distinct
    target: bool = False  # pass the gold length as --target-len


WORKLOADS: dict[str, Spec] = {
    "control-warm": Spec(
        mode="control-dag",
        k=5,
        gold_tokens=16,
        window=4,
        emissions=8,
        phrases=(2, 3),
        entities=(1, 2),
        lexicon="shared",
        lexicon_words=150,
        pool=24,
        target=True,
    ),
    "vocab-cold": Spec(
        mode="vc",
        k=3,
        gold_tokens=9,
        window=4,
        emissions=6,
        entities=(1, 2, 3),
        lexicon="per-job",
        lexicon_words=100,
    ),
    "lc-long": Spec(
        mode="lc",
        k=3,
        gold_tokens=200,
        window=8,
        emissions=6,
        pool=16,
        target=True,
    ),
    "cbs-phrases": Spec(
        mode="cbs-dag",
        k=3,
        gold_tokens=200,
        window=8,
        emissions=6,
        phrases=(2, 3),
        phrase_tokens=3,
        pool=24,
    ),
}


@dataclass(frozen=True)
class Vocabulary:
    """Token surfaces (ids are list positions) and whole words as token ids."""

    surfaces: tuple[str, ...]
    words: tuple[tuple[int, ...], ...]  # inventory, each a 1-3 token word
    sos: int
    eos: int
    by_length: dict[int, dict[int, list[tuple[int, ...]]]]  # length -> head -> words

    def spell(self, tokens) -> str:
        return "".join(self.surfaces[t] for t in tokens).replace(SOW, " ").strip()


def make_vocabulary(seed: int) -> Vocabulary:
    """Two-letter pieces, so greedy longest-match segmentation is unique."""
    rng = random.Random(f"vocab:{seed}")
    pairs = [a + b for a in LETTERS for b in LETTERS]
    initial = rng.sample(pairs, INITIAL_PIECES)
    continuation = rng.sample(pairs, CONTINUATION_PIECES)
    surfaces = [SOW + p for p in initial] + continuation + ["<s>", "</s>"]
    n_init = len(initial)
    words: set[tuple[int, ...]] = set()
    while len(words) < INVENTORY_WORDS:
        extra = rng.choices((0, 1, 2), weights=(3, 4, 3))[0]
        head = rng.randrange(n_init)
        tail = tuple(n_init + rng.randrange(CONTINUATION_PIECES) for _ in range(extra))
        words.add((head,) + tail)
    by_length: dict[int, dict[int, list[tuple[int, ...]]]] = {1: {}, 2: {}, 3: {}}
    for word in sorted(words):
        by_length[len(word)].setdefault(word[0], []).append(word)
    return Vocabulary(
        surfaces=tuple(surfaces),
        words=tuple(sorted(words)),
        sos=len(surfaces) - 2,
        eos=len(surfaces) - 1,
        by_length=by_length,
    )


def _logprobs(rng: random.Random, size: int) -> list[float]:
    """Descending log-probabilities of a symmetric Dirichlet draw."""
    gammas = [max(rng.gammavariate(CONCENTRATION, 1.0), 1e-12) for _ in range(size)]
    total = math.fsum(gammas)
    return sorted((math.log(g / total) for g in gammas), reverse=True)


def make_lattice(
    rng: random.Random, vocab: Vocabulary, gold: list[int], spec: Spec
) -> dict:
    """Lattice document whose gold path emits `gold`, one token per vertex."""
    # A shuffled fixed multiset of jumps: every lattice of a given gold
    # length has the same number of vertices.
    jumps = [1 + i % spec.window for i in range(len(gold))]
    rng.shuffle(jumps)
    num_vertices = 1 + sum(jumps)
    final = num_vertices - 1
    plan: dict[int, tuple[int, int]] = {}
    u = 0
    for token, jump in zip(gold, jumps):
        plan[u] = (token, u + jump)
        u += jump
    pieces = len(vocab.surfaces) - 2
    vertices = []
    for u in range(num_vertices):
        if u == final:
            vertices.append({"emissions": [[vocab.eos, 0.0]], "transitions": []})
            continue
        gold_token, gold_next = plan.get(u, (None, None))
        tokens = rng.sample(range(pieces), spec.emissions)
        if gold_token is not None:
            if gold_token in tokens:
                tokens.remove(gold_token)
            tokens = [gold_token] + tokens[: spec.emissions - 1]
        targets = list(range(u + 1, min(u + spec.window, final) + 1))
        rng.shuffle(targets)
        if gold_next is not None:
            targets.remove(gold_next)
            targets.insert(0, gold_next)
        vertices.append(
            {
                "emissions": [list(p) for p in zip(tokens, _logprobs(rng, len(tokens)))],
                "transitions": [list(p) for p in zip(targets, _logprobs(rng, len(targets)))],
            }
        )
    return {"version": 1, "num_vertices": num_vertices, "vertices": vertices}


def _gold_words(
    rng: random.Random, pool: list[tuple[int, ...]], entities: list[tuple[int, ...]], spec: Spec
) -> list[tuple[int, ...]]:
    want = spec.gold_tokens
    words: list[tuple[int, ...]] = []
    count = sum(len(e) for e in entities)
    while count < want:
        word = rng.choice(pool)
        words.append(word)
        count += len(word)
    for entity in entities:
        words.insert(rng.randrange(len(words) + 1), entity)
    return words


def _phrase_windows(
    rng: random.Random, words: list[tuple[int, ...]], count: int, tokens: int
) -> list[tuple[int, int]]:
    """`count` disjoint [start, end) whole-word windows, one per equal slice
    of the gold words, each spanning `tokens` tokens where the slice has
    such a window (else a single word)."""
    slots = len(words) // count
    windows = []
    for c in range(count):
        lo, hi = c * slots, (c + 1) * slots
        fits = [
            (a, b)
            for a in range(lo, hi)
            for b in range(a + 1, hi + 1)
            if sum(len(w) for w in words[a:b]) == tokens
        ]
        windows.append(rng.choice(fits) if fits else (lo, lo + 1))
    return windows


def sample_lexicon(rng: random.Random, vocab: Vocabulary, size: int) -> list[tuple[int, ...]]:
    """`size` words with distinct first pieces and a fixed mix of 1-, 2- and
    3-token words, so lexicon automata of one size are alike across seeds."""
    quota = {1: size * 3 // 10, 3: size * 3 // 10}
    quota[2] = size - quota[1] - quota[3]
    heads = list(range(INITIAL_PIECES))
    rng.shuffle(heads)
    chosen = []
    for length in (1, 2, 3):
        for head in heads:
            if quota[length] == 0:
                break
            if head in vocab.by_length[length]:
                chosen.append(rng.choice(vocab.by_length[length][head]))
                quota[length] -= 1
        used = {w[0] for w in chosen}
        heads = [h for h in heads if h not in used]
    return chosen


def write_table(vocab: Vocabulary, path: str) -> None:
    lines = ["#version 1", f"#sow {SOW}", f"#eos {vocab.eos}", f"#sos {vocab.sos}"]
    lines += [f"{i}\t{s}" for i, s in enumerate(vocab.surfaces)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def upper_bound(target: int) -> int:
    """The decoder's documented default: min(target + 5, floor(1.5 * target))."""
    return min(target + 5, math.floor(target * 1.5))


def generate(workload: str, seed: int, out_dir: str, count: int) -> list[dict]:
    """Write the files of `count` jobs (the pool, when the workload cycles one)
    and return one record per job: its DecodeJob fields and expectations."""
    spec = WORKLOADS[workload]
    vocab = make_vocabulary(seed)
    os.makedirs(out_dir, exist_ok=True)
    table_path = os.path.join(out_dir, "table.txt")
    write_table(vocab, table_path)

    base = random.Random(f"{workload}:{seed}")
    shared_lexicon = []
    if spec.lexicon == "shared":
        shared_lexicon = sample_lexicon(base, vocab, spec.lexicon_words)
    shared_path = None
    if shared_lexicon:
        shared_path = os.path.join(out_dir, "lexicon.txt")
        _write_lines(shared_path, [vocab.spell(w) for w in shared_lexicon])

    jobs = []
    for i in range(count):
        rng = random.Random(f"{workload}:{seed}:{i}")
        if spec.lexicon == "per-job":
            lexicon = sample_lexicon(rng, vocab, spec.lexicon_words)
        else:
            lexicon = shared_lexicon
        taken = set(lexicon)
        n_entities = spec.entities[i % len(spec.entities)]
        entities: list[tuple[int, ...]] = []
        while len(entities) < n_entities:
            word = rng.choice(vocab.words)
            if word not in taken:
                taken.add(word)
                entities.append(word)
        words = _gold_words(rng, list(lexicon) or list(vocab.words), entities, spec)
        gold = [t for w in words for t in w]

        n_phrases = spec.phrases[i % len(spec.phrases)]
        windows = _phrase_windows(rng, words, n_phrases, spec.phrase_tokens) if n_phrases else []
        phrases = [words[a:b] for a, b in windows]
        phrase_surfaces = [" ".join(vocab.spell(w) for w in p) for p in phrases]

        dag_path = os.path.join(out_dir, f"dag_{i}.json")
        with open(dag_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(make_lattice(rng, vocab, gold, spec), separators=(",", ":")))

        fields: dict = {
            "dag_path": dag_path,
            "table_path": table_path,
            "mode": spec.mode,
            "k_e": spec.k,
            "k_t": spec.k,
        }
        if phrases or entities:
            cons_path = os.path.join(out_dir, f"constraints_{i}.jsonl")
            doc = {"phrases": phrase_surfaces, "entities": [vocab.spell(e) for e in entities]}
            _write_lines(cons_path, [json.dumps(doc)])
            fields["constraints_path"] = cons_path
        if spec.lexicon == "per-job":
            fields["lexicon_path"] = os.path.join(out_dir, f"lexicon_{i}.txt")
            _write_lines(fields["lexicon_path"], [vocab.spell(w) for w in lexicon])
        elif shared_path:
            fields["lexicon_path"] = shared_path
        if spec.target:
            fields["target_length"] = len(gold)

        vocab_words = None
        if spec.mode in ("vc", "control-dag"):
            vocab_words = sorted(vocab.spell(w) for w in lexicon + entities)
        jobs.append(
            {
                "id": i,
                "fields": fields,
                "phrases": [[t for w in p for t in w] for p in phrases],
                "phrase_surfaces": phrase_surfaces,
                "vocab_words": vocab_words,
                "eval_words": sorted(vocab.spell(w) for w in list(lexicon or vocab.words) + entities),
                "upper_bound": upper_bound(len(gold)) if spec.target else None,
                "gold_tokens": gold,
                "gold_text": vocab.spell(gold),
            }
        )
    return jobs
