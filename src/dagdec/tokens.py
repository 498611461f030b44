"""Token tables: subword vocabularies with start-of-word marking.

A token table maps dense integer ids to surface strings and records the
three markers the decoders need: the start-of-word mark carried by
word-initial subword pieces, and the end/start-of-sequence token ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

TOKEN_TABLE_VERSION = 1

# Distinct table texts whose parsed tables `read_token_table` keeps per
# process, least recently used first out.
TOKEN_TABLE_CACHE_SIZE = 8


class TokenTableError(ValueError):
    """Raised for malformed token table files or inconsistent entries."""


@dataclass(frozen=True)
class TokenTable:
    """Immutable id -> surface mapping with sow/eos/sos markers; tables
    compare and hash by these four fields, so equal tables share caches."""

    surfaces: tuple[str, ...]
    sow_mark: str
    eos_id: int
    sos_id: int
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)  # made once, not per call

    def __post_init__(self) -> None:
        if not self.surfaces:
            raise TokenTableError("token table is empty")
        for i, s in enumerate(self.surfaces):
            if not s:
                raise TokenTableError(f"token {i} has an empty surface")
        if not self.sow_mark:
            raise TokenTableError("start-of-word mark is empty")
        for name, tid in (("eos", self.eos_id), ("sos", self.sos_id)):
            if not 0 <= tid < len(self.surfaces):
                raise TokenTableError(f"{name} id {tid} out of range")
        index: dict[str, int] = {}
        for i, s in enumerate(self.surfaces):
            if s in index:
                raise TokenTableError(f"duplicate surface {s!r} (ids {index[s]}, {i})")
            index[s] = i
        object.__setattr__(self, "_index", index)
        content = (self.sow_mark, self.eos_id, self.sos_id, self.surfaces)
        object.__setattr__(self, "_hash", hash(content))

    def __len__(self) -> int:
        return len(self.surfaces)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:  # str hashes differ between processes: hash anew
        return TokenTable, (self.surfaces, self.sow_mark, self.eos_id, self.sos_id)

    @cached_property
    def numeric_ids(self) -> tuple[int, ...]:
        """Ids of the tokens whose surface, less a leading start-of-word
        mark, is all decimal digits; computed once per table on first use."""
        return tuple(
            tid
            for tid, surface in enumerate(self.surfaces)
            if surface.removeprefix(self.sow_mark).isdecimal()
        )

    @cached_property
    def longest(self) -> int:
        """Length of the longest surface, computed once per table on first
        use: no longer string can be in the table."""
        return max(map(len, self.surfaces))

    def surface(self, token_id: int) -> str:
        return self.surfaces[token_id]

    def lookup(self, surface: str) -> int | None:
        """Return the id of an exact surface string, or None."""
        return self._index.get(surface)

    def detokenize(self, token_ids: list[int] | tuple[int, ...]) -> str:
        """Join token surfaces into text, turning sow marks into spaces.

        sos/eos tokens are dropped; they delimit sequences, not words.
        """
        parts = []
        for tid in token_ids:
            if tid == self.eos_id or tid == self.sos_id:
                continue
            parts.append(self.surfaces[tid])
        return "".join(parts).replace(self.sow_mark, " ").strip()


def load_token_table(text: str) -> TokenTable:
    """Parse the versioned `id<TAB>surface` token table format."""
    sow_mark = ""
    eos_id = sos_id = -1
    version = None
    entries: dict[int, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(" ")
            if key == "version":
                version = value
            elif key == "sow":
                sow_mark = value
            elif key == "eos":
                eos_id = _line_int(value, lineno)
            elif key == "sos":
                sos_id = _line_int(value, lineno)
            else:
                raise TokenTableError(f"line {lineno}: unknown header #{key}")
            continue
        tid_str, sep, surface = line.partition("\t")
        if not sep:
            raise TokenTableError(f"line {lineno}: expected id<TAB>surface")
        tid = _line_int(tid_str, lineno)
        if tid in entries:
            raise TokenTableError(f"line {lineno}: duplicate id {tid}")
        entries[tid] = surface
    if version != str(TOKEN_TABLE_VERSION):
        raise TokenTableError(f"unsupported token table version {version!r}")
    if sorted(entries) != list(range(len(entries))):
        missing = sorted(set(range(len(entries))) - set(entries))
        raise TokenTableError(f"ids are not dense 0..N-1 (first gap near {missing[:1]})")
    surfaces = tuple(entries[i] for i in range(len(entries)))
    return TokenTable(surfaces=surfaces, sow_mark=sow_mark, eos_id=eos_id, sos_id=sos_id)


def _line_int(text: str, lineno: int) -> int:
    try:
        return _decimal(text)
    except ValueError as exc:
        raise TokenTableError(f"line {lineno}: {exc}") from None


def _decimal(text: str) -> int:
    """The integer `text` spells in ASCII decimal digits, and nothing else.

    The token table and automaton dump formats have one spelling per
    integer: `int()` would also take a sign, spaces, underscores and other
    scripts' digits, which their dumps never write.
    """
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError(f"expected ASCII decimal digits, got {text!r}")


def dump_token_table(table: TokenTable) -> str:
    lines = [
        f"#version {TOKEN_TABLE_VERSION}",
        f"#sow {table.sow_mark}",
        f"#eos {table.eos_id}",
        f"#sos {table.sos_id}",
    ]
    lines.extend(f"{i}\t{s}" for i, s in enumerate(table.surfaces))
    return "\n".join(lines) + "\n"


_load_shared = lru_cache(maxsize=TOKEN_TABLE_CACHE_SIZE)(load_token_table)


def read_token_table(path: str) -> TokenTable:
    """Read and parse the table at path.

    The file is read on every call, so an edit shows at once. A text read
    before returns the table already parsed from it, shared and immutable;
    a text that fails to parse is never kept.
    """
    with open(path, encoding="utf-8") as fh:
        return _load_shared(fh.read())


def write_token_table(table: TokenTable, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_token_table(table))
