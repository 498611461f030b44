"""Token table parsing, validation, and detokenization."""

from __future__ import annotations

import re

import pytest

from dagdec import tokens as tokens_mod
from dagdec.tokens import (
    TokenTable,
    TokenTableError,
    dump_token_table,
    load_token_table,
    read_token_table,
)


def table_text(entries, sow="▁", eos=1, sos=0, version="1"):
    lines = [f"#version {version}", f"#sow {sow}", f"#eos {eos}", f"#sos {sos}"]
    lines += [f"{i}\t{s}" for i, s in entries]
    return "\n".join(lines) + "\n"


BASIC = [(0, "<s>"), (1, "</s>"), (2, "▁cat"), (3, "▁dog"), (4, "s")]


class TestLoad:
    def test_round_trip(self):
        table = load_token_table(table_text(BASIC))
        assert len(table) == 5
        assert table.surface(2) == "▁cat"
        assert table.lookup("▁dog") == 3
        assert load_token_table(dump_token_table(table)) == table

    def test_bit_exact_round_trip(self):
        blob = dump_token_table(load_token_table(table_text(BASIC)))
        assert dump_token_table(load_token_table(blob)) == blob

    def test_bad_version(self):
        with pytest.raises(TokenTableError, match="version"):
            load_token_table(table_text(BASIC, version="2"))

    def test_non_dense_ids(self):
        entries = [(0, "<s>"), (1, "</s>"), (5, "▁cat")]
        with pytest.raises(TokenTableError, match="dense"):
            load_token_table(table_text(entries))

    def test_duplicate_id(self):
        entries = BASIC + [(2, "▁cow")]
        with pytest.raises(TokenTableError, match="duplicate id"):
            load_token_table(table_text(entries))

    def test_duplicate_surface(self):
        entries = [(0, "<s>"), (1, "</s>"), (2, "x"), (3, "x")]
        with pytest.raises(TokenTableError, match="duplicate surface"):
            load_token_table(table_text(entries))

    def test_empty_surface(self):
        with pytest.raises(TokenTableError, match="empty surface"):
            TokenTable(surfaces=("a", ""), sow_mark="▁", eos_id=0, sos_id=0)

    def test_marker_ids_validated(self):
        with pytest.raises(TokenTableError, match="eos id"):
            TokenTable(surfaces=("a",), sow_mark="▁", eos_id=9, sos_id=0)

    def test_missing_tab(self):
        text = "#version 1\n#sow _\n#eos 0\n#sos 0\n0 <s>\n"
        with pytest.raises(TokenTableError, match="id<TAB>surface"):
            load_token_table(text)

    def test_non_integer_id_names_the_line(self):
        text = table_text(BASIC) + "x\t</s>\n"
        with pytest.raises(TokenTableError, match=r"^line 10: .*'x'"):
            load_token_table(text)

    @pytest.mark.parametrize("key", ["eos", "sos"])
    def test_non_integer_marker_id_names_the_line(self, key):
        lines = table_text(BASIC).splitlines()
        line = 3 if key == "eos" else 4
        lines[line - 1] = f"#{key} one"
        with pytest.raises(TokenTableError, match=rf"^line {line}: .*'one'"):
            load_token_table("\n".join(lines) + "\n")

    # int() reads each of these as 1; a dump writes only the plain ASCII digits
    @pytest.mark.parametrize("spelling", ["+1", " 1", "1 ", "0_1", "١"])
    @pytest.mark.parametrize("field, line", [("id", 6), ("eos", 3), ("sos", 4)])
    def test_integers_are_ascii_digits_only(self, field, line, spelling):
        lines = table_text(BASIC).splitlines()
        if field == "id":
            lines[line - 1] = f"{spelling}\t</s>"
        else:
            lines[line - 1] = f"#{field} {spelling}"
        with pytest.raises(TokenTableError, match=rf"^line {line}: .*{re.escape(repr(spelling))}"):
            load_token_table("\n".join(lines) + "\n")


class TestDigest:
    def test_equal_tables_share_a_digest(self):
        a = load_token_table(table_text(BASIC))
        b = load_token_table(dump_token_table(a))
        assert a is not b and a.digest == b.digest

    def test_hash_is_the_digest_hash(self, monkeypatch):
        a = load_token_table(table_text(BASIC))
        b = load_token_table(dump_token_table(a))
        assert a == b and hash(a) == hash(b) == hash(a.digest)
        monkeypatch.setattr(tokens_mod.hashlib, "sha256", None)  # no second digest
        assert hash(a) == hash(a.digest)

    @pytest.mark.parametrize("change", ("surface", "order", "sow", "eos", "sos"))
    def test_any_change_moves_the_digest(self, change):
        base = load_token_table(table_text(BASIC))
        entries = list(BASIC)
        kwargs = {}
        if change == "surface":
            entries[4] = (4, "es")
        elif change == "order":
            entries[2], entries[3] = (2, "▁dog"), (3, "▁cat")
        elif change == "sow":
            kwargs["sow"] = "_"
        elif change == "eos":
            kwargs["eos"] = 4
        else:
            kwargs["sos"] = 4
        assert load_token_table(table_text(entries, **kwargs)).digest != base.digest

    def test_computed_once_per_table(self, monkeypatch):
        table = load_token_table(table_text(BASIC))
        first = table.digest
        monkeypatch.setattr(tokens_mod.hashlib, "sha256", None)  # a second hash would fail
        assert table.digest == first


class TestNumericIds:
    def test_digit_surfaces_with_or_without_the_mark(self):
        entries = BASIC + [(5, "▁1984"), (6, "7"), (7, "▁"), (8, "1a"), (9, "▁▁3")]
        # superscript and circled digits are digits but not decimal ones, and
        # int() refuses them; Arabic-Indic digits are decimal
        entries += [(10, "▁²"), (11, "③"), (12, "▁٣")]
        assert load_token_table(table_text(entries)).numeric_ids == (5, 6, 12)

    def test_computed_once_per_table(self):
        table = load_token_table(table_text(BASIC + [(5, "42")]))
        assert table.numeric_ids is table.numeric_ids == (5,)


class TestLongest:
    def test_longest_surface_in_characters(self):
        table = load_token_table(table_text(BASIC + [(5, "▁photo"), (6, "ß")]))
        assert table.longest == len("▁photo") == 6
        assert "longest" in vars(table)  # kept after the first use

    def test_a_table_of_one_character_pieces(self):
        assert load_token_table(table_text([(0, "a"), (1, "b")])).longest == 1


class TestReadCache:
    @pytest.fixture(autouse=True)
    def empty_cache(self):
        tokens_mod._load_shared.cache_clear()
        yield
        tokens_mod._load_shared.cache_clear()

    def test_same_content_shares_one_table(self, tmp_path):
        a, b, c = tmp_path / "a.table", tmp_path / "b.table", tmp_path / "c.table"
        a.write_text(table_text(BASIC), encoding="utf-8")
        b.write_text(table_text(BASIC), encoding="utf-8")
        c.write_text(table_text(BASIC, sow="_"), encoding="utf-8")
        first = read_token_table(str(a))
        assert read_token_table(str(a)) is first
        assert read_token_table(str(b)) is first  # another path, same text
        other = read_token_table(str(c))
        assert other is not first and other.sow_mark == "_"

    def test_file_is_read_on_every_call(self, tmp_path):
        path = tmp_path / "t.table"
        path.write_text(table_text(BASIC), encoding="utf-8")
        assert read_token_table(str(path)).surface(4) == "s"
        path.write_text(table_text(BASIC[:4] + [(4, "es")]), encoding="utf-8")
        assert read_token_table(str(path)).surface(4) == "es"

    def test_a_table_that_fails_to_parse_is_not_kept(self, tmp_path):
        path = tmp_path / "t.table"
        path.write_text(table_text(BASIC, version="2"), encoding="utf-8")
        for _ in range(2):
            with pytest.raises(TokenTableError, match="version"):
                read_token_table(str(path))
        assert tokens_mod._load_shared.cache_info().currsize == 0

    def test_keeps_at_most_the_bound(self, tmp_path):
        size = tokens_mod.TOKEN_TABLE_CACHE_SIZE
        paths = []
        for i in range(size + 3):
            path = tmp_path / f"{i}.table"
            path.write_text(table_text(BASIC + [(5, f"w{i}")]), encoding="utf-8")
            paths.append(str(path))
        tables = [read_token_table(p) for p in paths]
        assert tokens_mod._load_shared.cache_info().currsize == size
        assert read_token_table(paths[-1]) is tables[-1]  # recent: kept
        assert read_token_table(paths[0]) is not tables[0]  # oldest: evicted
        assert read_token_table(paths[0]) == tables[0]

    def test_concurrent_reads_return_equal_tables(self, tmp_path):
        import sys
        from concurrent.futures import ThreadPoolExecutor

        texts = {}
        for i in range(3):
            path = tmp_path / f"{i}.table"
            texts[str(path)] = table_text(BASIC + [(5, f"w{i}")])
            path.write_text(texts[str(path)], encoding="utf-8")
        jobs = list(texts) * 16
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(read_token_table, jobs, timeout=60))
        finally:
            sys.setswitchinterval(old_interval)
        for path, table in zip(jobs, results):
            assert table == load_token_table(texts[path])
        assert tokens_mod._load_shared.cache_info().currsize == 3


class TestDetokenize:
    def test_sow_marks_become_spaces(self):
        table = load_token_table(table_text(BASIC))
        assert table.detokenize((2, 3)) == "cat dog"

    def test_continuation_pieces_join(self):
        table = load_token_table(table_text(BASIC))
        assert table.detokenize((2, 4)) == "cats"

    def test_markers_dropped(self):
        table = load_token_table(table_text(BASIC))
        assert table.detokenize((0, 2, 1)) == "cat"

    def test_empty(self):
        table = load_token_table(table_text(BASIC))
        assert table.detokenize(()) == ""
