"""Token table parsing, validation, and detokenization."""

from __future__ import annotations

import pytest

from dagdec import tokens as tokens_mod
from dagdec.tokens import (
    TokenTable,
    TokenTableError,
    dump_token_table,
    load_token_table,
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


class TestDigest:
    def test_equal_tables_share_a_digest(self):
        a = load_token_table(table_text(BASIC))
        b = load_token_table(dump_token_table(a))
        assert a is not b and a.digest == b.digest

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
