"""Tests for the columnar batch representation and its spill interop.

Covers the determinism contract (sorted vocabularies, platform-stable
arrays), the one-pass tokenization cache, and the satellite requirement
that a spilled shard round-trips through the columnar block codec
unchanged — including a crash mid-spill via the existing fault hooks, a
resume, and an array-for-array comparison.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm.faults import TriggerPoint
from repro.storage import SpillStore, SpillWriteError
from repro.storage.columnar import (
    ColumnarBlock,
    TokenColumn,
    Vocabulary,
    pack_codepoints,
    spill_decode,
    spill_encode,
)


class TestVocabulary:
    def test_ids_follow_sorted_token_order(self):
        vocab = Vocabulary(["zeta", "alpha", "mid", "alpha"])
        assert vocab.tokens == ("alpha", "mid", "zeta")
        assert [vocab.id_of(t) for t in vocab.tokens] == [0, 1, 2]

    def test_same_multiset_same_vocabulary(self):
        a = Vocabulary(["b", "a", "c"])
        b = Vocabulary(["c", "c", "a", "b"])
        assert a.tokens == b.tokens

    def test_encode_marks_oov(self):
        vocab = Vocabulary(["a", "b"])
        assert vocab.encode(["b", "zzz", "a"]).tolist() == [1, -1, 0]

    def test_payload_round_trip(self):
        vocab = Vocabulary(["café", "東京", "ascii"])
        rebuilt = Vocabulary.from_payload(vocab.to_payload())
        assert rebuilt.tokens == vocab.tokens
        assert rebuilt.id_of("東京") == vocab.id_of("東京")


class TestPackCodepoints:
    def test_shapes_and_fill(self):
        matrix, lengths = pack_codepoints(["ab", "", "xyz"], fill=-1)
        assert matrix.shape == (3, 3)
        assert lengths.tolist() == [2, 0, 3]
        assert matrix[1].tolist() == [-1, -1, -1]
        assert matrix[0, :2].tolist() == [ord("a"), ord("b")]

    def test_non_bmp_codepoints(self):
        matrix, lengths = pack_codepoints(["a\U0001F600"])
        assert lengths.tolist() == [2]
        assert matrix[0].tolist() == [ord("a"), 0x1F600]


class TestTokenColumn:
    def test_tokenizes_each_distinct_text_once(self):
        calls: list[str] = []

        def tokenizer(text: str) -> list[str]:
            calls.append(text)
            return text.split()

        column = TokenColumn(["a b", "c", "a b", "a b", "c"], tokenizer=tokenizer)
        assert calls == ["a b", "c"]
        assert column.row_token_ids(0).tolist() == column.row_token_ids(2).tolist()

    def test_set_ids_are_sorted_unique(self):
        column = TokenColumn(["beta alpha beta", "alpha"])
        ids = column.row_set_ids(0)
        assert ids.tolist() == sorted(set(ids.tolist()))
        assert len(ids) == 2

    def test_payload_round_trip_is_bit_exact(self):
        column = TokenColumn(["stone ipa", "", "café 東京", "stone ipa"])
        rebuilt = TokenColumn.from_payload(column.to_payload())
        assert rebuilt.arrays_equal(column)


class TestColumnarBlock:
    RECORDS = [
        {"name": "Stone IPA", "abv": 6.9},
        {"name": None, "abv": None},
        {"name": "Stone IPA", "abv": "6.9%"},
    ]

    def test_from_records_round_trip(self):
        block = ColumnarBlock.from_records(self.RECORDS, fields=("name", "abv"))
        assert block.n_rows == 3
        rebuilt = ColumnarBlock.from_payload(block.to_payload())
        assert rebuilt.arrays_equal(block)

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            ColumnarBlock({"a": TokenColumn(["x"]), "b": TokenColumn(["x", "y"])})

    def test_clean_cache_distinguishes_equal_keys_of_different_types(self):
        # True == 1 as dict keys; their cleaned texts must not be shared.
        block = ColumnarBlock.from_records(
            [{"v": True}, {"v": 1}, {"v": 1.0}], fields=("v",)
        )
        assert block.column("v").texts == ("True", "1", "1.0")


class TestSpillInterop:
    """The satellite: spilled shards round-trip the columnar codec."""

    def _block(self) -> ColumnarBlock:
        return ColumnarBlock.from_records(
            [
                {"name": "sierra nevada pale ale", "brand": "sierra nevada"},
                {"name": "café 東京 lager", "brand": ""},
                {"name": None, "brand": "sierra nevada"},
            ],
            fields=("name", "brand"),
        )

    def test_spilled_block_round_trips_unchanged(self, tmp_path):
        store = SpillStore(tmp_path, encode=spill_encode, decode=spill_decode)
        block = self._block()
        store.put("7", [block, {"plain": "record"}])
        restored = store.get("7")
        assert isinstance(restored[0], ColumnarBlock)
        assert restored[0].arrays_equal(block)
        assert restored[1] == {"plain": "record"}

    def test_crash_mid_spill_then_resume_restores_arrays(self, tmp_path):
        block = self._block()
        fault = TriggerPoint("spill:write", hits=2)
        store = SpillStore(
            tmp_path, encode=spill_encode, decode=spill_decode, write_fault=fault
        )
        store.put("0", [block])
        with pytest.raises(SpillWriteError):
            store.put("1", [block])  # crash mid-spill on the second write
        # Resume: a fresh store over the same directory re-spills the lost
        # shard; both shards then decode to bit-identical arrays.
        resumed = SpillStore(tmp_path, encode=spill_encode, decode=spill_decode)
        resumed.put("1", [block])
        for key in ("0", "1"):
            restored = resumed.get(key)
            assert restored[0].arrays_equal(block)
            for name, array in restored[0].column("name").arrays().items():
                assert np.array_equal(array, block.column("name").arrays()[name])
