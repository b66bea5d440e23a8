"""Tests for the columnar kernels' determinism contract (sorted
vocabularies, platform-stable codepoint matrices)."""

from __future__ import annotations

from repro.storage.columnar import Vocabulary, pack_codepoints


class TestVocabulary:
    def test_ids_follow_sorted_token_order(self):
        vocab = Vocabulary(["zeta", "alpha", "mid", "alpha"])
        assert vocab.tokens == ("alpha", "mid", "zeta")
        assert vocab.encode(vocab.tokens).tolist() == [0, 1, 2]

    def test_same_multiset_same_vocabulary(self):
        a = Vocabulary(["b", "a", "c"])
        b = Vocabulary(["c", "c", "a", "b"])
        assert a.tokens == b.tokens

    def test_encode_marks_oov(self):
        vocab = Vocabulary(["a", "b"])
        assert vocab.encode(["b", "zzz", "a"]).tolist() == [1, -1, 0]


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
