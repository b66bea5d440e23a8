"""Tests for repro.text.tokenize."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.tokenize import (
    char_ngrams,
    sentence_split,
    tokens_with_spans,
    word_tokenize,
)


class TestWordTokenize:
    def test_simple_sentence(self):
        assert word_tokenize("John met Mary") == ["John", "met", "Mary"]

    def test_punctuation_separated(self):
        assert word_tokenize("John met Mary.") == ["John", "met", "Mary", "."]

    def test_apostrophes_kept_inside_words(self):
        assert word_tokenize("O'Brien's book") == ["O'Brien's", "book"]

    def test_hyphenated_words_kept_together(self):
        assert word_tokenize("Jean-Luc spoke") == ["Jean-Luc", "spoke"]

    def test_numbers_with_separators(self):
        assert word_tokenize("costs 1,000.50 dollars") == ["costs", "1,000.50", "dollars"]

    def test_time_like_number(self):
        assert word_tokenize("runs 3:45 long") == ["runs", "3:45", "long"]

    def test_empty_string(self):
        assert word_tokenize("") == []

    def test_only_whitespace(self):
        assert word_tokenize("   \t\n ") == []

    def test_unicode_words(self):
        assert word_tokenize("José García") == ["José", "García"]

    def test_symbols_become_single_tokens(self):
        assert word_tokenize("a & b") == ["a", "&", "b"]


class TestTokensWithSpans:
    def test_spans_recover_source_text(self):
        text = "Dr. Chen arrived."
        for token in tokens_with_spans(text):
            assert text[token.start : token.end] == token.text

    def test_spans_are_ordered(self):
        spans = tokens_with_spans("one two three")
        starts = [t.start for t in spans]
        assert starts == sorted(starts)

    @given(st.text(max_size=80))
    def test_spans_match_word_tokenize(self, text: str):
        assert [t.text for t in tokens_with_spans(text)] == word_tokenize(text)


class TestSentenceSplit:
    def test_splits_on_periods(self):
        assert sentence_split("One. Two. Three.") == ["One.", "Two.", "Three."]

    def test_splits_on_question_and_exclamation(self):
        assert sentence_split("Really? Yes! Fine.") == ["Really?", "Yes!", "Fine."]

    def test_no_terminal_punctuation(self):
        assert sentence_split("no punctuation here") == ["no punctuation here"]

    def test_empty_input(self):
        assert sentence_split("") == []

    def test_cjk_full_stop(self):
        assert sentence_split("你好。 再见。") == ["你好。", "再见。"]


class TestCharNgrams:
    def test_padded_trigrams(self):
        grams = char_ngrams("ab", 3)
        assert grams == ["#ab", "ab#"]

    def test_short_input_returns_whole(self):
        assert char_ngrams("a", 5) == ["#a#"]

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            char_ngrams("abc", 0)
