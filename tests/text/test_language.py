"""Tests for the language identifier."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.names import generate_name_dataset
from repro.text.language import SUPPORTED_LANGUAGES, detect_language

from ..oracles import detect_language_reference


class TestDetectLanguage:
    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("The report was written by the committee yesterday.", "en"),
            ("El informe fue presentado ayer por la empresa.", "es"),
            ("Der Bericht wurde gestern von der Firma vorgelegt.", "de"),
            ("Le rapport a été rédigé hier par l'équipe selon les sources.", "fr"),
            ("Zuotian Wei Zhang zai Beijing xuanbu le xin jihua.", "zh"),
        ],
    )
    def test_detects_each_language(self, text: str, expected: str):
        assert detect_language(text).language == expected

    def test_empty_text_defaults_to_english(self):
        guess = detect_language("")
        assert guess.language == "en"
        assert guess.confidence == 0.0

    def test_no_evidence_defaults_to_english(self):
        assert detect_language("xyzzy plugh 42").language == "en"

    def test_confidence_in_unit_range(self):
        guess = detect_language("El informe fue presentado ayer.")
        assert 0.0 <= guess.confidence <= 1.0

    def test_scores_cover_all_languages(self):
        guess = detect_language("hello world")
        assert set(guess.scores) == set(SUPPORTED_LANGUAGES)

    def test_pinyin_needs_distinctive_cue(self):
        # "de" alone is shared with Romance languages and must not flag zh.
        assert detect_language("la casa de mi madre es grande").language != "zh"

    def test_accented_characters_add_evidence(self):
        assert detect_language("señor año mañana").language == "es"


#: Text over the stopword-bearing words and every accent cue, cased both
#: ways, so each language's stopword and cue counts both move.
CUED_TEXT = st.lists(
    st.sampled_from(
        ["the", "El", "según", "und", "für", "déclaré", "ÉTÉ", "zuotian", "de",
         "Ñ", "¿", "ß", "œ", "Ü", "İ", "x", "42", "\ud800"]
    ),
    max_size=40,
).map(" ".join)


class TestDetectLanguageOracle:
    """Cues counted per pattern give the character loop's scores, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(text=st.one_of(st.text(max_size=80), CUED_TEXT))
    def test_equals_the_character_loop(self, text):
        assert detect_language(text) == detect_language_reference(text)

    def test_equals_the_character_loop_on_the_names_corpus(self):
        for document in generate_name_dataset(seed=3, n_documents=120).documents:
            assert detect_language(document.text) == detect_language_reference(
                document.text
            )
