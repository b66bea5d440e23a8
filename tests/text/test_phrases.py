"""Tests for the noun-phrase chunker."""

from __future__ import annotations

from repro.text.phrases import noun_phrases


def texts(spans):
    return [s.text for s in spans]


class TestRefinedChunker:
    def test_drops_sentence_initial_function_word(self):
        assert texts(noun_phrases("Yesterday John Smith arrived.")) == ["John Smith"]

    def test_bridges_single_particle(self):
        assert "Ludwig van Beethoven" in texts(
            noun_phrases("Ludwig van Beethoven composed.")
        )

    def test_bridges_consecutive_particles(self):
        assert "Maria de la Cruz" in texts(noun_phrases("Maria de la Cruz spoke."))

    def test_strips_honorifics(self):
        found = texts(noun_phrases("Dr. Chen presented the results."))
        assert "Chen" in found
        assert all("Dr" != phrase for phrase in found)

    def test_plain_sentence_yields_nothing(self):
        assert texts(noun_phrases("The report was fine.")) == []

    def test_multiple_phrases_in_order(self):
        found = texts(noun_phrases("John Smith met Jane Doe in Boston."))
        assert found == ["John Smith", "Jane Doe", "Boston"]

    def test_spanish_sentence_initial_word_dropped(self):
        found = texts(noun_phrases("Ayer María García habló."))
        assert "Ayer" not in " ".join(found)
        assert any("García" in phrase for phrase in found)

    def test_spans_point_into_text(self):
        text = "He saw Anna Schmidt yesterday."
        for span in noun_phrases(text):
            assert text[span.start : span.end].startswith(span.tokens[0])

    def test_empty_text(self):
        assert noun_phrases("") == []

    def test_particle_at_end_not_bridged(self):
        # "de" with nothing capitalised after it must not extend the phrase.
        found = texts(noun_phrases("Maria de que hablaba."))
        assert found == ["Maria"]
