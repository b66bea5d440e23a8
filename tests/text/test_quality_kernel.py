"""The one-pass quality kernel counts what the per-token loop counted.

``quality_stats`` counts words, digit tokens and consonant-cluster words in
whole-text regex passes when lower-casing cannot move a character between
the word, digit and space classes; every other text keeps the per-token
loop.  Each field must equal :func:`per_token_quality_stats` exactly —
the cascade's rule rung, its escalation band and every curation golden
read these numbers.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro.datasets.curation import CurationCorpus  # noqa: E402
from repro.text.quality import _counts_in_one_pass, quality_stats  # noqa: E402

from ..oracles import per_token_quality_stats  # noqa: E402

MAX_EXAMPLES = int(os.environ.get("MINHASH_PROP_EXAMPLES", "60"))

#: Arbitrary unicode, lone surrogates included.
ANY_TEXT = st.text(alphabet=st.characters(exclude_categories=()), max_size=120)
#: Word-shaped text over ASCII and the non-ASCII letters that take the
#: one-pass path (``ö``, ``é``, ``ß``, ``ﬁ``, the Kelvin sign lowering to
#: ``k``) or must not (``İ``, ``Σ``, ``²``, ``٣``).
WORDY = st.lists(
    st.text(alphabet="aBcdFGhkLmnprSTvwXyz019.,!?'-_öéßKİΣσ²٣ﬁ", min_size=1, max_size=9),
    max_size=30,
).flatmap(
    lambda words: st.lists(
        st.sampled_from([" ", "  ", "\n", "\t", "\x1c", "\x1f", ". "]),
        min_size=len(words),
        max_size=len(words),
    ).map(lambda gaps: "".join(w + g for w, g in zip(words, gaps)))
)


def _assert_same(text: str) -> None:
    assert dataclasses.astuple(quality_stats(text)) == dataclasses.astuple(
        per_token_quality_stats(text)
    )


@settings(max_examples=MAX_EXAMPLES * 4, deadline=None)
@given(text=st.one_of(ANY_TEXT, WORDY))
def test_quality_stats_equal_the_per_token_loop(text):
    _assert_same(text)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "İstanbul streets. İSTANBUL RİVER flows",
        "x² + y² = 25 and ²nd",
        "٣ كتب and 3 books",
        "１２ bottles of ＡＢＣ lager, 12 of abc",
        "Straße STRASSE ß groß",
        "ﬁnest ﬂights ﬁ",
        "one\x1ctwo\x1dthree\x1efour\x1ffive 6\x1c7",
        # "Σ" lowers to "ς" only at the end of a word: lowering the whole
        # text turns the first "ΑΣ" into "ασ" (a dot joins it to "Β"), a
        # word form distinct from the second's "ας".
        "ΑΣ.Β ΑΣ ΟΔΟΣ",
        "Kelvin Kbcd strength KKKK",
        "Köln café Cafés & crwth schmdt 12oz",
    ],
)
def test_quality_stats_explicit_cases(text):
    _assert_same(text)


@pytest.mark.parametrize(
    "text, one_pass",
    [
        ("plain ascii 12oz", True),
        ("Köln café Straße", True),
        ("İstanbul", False),
        ("x²", False),
        ("٣", False),
        ("１２", False),
        ("ΑΣ", False),
        ("ﬁ", True),  # one letter, lowered to itself
    ],
)
def test_one_pass_guard(text, one_pass):
    assert _counts_in_one_pass(text) is one_pass


def test_corpus_documents_take_the_one_pass_path():
    """The guard admits the generator's text, so the fast path is the one run."""
    texts = [doc.text for doc in CurationCorpus(500, seed=7)]
    assert all(_counts_in_one_pass(text) for text in texts)
    for text in texts:
        _assert_same(text)
