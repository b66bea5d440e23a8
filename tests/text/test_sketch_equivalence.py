"""The cheaper curation kernels return what the plain ones returned.

PR 15 made the local rung of the curation family do each document's work
once and shaved per-call overhead off three scalar kernels.  None of that
may change a value — shingle ids feed band keys, band keys feed candidate
sets, candidate sets feed prompts and golden reports — so every shortcut is
locked here against the definition it replaced:

- ``shingle_id`` (pre-hashed blake2b prefix) ≡ ``stable_hash("shingle", s)``;
- ``strip_accents`` (ASCII returned untouched) ≡ the NFKD combining filter;
- the digit-token count of ``quality_stats`` ≡ ``any(c.isdigit() ...)``,
  including the non-ASCII digits ``str.isdigit`` accepts;
- ``document_sketch`` ≡ ``(document_digest, shingle_ids(simple_canonical),
  shingle_ids(knowledge_canonical))``, also when the two forms share shingle
  strings and the sketch hashes each once (that evicting sketches changes no
  run is checked end to end in ``tests/tasks/test_curation_once.py``).
"""

from __future__ import annotations

import os
import unicodedata

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from repro._util import stable_hash  # noqa: E402
from repro.text.normalize import strip_accents  # noqa: E402
from repro.text.quality import quality_stats  # noqa: E402
from repro.text.shingle import (  # noqa: E402
    SHINGLE_SPACE,
    document_digest,
    document_sketch,
    knowledge_canonical,
    shingle_id,
    shingle_ids,
    simple_canonical,
)

MAX_EXAMPLES = int(os.environ.get("MINHASH_PROP_EXAMPLES", "60"))

#: Arbitrary unicode, lone surrogates included: ``repr`` escapes them, so the
#: hash input stays encodable on both sides of the comparison.
ANY_TEXT = st.text(alphabet=st.characters(exclude_categories=()), max_size=80)
PRINTABLE = st.text(
    alphabet=st.characters(exclude_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=120,
)
#: Tokens that stress the digit predicate: ASCII, superscripts, Arabic-Indic
#: and fullwidth digits, vulgar fractions and Roman numerals (numeric, *not*
#: ``isdigit``), glued into mixed-script words.
DIGIT_TOKENS = st.lists(
    st.text(alphabet="ab7Zé²٣５½Ⅷ-.%", min_size=1, max_size=6),
    max_size=30,
).map(" ".join)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(shingle=ANY_TEXT)
@example(shingle="")
@example(shingle="it's a \"quoted\" shingle")
@example(shingle="tab\tnew\nline \x1f sep")
@example(shingle="lone \udc80 surrogate")
def test_shingle_id_equals_the_generic_stable_hash(shingle):
    assert shingle_id(shingle) == stable_hash("shingle", shingle) % SHINGLE_SPACE


def _strip_accents_reference(text: str) -> str:
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(text=PRINTABLE)
@example(text="plain ascii, 12 fl. oz & co.")
@example(text="Köln café ﬁn ½ Ⅷ")
@example(text="é combining")
def test_strip_accents_fast_path_equals_the_nfkd_filter(text):
    assert strip_accents(text) == _strip_accents_reference(text)


def _digit_ratio_reference(text: str) -> float:
    tokens = text.split()
    digits = sum(1 for t in tokens if any(c.isdigit() for c in t))
    return digits / len(tokens) if tokens else 0.0


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(text=st.one_of(DIGIT_TOKENS, PRINTABLE))
@example(text="x² + y² = 25")
@example(text="٣ كتب and ５ｇ ½ Ⅷ a1b")
@example(text="no digits here.")
def test_digit_token_count_equals_the_isdigit_predicate(text):
    assert quality_stats(text).digit_token_ratio == _digit_ratio_reference(text)


#: Few words, so a form repeats its own shingles and the two forms share
#: some (plain words) and not others (units, abbreviations, accents) — the
#: table ``document_sketch`` hashes once is read by both tiers.
REPETITIVE = st.lists(
    st.sampled_from("stone ipa 12 fl. oz St. café & co the the".split()), max_size=24
).map(" ".join)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(text=st.one_of(PRINTABLE, REPETITIVE), n=st.integers(min_value=1, max_value=5))
@example(text="the the the the the", n=2)  # one distinct shingle, both forms
@example(text="12 fl. oz of Stone IPA on Main St. 12 fl. oz of Stone IPA", n=3)
@example(text="stone", n=3)  # shorter than the width: the whole text is the shingle
@example(text="", n=3)
def test_sketch_equals_the_three_scalar_kernels(text, n):
    sketch = document_sketch(text, n)
    assert sketch.digest == document_digest(text)
    assert tuple(sketch.simple_ids) == shingle_ids(simple_canonical(text), n)
    assert tuple(sketch.knowledge_ids) == shingle_ids(knowledge_canonical(text), n)
    # Compact (not boxed ints) and safe to share through the LRU.
    assert sketch.simple_ids.itemsize == sketch.knowledge_ids.itemsize == 4
    assert sketch.simple_ids.readonly and sketch.knowledge_ids.readonly
