"""The text kernels that look before they sweep return what the sweeps returned.

``normalize_units`` runs only the rewrites a hint scan says can match,
``normalize_text`` skips the confirming sweep when its output is provably
settled, ``_fuzzy_containment`` does not Jaro-score a token the longer value
holds, ``match_score`` evaluates Jaccard once, ``document_sketch`` hashes a
shingle string once and ``overlap_profile`` intersects instead of looping.
``normalize_whitespace``, ``strip_accents``, the n-gram windows and the
MinHash residues are built by C loops (``str.split``, ``str.translate``,
``zip``, Mersenne folding) instead of a regex, per-text NFKD, slices and
``%``.  None of that may change a value — the simulator's verdicts, hence every tape,
report and golden, are made of these — so each is locked against the
unconditional code it replaced, which survives here, written out, as the
oracle.  The counts at the bottom fail wherever the sweeps come back.
"""

from __future__ import annotations

import os
import re
import sys
import unicodedata
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

import repro.llm.skills.entity_matching as matching  # noqa: E402
import repro.text.normalize as normalize  # noqa: E402
import repro.text.shingle as shingle  # noqa: E402
from repro.datasets import StreamingERCorpus, generate_er_dataset  # noqa: E402
from repro.text.normalize import (  # noqa: E402
    expand_abbreviations,
    extract_numbers,
    normalize_text,
    normalize_units,
    normalize_whitespace,
    strip_accents,
)
from repro.storage.columnar import minhash_signatures_many  # noqa: E402
from repro.text.minhash import MINHASH_PRIME, minhash_params, minhash_signature  # noqa: E402
from repro.text.overlap import (  # noqa: E402
    OverlapProfile,
    _token_ngrams,
    build_ngram_index,
    ngram_set,
    overlap_profile,
)
from repro.text.shingle import simple_canonical, word_shingles  # noqa: E402
from repro.text.similarity import (  # noqa: E402
    jaccard_similarity,
    jaro_winkler_similarity,
    qgram_similarity,
)

MAX_EXAMPLES = int(os.environ.get("MINHASH_PROP_EXAMPLES", "60"))

UNIT_WORDS = (
    "sec second seconds fl fl. oz ounce ounces ml milliliter gb gigabytes mb "
    "megabyte in inch pct"
).split()
#: What the hint scan, the unit rewrites and the settled test can trip over:
#: digits, blanks, the punctuation the patterns read, every unit word and
#: abbreviation key in mixed case, and letters whose case folding or NFKD form
#: is not one ASCII letter (``İ`` lowers to two code points and matches ``i``
#: case-blind, ``ﬁ`` decomposes to ``fi``, ``²`` and ``Ⅷ`` are digits to some
#: predicates only).
PIECES = (
    list("0123456789")
    + [" ", "  ", "\t", "\n", ":", ".", "%", '"', "&", "'", "-", ",", "(", "x"]
    + [word for unit in UNIT_WORDS for word in (unit, unit.upper(), unit.title())]
    + [key for abbr in normalize._ABBREVIATIONS for key in (abbr, abbr.upper())]
    + list("éİıßﬁ²ⅧſK٣")
)
DIRTY_TEXT = st.lists(st.sampled_from(PIECES), max_size=14).map("".join)
ANY_TEXT = st.text(
    alphabet=st.characters(exclude_categories=("Cs",), max_codepoint=0x2FFF),
    max_size=60,
)


# -- normalisation ------------------------------------------------------------------


def whitespace_reference(text: str) -> str:
    return re.sub(r"\s+", " ", text).strip()


def accents_reference(text: str) -> str:
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def test_normalize_whitespace_equals_the_regex_on_every_code_point():
    # Each code point alone, doubled, and at both ends: a character the two
    # forms disagree on survives in one output and is a space in the other.
    text = "".join(f"{chr(code)}x{chr(code)}{chr(code)}" for code in range(sys.maxunicode + 1))
    assert normalize_whitespace(text) == whitespace_reference(text)
    for code in (0x20, 0x85, 0xA0, 0x1C, 0x200B, 0x3000, 0xFEFF):
        edged = f"{chr(code)}a{chr(code)}"
        assert normalize_whitespace(edged) == whitespace_reference(edged)


ACCENT_CASES = [
    "Köln café",
    "e\u0301 a\u0323\u0302 x\u0302\u0323",  # marks in and out of canonical order
    "İstanbul ı",  # dotted capital I sheds its combining dot
    "straße ẞ",  # no decomposition
    "ﬁne ﬀ ﬃ ĳ Ǆ ŉ",  # ligatures and digraphs split
    "Å Å ガ ｶﾞ 한국어",  # angstrom sign, kana voicing mark, Hangul syllables
    "½ ① ² ℌ ſ",  # compatibility forms
    "\u0301leading mark",
]


@pytest.mark.parametrize("text", ACCENT_CASES)
def test_strip_accents_equals_the_nfkd_filter_on_named_cases(text):
    assert strip_accents(text) == accents_reference(text)


def test_strip_accents_equals_the_nfkd_filter_below_u3000():
    text = "".join(chr(code) for code in range(0x3000) if code not in range(0xD800, 0xE000))
    assert strip_accents(text) == accents_reference(text)


def units_reference(text: str) -> str:
    for pattern, replacement in normalize._UNIT_PATTERNS:
        text = pattern.sub(replacement, text)
    return text


def sweep_reference(text: str) -> str:
    text = accents_reference(text).lower()
    text = units_reference(text)
    text = text.replace("&", " and ")
    text = normalize._PUNCT_RE.sub(" ", text)
    text = expand_abbreviations(text)
    return whitespace_reference(text)


def normalize_reference(text: str) -> str:
    for _ in range(10):
        normalized = sweep_reference(text)
        if normalized == text:
            return normalized
        text = normalized
    return text


UNIT_CASES = [
    "12 fl. oz bottle, 330 ML can & 5.5 % abv",
    "3:45oz",  # no duration (no word break after 45), but ounces
    "3:455 oz",
    "1:30 sec",
    "5 sec oz",
    '7" vinyl, 12 inch, 3 in.',
    "8 GB / 512 megabytes",
    "2 İnch",  # matches ``in`` case-blind without lowering to it
    "٣ oz",  # a digit to ``\\d``, not to ``[0-9]``
    "12oz 12oz 12oz",
    "no digits here",
]


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(text=st.one_of(DIRTY_TEXT, ANY_TEXT))
def test_hinted_unit_rewrites_equal_the_eight_pattern_loop(text):
    assert normalize_units(text) == units_reference(text)


@pytest.mark.parametrize("text", UNIT_CASES)
def test_hinted_unit_rewrites_on_named_cases(text):
    assert normalize_units(text) == units_reference(text)
    assert normalize_text(text) == normalize_reference(text)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(text=st.one_of(DIRTY_TEXT, ANY_TEXT))
@example(text="Stone Brewing Co. & Sons")
@example(text=":co")  # punctuation stripping exposes an abbreviation
@example(text="Köln café ﬁn ½ Ⅷ ß")
@example(text="st. st st.. dr. dr")
def test_normalize_text_equals_the_sweep_until_equal_loop(text):
    assert normalize_text(text) == normalize_reference(text)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(text=st.one_of(DIRTY_TEXT, ANY_TEXT))
def test_a_settled_sweep_output_is_a_fixpoint(text):
    swept = sweep_reference(text)
    if normalize._settled(swept):
        assert sweep_reference(swept) == swept


def test_every_unit_pattern_has_its_hint_group():
    # Group k of the hint speaks for pattern k - 1: a ninth rewrite without a
    # ninth group would silently never run.
    assert normalize._UNIT_HINT.groups == len(normalize._UNIT_PATTERNS)


def test_the_inch_mark_is_a_unit_where_people_write_it():
    assert normalize_units('7" vinyl') == "7in vinyl"
    assert normalize_units('7"') == "7in"
    assert normalize_units('7",') == "7in,"
    assert normalize_units("7 inches") == "7 inches"  # the words keep their break
    assert normalize_text('7" vinyl') == normalize_text("7 inch vinyl") == "7in vinyl"


# -- the ER comparison --------------------------------------------------------------


def containment_reference(a: str, b: str) -> float:
    ta, tb = a.split(), b.split()
    if not ta or not tb:
        return 1.0 if ta == tb else 0.0
    shorter, longer = (ta, tb) if len(ta) <= len(tb) else (tb, ta)
    distinctive = [t for t in shorter if t not in matching._GENERIC_TOKENS]
    generic = [t for t in shorter if t in matching._GENERIC_TOKENS]

    def best(token: str) -> float:
        return max(jaro_winkler_similarity(token, other) for other in longer)

    if distinctive:
        scores = [best(t) for t in distinctive]
        distinctive_score = 0.5 * min(scores) + 0.5 * (sum(scores) / len(scores))
    else:
        distinctive_score = 1.0
    generic_score = sum(best(t) for t in generic) / len(generic) if generic else 1.0
    return 0.9 * distinctive_score + 0.1 * generic_score


def match_score_reference(left, right) -> float:
    total_weight = total = 0.0
    for attribute in sorted(set(left) & set(right)):
        weight = matching._attribute_weight(attribute)
        a_raw, b_raw = left[attribute], right[attribute]
        if weight == 0.0 or a_raw in (None, "") or b_raw in (None, ""):
            continue
        a, b = normalize_reference(str(a_raw)), normalize_reference(str(b_raw))
        numbers_a, numbers_b = extract_numbers(a), extract_numbers(b)
        if numbers_a and numbers_b and not (set(a.split()) - {str(x) for x in numbers_a}):
            denominator = max(abs(numbers_a[0]), abs(numbers_b[0]), 1e-9)
            sim = max(0.0, 1.0 - 5.0 * abs(numbers_a[0] - numbers_b[0]) / denominator)
        elif weight >= 3.0:
            sim = containment_reference(a, b)
        else:
            sim = max(
                0.45 * jaccard_similarity(a, b)
                + 0.35 * jaro_winkler_similarity(a, b)
                + 0.20 * qgram_similarity(a, b),
                jaccard_similarity(a, b),
            )
        total += weight * sim
        total_weight += weight
    return total / total_weight if total_weight else 0.0


NAME_WORDS = "wild otter bastard hazy trail ipa ale amber the of otter. ottre x".split()
NAME = st.lists(st.sampled_from(NAME_WORDS), max_size=5).map(" ".join)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(a=NAME, b=NAME)
@example(a="wild otter ipa", b="wild otter ipa")
@example(a="ipa", b="ale ipa")  # all-generic shorter value
@example(a="", b="otter")
def test_containment_equals_its_shortcut_free_form(a, b):
    assert matching._fuzzy_containment(a, b) == containment_reference(a, b)


def _record_pairs():
    for pair in StreamingERCorpus(100, seed=5):
        yield pair.left, pair.right
    for dataset in ("beer", "music"):
        for pair in generate_er_dataset(dataset).test[:50]:
            yield pair.left, pair.right


def test_match_score_is_bit_equal_on_generated_record_pairs():
    pairs = list(_record_pairs())
    assert len(pairs) == 200
    for left, right in pairs:
        assert matching.match_score(left, right) == match_score_reference(left, right)


# -- decontamination scan -----------------------------------------------------------


def overlap_reference(text, hard_index, soft_index, hard_n, soft_n) -> OverlapProfile:
    canonical = simple_canonical(text)
    hard_grams = ngram_set(canonical, hard_n)
    votes: dict[int, int] = {}
    soft_hits = 0
    for gram in ngram_set(canonical, soft_n):
        item = soft_index.get(gram)
        if item is not None:
            soft_hits += 1
            votes[item] = votes.get(item, 0) + 1
    best_item = min(votes, key=lambda item: (-votes[item], item)) if votes else -1
    return OverlapProfile(
        hard_hits=sum(1 for g in hard_grams if g in hard_index),
        soft_hits=soft_hits,
        doc_ngrams=len(hard_grams),
        best_item=best_item,
    )


#: Six words: documents and eval items collide often, and two items tie on
#: soft votes often enough to exercise the lowest-item rule.
SCAN_TEXT = st.lists(st.sampled_from("a b c d e F,".split()), max_size=12).map(" ".join)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(text=SCAN_TEXT, items=st.lists(SCAN_TEXT, max_size=5))
@example(text="a b c d", items=["c d e", "a b e"])  # one soft vote each: item 0 wins the tie
@example(text="", items=["a b"])
@example(text="a", items=["a"])  # shorter than either width
def test_overlap_profile_equals_the_per_gram_loop(text, items):
    hard, soft = build_ngram_index(items, 3), build_ngram_index(items, 2)
    assert overlap_profile(text, hard, soft, hard_n=3, soft_n=2) == overlap_reference(
        text, hard, soft, 3, 2
    )


# -- n-gram windows -----------------------------------------------------------------


def token_ngrams_reference(tokens: list[str], n: int) -> set[tuple[str, ...]]:
    if len(tokens) < n:
        return {tuple(tokens)} if tokens else set()
    return {tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)}


def word_shingles_reference(text: str, n: int) -> list[str]:
    tokens = text.split()
    if not tokens:
        return []
    if len(tokens) < n:
        return [" ".join(tokens)]
    return [" ".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


WINDOW_TEXTS = ["", "a", "a b", "a b a", "x y z x y", " a  b\tc d e f g h i ", "one two three"]


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("text", WINDOW_TEXTS)
def test_windows_equal_the_slice_loops(text, n):
    assert _token_ngrams(text.split(), n) == token_ngrams_reference(text.split(), n)
    assert ngram_set(text, n) == token_ngrams_reference(text.split(), n)
    assert word_shingles(text, n) == word_shingles_reference(text, n)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(text=SCAN_TEXT, n=st.integers(min_value=1, max_value=8))
def test_windows_equal_the_slice_loops_on_scan_text(text, n):
    assert ngram_set(text, n) == token_ngrams_reference(text.split(), n)
    assert word_shingles(text, n) == word_shingles_reference(text, n)


# -- MinHash residues ---------------------------------------------------------------


def test_minhash_folding_equals_the_modulo_on_zero_residues_and_empty_rows():
    params = minhash_params(128)
    prime = MINHASH_PRIME
    # x = -b / a (mod p) sends permutation i to residue 0, i.e. a*x + b is a
    # multiple of p: an unreduced fold leaves p there, which must read 0.
    zeros = [(-b * pow(a, -1, prime)) % prime for a, b in zip(params.a[:16], params.b[:16])]
    rows = [
        (),
        tuple(sorted(set(zeros))),
        (zeros[0],),
        (0,),
        (prime - 1,),
        (2**32 - 1,),  # the widest id a sketch's buffer can hold
        tuple(sorted({0, 1, prime - 1, *zeros})),
        (),
    ]
    batch = minhash_signatures_many(rows, params.a, params.b)
    for row, signature in zip(rows, batch):
        assert tuple(int(value) for value in signature) == minhash_signature(row, params)
    assert [int(value) for value in batch[1][:16]] == [0] * 16
    assert int(batch[2][0]) == 0
    assert set(batch[0].tolist()) == set(batch[-1].tolist()) == {prime}


# -- counts: the work that is no longer done ---------------------------------------


def _count_calls(monkeypatch, module, name: str) -> list[tuple]:
    calls: list[tuple] = []
    function = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class _CountingPattern:
    def __init__(self, pattern, calls: Counter, index: int):
        self._pattern, self._calls, self._index = pattern, calls, index

    def sub(self, replacement, text):
        self._calls[self._index] += 1
        return self._pattern.sub(replacement, text)


@pytest.fixture()
def unit_subs(monkeypatch) -> Counter:
    """Calls of each unit pattern's ``sub``, by its index in the table."""
    calls: Counter = Counter()
    monkeypatch.setattr(
        normalize,
        "_UNIT_PATTERNS",
        [
            (_CountingPattern(pattern, calls, index), replacement)
            for index, (pattern, replacement) in enumerate(normalize._UNIT_PATTERNS)
        ],
    )
    return calls


@pytest.fixture()
def sweeps(monkeypatch) -> list[tuple]:
    """Arguments of every ``_normalize_pass`` call."""
    return _count_calls(monkeypatch, normalize, "_normalize_pass")


def test_a_digit_free_value_costs_no_unit_substitution_and_one_sweep(unit_subs, sweeps):
    assert normalize_text("Deschutes Brewing Co.") == "deschutes brewery company"
    assert not unit_subs
    assert len(sweeps) == 1


def test_one_unit_family_runs_one_of_the_eight_patterns_per_sweep(unit_subs, sweeps):
    assert normalize_text("12 fl. oz Hazy Trail Amber Ale") == "12oz hazy trail amber ale"
    # ``12oz`` still reads as a unit, so the settled test runs that one
    # rewrite once more (it returns ``12oz``) instead of a whole sweep.
    assert len(sweeps) == 1
    assert unit_subs == {2: 2}


def test_a_unit_the_sweep_exposed_gets_another_sweep(sweeps):
    # The comma hid the percent sign from the first sweep's rewrites; with
    # it stripped the output is still moved by them, so it is swept again.
    assert normalize_text("7,% abv") == normalize_reference("7,% abv") == "7pct abv"
    assert sweeps == [("7,% abv",), ("7 % abv",)]


def test_an_expansion_that_is_itself_a_key_is_not_settled(monkeypatch, sweeps):
    # No entry of the shipped table expands to a key; one that does must
    # still be chased to the fixpoint, which is what the key test is for.
    monkeypatch.setitem(normalize._ABBREVIATIONS, "hwy", "rd")
    assert normalize_text("12 Main Hwy") == normalize_reference("12 Main Hwy") == "12 main road"
    assert sweeps == [("12 Main Hwy",), ("12 main rd",)]


def test_a_token_the_longer_value_holds_is_not_jaro_scored(monkeypatch):
    calls = _count_calls(monkeypatch, matching, "jaro_winkler_similarity")
    assert matching._fuzzy_containment("rusty canyon", "rusty canyon red ale") == 1.0
    assert not calls
    matching._fuzzy_containment("rusty canyom", "rusty canyon red ale")
    assert {token for token, _ in calls} == {"canyom"}


def test_one_jaccard_per_secondary_attribute(monkeypatch):
    calls = _count_calls(monkeypatch, matching, "jaccard_similarity")
    left = {"name": "Hazy Trail", "brewery": "Left Hand Brewing Co.", "style": "Amber Ale"}
    right = {"name": "Hazy Trail", "brewery": "Left Hand Brewery", "style": "Amber"}
    matching.match_score(left, right)
    assert len(calls) == 2  # brewery and style; the name goes through containment


def test_a_sketch_hashes_each_distinct_shingle_string_once(monkeypatch):
    text = "12 fl. oz of Stone IPA, 12 fl. oz of Stone IPA on Main St. and again on Main St."
    strings = {
        *shingle.word_shingles(shingle.simple_canonical(text), 3),
        *shingle.word_shingles(shingle.knowledge_canonical(text), 3),
    }
    calls = _count_calls(monkeypatch, shingle, "shingle_id")
    shingle.document_sketch.__wrapped__(text, 3)
    assert Counter(calls) == {(s,): 1 for s in strings}
