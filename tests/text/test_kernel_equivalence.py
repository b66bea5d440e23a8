"""The text kernels that look before they sweep return what the sweeps returned.

``normalize_units`` runs only the rewrites a hint scan says can match,
``normalize_text`` skips the confirming sweep when its output is provably
settled, ``_fuzzy_containment`` does not Jaro-score a token the longer value
holds, the decontamination skill's ``_fuzzy_contained`` does not Jaro-score a
pool word whose length-and-prefix bound is below the cut,
``match_score`` evaluates Jaccard once, ``document_sketches`` hashes a
shingle window once per scan, ``overlap_profile`` intersects instead of
looping and ``overlap_tier`` builds hard windows only behind a soft hit.
``jaro_similarity`` walks a stack of unmatched positions per character
instead of scanning a window per character, and the entity-matching skills
test a substring before they run a regex over the prompt.
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

import repro.llm.skills.curation as curation_skill  # noqa: E402
import repro.llm.skills.entity_matching as matching  # noqa: E402
import repro.text.normalize as normalize  # noqa: E402
import repro.text.shingle as shingle  # noqa: E402
from repro.baselines.curation import hard_scan_contamination_flags  # noqa: E402
from repro.core.dsl.builder import PipelineBuilder  # noqa: E402
from repro.core.runtime.system import LinguaManga  # noqa: E402
from repro.datasets import StreamingERCorpus, generate_er_dataset  # noqa: E402
from repro.datasets.curation import CurationCorpus, curation_vocabulary  # noqa: E402
from repro.llm.providers import LLMRequest, SimulatedProvider  # noqa: E402
from repro.llm.service import LLMService  # noqa: E402
from repro.llm.skills import (  # noqa: E402
    BatchEntityMatchingSkill,
    EntityMatchingSkill,
    default_skills,
)
from repro.llm.skills.base import extract_json_field  # noqa: E402
from repro.llm.skills.batch_matching import _PAIR_HEADER_RE  # noqa: E402
from repro.tasks import table  # noqa: E402
from repro.tasks.curation import run_quality_filter  # noqa: E402
from repro.text.normalize import (  # noqa: E402
    expand_abbreviations,
    extract_numbers,
    normalize_text,
    normalize_units,
    normalize_whitespace,
    strip_accents,
)
from repro.storage.columnar import minhash_signatures_many  # noqa: E402
from repro.text.minhash import MINHASH_PRIME, minhash_params  # noqa: E402
from repro.text.overlap import (  # noqa: E402
    OverlapProfile,
    _token_ngrams,
    build_ngram_index,
    ngram_set,
    overlap_profile,
    overlap_tier,
)
from repro.text.shingle import simple_canonical, word_shingles  # noqa: E402
from repro.text.similarity import (  # noqa: E402
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    jaro_winkler_similarity_many,
    qgram_similarity,
)

from ..oracles import jaro_reference, minhash_signature  # noqa: E402

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


def fuzzy_contained_reference(token: str, pool: list[str]) -> bool:
    return any(jaro_winkler_similarity(token, other) >= 0.88 for other in pool)


#: Vocabulary words and near-misses of them: typos keep most pairs near the
#: 0.88 cut, a small alphabet makes length the only difference in others.
FUZZY_WORD = st.one_of(
    st.sampled_from(sorted(w for w in curation_vocabulary() if len(w) >= 4)),
    st.builds(
        lambda word, i, cut: word[:i] + word[i + cut :] if cut else word[:i] + word[i:] * 2,
        st.sampled_from(["brewery", "census", "released", "harvest", "canyon"]),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=2),
    ),
    st.text(alphabet=st.sampled_from("abrne"), min_size=4, max_size=14),
)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(token=FUZZY_WORD, pool=st.lists(FUZZY_WORD, max_size=8))
@example(token="brewery", pool=["brewer", "brew", "breweries"])
@example(token="census", pool=["censuses", "ensus"])
def test_the_bounded_fuzzy_scan_equals_the_unpruned_one(token, pool):
    assert curation_skill._fuzzy_contained(token, pool) == fuzzy_contained_reference(
        token, pool
    )
    for other in pool:
        assert curation_skill._jaro_winkler_bound(token, other) >= (
            jaro_winkler_similarity(token, other) - curation_skill._BOUND_MARGIN
        )


def test_the_bounded_fuzzy_scan_equals_the_unpruned_one_on_decontamination_pairs():
    corpus = CurationCorpus(120, seed=7)
    leaked = [doc for doc in corpus if doc.contaminated]
    assert len(leaked) >= 8
    verdicts = []
    for doc in leaked:
        pool = [t for t in set(shingle.knowledge_canonical(doc.text).split()) if len(t) >= 4]
        for index in (doc.eval_index, (doc.eval_index + 1) % corpus.eval_size):
            item = corpus.eval_set.item(index)
            for token in shingle.knowledge_canonical(item).split():
                if len(token) >= 4:
                    verdict = curation_skill._fuzzy_contained(token, pool)
                    assert verdict == fuzzy_contained_reference(token, pool)
                    verdicts.append(verdict)
    assert True in verdicts and False in verdicts


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


# -- Jaro ---------------------------------------------------------------------------

#: Curation documents of 500 characters or more (the dedup prompts send two
#: whole ones through ``match_score``), each with its cluster's original.
LONG_DOCS = [doc for doc in CurationCorpus(40, seed=7) if len(doc.text) >= 500]
LONG_PAIRS = [
    (a.text, b.text) for a, b in zip(LONG_DOCS, LONG_DOCS[1:] + LONG_DOCS[:1])
] + [(doc.text, LONG_DOCS[doc.cluster].text) for doc in LONG_DOCS if doc.cluster != doc.index]
#: Few letters, many repeats: a character's unmatched positions pile up,
#: fall below the window and are matched out of the middle of its stack.
REPEATS = st.text(alphabet=st.sampled_from("abc"), max_size=40)
#: Astral code points, combining marks (a decomposed ``é`` is two of them)
#: and a precomposed ``é``: each is one position, whatever it renders as.
ODD_CODE_POINTS = st.text(
    alphabet=st.sampled_from(
        ["a", "e", "\u0301", "\u00e9", "\U0001F600", "\U00010348", "\u200d"]
    ),
    max_size=16,
)
JARO_TEXT = st.one_of(
    REPEATS, ODD_CODE_POINTS, st.sampled_from([doc.text for doc in LONG_DOCS])
)


def test_the_long_documents_are_long_and_include_near_duplicates():
    assert len(LONG_DOCS) == 40 and min(len(doc.text) for doc in LONG_DOCS) >= 500
    assert sum(1 for doc in LONG_DOCS if doc.cluster != doc.index) >= 5


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(a=JARO_TEXT, b=JARO_TEXT)
@example(a="", b="")
@example(a="", b="abc")
@example(a="abc", b="")
@example(a="a", b="b")
@example(a="aaab", b="baaa")  # the stale ``a`` at 0 is below every later window
@example(a="e\u0301", b="\u00e9")  # canonically equal, no position alike
def test_jaro_equals_the_window_scan_bit_for_bit(a, b):
    assert jaro_similarity(a, b) == jaro_reference(a, b)
    assert jaro_similarity(b, a) == jaro_reference(b, a)


@pytest.mark.parametrize("index", range(len(LONG_PAIRS)))
def test_jaro_equals_the_window_scan_on_curation_documents(index):
    a, b = LONG_PAIRS[index]
    assert jaro_similarity(a, b) == jaro_reference(a, b)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(pairs=st.lists(st.tuples(JARO_TEXT, JARO_TEXT), min_size=1, max_size=8))
@example(pairs=[("aaab", "baaa"), ("", "abc"), ("abc", "abc"), ("a", "")])
@example(pairs=[("abcabcabc", "cbacbacba"), ("\U0001F600e\u0301", "e\u00e9\U0001F600")])
def test_batched_jaro_equals_the_window_scan_bit_for_bit(pairs):
    # The batch's Jaro, under the Winkler prefix boost it adds.
    def winkler(a: str, b: str) -> float:
        jaro = jaro_reference(a, b)
        prefix = 0
        for x, y in zip(a[:4], b[:4]):
            if x != y:
                break
            prefix += 1
        return jaro + prefix * 0.1 * (1.0 - jaro)

    left, right = zip(*pairs)
    batch = jaro_winkler_similarity_many(left, right).tolist()
    assert batch == [winkler(a, b) for a, b in pairs]


def test_batched_jaro_winkler_equals_the_scalar_on_curation_documents():
    left, right = zip(*LONG_PAIRS)
    batch = jaro_winkler_similarity_many(left, right).tolist()
    assert batch == [jaro_winkler_similarity(a, b) for a, b in LONG_PAIRS]


# -- skill routing ------------------------------------------------------------------


class _TriggerFirstMatching(EntityMatchingSkill):
    def matches(self, prompt):
        return bool(matching._TRIGGER.search(prompt)) and (
            extract_json_field(prompt, "Record A") is not None
            or "record a" in prompt.lower()
        )


class _HeadersFirstBatchMatching(BatchEntityMatchingSkill):
    def matches(self, prompt):
        headers = _PAIR_HEADER_RE.findall(prompt)
        return len(headers) >= 1 and "record a" in prompt.lower() and (
            "same entity" in prompt.lower() or "equivalent" in prompt.lower()
        )


def reference_route(prompt: str) -> str:
    """The skill the routing picked with each regex tested before its substrings."""
    replaced = {
        "entity_matching": _TriggerFirstMatching(),
        "batch_entity_matching": _HeadersFirstBatchMatching(),
    }
    skills = [replaced.get(skill.name, skill) for skill in default_skills()]
    return next(skill.name for skill in skills if skill.matches(prompt))


class _Recording(SimulatedProvider):
    def __init__(self):
        super().__init__()
        self.routed: list[tuple[str, str]] = []

    def complete(self, request):
        response = super().complete(request)
        self.routed.append((request.prompt, response.skill))
        return response


#: A served row per prompt family: single-pair ER, curation dedup, quality and
#: decontamination, imputation (plain, and hybrid with code generation and
#: critique), and name extraction (tagging, code generation).
ROUTED_ROWS = {
    "er": {"name": "beer", "seed": 7, "n_entities": 30},
    "dedup": {"n_docs": 48, "seed": 13},
    "quality_filter": {"n_docs": 48, "seed": 13},
    "decontamination": {"n_docs": 48, "seed": 13},
    "imputation": {"seed": 11, "n_train": 8, "n_test": 24},
    "imputation_hybrid": {"seed": 11, "n_train": 8, "n_test": 24},
    "names": {"seed": 3, "n_documents": 24},
}
#: Hand-written prompts on the edges of both orders' conjuncts.
EDGE_PROMPTS = [
    'Do these refer to the same entity?\nRECORD A: {"name": "x"}\nRecord B: {"name": "y"}',
    "Do these refer to the same entity? record a and record b differ.",
    'Record A: {"name": "x"} Record B: {"name": "x"}',  # the label but no trigger
    "Please match the records: entity resolution for record a.",
    "Pair 1: are these equivalent? Record A: {} Record B: {}",
    "Pair 1: same entity?",  # a header but no record
    'Is this document high-quality?\nDocument: {"text": "a record album"}',
    "",
]


@pytest.fixture(scope="module")
def routed_prompts() -> list[tuple[str, str]]:
    routed = []
    for name, ref in ROUTED_ROWS.items():
        provider = _Recording()
        data = table.TASKS[name].resolve(ref, False)
        table.run(name, LinguaManga(service=LLMService(provider)), data)
        routed += provider.routed
    provider = _Recording()
    pipeline = (
        PipelineBuilder("batched")
        .load(source="pairs")
        .match_entities(impl="llm_batch", batch_size=5)
        .save(key="verdicts")
        .build()
    )
    pairs = generate_er_dataset("music", seed=7, n_entities=30).test[:20]
    LinguaManga(service=LLMService(provider)).run(
        pipeline, {"pairs": [{"left": pair.left, "right": pair.right} for pair in pairs]}
    )
    routed += provider.routed
    provider = _Recording()
    for prompt in EDGE_PROMPTS:
        provider.complete(LLMRequest(prompt=prompt))
    return routed + provider.routed


def test_every_prompt_family_is_in_the_routing_corpus(routed_prompts):
    assert {skill for _, skill in routed_prompts} >= {
        "entity_matching", "batch_entity_matching", "doc_quality", "decontam",
        "imputation", "codegen", "suggest", "tagging", "chat",
    }


def test_cheap_first_routing_picks_the_skill_the_regex_first_order_picked(routed_prompts):
    assert [skill for _, skill in routed_prompts] == [
        reference_route(prompt) for prompt, _ in routed_prompts
    ]


def test_every_character_matching_the_record_label_case_blind_lowers_to_it():
    # Why ``"record a" in prompt.lower()`` covers an ``extract_json_field``
    # hit on the case-blind label ``Record A``.
    every = "".join(
        chr(code) for code in range(sys.maxunicode + 1) if not 0xD800 <= code < 0xE000
    )
    for letter in "Record A":
        assert {ch.lower() for ch in re.findall(re.escape(letter), every, re.IGNORECASE)} == {
            letter.lower()
        }


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


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    text=SCAN_TEXT,
    items=st.lists(SCAN_TEXT, max_size=5),
    hard_n=st.integers(min_value=1, max_value=5),
    soft_n=st.integers(min_value=1, max_value=5),
)
@example(text="a b c d", items=["a b c d e"], hard_n=4, soft_n=2)  # hard and soft
@example(text="a b", items=["a b"], hard_n=4, soft_n=3)  # both shorter than either width
@example(text="a b c", items=["a b"], hard_n=4, soft_n=2)  # the item under the hard width
@example(text="a b c d", items=["b c d e"], hard_n=2, soft_n=4)  # soft_n > hard_n: hard only
@example(text="", items=["a"], hard_n=3, soft_n=1)
def test_soft_first_tier_equals_the_full_profile_verdict(text, items, hard_n, soft_n):
    hard, soft = build_ngram_index(items, hard_n), build_ngram_index(items, soft_n)
    profile = overlap_reference(text, hard, soft, hard_n, soft_n)
    expected = 2 if profile.hard_hits else 1 if profile.soft_hits else 0
    assert overlap_tier(text, hard, soft, hard_n=hard_n, soft_n=soft_n) == expected


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    texts=st.lists(SCAN_TEXT, max_size=6),
    items=st.lists(SCAN_TEXT, max_size=5),
)
def test_hard_scan_baseline_flags_equal_the_per_gram_loop(texts, items):
    hard = build_ngram_index(items, 8)
    records = [{"id": i, "text": text} for i, text in enumerate(texts)]
    assert hard_scan_contamination_flags(records, items) == [
        int(overlap_reference(text, hard, {}, 8, 8).hard_hits > 0) for text in texts
    ]


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


def test_a_pool_word_bounded_below_the_cut_is_not_jaro_scored(monkeypatch):
    calls = _count_calls(monkeypatch, curation_skill, "jaro_winkler_similarity")
    # Against "brewery": "alex" is bounded by (4/7 + 1 + 1) / 3 = 0.857 with
    # no shared prefix — skipped; "harvest" has its length, bound 1.0 —
    # scored, no match; "brew" is bounded by 0.857 raised by a 4-character
    # prefix to 0.914 — scored, a match.
    assert curation_skill._fuzzy_contained("brewery", ["alex", "harvest", "brew"])
    assert [other for _, other in calls] == ["harvest", "brew"]


def test_one_jaccard_per_secondary_attribute(monkeypatch):
    calls = _count_calls(monkeypatch, matching, "jaccard_similarity")
    left = {"name": "Hazy Trail", "brewery": "Left Hand Brewing Co.", "style": "Amber Ale"}
    right = {"name": "Hazy Trail", "brewery": "Left Hand Brewery", "style": "Amber"}
    matching.match_score(left, right)
    assert len(calls) == 2  # brewery and style; the name goes through containment


def test_a_scan_hashes_each_distinct_shingle_string_once(monkeypatch):
    texts = [
        "12 fl. oz of Stone IPA, 12 fl. oz of Stone IPA on Main St. and again on Main St.",
        "Stone IPA on Main St. and again",  # windows of the first document
        "12 fl. oz of Stone IPA, 12 fl. oz of Stone IPA on Main St. and again on Main St.",
        "Stone",  # under the width: its whole text is its one shingle
    ]
    strings = {
        string
        for text in texts
        for canonical in (shingle.simple_canonical(text), shingle.knowledge_canonical(text))
        for string in shingle.word_shingles(canonical, 3)
    }
    calls = _count_calls(monkeypatch, shingle, "shingle_id")
    shingle.document_sketches(texts, 3)
    assert Counter(calls) == {(s,): 1 for s in strings}


def test_a_quality_prompt_costs_no_entity_matching_trigger_scan(monkeypatch):
    class CountingTrigger:
        calls = 0

        def search(self, prompt):
            CountingTrigger.calls += 1
            return trigger.search(prompt)

    trigger = matching._TRIGGER
    monkeypatch.setattr(matching, "_TRIGGER", CountingTrigger())
    provider = _Recording()
    # ``curation_batch``'s quality prompts at its smoke size.
    run_quality_filter(LinguaManga(service=LLMService(provider)), CurationCorpus(30, seed=7))
    assert {skill for _, skill in provider.routed} == {"doc_quality"}
    assert CountingTrigger.calls == 0  # 24 when the trigger ran first
