"""The simulated LLM's world knowledge.

The knowledge base is a deliberately *partial and noisy* view of the ground
truth in :mod:`repro.datasets.catalog`.  Gaps and errors are deterministic
functions of the queried item (via :func:`repro._util.stable_unit`), so every
experiment is reproducible while the LLM still behaves like a fallible oracle
— exactly the regime the paper's optimizer (validator / simulator /
connector) is designed for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import stable_choice, stable_unit
from repro.datasets import catalog
from repro.text.language import detect_language
from repro.text.normalize import strip_accents

__all__ = ["KnowledgeBase"]

def _fold(name: str) -> str:
    return strip_accents(name).lower()


_ALL_FIRST = {_fold(name) for names in catalog.FIRST_NAMES.values() for name in names}
_ALL_LAST = {_fold(name) for names in catalog.LAST_NAMES.values() for name in names}
_EN_FIRST = {_fold(name) for name in catalog.FIRST_NAMES["en"]}
_EN_LAST = {_fold(name) for name in catalog.LAST_NAMES["en"]}
_NON_NAMES = {
    _fold(token) for noun in catalog.NON_NAME_PROPER_NOUNS for token in noun.split()
}
_PARTICLES = {"de", "del", "della", "di", "da", "van", "von", "der", "den",
              "la", "le", "bin", "al"}
_BRAND_NAMES = [brand.name for brand in catalog.BRANDS]


#: Fraction of products whose manufacturer the model does not know.
_BRAND_GAP = 0.045
#: Of the known products, fraction answered with a *wrong* brand
#: (hallucination) rather than "unknown".
_BRAND_CONFUSION = 0.015
#: Error rate when judging person names in a language the model was told
#: about (or English).
_NAME_NOISE_NATIVE = 0.04
#: Error rate when judging non-English names *without* a language hint —
#: the multilingual degradation of paper section 4.2.
_NAME_NOISE_FOREIGN = 0.35
#: Base error rate for borderline entity-match judgements.
_MATCH_NOISE = 0.04
#: Base error rate for borderline corpus-curation judgements (document
#: quality, contamination adjudication).
_CURATION_NOISE = 0.05
#: Folded into every stochastic decision.
_SEED_TAG = "kb-v1"


@dataclass
class KnowledgeBase:
    """Calibrated, partial world knowledge for the simulated LLM."""

    _memo: dict = field(default_factory=dict, repr=False)

    # -- product manufacturers ------------------------------------------------

    def manufacturer_for(self, product_text: str) -> tuple[str | None, float]:
        """``(brand, confidence)`` for a product description.

        Returns ``(None, 0.0)`` when the model has no idea.  A small
        calibrated fraction of answers is a confidently wrong brand
        (hallucination), which the paper's validators exist to catch.
        """
        truth, line = catalog.brand_and_line_of_product(product_text)
        if truth is None:
            return None, 0.0
        # Knowledge gaps are keyed on the matched *product line*: either the
        # model knows who makes a line or it does not, regardless of how the
        # particular product is phrased.
        roll_key = line if line is not None else product_text.lower()
        roll = stable_unit(_SEED_TAG, "brand", truth, roll_key)
        if roll < _BRAND_GAP:
            return None, 0.0
        if roll < _BRAND_GAP + _BRAND_CONFUSION:
            wrong = stable_choice(
                [b for b in _BRAND_NAMES if b != truth],
                _SEED_TAG,
                "brand-wrong",
                roll_key,
            )
            return wrong, 0.62
        confidence = 0.8 + 0.19 * stable_unit(_SEED_TAG, "brand-conf", product_text)
        return truth, confidence

    # -- person names ----------------------------------------------------------

    def is_person_name(
        self, phrase: str, language_hint: str | None = None
    ) -> tuple[bool, float]:
        """Judge whether ``phrase`` is a person name; ``(verdict, confidence)``.

        Without ``language_hint`` the model behaves like a monolingual
        English tagger: it is accurate on English names but noisy on other
        languages — the exact failure mode of paper section 4.2.  With the
        hint, it consults its full multilingual gazetteer.
        """
        tokens = [_fold(t) for t in phrase.replace(".", " ").split()]
        if not tokens:
            return False, 0.9
        content = [t for t in tokens if t not in _PARTICLES]
        if any(token in _NON_NAMES for token in content):
            truth = False
        else:
            known_first = _ALL_FIRST if language_hint else _EN_FIRST
            known_last = _ALL_LAST if language_hint else _EN_LAST
            hits = sum(
                1 for token in content if token in known_first or token in known_last
            )
            truth = bool(content) and hits >= max(1, (len(content) + 1) // 2)
        # Decide whether this particular judgement is corrupted by noise.
        language = language_hint or detect_language(phrase).language
        noise = (
            _NAME_NOISE_NATIVE
            if (language_hint or language == "en")
            else _NAME_NOISE_FOREIGN
        )
        if stable_unit(_SEED_TAG, "name", phrase, bool(language_hint)) < noise:
            truth = not truth
            confidence = 0.55
        else:
            confidence = 0.85 + 0.14 * stable_unit(_SEED_TAG, "name-conf", phrase)
        return truth, confidence

    # -- entity matching --------------------------------------------------------

    def match_flip(self, pair_key: str, margin: float, extra_noise: float = 0.0) -> bool:
        """Whether the model flips its verdict on this record pair.

        ``margin`` is how far the pair sits from the decision boundary in
        ``[0, 1]`` — borderline pairs (small margin) are most error-prone.
        ``extra_noise`` models poor prompt engineering (the FMs baseline).
        """
        hardness = max(0.0, 1.0 - margin * 4.0)
        p_flip = min(0.95, _MATCH_NOISE * (0.4 + hardness) + extra_noise * hardness)
        return stable_unit(_SEED_TAG, "match", pair_key) < p_flip

    # -- corpus curation --------------------------------------------------------

    def judgement_flip(
        self, kind: str, key: str, margin: float, extra_noise: float = 0.0
    ) -> bool:
        """Whether the model flips a generic borderline yes/no judgement.

        Same error model as :meth:`match_flip` but keyed by judgement
        ``kind`` (``"quality"``, ``"contamination"``, ...) so the curation
        skills decorrelate from entity matching and from each other.
        """
        hardness = max(0.0, 1.0 - margin * 4.0)
        p_flip = min(
            0.95, _CURATION_NOISE * (0.4 + hardness) + extra_noise * hardness
        )
        return stable_unit(_SEED_TAG, "judgement", kind, key) < p_flip
