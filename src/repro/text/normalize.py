"""Text normalisation helpers.

Entity-resolution datasets are dirty on purpose: abbreviations, unit
variations, stray punctuation and accents.  These helpers implement the
normalisations the classical baselines and the built-in templates rely on.
"""

from __future__ import annotations

import re
import unicodedata

__all__ = [
    "strip_accents",
    "normalize_whitespace",
    "normalize_text",
    "expand_abbreviations",
    "extract_numbers",
    "normalize_units",
]

# Common abbreviations seen in the synthetic restaurant/beer/music data.
_ABBREVIATIONS = {
    "st.": "street",
    "st": "street",
    "ave.": "avenue",
    "ave": "avenue",
    "blvd.": "boulevard",
    "blvd": "boulevard",
    "rd.": "road",
    "rd": "road",
    "dr.": "drive",
    "co.": "company",
    "co": "company",
    "inc.": "incorporated",
    "inc": "incorporated",
    "ltd.": "limited",
    "ltd": "limited",
    "brewing": "brewery",
    "brew": "brewery",
    "ft.": "featuring",
    "feat.": "featuring",
    "feat": "featuring",
    "vol.": "volume",
    "&": "and",
    # Domain synonym dictionary: beer style shorthands (standard in
    # matching normalisers; what a pretrained LM knows implicitly).
    "ipa": "india pale ale",
    "esb": "extra special bitter",
}

def _mmss_to_seconds(match: "re.Match[str]") -> str:
    return f"{int(match.group(1)) * 60 + int(match.group(2))}s"


_UNIT_PATTERNS = [
    # Durations: "3:45" and "225 sec" both canonicalise to "225s".
    (re.compile(r"\b(\d+):([0-5]\d)\b"), _mmss_to_seconds),
    (re.compile(r"(\d+)\s*(?:sec|second)s?\b", re.I), r"\1s"),
    (re.compile(r"(\d+(?:\.\d+)?)\s*(?:fl\.?\s*oz|oz|ounce)s?\b", re.I), r"\1oz"),
    (re.compile(r"(\d+(?:\.\d+)?)\s*(?:ml|milliliter)s?\b", re.I), r"\1ml"),
    (re.compile(r"(\d+(?:\.\d+)?)\s*(?:gb|gigabyte)s?\b", re.I), r"\1gb"),
    (re.compile(r"(\d+(?:\.\d+)?)\s*(?:mb|megabyte)s?\b", re.I), r"\1mb"),
    # The inch mark is not a word character: ``\b`` belongs to the words only.
    (re.compile(r"(\d+(?:\.\d+)?)\s*(?:(?:in|inch)\b|\")", re.I), r"\1in"),
    (re.compile(r"(\d+(?:\.\d+)?)\s*%", re.I), r"\1pct"),
]

# One scan that says which of the rewrites above can match at all: group
# ``k`` is a necessary condition for ``_UNIT_PATTERNS[k - 1]`` (a digit,
# then what that pattern must read next — the first letters of each of its
# unit words, under the same flags).  The lookahead consumes only the digit,
# so ``3:45oz`` reports the digit before ``:45`` and the one before ``oz``;
# at one digit at most one group can match (no unit word starts another's).
# A rewrite leaves its digits glued to ``s``/``oz``/``ml``/``gb``/``mb``/
# ``in``/``pct`` and everything after the match untouched, and none of those
# suffixes can begin a later pattern's word, so it never puts a digit in
# front of one: a hint taken before the first rewrite holds for all eight
# (DESIGN §13 walks the table).
_UNIT_HINT = re.compile(
    r"\d(?=(:[0-5]\d)|\s*(?:(sec)|(fl|oz|ounce)|(ml|milliliter)|(gb|gigabyte)"
    r"|(mb|megabyte)|(in|\")|(%)))",
    re.I,
)

_WHITESPACE_RE = re.compile(r"\s+")
_PUNCT_RE = re.compile(r"[^\w\s.%'-]", re.UNICODE)
_NUMBER_RE = re.compile(r"\d+(?:\.\d+)?")


def strip_accents(text: str) -> str:
    """Remove diacritics: ``'Köln' -> 'Koln'``."""
    if text.isascii():
        return text  # NFKD leaves ASCII alone and ASCII has no combining marks
    decomposed = unicodedata.normalize("NFKD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def normalize_whitespace(text: str) -> str:
    """Collapse runs of whitespace to single spaces and strip the ends."""
    return _WHITESPACE_RE.sub(" ", text).strip()


def expand_abbreviations(text: str) -> str:
    """Expand common street/company/music abbreviations token by token."""
    out: list[str] = []
    for token in text.split():
        out.append(_ABBREVIATIONS.get(token.lower(), token))
    return " ".join(out)


def normalize_units(text: str) -> str:
    """Canonicalise measurement expressions (``12 fl oz`` -> ``12oz``)."""
    hinted = {match.lastindex for match in _UNIT_HINT.finditer(text)}
    for index in sorted(hinted):
        pattern, replacement = _UNIT_PATTERNS[index - 1]
        text = pattern.sub(replacement, text)
    return text


def _normalize_pass(text: str) -> str:
    """One sweep of the full normalisation pipeline.

    Punctuation is dropped *before* abbreviation expansion — stripping
    ``':co'`` down to ``'co'`` must not expose an abbreviation a later
    normalisation round would then expand differently.  ``&`` is rewritten
    explicitly because the punctuation pattern would otherwise delete it.
    """
    text = strip_accents(text).lower()
    text = normalize_units(text)
    text = text.replace("&", " and ")
    text = _PUNCT_RE.sub(" ", text)
    text = expand_abbreviations(text)
    return normalize_whitespace(text)


def _settled(normalized: str) -> bool:
    """Whether another sweep provably returns ``normalized`` (a sweep's output).

    A sweep's output is lowercase, ``&``- and punctuation-free and single
    spaced, and every step but two is a projection, so re-applying it there
    changes nothing; accent stripping is one too once the text is ASCII.  The
    two that can still move are the unit rewrites (run here: a canonical
    ``12oz`` reads as a unit and rewrites to itself) and abbreviation
    expansion (no token is a key: none expands).
    """
    return (
        normalized.isascii()
        and normalize_units(normalized) == normalized
        and _ABBREVIATIONS.keys().isdisjoint(normalized.split())
    )


def normalize_text(text: str) -> str:
    """Full normalisation pipeline used by matchers before comparison.

    Lowercases, strips accents, canonicalises units, expands abbreviations,
    drops stray punctuation and collapses whitespace.  The pipeline is
    applied until a fixpoint, which makes it idempotent: stripping
    punctuation can expose tokens (abbreviations, unit expressions) that an
    earlier step already passed over, so a single sweep is not stable.  The
    sweep that confirms the fixpoint is skipped when :func:`_settled` proves
    what it would return.
    """
    for _ in range(10):
        normalized = _normalize_pass(text)
        if normalized == text or _settled(normalized):
            return normalized
        text = normalized
    return text


def extract_numbers(text: str) -> list[float]:
    """All decimal numbers appearing in ``text``, in order."""
    return [float(m) for m in _NUMBER_RE.findall(text)]
