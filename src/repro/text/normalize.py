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
    (re.compile(r"(\d+(?:\.\d+)?)\s*(?:in|inch|\")\b", re.I), r"\1in"),
    (re.compile(r"(\d+(?:\.\d+)?)\s*%", re.I), r"\1pct"),
]

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
    for pattern, replacement in _UNIT_PATTERNS:
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


def normalize_text(text: str) -> str:
    """Full normalisation pipeline used by matchers before comparison.

    Lowercases, strips accents, canonicalises units, expands abbreviations,
    drops stray punctuation and collapses whitespace.  The pipeline is
    applied until a fixpoint, which makes it idempotent: stripping
    punctuation can expose tokens (abbreviations, unit expressions) that an
    earlier step already passed over, so a single sweep is not stable.
    """
    for _ in range(10):
        normalized = _normalize_pass(text)
        if normalized == text:
            return normalized
        text = normalized
    return text


def extract_numbers(text: str) -> list[float]:
    """All decimal numbers appearing in ``text``, in order."""
    return [float(m) for m in _NUMBER_RE.findall(text)]
