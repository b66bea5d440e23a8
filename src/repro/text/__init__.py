"""Text and NLP substrate: tokenisation, similarity, phrases, language ID."""

from repro.text.language import LanguageGuess, detect_language
from repro.text.normalize import (
    expand_abbreviations,
    extract_numbers,
    normalize_text,
    normalize_units,
    normalize_whitespace,
    strip_accents,
)
from repro.text.minhash import (
    MINHASH_PRIME,
    MinHashParams,
    minhash_params,
)
from repro.text.overlap import (
    OverlapProfile,
    build_ngram_index,
    ngram_set,
    overlap_profile,
)
from repro.text.phrases import PhraseSpan, noun_phrases
from repro.text.quality import QualityStats, quality_stats, rule_quality_score
from repro.text.shingle import (
    SHINGLE_SPACE,
    DocumentSketch,
    document_sketches,
    exact_jaccard,
    knowledge_canonical,
    shingle_id,
    shingle_ids,
    simple_canonical,
    word_shingles,
)
from repro.text.similarity import (
    TfIdfModel,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    levenshtein_distance,
    levenshtein_similarity,
    monge_elkan_similarity,
    numeric_similarity,
    overlap_coefficient,
    qgram_similarity,
)
from repro.text.tokenize import (
    Token,
    char_ngrams,
    sentence_split,
    tokens_with_spans,
    word_tokenize,
)

__all__ = [
    "LanguageGuess",
    "detect_language",
    "expand_abbreviations",
    "extract_numbers",
    "normalize_text",
    "normalize_units",
    "normalize_whitespace",
    "strip_accents",
    "OverlapProfile",
    "build_ngram_index",
    "ngram_set",
    "overlap_profile",
    "PhraseSpan",
    "noun_phrases",
    "QualityStats",
    "quality_stats",
    "rule_quality_score",
    "MINHASH_PRIME",
    "MinHashParams",
    "minhash_params",
    "SHINGLE_SPACE",
    "DocumentSketch",
    "document_sketches",
    "exact_jaccard",
    "knowledge_canonical",
    "shingle_id",
    "shingle_ids",
    "simple_canonical",
    "word_shingles",
    "TfIdfModel",
    "jaccard_similarity",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "levenshtein_distance",
    "levenshtein_similarity",
    "monge_elkan_similarity",
    "numeric_similarity",
    "overlap_coefficient",
    "qgram_similarity",
    "Token",
    "char_ngrams",
    "sentence_split",
    "tokens_with_spans",
    "word_tokenize",
]
