"""The template library: pre-built, optimizer-tuned pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.dsl.builder import PipelineBuilder
from repro.core.dsl.operators import OperatorKind
from repro.core.dsl.pipeline import Pipeline
from repro.core.optimizer.validator import TestCase
from repro.text.tokenize import word_tokenize

__all__ = ["Template", "available_templates", "get_template", "search_templates"]


@dataclass(frozen=True)
class Template:
    """A named, searchable pipeline factory."""

    name: str
    description: str
    keywords: tuple[str, ...]
    build: Callable[..., Pipeline] = field(compare=False)
    #: Minimal kwargs that make a stand-alone ``instantiate`` meaningful,
    #: for templates with required parameters (e.g. decontamination's
    #: ``eval_items``).  Demo/validation use only — callers must still
    #: pass their real values; ``instantiate`` never merges these in.
    sample_args: dict = field(default_factory=dict, compare=False)

    def instantiate(self, **overrides: Any) -> Pipeline:
        """Build the pipeline, forwarding any overrides to the factory."""
        return self.build(**overrides)


# ---------------------------------------------------------------------------
# Template factories
# ---------------------------------------------------------------------------


def _pair_similarity_vectorize() -> Callable[[Any], Any]:
    """Feature map for the ER distillation student.

    Turns a ``{"left": record, "right": record}`` pipeline input into a
    Magellan-style per-attribute similarity vector.  Extractors are cached
    per attribute schema so mixed-schema inputs stay well formed.
    """
    from repro.ml.features import PairFeatureExtractor

    extractors: dict[tuple[str, ...], PairFeatureExtractor] = {}

    def vectorize(value: Any) -> Any:
        left = value.get("left", {}) if isinstance(value, dict) else {}
        right = value.get("right", {}) if isinstance(value, dict) else {}
        attributes = tuple(sorted(set(left) | set(right)))
        extractor = extractors.get(attributes)
        if extractor is None:
            extractor = PairFeatureExtractor(attributes)
            extractors[attributes] = extractor
        return extractor.transform_pair(left, right)

    return vectorize


def _entity_resolution_template(
    examples: list[tuple[Any, bool]] | None = None,
    task: str | None = None,
    error_policy: str | None = None,
    distill: bool = False,
) -> Pipeline:
    """Figure 2b: the built-in, well-optimized ER pipeline.

    The matcher is an LLM module with a curated task description; few-shot
    ``examples`` (record-pair, label) sharpen it further — the paper's
    "label efficient" story: a handful of examples, not thousands.
    ``error_policy="skip_record"`` makes the matcher quarantine poisoned
    pairs instead of aborting the run (chaos/production mode).
    ``distill=True`` attaches the optimizer's simulator (the ``simulate``
    hint) to the matcher: a local classifier shadow-trains on the LLM's
    verdicts and takes over high-confidence pairs once its held-out
    accuracy clears the bar.
    """
    builder = PipelineBuilder(
        "entity_resolution_template",
        description="built-in entity resolution: load -> LLM match -> save",
    )
    params: dict[str, Any] = {"impl": "llm"}
    if examples:
        params["examples"] = examples
    if task:
        params["task"] = task
    if error_policy:
        params["error_policy"] = error_policy
    if distill:
        params["simulate"] = True
        # The student that actually distils an LLM matcher is the Magellan
        # shape: a forest over per-attribute similarity features, not a
        # bag-of-hashed-tokens text model.
        params["simulate_config"] = {
            "student": "forest",
            "vectorize": _pair_similarity_vectorize(),
            "min_samples": 40,
            "accuracy_bar": 0.85,
            "confidence_threshold": 0.9,
            "refit_every": 20,
        }
    return (
        builder.load(source="pairs")
        .match_entities(**params)
        .save(key="verdicts")
        .build()
    )


def _name_extraction_template(
    multilingual: bool = True,
    simulate_tagging: bool = False,
) -> Pipeline:
    """Figure 3: tokenize -> noun phrases (LLMGC) -> tag (LLM + validator).

    ``multilingual=True`` inserts the language-detection module the paper's
    section 4.2 adds to fix multilingual degradation; ``simulate_tagging``
    attaches the optimizer's simulator to the expensive tagging module.
    """
    builder = PipelineBuilder(
        "name_extraction_template",
        description="name extraction with LLMGC chunking and LLM tagging",
    )
    builder.load(source="documents")
    builder.tokenize(impl="llmgc", validator_cases=_tokenize_cases())
    if multilingual:
        builder.detect_language(impl="custom")
    builder.noun_phrases(impl="llmgc", validator_cases=default_noun_phrase_cases())
    tag_params: dict[str, Any] = {"use_language": multilingual}
    if simulate_tagging:
        tag_params["simulate"] = True
        tag_params["simulate_config"] = {
            "min_samples": 60,
            "accuracy_bar": 0.8,
            "confidence_threshold": 0.65,
            "refit_every": 30,
        }
    builder.tag_names(**tag_params)
    builder.save(key="documents")
    return builder.build()


def _data_imputation_template(
    guidelines: str = "",
    validator_cases: list[TestCase] | None = None,
) -> Pipeline:
    """Figure 4: the expert imputation pipeline (LLMGC hybrid + validator)."""
    if validator_cases is None:
        validator_cases = _imputation_cases()
    return (
        PipelineBuilder(
            "data_imputation_template",
            description="imputation: cheap rules locally, LLM escalation for hard cases",
        )
        .load(source="records")
        .impute(
            impl="llmgc",
            guidelines=guidelines
            or (
                "Resolve products that mention their brand verbatim with "
                "local string rules; escalate only brand-less products to "
                "the LLM tool."
            ),
            validator_cases=validator_cases,
        )
        .save(key="imputed")
        .build()
    )


def _schema_matching_template() -> Pipeline:
    """Column matching between two schemas via the LLM."""
    return (
        PipelineBuilder(
            "schema_matching_template",
            description="schema matching: LLM column alignment",
        )
        .load(source="schemas")
        .add(OperatorKind.SCHEMA_MATCH, impl="llm", map=False)
        .save(key="matches")
        .build()
    )


def _data_cleaning_template() -> Pipeline:
    """Normalise text values then drop exact duplicates."""
    return (
        PipelineBuilder(
            "data_cleaning_template",
            description="cleaning: normalise values, dedupe records",
        )
        .load(source="values")
        .clean_text(impl="custom")
        .dedupe(impl="custom")
        .save(key="cleaned")
        .build()
    )


def _document_dedup_template(
    examples: list[tuple[Any, bool]] | None = None,
    error_policy: str | None = None,
    num_perm: int | None = None,
    bands: int | None = None,
    rows: int | None = None,
    shingle_n: int | None = None,
    dual: bool = True,
) -> Pipeline:
    """Corpus deduplication: candidate generation + LLM pair verification.

    Takes raw documents: exact digests plus dual-pass MinHash/LSH candidate
    generation (a whole-corpus kernel), then the LLM verifier over the
    candidate pairs.
    """
    from repro.core.compiler.curation import DEDUP_VERIFY_TASK

    builder = PipelineBuilder(
        "document_dedup_template",
        description="corpus dedup: digest + MinHash/LSH candidates -> LLM verify",
    )
    match_params: dict[str, Any] = {"impl": "cascade", "task": DEDUP_VERIFY_TASK}
    if examples:
        match_params["examples"] = examples
    if error_policy:
        match_params["error_policy"] = error_policy
    candidate_params: dict[str, Any] = {"dual": dual}
    for key, value in (
        ("num_perm", num_perm), ("bands", bands),
        ("rows", rows), ("shingle_n", shingle_n),
    ):
        if value is not None:
            candidate_params[key] = value
    builder.load(source="documents")
    builder.dedup_candidates(**candidate_params)
    builder.match_entities(**match_params)
    builder.save(key="verdicts")
    return builder.build()


def _quality_filter_template(
    examples: list[tuple[Any, bool]] | None = None,
    error_policy: str | None = None,
    distill: bool = False,
) -> Pipeline:
    """Quality filtering as a classifier cascade (rules -> student -> LLM).

    The free surface heuristic answers documents outside its uncertainty
    band; the band escalates to the LLM teacher.  ``distill=True`` slots
    the optimizer's simulator (the ``simulate`` hint) *between* the rules
    and the teacher, so escalations are progressively absorbed by a
    shadow-trained local classifier over the document text.
    """
    builder = PipelineBuilder(
        "quality_filter_template",
        description="corpus quality filter: rule cascade with LLM escalation",
    )
    params: dict[str, Any] = {"impl": "llm"}
    if examples:
        params["examples"] = examples
    if error_policy:
        params["error_policy"] = error_policy
    if distill:
        params["simulate"] = True
        params["simulate_config"] = {
            # The student reads the document text, not the record repr.
            "featurize": lambda doc: (
                str(doc.get("text", doc)) if isinstance(doc, dict) else str(doc)
            ),
            "min_samples": 40,
            "accuracy_bar": 0.85,
            "confidence_threshold": 0.9,
            "refit_every": 20,
        }
    return (
        builder.load(source="documents")
        .quality_filter(**params)
        .save(key="documents")
        .build()
    )


def _decontamination_template(
    eval_items: list[str] | None = None,
    examples: list[tuple[Any, str, bool]] | None = None,
    error_policy: str | None = None,
) -> Pipeline:
    """Benchmark decontamination: two-tier n-gram scan + LLM adjudication.

    ``eval_items`` (required) are the held-out benchmark sentences.  A
    verbatim *hard* n-gram hit flags the document for free; no *soft* hit
    clears it for free; the soft-only gray zone is adjudicated by the LLM
    against the specific eval item the scan attributed the overlap to.
    """
    if not eval_items:
        raise ValueError("decontamination template requires eval_items")
    builder = PipelineBuilder(
        "decontamination_template",
        description="decontamination: n-gram scan cascade with LLM adjudication",
    )
    params: dict[str, Any] = {"impl": "llm", "eval_items": list(eval_items)}
    if examples:
        params["examples"] = examples
    if error_policy:
        params["error_policy"] = error_policy
    return (
        builder.load(source="documents")
        .decontaminate(**params)
        .save(key="documents")
        .build()
    )


# ---------------------------------------------------------------------------
# Default validator cases (the "few example test cases" of section 3.2)
# ---------------------------------------------------------------------------


def _tokenize_cases() -> list[TestCase]:
    """Test cases that force the tokenizer past the whitespace-split draft."""
    return [
        TestCase(
            "John met Mary.",
            ["John", "met", "Mary", "."],
            name="punctuation separated",
        ),
        TestCase("He said hi", ["He", "said", "hi"], name="plain words"),
    ]


def default_noun_phrase_cases() -> list[TestCase]:
    """Cases that force the chunker through both repair rounds."""
    return [
        TestCase(
            "Yesterday John Smith arrived.",
            ["John Smith"],
            name="sentence-initial function word",
        ),
        TestCase(
            "Maria de la Cruz spoke in Madrid.",
            ["Maria de la Cruz", "Madrid"],
            name="particles bridged",
        ),
        TestCase(
            "The report was fine.",
            [],
            name="no phrases in plain sentence",
        ),
    ]


def _imputation_cases() -> list[TestCase]:
    """Cases that force the imputer to read descriptions and escalate."""
    return [
        TestCase(
            {"name": "Sony Walkman Headphones", "description": "portable audio"},
            "Sony",
            name="brand in name",
        ),
        TestCase(
            {
                "name": "Inspiron Notebook",
                "description": "Official Dell Notebook with full warranty.",
            },
            "Dell",
            name="brand in description",
        ),
        TestCase(
            {"name": "PlayStation Console", "description": "game console"},
            "Sony",
            name="world knowledge (escalation)",
        ),
    ]


# ---------------------------------------------------------------------------
# Registry and search
# ---------------------------------------------------------------------------

_TEMPLATES: dict[str, Template] = {
    template.name: template
    for template in (
        Template(
            name="entity_resolution",
            description=(
                "Decide which record pairs refer to the same real-world "
                "entity (deduplication, record linkage, matching)."
            ),
            keywords=(
                "entity", "resolution", "match", "matching", "duplicate",
                "dedupe", "linkage", "same", "records", "merge",
            ),
            build=_entity_resolution_template,
        ),
        Template(
            name="name_extraction",
            description=(
                "Find all person names in text passages (tokenize, extract "
                "noun phrases, tag names; multilingual aware)."
            ),
            keywords=(
                "name", "names", "person", "extraction", "extract", "ner",
                "text", "multilingual", "tag",
            ),
            build=_name_extraction_template,
        ),
        Template(
            name="data_imputation",
            description=(
                "Fill in missing attribute values such as a product's "
                "manufacturer (imputation, missing data, repair)."
            ),
            keywords=(
                "impute", "imputation", "missing", "fill", "manufacturer",
                "value", "repair", "complete",
            ),
            build=_data_imputation_template,
        ),
        Template(
            name="schema_matching",
            description="Align columns between two table schemas by meaning.",
            keywords=("schema", "column", "matching", "align", "integration"),
            build=_schema_matching_template,
        ),
        Template(
            name="data_cleaning",
            description="Normalise messy text values and drop duplicates.",
            keywords=("clean", "cleaning", "normalise", "normalize", "dedupe", "messy"),
            build=_data_cleaning_template,
        ),
        Template(
            name="document_dedup",
            description=(
                "Remove duplicate documents from a training corpus "
                "(exact hashes, MinHash/LSH near-duplicate candidates, "
                "LLM pair verification)."
            ),
            keywords=(
                "corpus", "dedup", "deduplication", "duplicate", "documents",
                "minhash", "lsh", "near-duplicate", "fuzzy",
            ),
            build=_document_dedup_template,
        ),
        Template(
            name="quality_filter",
            description=(
                "Filter a training corpus down to high-quality documents "
                "(heuristic rules with LLM escalation for the gray zone)."
            ),
            keywords=(
                "quality", "filter", "filtering", "corpus", "documents",
                "junk", "boilerplate", "cascade",
            ),
            build=_quality_filter_template,
        ),
        Template(
            name="decontamination",
            description=(
                "Find documents that leak held-out benchmark items into a "
                "training corpus (n-gram scan plus LLM adjudication)."
            ),
            keywords=(
                "decontamination", "decontaminate", "contamination",
                "benchmark", "leak", "eval", "overlap", "ngram",
            ),
            build=_decontamination_template,
            sample_args={
                "eval_items": ["which brewery released the sample batch?"]
            },
        ),
    )
}


def available_templates() -> list[Template]:
    """All built-in templates, sorted by name."""
    return [_TEMPLATES[name] for name in sorted(_TEMPLATES)]


def get_template(name: str) -> Template:
    """Fetch a template by exact name."""
    if name not in _TEMPLATES:
        raise KeyError(f"no template named {name!r}; have {sorted(_TEMPLATES)}")
    return _TEMPLATES[name]


def search_templates(query: str) -> list[tuple[Template, float]]:
    """The three templates that best match an NL ``query`` by keyword and
    description overlap.

    This is the no-code entry point: "users can easily search for existing
    templates within the system" (section 4.1).
    """
    tokens = {t.lower() for t in word_tokenize(query)}
    scored: list[tuple[Template, float]] = []
    for template in available_templates():
        keyword_hits = len(tokens & set(template.keywords))
        description_hits = len(
            tokens & {t.lower() for t in word_tokenize(template.description)}
        )
        score = keyword_hits * 2.0 + description_hits * 0.5
        if score > 0:
            scored.append((template, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0].name))
    return scored[:3]
