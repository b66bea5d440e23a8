"""Prompt-routed capabilities of the simulated LLM."""

from repro.llm.skills.base import Skill, count_examples, extract_json_field, extract_text_field
from repro.llm.skills.batch_matching import BatchEntityMatchingSkill
from repro.llm.skills.codegen_skill import CodeGenerationSkill, CodeSuggestionSkill
from repro.llm.skills.curation import (
    ContaminationJudgmentSkill,
    QualityJudgmentSkill,
    containment_score,
    knowledge_quality_score,
)
from repro.llm.skills.entity_matching import EntityMatchingSkill, match_score
from repro.llm.skills.imputation import ImputationSkill
from repro.llm.skills.misc import (
    ChatFallbackSkill,
    NL2SQLSkill,
    SchemaMatchingSkill,
    SummarizationSkill,
)
from repro.llm.skills.table_qa import TableQASkill
from repro.llm.skills.tagging import TaggingSkill


def default_skills() -> list[Skill]:
    """The standard skill stack, ordered most-specific first.

    Order matters: the provider routes each prompt to the first matching
    skill, and the chat fallback matches everything.
    """
    return [
        CodeSuggestionSkill(),
        CodeGenerationSkill(),
        BatchEntityMatchingSkill(),
        EntityMatchingSkill(),
        QualityJudgmentSkill(),
        ContaminationJudgmentSkill(),
        ImputationSkill(),
        TaggingSkill(),
        NL2SQLSkill(),
        TableQASkill(),
        SchemaMatchingSkill(),
        SummarizationSkill(),
        ChatFallbackSkill(),
    ]


__all__ = [
    "Skill",
    "count_examples",
    "extract_json_field",
    "extract_text_field",
    "CodeGenerationSkill",
    "CodeSuggestionSkill",
    "BatchEntityMatchingSkill",
    "EntityMatchingSkill",
    "match_score",
    "QualityJudgmentSkill",
    "ContaminationJudgmentSkill",
    "knowledge_quality_score",
    "containment_score",
    "ImputationSkill",
    "ChatFallbackSkill",
    "NL2SQLSkill",
    "SchemaMatchingSkill",
    "SummarizationSkill",
    "TableQASkill",
    "TaggingSkill",
    "default_skills",
]
