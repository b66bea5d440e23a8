"""Simulated LLM substrate: providers, service layer, skills, knowledge.

See DESIGN.md section 1 for why a deterministic simulated LLM is the right
substitution for the hosted APIs the paper used.
"""

from repro.llm.errors import (
    LLMError,
    MalformedResponseError,
    ProviderError,
    RateLimitError,
)
from repro.llm.cache import (
    PROVENANCE_CACHE_EXACT,
    PROVENANCE_DISTILLED,
    PROVENANCE_PROVIDER,
    CacheJournal,
    CacheKey,
    CacheStats,
    PromptCache,
)
from repro.llm.faults import ChaosProvider, FaultKind, FaultSpec
from repro.llm.knowledge import KnowledgeBase
from repro.llm.providers import (
    LLMProvider,
    LLMRequest,
    LLMResponse,
    SimulatedProvider,
)
from repro.llm.service import CallRecord, CoalesceHub, LLMService, UsageSummary
from repro.llm.tokenizer import count_tokens, estimate_cost

__all__ = [
    "ChaosProvider",
    "FaultKind",
    "FaultSpec",
    "LLMError",
    "MalformedResponseError",
    "ProviderError",
    "RateLimitError",
    "KnowledgeBase",
    "LLMProvider",
    "LLMRequest",
    "LLMResponse",
    "SimulatedProvider",
    "CallRecord",
    "CoalesceHub",
    "LLMService",
    "UsageSummary",
    "PROVENANCE_PROVIDER",
    "PROVENANCE_CACHE_EXACT",
    "PROVENANCE_DISTILLED",
    "CacheJournal",
    "CacheKey",
    "CacheStats",
    "PromptCache",
    "count_tokens",
    "estimate_cost",
]
