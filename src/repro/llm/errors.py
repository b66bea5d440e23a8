"""Error hierarchy for the LLM service layer."""

from __future__ import annotations

__all__ = [
    "LLMError",
    "ProviderError",
    "RateLimitError",
    "MalformedResponseError",
]


class LLMError(Exception):
    """Base class for all LLM-layer errors."""


class ProviderError(LLMError):
    """The provider failed to serve the request (transient outage)."""


class RateLimitError(ProviderError):
    """The provider rejected the request for exceeding its rate limit."""

    def __init__(self, message: str = "rate limit exceeded", retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = retry_after


class MalformedResponseError(LLMError):
    """The LLM's textual response failed the module's output validation."""
