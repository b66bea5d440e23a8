"""Physical modules (paper section 3.1): custom, LLM, LLMGC, decorated."""

from repro.core.modules.base import (
    ErrorPolicy,
    Module,
    ModuleExecutionError,
    ModuleStats,
    QuarantinedRecord,
)
from repro.core.modules.batch_llm import BatchLLMModule
from repro.core.modules.cascade import CascadeModule
from repro.core.modules.custom import CustomModule
from repro.core.modules.llm_module import (
    LLMModule,
    parse_leading_word,
    parse_yes_no,
    render_value,
)
from repro.core.modules.llmgc import CodeSandboxError, LLMGCModule, compile_generated_code
from repro.core.modules.validation import (
    NonEmptyValidator,
    OutputValidator,
)

__all__ = [
    "BatchLLMModule",
    "CascadeModule",
    "ErrorPolicy",
    "Module",
    "ModuleExecutionError",
    "ModuleStats",
    "QuarantinedRecord",
    "CustomModule",
    "LLMModule",
    "parse_leading_word",
    "parse_yes_no",
    "render_value",
    "CodeSandboxError",
    "LLMGCModule",
    "compile_generated_code",
    "NonEmptyValidator",
    "OutputValidator",
]
