"""LLMGC modules: modules whose implementation is LLM-generated code.

Paper section 3.1: "An LLM can dynamically generate code to implement an
LLMGC module, replacing the role of programmers.  Lingua Manga allows LLMGC
to call other modules in the system or use external tools."  The generated
source is executed in a restricted namespace; the ``tools`` dict is the
only capability the code receives beyond safe builtins — exactly the
"external tool APIs" a user can grant (other modules, a calculator, another
LLM).
"""

from __future__ import annotations

import re
from typing import Any, Callable, Mapping

from repro.core.modules.base import Module
from repro.llm.errors import MalformedResponseError
from repro.llm.service import LLMService

__all__ = ["LLMGCModule", "CodeSandboxError", "compile_generated_code"]

_FENCE_RE = re.compile(r"```(?:python)?\s*\n(.*?)```", re.DOTALL)
_REVISION_RE = re.compile(r"revision=(\d+)")

_SAFE_BUILTINS = {
    "abs": abs, "all": all, "any": any, "bool": bool, "dict": dict,
    "enumerate": enumerate, "filter": filter, "float": float, "int": int,
    "isinstance": isinstance, "len": len, "list": list, "map": map,
    "max": max, "min": min, "range": range, "repr": repr, "reversed": reversed,
    "round": round, "set": set, "sorted": sorted, "str": str, "sum": sum,
    "tuple": tuple, "zip": zip, "ValueError": ValueError, "KeyError": KeyError,
    "TypeError": TypeError, "Exception": Exception, "print": print,
}

_IMPORT_WHITELIST = ("re", "math", "json", "string", "difflib", "collections", "itertools")


class CodeSandboxError(RuntimeError):
    """Generated code could not be compiled or did not define ``run``."""


def _safe_import(name: str, *args: Any, **kwargs: Any):
    if name not in _IMPORT_WHITELIST:
        raise CodeSandboxError(f"generated code may not import {name!r}")
    return __import__(name, *args, **kwargs)


def compile_generated_code(source: str) -> Callable[[Any, Mapping[str, Any]], Any]:
    """Compile LLM-generated source and return its ``run(value, tools)``.

    The namespace exposes only safe builtins and a whitelisted ``import``.
    """
    namespace: dict[str, Any] = {
        "__builtins__": dict(_SAFE_BUILTINS, __import__=_safe_import)
    }
    try:
        exec(compile(source, "<llmgc>", "exec"), namespace)  # noqa: S102
    except CodeSandboxError:
        raise
    except Exception as error:
        raise CodeSandboxError(f"generated code failed to load: {error}") from error
    run = namespace.get("run")
    if not callable(run):
        raise CodeSandboxError("generated code does not define a callable run(value, tools)")
    return run


class LLMGCModule(Module):
    """A module implemented by code the LLM wrote.

    The module starts un-generated; :meth:`generate` asks the service for a
    first draft and :meth:`repair` asks for the next revision given a
    critique (both are what the optimizer's validator drives).  ``tools``
    are the capabilities the user granted the generated code.
    """

    module_type = "llmgc"
    # Repair happens only in the compile-time validator; at run time the
    # first call generates the code if no draft exists yet, and concurrent
    # first calls would each generate it.
    parallel_safe = False

    def __init__(
        self,
        name: str,
        service: LLMService,
        task_description: str,
        tools: Mapping[str, Any] | None = None,
        guidelines: str = "",
        purpose: str | None = None,
    ):
        super().__init__(name)
        self.service = service
        self.task_description = task_description
        self.tools = dict(tools or {})
        self.guidelines = guidelines
        self.purpose = purpose or f"{name}-codegen"
        self.source: str | None = None
        self.revision: int = -1
        self._fn: Callable[[Any, Mapping[str, Any]], Any] | None = None

    def config_identity(self) -> dict:
        identity = super().config_identity()
        identity.update(
            task=self.task_description,
            tools=sorted(self.tools),
            guidelines=self.guidelines,
            purpose=self.purpose,
        )
        return identity

    # -- code lifecycle ---------------------------------------------------------

    def generate(self) -> str:
        """Ask the LLM for a first implementation; returns the source."""
        prompt = self._generation_prompt(revision=None)
        return self._accept_response(self.service.complete(prompt, purpose=self.purpose))

    def repair(self, suggestion: str) -> str:
        """Ask the LLM for the next revision given a critique."""
        prompt = self._generation_prompt(revision=self.revision, suggestion=suggestion)
        return self._accept_response(self.service.complete(prompt, purpose=self.purpose))

    def regenerate_from_scratch(self) -> str:
        """Discard revision history and request a fresh draft.

        The validator falls back to this after its repair-loop timeout
        (paper: "leading to a re-generation of the LLMGC module").
        """
        self.revision = -1
        self.source = None
        self._fn = None
        return self.generate()

    def _generation_prompt(self, revision: int | None, suggestion: str = "") -> str:
        lines = [
            "Please write a python code function for the following task.",
            f"Task: {self.task_description}",
        ]
        if self.guidelines:
            lines.append(f"Guidelines: {self.guidelines}")
        if self.tools:
            lines.append(
                "Available tools (passed as the 'tools' dict): "
                + ", ".join(sorted(self.tools))
            )
        if revision is not None and revision >= 0:
            lines.append(f"Revision: {revision}")
            lines.append("The previous code failed some test cases.")
        if suggestion:
            lines.append(f"Suggestion: {suggestion}")
        lines.append("Define: def run(value, tools): ...")
        return "\n".join(lines)

    def _accept_response(self, response: str) -> str:
        fence = _FENCE_RE.search(response)
        if fence is None:
            raise MalformedResponseError(
                f"LLM response contains no code block: {response[:120]!r}"
            )
        source = fence.group(1)
        revision_match = _REVISION_RE.search(response)
        self.revision = (
            int(revision_match.group(1)) if revision_match else self.revision + 1
        )
        self._fn = compile_generated_code(source)
        self.source = source
        return source

    # -- execution -----------------------------------------------------------------

    def ensure_generated(self) -> None:
        """Generate the first draft if no code exists yet."""
        if self._fn is None:
            self.generate()

    def _run(self, value: Any) -> Any:
        self.ensure_generated()
        assert self._fn is not None
        return self._fn(value, self.tools)

    def describe(self) -> str:
        """Description including the current revision."""
        state = f"rev {self.revision}" if self.source else "not generated"
        return f"{self.name} <llmgc, {state}>"
