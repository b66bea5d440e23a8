"""The optimizer's validator (paper section 3.2).

"It checks whether the target module behaves correctly on a few example test
cases.  It then uses the failed test cases to trigger the LLM to improve the
target module and fix the errors.  Specifically, the validator first calls an
LLM to generate the suggestion by reading the code and the failure cases.
Then, the code, failure cases, and the generated suggestion are sent to
another LLM to generate a new version of the code.  This validation cycle
repeats until either all test cases are executed successfully, or a timeout
ensues, leading to a re-generation of the LLMGC module until an additional
timeout."

The implementation follows that paragraph exactly; "timeout" is expressed in
repair rounds rather than wall-clock so runs are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.modules.base import Module
from repro.core.modules.llmgc import LLMGCModule
from repro.llm.service import LLMService

__all__ = ["TestCase", "CaseResult", "ValidationReport", "ModuleValidator"]


@dataclass(frozen=True)
class TestCase:
    """One example: input plus expected output."""

    __test__ = False  # not a pytest class, despite the name

    input: Any
    expected: Any = None
    name: str = ""

    def passes(self, actual: Any) -> bool:
        """Whether ``actual`` satisfies this case."""
        return actual == self.expected

    def describe(self) -> str:
        """Short label for failure reports."""
        return self.name or f"input={self.input!r}"


@dataclass(frozen=True)
class CaseResult:
    """Outcome of one test case in one round."""

    case: TestCase
    passed: bool
    actual: Any = None
    error: str = ""


@dataclass
class ValidationReport:
    """Outcome of a full validate-and-repair session."""

    module_name: str
    passed: bool
    rounds: int = 0
    regenerations: int = 0
    final_results: list[CaseResult] = field(default_factory=list)
    history: list[tuple[int, int]] = field(default_factory=list)  # (round, failures)

    @property
    def failures(self) -> list[CaseResult]:
        """Failed cases of the final round."""
        return [r for r in self.final_results if not r.passed]

    def to_text(self) -> str:
        """Human-readable summary."""
        status = "PASSED" if self.passed else "FAILED"
        lines = [
            f"validation of {self.module_name!r}: {status} after "
            f"{self.rounds} repair round(s), {self.regenerations} regeneration(s)"
        ]
        for result in self.failures:
            lines.append(
                f"  still failing: {result.case.describe()} -> "
                f"{result.error or repr(result.actual)}"
            )
        return "\n".join(lines)


class ModuleValidator:
    """Run test cases against a module; repair LLMGC modules that fail.

    ``max_rounds`` is the repair-loop timeout and ``max_regenerations`` the
    additional from-scratch timeout, matching the paper's two-stage cycle.
    Non-LLMGC modules are validated but cannot be repaired — the report
    simply says whether they pass.
    """

    def __init__(
        self,
        service: LLMService,
        cases: list[TestCase],
        max_rounds: int = 4,
        max_regenerations: int = 1,
    ):
        if not cases:
            raise ValueError("validator needs at least one test case")
        self.service = service
        self.cases = list(cases)
        self.max_rounds = max_rounds
        self.max_regenerations = max_regenerations

    # -- case execution -----------------------------------------------------------

    def run_cases(self, module: Module) -> list[CaseResult]:
        """Execute every case; failures never abort the sweep."""
        results = []
        for case in self.cases:
            try:
                actual = module.run(case.input)
            except Exception as error:
                results.append(CaseResult(case, False, error=repr(error)))
                continue
            results.append(CaseResult(case, case.passes(actual), actual=actual))
        return results

    # -- the validation cycle --------------------------------------------------------

    def validate_and_repair(self, module: Module) -> ValidationReport:
        """The full cycle: test -> suggest -> regenerate -> repeat."""
        report = ValidationReport(module_name=module.name, passed=False)
        if isinstance(module, LLMGCModule):
            module.ensure_generated()
        results = self.run_cases(module)
        report.final_results = results
        report.history.append((0, sum(1 for r in results if not r.passed)))
        if all(r.passed for r in results):
            report.passed = True
            return report
        if not isinstance(module, LLMGCModule):
            return report  # nothing to repair

        for regeneration in range(self.max_regenerations + 1):
            for round_index in range(1, self.max_rounds + 1):
                failures = [r for r in results if not r.passed]
                suggestion = self._ask_suggestion(module, failures)
                module.repair(suggestion)
                report.rounds += 1
                results = self.run_cases(module)
                report.final_results = results
                report.history.append(
                    (report.rounds, sum(1 for r in results if not r.passed))
                )
                if all(r.passed for r in results):
                    report.passed = True
                    return report
            if regeneration < self.max_regenerations:
                module.regenerate_from_scratch()
                report.regenerations += 1
                results = self.run_cases(module)
                report.final_results = results
                report.history.append(
                    (report.rounds, sum(1 for r in results if not r.passed))
                )
                if all(r.passed for r in results):
                    report.passed = True
                    return report
        return report

    def _ask_suggestion(self, module: LLMGCModule, failures: list[CaseResult]) -> str:
        """First LLM call of the cycle: read code + failures, suggest a fix."""
        failure_lines = "\n".join(
            f"- {result.case.describe()}: got {result.error or repr(result.actual)}, "
            f"expected {result.case.expected!r}"
            for result in failures[:5]
        )
        prompt = (
            "Why does this code fail the test cases? Read the code and the "
            "failures, then suggest a fix.\n"
            f"Task: {module.task_description}\n"
            f"Revision: {module.revision}\n"
            f"Code:\n{module.source}\n"
            f"Failures:\n{failure_lines}"
        )
        return self.service.complete(prompt, purpose=f"{module.name}-validator")
