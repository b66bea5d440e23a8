"""Shared fixtures for the test suite."""

from __future__ import annotations

import difflib
import json

import pytest

from repro.core.compiler.context import CompilerContext
from repro.core.runtime.system import LinguaManga
from repro.llm.providers import SimulatedProvider
from repro.llm.service import LLMService
from repro.resilience.clock import VirtualClock


@pytest.fixture()
def virtual_clock() -> VirtualClock:
    """A fresh deterministic clock starting at t=0.

    Tests that need time to pass call ``virtual_clock.advance(seconds)``
    instead of sleeping: logical time is exact, instant and immune to
    scheduler jitter, so timing-sensitive assertions never flake.
    """
    return VirtualClock()


@pytest.fixture()
def service() -> LLMService:
    """A fresh simulated LLM service."""
    return LLMService(SimulatedProvider())


@pytest.fixture()
def context(service: LLMService) -> CompilerContext:
    """A compiler context bound to a fresh service."""
    return CompilerContext(service=service)


@pytest.fixture()
def system() -> LinguaManga:
    """A fresh Lingua Manga system."""
    return LinguaManga()


@pytest.fixture()
def checkpoint_dir(tmp_path):
    """A per-test directory for run and cache journals.

    Crash/resume tests put the write-ahead run journal and the prompt-cache
    journal side by side, the way a real deployment does; giving them one
    fixture keeps the layout consistent across suites.
    """
    path = tmp_path / "checkpoints"
    path.mkdir()
    return path


@pytest.fixture()
def crash_clock() -> VirtualClock:
    """A deterministic clock for crash-injection tests.

    Separate from ``virtual_clock`` so a test can hold one clock for the
    crashing run and a fresh one for the resumed run without the fixtures
    aliasing each other.
    """
    return VirtualClock()


def canonical_report(report) -> str:
    """One canonical byte string for a run report (or pass a string through)."""
    return report if isinstance(report, str) else report.canonical_json()


def assert_reports_identical(*reports, ignore: tuple[str, ...] = ()) -> None:
    """Assert every report is byte-identical, with a readable diff on failure.

    Accepts :class:`RunReport` objects or pre-rendered canonical-JSON
    strings interchangeably.  ``ignore`` drops top-level keys (e.g.
    ``("cost", "profile")``) before comparing, for warm-vs-cold checks
    where the declared cost fields legitimately differ.
    """
    assert len(reports) >= 2, "need at least two reports to compare"
    texts = [canonical_report(report) for report in reports]
    if ignore:
        texts = [
            json.dumps(
                {k: v for k, v in json.loads(text).items() if k not in ignore},
                sort_keys=True,
            )
            for text in texts
        ]
    baseline = texts[0]
    for position, text in enumerate(texts[1:], start=1):
        if text == baseline:
            continue
        a = json.dumps(json.loads(baseline), indent=2, sort_keys=True).splitlines()
        b = json.dumps(json.loads(text), indent=2, sort_keys=True).splitlines()
        diff = "\n".join(
            difflib.unified_diff(a, b, "report[0]", f"report[{position}]", lineterm="")
        )
        raise AssertionError(f"run reports diverge:\n{diff[:4000]}")


def block_records_reference(*args, **kwargs):
    """``block_records`` with the dict-probe reference kernel swapped in."""
    from unittest import mock

    from repro.tasks import blocking

    with mock.patch.object(blocking, "_block_columnar", blocking._block_scalar):
        return blocking.block_records(*args, **kwargs)
