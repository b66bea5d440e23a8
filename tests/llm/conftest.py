"""Fixtures shared by the LLM-layer tests."""

from __future__ import annotations

import pytest

import repro._jsonl as jsonl


@pytest.fixture(params=["accelerated", "stdlib"])
def either_codec(request, monkeypatch):
    """Run the test with orjson (when installed) and again without it."""
    if request.param == "stdlib":
        monkeypatch.setattr(jsonl, "_orjson", None)
