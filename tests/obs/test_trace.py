"""Unit tests for the structured tracer (repro.obs.trace)."""

import pytest

from repro.obs import Span, Tracer
from repro.resilience.clock import VirtualClock

from ..oracles import (
    provenance_counts,
    span_record,
    span_tree_problems,
    spans_from_records,
    trace_records,
    walk_spans,
)


def build_tree() -> Span:
    root = Span("run", "run", start=0.0, end=10.0)
    phase = Span("op", "phase", start=0.0, end=10.0)
    module = Span("mod", "module", start=0.0, end=10.0)
    call = Span(
        "llm[x]", "llm_call", start=1.0, end=3.0, attributes={"provenance": "provider"}
    )
    module.children.append(call)
    phase.children.append(module)
    root.children.append(phase)
    return root


class TestSpan:
    def test_duration(self):
        assert Span("s", "module", start=2.0, end=5.5).duration == 3.5

    def test_set_chains_and_records(self):
        span = Span("s", "module")
        assert span.set("k", 1) is span
        assert span.attributes == {"k": 1}

    def test_to_dict_sorts_attributes_and_rounds_floats(self):
        span = Span("s", "llm_call", start=0.1234567891234, end=1.0)
        span.set("cost", 0.12345678901234567)
        span.set("a", 1)
        payload = span_record(span)
        assert list(payload["attributes"]) == ["a", "cost"]
        assert payload["start"] == round(0.1234567891234, 9)
        assert payload["attributes"]["cost"] == round(0.12345678901234567, 10)


class TestWalkAndValidate:
    def test_walk_yields_parent_links_depth_first(self):
        root = build_tree()
        pairs = [(s.name, p.name if p else None) for s, p in walk_spans(root)]
        assert pairs == [
            ("run", None),
            ("op", "run"),
            ("mod", "op"),
            ("llm[x]", "mod"),
        ]

    def test_valid_tree_has_no_problems(self):
        assert span_tree_problems(build_tree()) == []

    def test_unknown_kind_reported(self):
        root = build_tree()
        root.children[0].kind = "banana"
        assert any("unknown kind" in p for p in span_tree_problems(root))

    def test_inverted_interval_reported(self):
        root = build_tree()
        root.children[0].children[0].children[0].end = 0.5
        assert any("precedes start" in p for p in span_tree_problems(root))

    def test_escaping_child_reported(self):
        root = build_tree()
        root.children[0].children[0].children[0].end = 99.0
        assert any("escapes parent" in p for p in span_tree_problems(root))

    def test_provenance_counts(self):
        root = build_tree()
        root.children[0].children[0].children.append(
            Span("llm[y]", "llm_call", start=3.0, end=4.0,
                 attributes={"provenance": "cache-exact"})
        )
        assert provenance_counts(root) == {"cache-exact": 1, "provider": 1}


class TestTracer:
    def test_span_nesting_and_clock(self):
        clock = VirtualClock()
        tracer = Tracer()
        with tracer.span("run", "run", clock=clock):
            clock.advance(1.0)
            with tracer.span("op", "phase", clock=clock):
                clock.advance(2.0)
            clock.advance(0.5)
        (root,) = tracer.roots
        assert (root.start, root.end) == (0.0, 3.5)
        (phase,) = root.children
        assert (phase.start, phase.end) == (1.0, 3.0)
        assert span_tree_problems(root) == []

    def test_add_span_lands_under_open_span(self):
        tracer = Tracer()
        with tracer.span("run", "run"):
            tracer.add_span("leaf", "llm_call", start=0.0, end=0.0, provenance="x")
        (root,) = tracer.roots
        assert [c.name for c in root.children] == ["leaf"]

    def test_to_records_path_ids(self):
        tracer = Tracer()
        with tracer.span("run", "run"):
            tracer.add_span("a", "phase")
            tracer.add_span("b", "phase")
        records = trace_records(tracer)
        assert [(r["span_id"], r["parent_id"]) for r in records] == [
            ("0", None),
            ("0.0", "0"),
            ("0.1", "0"),
        ]

    def test_from_records_rejects_orphans(self):
        with pytest.raises(ValueError, match="before its parent"):
            spans_from_records(
                [
                    {
                        "name": "x",
                        "kind": "phase",
                        "start": 0.0,
                        "end": 0.0,
                        "span_id": "0.1",
                        "parent_id": "0",
                    }
                ]
            )
