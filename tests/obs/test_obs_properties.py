"""Property tests for the observability layer (ISSUE 4, satellite 2).

Two invariants, each pinned over generated inputs:

- span trees built through the Tracer API are always well-formed (single
  root per tree, no orphans, child intervals nested in parents) and
  survive a JSONL-shaped record round-trip;
- histogram bucket counts always sum to the observation count, for any
  bucket boundaries and any observations.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, Tracer
from repro.resilience.clock import VirtualClock

from ..oracles import span_tree_problems, spans_from_records, trace_records, walk_spans

# -- generators -----------------------------------------------------------------

span_kind = st.sampled_from(["phase", "module", "chunk", "llm_call"])
advance = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)

# A tree program: a list of (depth, kind, advance) actions replayed through
# the Tracer.  Depth is clamped to the current stack, so any list denotes a
# valid sequence of nested spans.
tree_programs = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), span_kind, advance),
    min_size=1,
    max_size=25,
)


def build_tree(program) -> Tracer:
    """Replay a generated program as one run-rooted span tree."""
    tracer = Tracer()
    clock = VirtualClock()
    stack = []

    def close_to(depth: int) -> None:
        while len(stack) > depth:
            stack.pop().__exit__(None, None, None)

    root = tracer.span("run", "run", clock=clock)
    root.__enter__()
    try:
        for index, (depth, kind, step) in enumerate(program):
            close_to(min(depth, len(stack)))
            clock.advance(step)
            manager = tracer.span(f"s{index}", kind, clock=clock)
            manager.__enter__()
            stack.append(manager)
        close_to(0)
    finally:
        root.__exit__(None, None, None)
    return tracer


class TestSpanTreeWellFormed:
    @settings(max_examples=60, deadline=None)
    @given(tree_programs)
    def test_tracer_trees_are_well_formed(self, program):
        tracer = build_tree(program)
        assert len(tracer.roots) == 1  # single root
        assert span_tree_problems(tracer.roots[0]) == []

    @settings(max_examples=60, deadline=None)
    @given(tree_programs)
    def test_no_orphans_and_every_span_reachable(self, program):
        tracer = build_tree(program)
        reachable = sum(1 for _ in walk_spans(tracer.roots))
        assert reachable == len(program) + 1  # every opened span, once

    @settings(max_examples=60, deadline=None)
    @given(tree_programs)
    def test_record_roundtrip_preserves_tree(self, program):
        tracer = build_tree(program)
        records = trace_records(tracer)
        rebuilt = Tracer()
        rebuilt.roots = spans_from_records(records)
        assert trace_records(rebuilt) == records


class TestHistogramBuckets:
    @settings(max_examples=100, deadline=None)
    @given(
        bounds=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=10,
            unique=True,
        ),
        values=st.lists(
            st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
            max_size=100,
        ),
    )
    def test_bucket_counts_sum_to_observation_count(self, bounds, values):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", bounds=sorted(bounds))
        for value in values:
            histogram.observe(value)
        assert sum(histogram.counts) == histogram.total == len(values)
