"""Property tests for the observability layer (ISSUE 4, satellite 2).

Three invariants, each pinned over generated inputs:

- span trees built through the Tracer API are always well-formed (single
  root per tree, no orphans, child intervals nested in parents) and
  survive a JSONL-shaped record round-trip;
- histogram bucket counts always sum to the observation count, for any
  bucket boundaries and any observations;
- merging per-worker collectors (metrics registries and tracers) is
  order-independent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    MetricsRegistry,
    Tracer,
    span_tree_problems,
    walk_spans,
)
from repro.resilience.clock import VirtualClock

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
        records = tracer.to_records()
        rebuilt = Tracer()
        rebuilt.roots = Tracer.from_records(records)
        assert rebuilt.to_records() == records


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


# One per-worker collector's worth of events.  Values are quarter-integers:
# exactly representable in binary, so float sums are exact and the merge
# commutativity below is bitwise (the engine itself never relies on float
# commutativity — per-worker results merge in deterministic chunk order).
def quarters(lo: int, hi: int):
    return st.integers(min_value=lo, max_value=hi).map(lambda n: n / 4.0)


metric_events = st.lists(
    st.one_of(
        st.tuples(st.just("counter"), st.sampled_from(["a", "b", "c"]), quarters(0, 400)),
        st.tuples(st.just("gauge"), st.sampled_from(["g1", "g2"]), quarters(-200, 200)),
        st.tuples(st.just("histogram"), st.sampled_from(["h"]), quarters(0, 400)),
    ),
    max_size=30,
)


def apply_events(registry: MetricsRegistry, events) -> None:
    for kind, name, value in events:
        if kind == "counter":
            registry.counter(name).inc(value)
        elif kind == "gauge":
            registry.gauge(name).set(value)
        else:
            registry.histogram(name, bounds=(1.0, 10.0, 100.0)).observe(value)


class TestMergeOrderIndependence:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(metric_events, min_size=2, max_size=4))
    def test_registry_merge_any_order(self, worker_events):
        workers = []
        for events in worker_events:
            registry = MetricsRegistry()
            apply_events(registry, events)
            workers.append(registry)

        forward, backward = MetricsRegistry(), MetricsRegistry()
        for registry in workers:
            forward.merge(registry)
        for registry in reversed(workers):
            backward.merge(registry)
        assert forward.as_dict() == backward.as_dict()

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(advance, span_kind),
                min_size=1,
                max_size=5,
            ),
            min_size=2,
            max_size=4,
        )
    )
    def test_tracer_merge_any_order(self, worker_spans):
        def collector(spans) -> Tracer:
            tracer = Tracer()
            for index, (start, kind) in enumerate(spans):
                tracer.add_span(f"s{index}", kind, start=start, end=start + 1.0)
            return tracer

        def merged(order) -> list:
            target = Tracer()
            for spans in order:
                target.merge(collector(spans))
            return target.to_records()

        assert merged(worker_spans) == merged(list(reversed(worker_spans)))
