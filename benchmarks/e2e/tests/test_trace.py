"""Span bookkeeping: self times, overlap, the wall identity, clean uninstall."""

import threading
import time

from benchmarks.e2e.trace import Tracer, summarize


def _spans(*rows):
    # (name, start, end, parent) -> the tracer's row layout
    return [[name, start, end, parent, 0, None] for name, start, end, parent in rows]


def test_self_time_is_duration_minus_children():
    summary = summarize(_spans(
        ("run", 0.0, 10.0, 0),
        ("service.complete", 1.0, 6.0, 0),
        ("cache.get", 2.0, 3.0, 1),
        ("cache.put", 4.0, 5.5, 1),
        ("report.canonical", 8.0, 9.0, 0),
    ))
    assert summary["wall"] == 10.0
    assert summary["self"] == {"service": 2.5, "cache": 2.5, "report": 1.0}
    assert summary["unattributed"] == 4.0
    assert summary["overlap"] == 0.0 and summary["imbalance"] == 0.0
    assert summary["total"]["service.complete"] == 5.0
    assert summary["count"]["cache.get"] == 1


def test_concurrent_children_are_covered_once_and_counted_as_overlap():
    # two worker threads under one fan-out span, busy at the same time
    summary = summarize(_spans(
        ("run", 0.0, 10.0, 0),
        ("scheduler.run_operator", 0.0, 10.0, 0),
        ("modules.apply_chunk", 1.0, 7.0, 1),
        ("modules.apply_chunk", 3.0, 9.0, 1),
    ))
    assert summary["self"]["scheduler"] == 2.0  # 10 - union(1..9)
    assert summary["self"]["modules"] == 12.0
    assert summary["overlap"] == 4.0  # 3..7 is covered twice
    assert summary["imbalance"] == 0.0  # 14 + 0 - 4 == 10


def test_a_child_escaping_its_parent_shows_as_imbalance():
    summary = summarize(_spans(
        ("run", 0.0, 10.0, 0),
        ("serve.submit", 1.0, 2.0, 0),
        ("plan.execute", 1.5, 6.0, 1),  # outlives the span that "caused" it
    ))
    assert summary["imbalance"] > 0.3


def test_install_wraps_public_methods_and_uninstall_restores_them():
    from repro.llm.cache import CacheKey, PromptCache
    from repro.llm.providers import LLMResponse

    original_get, original_start = PromptCache.get, threading.Thread.start
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("run", fanout=True):
            cache = PromptCache()
            key = CacheKey("p", "", "prompt", 16)
            cache.put(key, LLMResponse("yes", 1, 1, "m"))
            assert cache.get(key).text == "yes"
    finally:
        tracer.uninstall()
    assert PromptCache.get is original_get
    assert threading.Thread.start is original_start
    names = [span[0] for span in tracer.spans]
    assert names[0] == "run"
    assert {"cache.open", "cache.seal", "cache.put", "cache.get"} <= set(names)
    # seal happens inside the constructor: its parent is the open span
    assert tracer.spans[names.index("cache.seal")][3] == names.index("cache.open")
    assert summarize(tracer.spans)["imbalance"] < 1e-9


def test_worker_threads_inherit_only_fanout_spans():
    tracer = Tracer()
    tracer.install(targets=[])
    try:
        def work():
            with tracer.span("modules.apply_chunk"):
                time.sleep(0.01)

        with tracer.span("run", fanout=True):
            with tracer.span("scheduler.run_operator", fanout=True) as fan:
                worker = threading.Thread(target=work)
                worker.start()
                worker.join(timeout=5)
            with tracer.span("serve.submit") as plain:
                stray = threading.Thread(target=work)
                stray.start()
                stray.join(timeout=5)
        assert not worker.is_alive() and not stray.is_alive()
    finally:
        tracer.uninstall()
    chunks = [span for span in tracer.spans if span[0] == "modules.apply_chunk"]
    assert [span[3] for span in chunks] == [fan, 0]
    assert plain != 0


def test_dump_writes_one_line_per_span(tmp_path):
    import json

    tracer = Tracer()
    with tracer.span("run", fanout=True):
        with tracer.span("cache.get"):
            pass
    tracer.dump(tmp_path / "trace.jsonl", "demo:1")
    lines = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert [line["name"] for line in lines] == ["run", "cache.get"]
    assert lines[0]["parent"] is None and lines[1]["parent"] == 0
    assert {line["run"] for line in lines} == {"demo:1"}
    assert set(lines[1]) == {"id", "name", "start", "end", "parent", "thread", "run", "note"}
