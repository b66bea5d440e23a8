"""``benchmarks/reach.py`` maps which ``src/`` functions an entry point enters."""

from __future__ import annotations

import json

from benchmarks import reach


def test_a_small_example_maps_what_it_runs_and_what_it_does_not(tmp_path):
    entry = "examples/quickstart.py"
    out = tmp_path / "reach.json"
    assert reach.main([entry, "--out", str(out)]) == 0
    mapped = json.loads(out.read_text(encoding="utf-8"))
    assert mapped["entry_points"][0]["name"] == entry and mapped["entry_points"][0]["ok"]
    assert len(mapped["map"]) == mapped["definitions"] == len(reach.definitions())
    assert mapped["unreached"] == sum(not row["reached_by"] for row in mapped["map"])
    rows = {(row["file"], row["qualname"]): row for row in mapped["map"]}
    facade = "src/repro/core/runtime/system.py"
    assert rows[facade, "LinguaManga.__init__"]["reached_by"] == [0]
    assert rows[facade, "LinguaManga.run"]["reached_by"] == [0]
    # The quickstart runs one template; it never streams.
    assert rows[facade, "LinguaManga.run_stream"]["reached_by"] == []
