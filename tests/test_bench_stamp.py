"""Every bench JSON record names the commit and the machine it was measured on."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path

from benchmarks import _harness


def test_emit_json_stamps_the_commit_and_host_read_at_import(tmp_path, monkeypatch):
    monkeypatch.setattr(_harness, "RESULTS_DIR", tmp_path)
    # The stamp was read at import: a bench that writes needs no git call.
    monkeypatch.setattr(_harness, "_git", lambda *args: 1 / 0)
    payload = _harness.emit_json("probe", [{"name": "a", "wall_seconds": 1.0}], repeats=3)
    written = json.loads((tmp_path / "BENCH_probe.json").read_text("utf-8"))
    assert written == payload
    assert (written["bench"], written["repeats"]) == ("probe", 3)
    assert written["arms"][0]["wall_seconds"] == 1.0
    assert {key: written[key] for key in ("python", "platform", "nproc")} == {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=Path(_harness.__file__).parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        head = "unknown"
    assert written["commit"] == head
    assert written["dirty"] in ((None,) if head == "unknown" else (True, False))
