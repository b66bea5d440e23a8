"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Results are
printed and also written under ``benchmarks/results/`` so EXPERIMENTS.md can
be checked against fresh runs: human-readable text via :func:`emit`, and a
machine-readable JSON record per bench via :func:`emit_json` (one
``BENCH_<name>.json`` each, with a shared arm schema) so CI jobs and
regression tooling can diff results without parsing tables.  Every JSON
record names the commit and the machine it was measured on (:data:`STAMP`),
so successive records of one bench form a trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any

RESULTS_DIR = Path(__file__).parent / "results"

__all__ = ["emit", "emit_json", "RESULTS_DIR", "STAMP"]


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *args], cwd=Path(__file__).parent,
            capture_output=True, text=True, check=True,
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.CalledProcessError):
        return None


def _stamp() -> dict[str, Any]:
    """The tree and the machine a recorded number belongs to."""
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
    }


#: Read once, when this module is imported: before any bench of the process
#: rewrites its results and so dirties the tree.
STAMP = _stamp()


def emit(name: str, text: str) -> None:
    """Print ``text`` and persist it to ``benchmarks/results/<name>.txt``."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n", encoding="utf-8")


def emit_json(
    name: str, arms: list[dict[str, Any]], **extra: Any
) -> dict[str, Any]:
    """Persist machine-readable results to ``results/BENCH_<name>.json``.

    ``arms`` is one dict per measured arm.  Every arm is normalised to the
    shared schema — ``name``, ``wall_seconds``, ``provider_calls``,
    ``cost`` (``None`` when the bench does not measure that axis) — plus
    whatever bench-specific metrics the arm carries.  ``extra`` keys land
    at the top level beside ``bench``, ``arms`` and the :data:`STAMP` keys.
    """
    normalised = []
    for index, arm in enumerate(arms):
        entry: dict[str, Any] = {
            "name": arm.get("name", f"arm{index}"),
            "wall_seconds": arm.get("wall_seconds"),
            "provider_calls": arm.get("provider_calls"),
            "cost": arm.get("cost"),
        }
        entry.update(
            {key: value for key, value in arm.items() if key not in entry}
        )
        normalised.append(entry)
    payload: dict[str, Any] = {"bench": name, "arms": normalised, **extra, **STAMP}
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"BENCH_{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload
