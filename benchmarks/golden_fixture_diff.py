"""What a golden-regenerating change did to the fixtures, by script.

``python benchmarks/golden_fixture_diff.py <base-rev>`` compares every
golden fixture at ``<base-rev>`` (read with ``git show``) with the working
tree and exits non-zero unless each one is either byte-equal or differs
*only* in how cache-hit records are counted:

- a golden trace may lose ``llm_call`` spans that are exact-cache hits
  (``cached`` true, provenance ``cache-exact``, cost 0, latency 0); once
  those are removed from the base and sibling span ids renumbered, the two
  files must be equal span for span — names, times, costs, tokens, skills;
- a golden API payload may change ``cached_calls`` (result and per phase),
  the per-phase ``llm_calls`` span count by the same amount (so
  ``llm_calls - cached_calls``, the paid calls, is equal), and
  ``report_digest`` (the report embeds ``cached_calls``); every other field
  — cost, ``llm_calls`` of the result, F1 / accuracy, quarantine, clock
  times — must be equal.

Written for PR 20 (one service pass per cold chunk), where it shows that
four fixtures lost exactly their echo records and eleven did not move.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIRS = (
    "tests/integration/golden_traces",
    "tests/serve/golden_api",
    "tests/integration/golden_curation",
)


def at_base(rev: str, path: str) -> str:
    return subprocess.run(
        ["git", "show", f"{rev}:{path}"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout


def is_cache_hit(span: dict) -> bool:
    attributes = span["attributes"]
    return (
        span["kind"] == "llm_call"
        and attributes.get("cached") is True
        and attributes.get("provenance") == "cache-exact"
        and attributes.get("cost") == 0.0
        and attributes.get("latency_seconds") == 0.0
    )


def renumber(spans: list[dict]) -> list[dict]:
    """Span ids are ``<parent id>.<index among siblings>``; re-derive them."""
    new_id: dict[str, str] = {}
    children: dict[str | None, int] = {}
    out = []
    for span in spans:
        parent = span["parent_id"]
        parent_new = new_id.get(parent, parent)
        index = children.get(parent_new, 0)
        children[parent_new] = index + 1
        fresh = str(index) if parent_new is None else f"{parent_new}.{index}"
        new_id[span["span_id"]] = fresh
        out.append(dict(span, span_id=fresh, parent_id=parent_new))
    return out


def totals(spans: list[dict]) -> tuple:
    """Cost, paid prompt + completion tokens, and where the virtual clock ends."""
    paid = [s["attributes"] for s in spans if s["kind"] == "llm_call" and not s["attributes"]["cached"]]
    return (
        round(sum(s["attributes"].get("cost", 0.0) for s in spans), 10),
        sum(a["prompt_tokens"] for a in paid),
        sum(a["completion_tokens"] for a in paid),
        max(s["end"] for s in spans),
    )


def diff_trace(old_text: str, new_text: str) -> str:
    old = [json.loads(line) for line in old_text.splitlines()]
    new = [json.loads(line) for line in new_text.splitlines()]
    kept = [span for span in old if not is_cache_hit(span)]
    # Files list spans in tree order, siblings by index, so what is left of
    # the base, renumbered, must be the new file line for line.
    if renumber(new) != new:
        raise SystemExit("  span ids are not positional")
    if renumber(kept) != new:
        raise SystemExit("  spans differ beyond removed cache hits")
    cost, prompt_tokens, completion_tokens, clock = totals(new)
    if totals(old) != (cost, prompt_tokens, completion_tokens, clock):
        raise SystemExit("  cost, paid tokens or clock moved")
    return (
        f"{len(old)} -> {len(new)} spans: {len(old) - len(kept)} cache-exact llm_call spans "
        f"removed, the rest equal after renumbering; cost {cost}, paid tokens "
        f"{prompt_tokens}+{completion_tokens}, clock end {clock} equal"
    )


def diff_api(old_text: str, new_text: str) -> str:
    old, new = json.loads(old_text), json.loads(new_text)
    moved: list[str] = []

    def walk(a, b, path: str) -> None:
        if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
            if "cached_calls" in a and "llm_calls" in a and path.startswith("/progress"):
                if a["llm_calls"] - a["cached_calls"] != b["llm_calls"] - b["cached_calls"]:
                    raise SystemExit(f"  paid calls differ at {path}")
            for name in a:
                walk(a[name], b[name], f"{path}/{name}")
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for index, (x, y) in enumerate(zip(a, b)):
                walk(x, y, f"{path}[{index}]")
        elif a != b:
            leaf = path.rsplit("/", 1)[-1]
            allowed = leaf in ("cached_calls", "report_digest") or (
                leaf == "llm_calls" and path.startswith("/progress")
            )
            if not allowed:
                raise SystemExit(f"  {path}: {a!r} -> {b!r} is not a cache-hit count")
            moved.append(f"{path} {a} -> {b}")

    walk(old, new, "")
    result = new["result"]
    equal = {k: v for k, v in result.items() if k not in ("cached_calls", "report_digest")}
    return "; ".join(moved) + f"; equal: {json.dumps(equal, sort_keys=True)}"


def main(rev: str) -> int:
    moved = 0
    for directory in GOLDEN_DIRS:
        for path in sorted((ROOT / directory).iterdir()):
            relative = f"{directory}/{path.name}"
            old_text, new_text = at_base(rev, relative), path.read_text(encoding="utf-8")
            if old_text == new_text:
                print(f"= {relative}")
                continue
            moved += 1
            differ = diff_trace if path.suffix == ".jsonl" else diff_api
            print(f"~ {relative}\n  {differ(old_text, new_text)}")
    print(f"{moved} fixture(s) moved, each only in cache-hit records and counts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1] if len(sys.argv) > 1 else "HEAD"))
