"""Reach map: which ``src/`` functions some entry point ever enters.

``tests/test_orphans.py`` finds a public name that nothing *names*; this
finds a definition that nothing *runs*.  It runs the entry points — every
example, ``python -m benchmarks.e2e --smoke`` and every ``bench_*.py`` —
with a profile hook (``sys.setprofile`` and ``threading.setprofile``)
installed by a ``sitecustomize`` on ``PYTHONPATH``.  Children count too:
a spawned interpreter imports the same hook, a child started with its own
``env`` gets the hook put back on its ``PYTHONPATH``, and a forked child
dumps what it entered before ``os._exit``.  Each process writes the code
objects it entered; the map joins them against every ``def`` under
``src/`` by file and first line (the first decorator's, as
``co_firstlineno`` counts it) and writes ``results/reach.json``::

    python -m benchmarks.reach                        # the full map, ~13 min
    python -m benchmarks.reach examples/quickstart.py --out /tmp/reach.json

The benches run from a temporary copy of ``benchmarks/``, so the committed
``results/`` files are not rewritten.  A failing entry point fails the
map: a definition it would have entered would read as unreached.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "benchmarks" / "results" / "reach.json"
E2E = "benchmarks.e2e --smoke"
TIMEOUT = 1800

_HOOK = '''\
import atexit, json, os, subprocess, sys, threading, uuid

_OUT = os.environ.get("REPRO_REACH_OUT")
if _OUT:
    _SRC = os.environ["REPRO_REACH_SRC"]
    _HERE = os.path.dirname(os.path.abspath(__file__))
    _seen = set()

    def _hook(frame, event, arg, _add=_seen.add):
        if event == "call":
            _add(frame.f_code)

    def _dump():
        hits = sorted({(code.co_filename, code.co_firstlineno)
                       for code in list(_seen) if code.co_filename.startswith(_SRC)})
        name = f"{os.getpid()}-{uuid.uuid4().hex}.json"
        with open(os.path.join(_OUT, name), "w", encoding="utf-8") as handle:
            json.dump(hits, handle)

    _exit = os._exit

    def _dump_then_exit(status):
        _dump()
        _exit(status)

    _popen_init = subprocess.Popen.__init__

    def _popen_with_hook(self, *args, **kwargs):
        env = kwargs.get("env")
        if env is not None:
            path = env.get("PYTHONPATH", "")
            if _HERE not in path.split(os.pathsep):
                path = os.pathsep.join(part for part in (_HERE, path) if part)
            kwargs["env"] = dict(env, PYTHONPATH=path, REPRO_REACH_OUT=_OUT,
                                 REPRO_REACH_SRC=_SRC)
        _popen_init(self, *args, **kwargs)

    os._exit = _dump_then_exit
    subprocess.Popen.__init__ = _popen_with_hook
    atexit.register(_dump)
    sys.setprofile(_hook)
    threading.setprofile(_hook)
'''


def entry_points() -> list[str]:
    """Every entry point, in the order the full map runs them."""
    examples = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "examples").glob("*.py"))
    benches = sorted(
        p.relative_to(ROOT).as_posix() for p in (ROOT / "benchmarks").glob("bench_*.py")
    )
    return [*examples, E2E, *benches]


def definitions() -> list[dict]:
    """Every function definition under ``src/`` (nested ones included)."""
    found = []

    def walk(node: ast.AST, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found.append({
                        "file": path,
                        "qualname": qualname,
                        "line": first,
                        "lines": child.end_lineno - child.lineno + 1,
                    })
                walk(child, qualname + ".", path)
            else:
                walk(child, prefix, path)

    for source in sorted(SRC.rglob("*.py")):
        relative = source.relative_to(ROOT).as_posix()
        walk(ast.parse(source.read_text(encoding="utf-8"), relative), "", relative)
    return found


def _command(entry: str, bench_dir: Path) -> tuple[list[str], Path]:
    if entry == E2E:
        return [sys.executable, "-m", "benchmarks.e2e", "--smoke"], ROOT
    if entry.startswith("benchmarks/"):
        name = Path(entry).name
        return [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", name], bench_dir
    return [sys.executable, str(ROOT / entry)], bench_dir


def run_entry(entry: str, hook_dir: Path, bench_dir: Path, dump_dir: Path) -> dict:
    """Run one entry point under the hook; ``{ok, seconds, hits}``."""
    dump_dir.mkdir()
    command, cwd = _command(entry, bench_dir)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join((str(hook_dir), str(SRC), str(ROOT))),
        REPRO_REACH_OUT=str(dump_dir),
        REPRO_REACH_SRC=str(SRC) + os.sep,
    )
    start = time.perf_counter()
    done = subprocess.run(command, cwd=cwd, env=env, timeout=TIMEOUT,
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    hits: set[tuple[str, int]] = set()
    for dump in dump_dir.glob("*.json"):
        for filename, line in json.loads(dump.read_text(encoding="utf-8")):
            hits.add((Path(filename).relative_to(ROOT).as_posix(), line))
    if done.returncode != 0:
        sys.stderr.write(f"{entry} failed ({done.returncode}):\n{done.stdout[-2000:]}"
                         f"{done.stderr[-2000:]}\n")
    return {"ok": done.returncode == 0, "seconds": round(seconds, 1), "hits": hits}


def build_map(entries: list[str]) -> dict:
    """Run ``entries`` and join what they entered against :func:`definitions`."""
    runs: dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as scratch:
        scratch_dir = Path(scratch)
        hook_dir = scratch_dir / "hook"
        bench_dir = scratch_dir / "benchmarks"
        hook_dir.mkdir()
        bench_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(_HOOK, encoding="utf-8")
        for source in (ROOT / "benchmarks").glob("*.py"):
            shutil.copy(source, bench_dir / source.name)
        for index, entry in enumerate(entries):
            runs[entry] = run_entry(entry, hook_dir, bench_dir, scratch_dir / f"dump{index}")
            print(f"{entry}: {'ok' if runs[entry]['ok'] else 'FAILED'} "
                  f"{runs[entry]['seconds']} s", flush=True)
    rows = definitions()
    for row in rows:
        key = (row["file"], row["line"])
        row["reached_by"] = [i for i, entry in enumerate(entries) if key in runs[entry]["hits"]]
    unreached = [row for row in rows if not row["reached_by"]]
    return {
        "entry_points": [
            {"name": entry, "ok": runs[entry]["ok"], "seconds": runs[entry]["seconds"]}
            for entry in entries
        ],
        "definitions": len(rows),
        "unreached": len(unreached),
        "unreached_lines": sum(row["lines"] for row in unreached),
        "map": rows,
    }


def write_map(reach: dict, out: Path) -> None:
    """One definition per line, so a diff of two maps reads by definition."""
    head = {key: value for key, value in reach.items() if key != "map"}
    lines = [json.dumps(head, sort_keys=True)[:-1] + ', "map": [']
    lines.append(",\n".join(json.dumps(row, sort_keys=True) for row in reach["map"]))
    lines.append("]}")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("entries", nargs="*",
                        help=f"entry points to run (default: all); {E2E!r} names the smoke run")
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args(argv)
    entries = args.entries or entry_points()
    reach = build_map(entries)
    write_map(reach, args.out)
    print(f"{reach['unreached']} of {reach['definitions']} definitions "
          f"({reach['unreached_lines']} lines) unreached -> {args.out}")
    return 0 if all(entry["ok"] for entry in reach["entry_points"]) else 1


if __name__ == "__main__":
    sys.exit(main())
