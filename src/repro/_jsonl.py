"""The one write-ahead journal primitive and the JSON-lines codec under it.

All four durable files — the run journal, the shard ledger, the serve job
store and the prompt cache's journal — are a :class:`CheckpointJournal`:
one compact JSON object per line, written through :func:`_dump_line` and
read back through :func:`_parse_line` (orjson when it is installed, the
stdlib otherwise; either reads what the other wrote).  They share three
rules:

- **fsync.**  One :meth:`~CheckpointJournal.append` call is one write
  and one flush, however many records it carries (a paid batch's cache
  entries are one call, and one block line), so an acknowledged line
  survives the death of the process.  An append starts a background fsync
  when at least :data:`DEFAULT_FSYNC_INTERVAL` has passed since the last
  one, which bounds what a power cut can take;
  :meth:`~CheckpointJournal.close` and :meth:`~CheckpointJournal.rewrite`
  fsync inline.
- **Damaged lines.**  A newline-terminated line that does not decode (not
  a JSON object; for the cache, not a block or entry of the right types)
  is skipped, counted in ``corrupt_lines`` and left in the file: lines are
  indexed by key, not position, so the lines after it still count.  Bytes
  after the last newline are a torn tail: truncated and counted in
  ``torn_bytes``, so the next append starts a clean line.
- **Compaction.**  :meth:`~CheckpointJournal.rewrite` writes a
  ``.compact`` sibling, fsyncs it and renames it over the journal;
  :meth:`~CheckpointJournal.load` first repairs a crash in between.

Records that share their columns travel as one **record block**
(:func:`_encode_block`): field names once, one row per record, and a
long prompt preamble the rows share written once as ``prompt_prefix``.
The run journal's chunk lines, the shard ledger's op entries and the
cache's paid batches are all written this way.

A leaf on purpose: it imports nothing of ``repro``, so ``repro.llm.cache``
and ``repro.core.runtime.checkpoint`` (which imports the LLM service,
which imports the cache) can both sit on it.
"""

from __future__ import annotations

import json
import os
import threading
import time
import weakref
from pathlib import Path
from typing import Any, Iterable, Sequence

try:  # pre-installed accelerator; journal bytes never require it
    import orjson as _orjson
except ImportError:  # pragma: no cover - CI's no-orjson cell runs without it
    _orjson = None

#: An append starts a background fsync when this many seconds have passed
#: since the last one.  Bounds the power-loss window, not process-crash
#: safety — every append is flushed.
DEFAULT_FSYNC_INTERVAL = 0.05

#: An append hands the file at most this many bytes per ``write``: a batch
#: costs a few system calls, never a copy of itself joined whole.
_WRITE_SLICE = 64 * 1024


def _dump_line(record: dict) -> bytes:
    """Encode one compact JSONL line (orjson when present, else stdlib).

    A line orjson refused (non-str keys, an integer beyond 64 bits) is
    written by the stdlib behind one leading space, so :func:`_parse_line`
    hands it back to the stdlib: ``orjson.loads`` would read such an
    integer as a float and a resumed run would silently differ.  A string
    holding a lone surrogate has no UTF-8 spelling, so its line alone is
    escaped to ASCII, also behind the space (orjson refuses to read it).
    """
    lead = ""
    if _orjson is not None:
        try:
            return _orjson.dumps(record) + b"\n"
        except TypeError:
            lead = " "
    try:
        return (
            lead + json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"
        ).encode("utf-8")
    except UnicodeEncodeError:
        return (" " + json.dumps(record, separators=(",", ":")) + "\n").encode("ascii")


def _parse_line(line: bytes) -> Any:
    """Decode one JSONL line; raises ValueError/UnicodeDecodeError on junk."""
    if _orjson is not None and line[:1] != b" ":
        return _orjson.loads(line)
    return json.loads(line.decode("utf-8"))


def _dump_scalar(value: str | int) -> bytes:
    """UTF-8 of ``json.dumps(value, ensure_ascii=False)`` for a string or integer.

    Digests hash these bytes, so they may never change: orjson spells
    every string without a lone surrogate and every 64-bit integer exactly
    as the stdlib does, and refuses the rest, which the stdlib then encodes
    as it always did.  A string with a lone surrogate, which UTF-8 cannot
    spell (encoding it always raised, so no recorded digest has it), is
    escaped to ASCII instead.
    """
    if _orjson is not None:
        try:
            return _orjson.dumps(value)
        except TypeError:
            pass
    try:
        return json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return json.dumps(value).encode("ascii")


#: Minimum shared-prompt length worth factoring out of a record block.
_MIN_PROMPT_PREFIX = 32


def _common_prefix(strings: list[str]) -> str:
    """Longest common prefix, via C-speed comparisons.

    The lexicographic min and max bound every other string, and the split
    point is found by bisection on ``startswith`` — unlike
    ``os.path.commonprefix``, no Python-level per-character loop (prompt
    preambles run to kilobytes).
    """
    lo, hi = min(strings), max(strings)
    limit = min(len(lo), len(hi))
    if lo[:limit] == hi[:limit]:
        return lo[:limit]
    left, right = 0, limit
    while left < right:
        mid = (left + right + 1) // 2
        if hi.startswith(lo[:mid]):
            left = mid
        else:
            right = mid - 1
    return lo[:left]


def _encode_block(fields: Sequence[str], rows: list[list]) -> dict:
    """One record block: ``{"fields": [...], "rows": [[...], ...]}``.

    Field names go once per line instead of once per record.  The rows of
    one block come from one operator or one paid batch, so their
    ``prompt`` column repeats one instructions-plus-examples preamble —
    most of the bytes; a common prefix of at least
    :data:`_MIN_PROMPT_PREFIX` characters is factored into
    ``prompt_prefix`` and the rows keep their suffixes.  ``rows`` is
    edited in place.
    """
    block: dict = {"fields": list(fields), "rows": rows}
    if len(rows) > 1 and "prompt" in fields:
        column = fields.index("prompt")
        prompts = [row[column] for row in rows]
        if all(type(prompt) is str for prompt in prompts):
            prefix = _common_prefix(prompts)
            if len(prefix) >= _MIN_PROMPT_PREFIX:
                cut = len(prefix)
                for row in rows:
                    row[column] = row[column][cut:]
                block["prompt_prefix"] = prefix
    return block


def _decode_block(block: dict) -> tuple[list, list[list]]:
    """Invert :func:`_encode_block`: ``(fields, rows)``, prompts whole again.

    ``block`` is left as it was (a journal may decode one line twice); the
    caller checks the rows' shape.
    """
    fields, rows = block["fields"], block["rows"]
    prefix = block.get("prompt_prefix")
    if prefix is None:
        return fields, rows
    column = fields.index("prompt")
    return fields, [
        [*row[:column], prefix + row[column], *row[column + 1 :]] for row in rows
    ]


class CheckpointJournal:
    """Append-only JSONL file under the module's three rules.

    Thread safe: scheduler workers append chunk records concurrently.  One
    writer per file.  After :meth:`load`, ``torn_bytes`` and
    ``corrupt_lines`` say what it truncated and skipped (0 for a clean
    file), and ``lines_held`` counts the lines the file holds — loaded,
    damaged ones included, plus appended since; :meth:`rewrite` resets it.
    ``crash_hook``, when set, is called at the named internal boundary
    ``compaction:tmp-written`` (the crash harness arms a
    :class:`repro.llm.faults.CrashPoint` there).
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.torn_bytes = 0
        self.corrupt_lines = 0
        self.lines_held = 0
        self.crash_hook = None
        self._handle = None
        self._last_fsync = 0.0
        self._fsync_thread: threading.Thread | None = None
        self._fsync_wake = threading.Event()
        # The sync thread holds the journal weakly; a journal dropped
        # without close() wakes it to exit instead of pinning its file.
        weakref.finalize(self, self._fsync_wake.set)
        self._closing = False
        self._lock = threading.Lock()

    @property
    def _compact_tmp(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".compact")

    def recover(self) -> str | None:
        """Repair the on-disk state after a crash mid-:meth:`rewrite`.

        A rewrite leaves *both* files on disk when the process dies between
        writing the ``.compact`` sibling and renaming it.  When the journal
        still exists it is authoritative (a superset of what the sibling
        holds) and the sibling is deleted; when only the sibling exists the
        rename is completed.  Returns the action taken, if any.
        """
        tmp = self._compact_tmp
        if not tmp.exists():
            return None
        self.close()
        if self.path.exists():
            tmp.unlink()
            return "dropped-orphan-tmp"
        tmp.replace(self.path)
        return "promoted-tmp"

    def load(self) -> list:
        """:meth:`recover`, then :meth:`_decode` every intact line, in order.

        Streams the file, so only the decoded records are ever held (see
        the module rules for what is skipped and what is truncated).
        """
        self.recover()
        self.torn_bytes = self.corrupt_lines = self.lines_held = 0
        if not self.path.exists():
            return []
        records = []
        intact = 0
        with self.path.open("rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    self.torn_bytes = len(line)
                    break
                intact += len(line)
                if line.isspace():
                    continue
                self.lines_held += 1
                try:
                    records.append(self._decode(_parse_line(line)))
                except (KeyError, TypeError, ValueError):  # UnicodeDecodeError too
                    self.corrupt_lines += 1
        if self.torn_bytes:
            with self.path.open("r+b") as handle:
                handle.truncate(intact)
        return records

    @staticmethod
    def _decode(record: Any) -> Any:
        """One parsed line as :meth:`load` returns it; raises on a damaged one."""
        if not isinstance(record, dict):
            raise TypeError(f"a journal line is a JSON object, not {type(record).__name__}")
        return record

    def append(self, *records: dict) -> None:
        """Write ``records`` and flush once; start a background fsync when due.

        The lines go out in writes of at most :data:`_WRITE_SLICE` bytes (a
        longer line alone), so a crash mid-call leaves whole lines and at
        most one torn tail, which :meth:`load` truncates.
        """
        lines = [_dump_line(record) for record in records]
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("ab")
            piece: list[bytes] = []
            size = 0
            for line in lines:
                if piece and size + len(line) > _WRITE_SLICE:
                    self._handle.write(b"".join(piece))
                    piece, size = [], 0
                piece.append(line)
                size += len(line)
            if piece:
                self._handle.write(b"".join(piece))
            self._handle.flush()
            self.lines_held += len(lines)
            if time.monotonic() - self._last_fsync >= DEFAULT_FSYNC_INTERVAL:
                self._fsync_locked()

    def _fsync_locked(self) -> None:
        """Kick one group commit on the journal's background sync thread.

        ``os.fsync`` releases the GIL and a buffered flush already
        happened, so the commit costs the run nothing; wakes already
        coalesce (a sync in flight covers everything flushed before it —
        standard group commit).  One long-lived thread per journal: a
        spawn per commit costs more in interpreter lock waits than the
        fsync itself.  :meth:`close` settles the stragglers inline.
        """
        if self._fsync_thread is None:
            self._fsync_thread = threading.Thread(
                target=_fsync_loop, args=(weakref.ref(self), self._fsync_wake),
                daemon=True,
            )
            self._fsync_thread.start()
        self._fsync_wake.set()
        self._last_fsync = time.monotonic()

    def close(self) -> None:
        """fsync everything, then release the handle (idempotent).

        Once ``close`` returns, every append is on disk.  A later append
        reopens the file.
        """
        with self._lock:
            self._closing = True
            sync_thread, self._fsync_thread = self._fsync_thread, None
        if sync_thread is not None:
            self._fsync_wake.set()
            sync_thread.join()
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._handle.close()
                self._handle = None
            self._closing = False
            self._fsync_wake.clear()

    def rewrite(self, records: Iterable[dict]) -> int:
        """Replace the file's contents with ``records``; returns lines written.

        The ``.compact`` sibling is fsynced before the rename — otherwise a
        power cut could persist the new name over unwritten blocks — and
        the append handle is closed first, so the next append lands in the
        new file, never in an unlinked inode.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._compact_tmp
        count = 0
        with tmp.open("wb") as handle:
            for record in records:
                handle.write(_dump_line(record))
                count += 1
            handle.flush()
            os.fsync(handle.fileno())
        if self.crash_hook is not None:
            self.crash_hook("compaction:tmp-written")
        self.close()
        tmp.replace(self.path)
        self.lines_held = count
        return count

    def delete(self) -> None:
        """Close and remove the journal file, if present."""
        self.close()
        if self.path.exists():
            self.path.unlink()


def _fsync_loop(ref: weakref.ref, wake: threading.Event) -> None:
    """A journal's background sync thread; exits on close or collection."""
    while True:
        wake.wait()
        wake.clear()
        journal = ref()
        if journal is None:
            return
        with journal._lock:
            if journal._closing or journal._handle is None:
                return
            descriptor = journal._handle.fileno()
        del journal
        try:
            os.fsync(descriptor)
        except OSError:  # pragma: no cover - close() fsyncs inline anyway
            return


def emit_torn_tail(obs, clock, journal: CheckpointJournal, label: str) -> None:
    """Surface what one :meth:`CheckpointJournal.load` repaired.

    Counts the torn tail it truncated (``journal.torn_tails`` /
    ``journal.torn_bytes``) and the damaged lines it skipped
    (``journal.corrupt_lines``), and adds one ``torn-tail[label]`` trace
    event carrying both.  Expected after a crash mid-write, but worth
    counting: damage on every start means something else writes the file.
    """
    torn, corrupt = journal.torn_bytes, journal.corrupt_lines
    if obs is None or not (torn or corrupt):
        return
    if torn:
        obs.metrics.counter("journal.torn_tails").inc()
        obs.metrics.counter("journal.torn_bytes").inc(torn)
    if corrupt:
        obs.metrics.counter("journal.corrupt_lines").inc(corrupt)
    if obs.tracer.enabled:
        obs.tracer.add_span(
            f"torn-tail[{label}]",
            kind="event",
            start=float(clock.now),
            bytes=torn,
            lines=corrupt,
            journal=label,
            path=str(journal.path),
        )
