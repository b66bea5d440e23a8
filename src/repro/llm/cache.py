"""Prompt cache: versioned exact match with a disk journal.

The paper's "Highly Performant" property is economic — avoid paying for an
LLM call whenever a cheaper path can produce the same answer.  This module
is the call-avoidance substrate the :class:`~repro.llm.service.LLMService`
sits on:

- **Exact match** (:class:`PromptCache`): responses keyed on a
  *versioned* :class:`CacheKey` (provider identity, skill/prompt-template
  version, prompt text, ``max_tokens``), so two skills or providers sharing
  a prompt string can never collide.  Entries live in an LRU with a
  ``max_entries`` cap; evictions are counted.  A prompt is only ever
  answered by its own cached answer (DESIGN §9 records why there is no
  near-duplicate tier).
- **Persistence** (:class:`CacheJournal`): an append-only JSONL
  journal makes repeated runs of the demo apps warm-start.  Loading
  tolerates a truncated or corrupt tail (a crash mid-append loses at most
  the damaged lines), and the journal is compacted — rewritten from live
  entries — once its dead weight grows past a factor of the live set.

Provenance strings (``provider`` / ``cache-exact`` / ``distilled``) tag
every ledger record with which path answered it.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from repro._jsonl import _dump_line, _dump_scalar, _parse_line
from repro.llm.providers import LLMResponse

__all__ = [
    "PROVENANCE_PROVIDER",
    "PROVENANCE_CACHE_EXACT",
    "PROVENANCE_DISTILLED",
    "CacheKey",
    "key_digest",
    "CacheStats",
    "CacheJournal",
    "PromptCache",
]

# Ledger provenance values: which call-avoidance path produced an answer.
PROVENANCE_PROVIDER = "provider"
PROVENANCE_CACHE_EXACT = "cache-exact"
PROVENANCE_DISTILLED = "distilled"


@dataclass(frozen=True)
class CacheKey:
    """A versioned cache key.

    ``provider`` is the provider's cache identity (its model name),
    ``version`` the caller's skill/prompt-template version tag.  Both are
    part of the key so a provider swap or a prompt-template revision can
    never serve stale answers, and two skills sharing a prompt string
    cannot collide.

    ``namespace`` is the **tenant isolation boundary** the serving layer
    (:mod:`repro.serve`) rides on: every key a tenant's jobs create carries
    that tenant's namespace, so two tenants asking the byte-identical
    prompt can never serve each other's cached answers — isolation is a
    property of the key, not of cache-object plumbing.  The default ``""``
    (single-tenant library use) leaves digests and journal bytes exactly
    as they were before namespaces existed.
    """

    provider: str
    version: str
    prompt: str
    max_tokens: int
    namespace: str = ""
    #: :func:`key_digest` of this key, kept once computed; no part of its
    #: identity (constructor, ``==``, ``hash`` and ``repr`` do not see it).
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)


def key_digest(key: CacheKey) -> str:
    """Short stable digest of a cache key (checkpoint cache fingerprints).

    The checkpoint header records the digests of the cache state at run
    start instead of the entries themselves, so resume can reconcile a
    journal polluted by the crashed run's own appends without shipping
    prompt text around.  Namespaced keys append the namespace to the
    digested payload; the un-namespaced payload shape is unchanged, so
    every digest recorded before namespaces existed still verifies.
    """
    digest = key._digest
    if digest is None:
        parts: list = [key.provider, key.version, key.prompt, key.max_tokens]
        if key.namespace:
            parts.append(key.namespace)
        # The bytes ``json.dumps(parts, ensure_ascii=False)`` encodes to:
        # recorded digests are of exactly these.
        payload = b"[" + b", ".join(map(_dump_scalar, parts)) + b"]"
        digest = hashlib.sha256(payload).hexdigest()[:16]
        object.__setattr__(key, "_digest", digest)
    return digest


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    exact_hits: int = 0
    misses: int = 0
    evictions: int = 0
    loaded: int = 0  # entries restored from the disk journal

    def snapshot(self) -> "CacheStats":
        """A copy safe to hand out while counters keep moving."""
        return CacheStats(**asdict(self))

    def to_text(self) -> str:
        """One-line rendering."""
        return (
            f"exact_hits={self.exact_hits} misses={self.misses} "
            f"evictions={self.evictions} loaded={self.loaded}"
        )


def _encode_entry(key: CacheKey, response: LLMResponse) -> bytes:
    """One journal line, keys inserted in the sorted order they are written in."""
    payload: dict = {"max_tokens": key.max_tokens}
    if key.namespace:
        # Written only when set so un-namespaced journals keep their
        # pre-namespace format (and digests) exactly.
        payload["namespace"] = key.namespace
    payload["prompt"] = key.prompt
    payload["provider"] = key.provider
    payload["response"] = {
        "completion_tokens": response.completion_tokens,
        "latency_seconds": response.latency_seconds,
        "model": response.model,
        "prompt_tokens": response.prompt_tokens,
        "skill": response.skill,
        "text": response.text,
    }
    payload["version"] = key.version
    return _dump_line(payload)


def _decode_entry(line: bytes) -> tuple[CacheKey, LLMResponse]:
    payload = _parse_line(line)
    key = CacheKey(
        provider=str(payload["provider"]),
        version=str(payload["version"]),
        prompt=str(payload["prompt"]),
        max_tokens=int(payload["max_tokens"]),
        namespace=str(payload.get("namespace", "")),
    )
    raw = payload["response"]
    response = LLMResponse(
        text=str(raw["text"]),
        prompt_tokens=int(raw["prompt_tokens"]),
        completion_tokens=int(raw["completion_tokens"]),
        model=str(raw.get("model", "")),
        skill=str(raw.get("skill", "")),
        latency_seconds=float(raw.get("latency_seconds", 0.0)),
    )
    return key, response


class CacheJournal:
    """Append-only JSONL persistence for the prompt cache.

    Every ``put`` appends one line; a rerun replays the journal to
    warm-start.  The format is crash tolerant: :meth:`load` skips lines
    that fail to parse (a truncated final line after a crash, editor
    damage, bytes that are not UTF-8, garbage) and counts them in
    ``corrupt_lines`` instead of failing the load, and the first
    :meth:`append` after a torn final line ends that line before writing
    its own.  :meth:`compact` rewrites the file from the live entries,
    dropping superseded duplicates and evicted entries.  Lines go through
    the codec all four journals share (:mod:`repro._jsonl`).

    Durability contract: every appended line is flushed to the operating
    system before :meth:`append` returns, so it survives the death of the
    process; it is ``fsync``-ed — survives power loss — only at
    :meth:`compact` and :meth:`close`.  Appends go through one handle held
    from the first append until :meth:`close`; anything that replaces the
    file under the path (:meth:`compact`, :meth:`recover`) releases it
    first, so the next append opens the new file.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.corrupt_lines = 0
        self.lines_appended = 0
        self._handle = None
        #: optional callable invoked at named internal boundaries
        #: (``compaction:tmp-written``); the crash-injection harness arms a
        #: :class:`repro.llm.faults.CrashPoint` here to simulate process
        #: death in the middle of a compaction.
        self.crash_hook = None

    @property
    def _compact_tmp(self) -> Path:
        return self.path.with_suffix(self.path.suffix + ".compact")

    def recover(self) -> str | None:
        """Repair the on-disk state after a crash mid-compaction.

        A compaction writes the live entries to a ``.compact`` sibling and
        then atomically renames it over the journal.  Process death between
        the two steps leaves *both* files on disk.  Recovery is
        conservative: when the main journal still exists it is authoritative
        (it is a superset of the tmp's live entries, so replaying it loses
        nothing) and the orphaned tmp is deleted; when only the tmp exists
        the rename is completed.  Returns the action taken, if any.
        """
        tmp = self._compact_tmp
        if not tmp.exists():
            return None
        self._release()
        if self.path.exists():
            tmp.unlink()
            return "dropped-orphan-tmp"
        tmp.replace(self.path)
        return "promoted-tmp"

    def load(self) -> list[tuple[CacheKey, LLMResponse]]:
        """Replay the journal; later lines for the same key win.

        Runs :meth:`recover` first, so a journal left mid-compaction by a
        crash loads cleanly instead of silently shadowing the tmp file.
        """
        self.corrupt_lines = 0
        self.recover()
        if not self.path.exists():
            return []
        entries: "OrderedDict[CacheKey, LLMResponse]" = OrderedDict()
        with self.path.open("rb") as handle:
            for line in handle:
                if line.isspace():
                    continue
                try:
                    key, response = _decode_entry(line)
                except (KeyError, TypeError, ValueError):
                    self.corrupt_lines += 1
                    continue
                entries.pop(key, None)  # re-puts refresh recency order
                entries[key] = response
        return list(entries.items())

    def append(self, key: CacheKey, response: LLMResponse) -> None:
        """Record one entry: one line, flushed to the operating system.

        Survives process death once this returns; not ``fsync``-ed (see
        the class docstring).
        """
        handle = self._handle
        if handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            handle = self._handle = self.path.open("ab")
            if handle.tell():
                with self.path.open("rb") as written:
                    written.seek(-1, os.SEEK_END)
                    if written.read(1) != b"\n":
                        # A crash mid-append left a line without its
                        # newline.  It stays (load skips and counts it);
                        # end it, or this entry is glued on and lost too.
                        handle.write(b"\n")
        handle.write(_encode_entry(key, response))
        handle.flush()
        self.lines_appended += 1

    def _release(self) -> None:
        """Close the append handle; the next :meth:`append` reopens the path."""
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.close()

    def close(self) -> None:
        """Flush, ``fsync`` and release the append handle (idempotent)."""
        if self._handle is not None:
            try:
                self._handle.flush()
                os.fsync(self._handle.fileno())
            finally:
                self._release()

    def compact(self, entries: Iterable[tuple[CacheKey, LLMResponse]]) -> int:
        """Rewrite the journal from ``entries``; returns lines written."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._compact_tmp
        count = 0
        with tmp.open("wb") as handle:
            for key, response in entries:
                handle.write(_encode_entry(key, response))
                count += 1
            handle.flush()
            # Data must reach the disk before the rename can: otherwise a
            # power cut persists the new name over unwritten blocks.
            os.fsync(handle.fileno())
        if self.crash_hook is not None:
            self.crash_hook("compaction:tmp-written")
        self._release()
        tmp.replace(self.path)
        self.lines_appended = 0
        return count


@dataclass
class PromptCache:
    """The exact-match prompt cache the :class:`LLMService` consults.

    Parameters
    ----------
    path:
        Optional JSONL journal location.  When given, previous runs'
        answers are loaded at construction (warm start) and every new
        answer is appended.
    max_entries:
        LRU capacity; the least recently used entry is evicted past it
        (and counted in ``stats.evictions``).
    """

    path: str | Path | None = None
    max_entries: int = 10_000
    compact_factor: int = 4

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._lock = threading.RLock()
        self._entries: "OrderedDict[CacheKey, LLMResponse]" = OrderedDict()
        self.stats = CacheStats()
        # Optional repro.obs.metrics.MetricsRegistry, attached by
        # LLMService.attach_obs(); mirrored alongside `stats` when set.
        self.metrics = None
        self.journal = CacheJournal(self.path) if self.path is not None else None
        if self.journal is not None:
            for key, response in self.journal.load():
                self._entries[key] = response
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
            self.stats.loaded = len(self._entries)
        self.seal()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: CacheKey) -> LLMResponse | None:
        """Look ``key`` up; a hit refreshes LRU recency."""
        with self._lock:
            response = self._entries.get(key)
            if response is None:
                self.count_misses(1)
                return None
            self._entries.move_to_end(key)
            self.stats.exact_hits += 1
            if self.metrics is not None:
                self.metrics.counter("cache.exact_hits").inc()
            return response

    def peek(self, key: CacheKey) -> bool:
        """Whether the cache holds ``key`` (no stats, no LRU touch)."""
        with self._lock:
            return key in self._entries

    def count_misses(self, count: int) -> None:
        """Book ``count`` lookups that found nothing.

        :meth:`get` books its own; the service's batched path looks a
        whole chunk up with :meth:`peek`, which counts nothing, pays for
        what is absent and books those misses here, once per batch.
        """
        with self._lock:
            self.stats.misses += count
            if self.metrics is not None:
                self.metrics.counter("cache.misses").inc(count)

    def put(self, key: CacheKey, response: LLMResponse) -> None:
        """Insert/refresh an entry, evicting LRU past ``max_entries``."""
        with self._lock:
            self._entries.pop(key, None)
            self._entries[key] = response
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self.metrics is not None:
                    self.metrics.counter("cache.evictions").inc()
            if self.metrics is not None:
                self.metrics.gauge("cache.entries").set(len(self._entries))
            if self.journal is not None:
                self.journal.append(key, response)
                if self.journal.lines_appended > max(
                    128, self.compact_factor * len(self._entries)
                ):
                    self.journal.compact(self._entries.items())

    def remove(self, key: CacheKey) -> bool:
        """Drop one entry (in-memory only); True if it existed.

        This is the scope-rollback hook: when a streaming shard attempt
        fails (an operator raised), the entries that attempt inserted must not survive it, or the retry would find its
        own half-done answers already cached and report a cheaper run than
        an undisturbed execution.  The journal is deliberately left alone —
        a durable resume reconciles it against the run header's
        :meth:`state_digests` snapshot plus the replayed shard records, and
        a warm *later* run may legitimately reuse the answer (the provider
        is deterministic about it).
        """
        with self._lock:
            existed = self._entries.pop(key, None) is not None
            if existed and self.metrics is not None:
                self.metrics.gauge("cache.entries").set(len(self._entries))
        return existed

    # Bound by name in ``benchmarks/e2e/trace.py`` (``TARGETS``), whose test
    # also expects a seal span inside the constructor's.  Nothing else under
    # ``src/`` calls them; they go once a ``[benchmark]`` PR drops the three
    # targets (ROADMAP).
    def seal(self) -> int:
        return len(self)

    def get_near(self, key: CacheKey) -> None:
        return None

    has_any = peek

    # -- checkpoint support -----------------------------------------------------

    def state_digests(self) -> list[str]:
        """Sorted digests of the live entries.

        Recorded in a run checkpoint's header so resume can rebuild exactly
        this state via :meth:`restore_state`.
        """
        with self._lock:
            return sorted(key_digest(key) for key in self._entries)

    def restore_state(self, exact: Iterable[str]) -> int:
        """Reconcile the cache back to a recorded :meth:`state_digests`.

        A crashed checkpointed run keeps appending to the cache journal
        right up to the kill, so a resume loads *more* entries than the
        original run had at its start — and serving those early would make
        the resumed report cheaper than the uninterrupted one instead of
        byte-identical.  This drops entries outside the recorded ``exact``
        set and returns how many it dropped.  The journal file is left
        untouched (dropped entries stay replayable for later runs); only
        the in-memory state rewinds.
        """
        exact_set = set(exact)
        with self._lock:
            dropped = 0
            for key in list(self._entries):
                if key_digest(key) not in exact_set:
                    del self._entries[key]
                    dropped += 1
            if self.metrics is not None:
                self.metrics.gauge("cache.entries").set(len(self._entries))
        return dropped

    # -- maintenance ----------------------------------------------------------------

    def clear(self) -> None:
        """Drop all entries and the journal contents."""
        with self._lock:
            self._entries.clear()
            if self.journal is not None:
                self.journal.compact(())

    def compact(self) -> int:
        """Force a journal compaction; returns live lines written (0 if no journal)."""
        with self._lock:
            if self.journal is None:
                return 0
            return self.journal.compact(self._entries.items())

    def close(self) -> None:
        """Flush, ``fsync`` and release the journal handle (idempotent).

        The cache stays usable: a later :meth:`put` reopens the journal.
        """
        with self._lock:
            if self.journal is not None:
                self.journal.close()

    def entries(self) -> list[tuple[CacheKey, LLMResponse]]:
        """A stable copy of the live entries (LRU order, oldest first)."""
        with self._lock:
            return list(self._entries.items())
