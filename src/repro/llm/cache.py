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
  journal makes repeated runs of the demo apps warm-start.  It is the
  journal primitive every durable file shares, writing a paid batch as
  one record block line (a crash mid-append loses at most that batch),
  and it is compacted — rewritten from live entries — once the entries
  it holds grow past a factor of the live set.

Provenance strings (``provider`` / ``cache-exact`` / ``distilled``) tag
every ledger record with which path answered it.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, NamedTuple, Sequence

from repro._jsonl import CheckpointJournal, _block_parts, _dump_scalar, _encode_block
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

#: A journal holding more than this many entries per live entry (and at
#: least 128) — entries earlier processes wrote included — is rewritten
#: from the live entries on the next put.
_COMPACT_FACTOR = 4

#: The columns of a journal block row, key first, then response.
_ENTRY_FIELDS = [
    "provider", "version", "namespace", "max_tokens", "prompt",
    "text", "prompt_tokens", "completion_tokens", "model", "skill", "latency_seconds",
]  # fmt: skip

#: A block line holds at most this many entries, appended or compacted.
_BLOCK_ENTRIES = 256


class _KeyFields(NamedTuple):
    provider: str
    version: str
    prompt: str
    max_tokens: int
    namespace: str = ""


class CacheKey(_KeyFields):
    """A versioned cache key: a named tuple, so ``==`` and ``hash`` run in C.

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

    The fields cannot be assigned.  A key is equal to the plain tuple of
    its fields; no mapping holds both.
    """

    #: :func:`key_digest` of this key, kept once computed in the instance
    #: dict; no part of its identity (constructor, ``==``, ``hash`` and
    #: ``repr`` do not see it; copies and pickles carry it, ``_replace``
    #: does not).
    _digest: str | None = None


def _digest_head(provider: str, version: str, prefix: bytes = b'""'):
    """SHA-256 fed a key's digest payload up to the end of a prompt prefix.

    ``prefix`` is the :func:`~repro._jsonl._dump_scalar` spelling of a
    prefix of the prompt, quotes included; its closing quote is not fed.
    The default, the empty prefix, leaves the whole prompt to
    :func:`_digest_tail`.
    """
    return hashlib.sha256(
        b"[" + _dump_scalar(provider) + b", " + _dump_scalar(version) + b", " + prefix[:-1]
    )


def _digest_tail(head, suffix: bytes, max_tokens: int, namespace: str) -> str:
    """The digest ``head`` (consumed) gives a key whose prompt ends in the
    string spelled ``suffix``, quotes included; its opening quote is not fed.

    Joining the two spellings gives the whole prompt's spelling because a
    JSON string escapes character by character, unless either half needed
    the ASCII spelling of a lone surrogate, which escapes the whole string:
    such halves go to :func:`key_digest` whole instead.
    """
    # JSON spells an int as ``%d`` does, at any size.
    number = b"%d" % max_tokens if type(max_tokens) is int else _dump_scalar(max_tokens)
    if namespace:
        head.update(b"%s, %s, %s]" % (suffix[1:], number, _dump_scalar(namespace)))
    else:
        head.update(b"%s, %s]" % (suffix[1:], number))
    return head.hexdigest()[:16]


def _spelled(text: str) -> bytes | None:
    """``_dump_scalar(text)``, or None where that is the ASCII spelling (a
    lone surrogate), which cannot be split at a prefix."""
    spelling = _dump_scalar(text)
    return None if not text.isascii() and spelling.isascii() else spelling


def key_digest(key: CacheKey) -> str:
    """Short stable digest of a cache key (checkpoint cache fingerprints).

    The checkpoint header records the digests of the cache state at run
    start instead of the entries themselves, so resume can reconcile a
    journal polluted by the crashed run's own appends without shipping
    prompt text around.  Namespaced keys append the namespace to the
    digested payload; the un-namespaced payload shape is unchanged, so
    every digest recorded before namespaces existed still verifies.

    The payload is the bytes ``json.dumps([provider, version, prompt,
    max_tokens(, namespace)], ensure_ascii=False)`` encodes to: recorded
    digests are of exactly these.  A journal block's rows share a prompt
    prefix, so :func:`_decode_line` feeds it once per block and finishes
    each row from its suffix; here the prefix is empty.
    """
    digest = key._digest
    if digest is None:
        digest = key._digest = _digest_tail(
            _digest_head(key.provider, key.version),
            _dump_scalar(key.prompt), key.max_tokens, key.namespace,
        )  # fmt: skip
    return digest


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    exact_hits: int = 0
    misses: int = 0
    evictions: int = 0
    loaded: int = 0  # entries restored from the disk journal

    def to_text(self) -> str:
        """One-line rendering."""
        return (
            f"exact_hits={self.exact_hits} misses={self.misses} "
            f"evictions={self.evictions} loaded={self.loaded}"
        )


def _encode_entries(entries: Sequence[tuple[CacheKey, LLMResponse]]) -> list[dict]:
    """``entries`` as record blocks of at most :data:`_BLOCK_ENTRIES` rows."""
    rows = [
        [
            key.provider, key.version, key.namespace, key.max_tokens, key.prompt,
            response.text, response.prompt_tokens, response.completion_tokens,
            response.model, response.skill, response.latency_seconds,
        ]  # fmt: skip
        for key, response in entries
    ]
    return [
        _encode_block(_ENTRY_FIELDS, rows[start : start + _BLOCK_ENTRIES])
        for start in range(0, len(rows), _BLOCK_ENTRIES)
    ]


def _entry(
    provider, version, namespace, max_tokens, prompt,
    text, prompt_tokens, completion_tokens, model, skill, latency,
) -> tuple[CacheKey, LLMResponse]:  # fmt: skip
    """One entry from its columns, each of its JSON type, or TypeError.

    No coercion: a ``null`` answer read as ``"None"``, or ``true`` as one
    token, would be served as if the provider had said it.
    """
    if not (
        type(provider) is type(version) is type(namespace) is type(prompt)
        is type(text) is type(model) is type(skill) is str
        and type(max_tokens) is type(prompt_tokens) is type(completion_tokens) is int
        and type(latency) in (int, float)
    ):  # fmt: skip
        raise TypeError("a cache entry column has the wrong JSON type")
    return (
        CacheKey(provider, version, prompt, max_tokens, namespace),
        LLMResponse(text, prompt_tokens, completion_tokens, model, skill, float(latency)),
    )


def _decode_line(record: Any) -> list[tuple[CacheKey, LLMResponse]]:
    """The entries of one journal line, a record block.

    A block's keys get their digests here, from one SHA-256 state per
    (provider, version) fed the shared ``prompt_prefix`` once; other keys
    are digested when asked.  Raises on any damage, so a block is kept or
    lost whole.
    """
    if type(record) is not dict:
        raise TypeError("a journal line must be a JSON object")
    if record.get("fields") != _ENTRY_FIELDS:
        raise ValueError("a cache block of the wrong fields")
    _, rows, prefix = _block_parts(record)
    if prefix is None:
        return [_entry(*row) for row in rows]
    spelled = _spelled(prefix)
    heads: dict = {}
    entries = []
    for row in rows:  # this decode's own lists: joined in place
        suffix = row[4]
        row[4] = prefix + suffix
        key, _ = entry = _entry(*row)
        entries.append(entry)
        if spelled is None or (tail := _spelled(suffix)) is None:
            continue  # a lone surrogate: key_digest spells the whole prompt
        provider, version, namespace, max_tokens = row[:4]
        head = heads.get((provider, version))
        if head is None:
            head = heads[provider, version] = _digest_head(provider, version, spelled)
        key._digest = _digest_tail(head.copy(), tail, max_tokens, namespace)
    return entries


class CacheJournal(CheckpointJournal):
    """The prompt cache's journal: a :class:`~repro._jsonl.CheckpointJournal`
    of entries.

    Every insert appends its entries, one :meth:`append` per batch, as
    record blocks (:func:`repro._jsonl._encode_block`) of at most
    :data:`_BLOCK_ENTRIES` entries; a rerun replays the journal to
    warm-start.  Handling the file is the primitive's job, under the rules
    :mod:`repro._jsonl` states for all four journals; only the entry codec
    lives here.  ``entries_held`` counts the entries the file holds — a
    damaged line as one — for the compaction trigger; :class:`PromptCache`
    appends under its own lock, so the count needs no other.
    """

    #: A line that is not a block of the right types is one more damaged line.
    _decode = staticmethod(_decode_line)

    def __init__(self, path: str | Path):
        super().__init__(path)
        self.entries_held = 0

    def load(self) -> "OrderedDict[CacheKey, LLMResponse]":
        """Replay the journal; a later entry for the same key wins and
        moves last, so the order is a recency order."""
        entries: "OrderedDict[CacheKey, LLMResponse]" = OrderedDict()
        held = 0
        for line in super().load():
            held += len(line)
            for key, response in line:
                entries.pop(key, None)
                entries[key] = response
        self.entries_held = held + self.corrupt_lines
        return entries

    def append(self, *entries: tuple[CacheKey, LLMResponse]) -> None:
        """Record ``(key, response)`` entries in one write (see
        :meth:`CheckpointJournal.append`)."""
        super().append(*_encode_entries(entries))
        self.entries_held += len(entries)

    def compact(self, entries: Iterable[tuple[CacheKey, LLMResponse]]) -> int:
        """Rewrite the journal from ``entries``; returns entries written."""
        entries = list(entries)
        self.rewrite(_encode_entries(entries))
        self.entries_held = len(entries)
        return len(entries)


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
            self._entries = self.journal.load()
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
        """Insert/refresh one entry: :meth:`put_many` of one."""
        self.put_many(((key, response),))

    def put_many(
        self, entries: Sequence[tuple[CacheKey, LLMResponse]]
    ) -> list[CacheKey]:
        """Insert/refresh ``entries`` in order, evicting LRU past ``max_entries``.

        The batch is one journal append, and compaction is considered
        once, after it, counting all of its entries.  Returns the keys that
        were absent when their entry went in (the ones a scope rollback
        may remove).
        """
        created: list[CacheKey] = []
        with self._lock:
            live = self._entries
            for key, response in entries:
                if live.pop(key, None) is None:
                    created.append(key)
                live[key] = response
                while len(live) > self.max_entries:
                    live.popitem(last=False)
                    self.stats.evictions += 1
                    if self.metrics is not None:
                        self.metrics.counter("cache.evictions").inc()
            if self.metrics is not None:
                self.metrics.gauge("cache.entries").set(len(live))
            if self.journal is not None:
                self.journal.append(*entries)
                if self.journal.entries_held > max(128, _COMPACT_FACTOR * len(live)):
                    self.journal.compact(live.items())
        return created

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
            # Keys loaded from a journal block already hold theirs.
            return sorted([key._digest or key_digest(key) for key in self._entries])

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

    def compact(self) -> int:
        """Force a journal compaction; returns live entries written (0 if no journal)."""
        with self._lock:
            if self.journal is None:
                return 0
            return self.journal.compact(self._entries.items())

    def close(self) -> None:
        """Close the journal for good (idempotent): lookups still answer,
        a put raises."""
        with self._lock:
            if self.journal is not None:
                self.journal.close()

    def entries(self) -> list[tuple[CacheKey, LLMResponse]]:
        """A stable copy of the live entries (LRU order, oldest first)."""
        with self._lock:
            return list(self._entries.items())
