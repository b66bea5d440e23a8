"""Multi-tier prompt cache: versioned exact match, disk journal, near-dup lookup.

The paper's "Highly Performant" property is economic — avoid paying for an
LLM call whenever a cheaper path can produce the same answer.  This module
is the call-avoidance substrate the :class:`~repro.llm.service.LLMService`
sits on:

- **Tier 1 — exact match** (:class:`PromptCache`): responses keyed on a
  *versioned* :class:`CacheKey` (provider identity, skill/prompt-template
  version, prompt text, ``max_tokens``), so two skills or providers sharing
  a prompt string can never collide.  Entries live in an LRU with a
  ``max_entries`` cap; evictions are counted.
- **Tier 1 persistence** (:class:`CacheJournal`): an append-only JSONL
  journal makes repeated runs of the demo apps warm-start.  Loading
  tolerates a truncated or corrupt tail (a crash mid-append loses at most
  the damaged lines), and the journal is compacted — rewritten from live
  entries — once its dead weight grows past a factor of the live set.
- **Tier 2 — near-duplicate lookup** (:class:`NearDuplicateIndex`): prompts
  are canonicalised via :func:`repro.text.normalize.normalize_text` and
  matched against a **sealed snapshot** of previously journaled answers by
  TF-IDF cosine similarity (with a banded-Levenshtein fast path for
  near-identical strings).  Only the snapshot sealed at load time is
  consulted, never entries added mid-run — that is what keeps near-hits
  byte-identical at any worker count: the candidate set cannot depend on
  thread interleaving.

Provenance strings (``provider`` / ``cache-exact`` / ``cache-near`` /
``distilled``) tag every ledger record with which tier answered it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from collections import Counter, OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from repro.llm.providers import LLMResponse
from repro.text.normalize import normalize_text
from repro.text.similarity import levenshtein_distance

__all__ = [
    "PROVENANCE_PROVIDER",
    "PROVENANCE_CACHE_EXACT",
    "PROVENANCE_CACHE_NEAR",
    "PROVENANCE_DISTILLED",
    "CacheKey",
    "key_digest",
    "CacheStats",
    "CacheJournal",
    "NearDuplicateIndex",
    "PromptCache",
]

# Ledger provenance values: which call-avoidance tier produced an answer.
PROVENANCE_PROVIDER = "provider"
PROVENANCE_CACHE_EXACT = "cache-exact"
PROVENANCE_CACHE_NEAR = "cache-near"
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


def key_digest(key: CacheKey) -> str:
    """Short stable digest of a cache key (checkpoint cache fingerprints).

    The checkpoint header records the digests of the cache state at run
    start instead of the entries themselves, so resume can reconcile a
    journal polluted by the crashed run's own appends without shipping
    prompt text around.  Namespaced keys append the namespace to the
    digested payload; the un-namespaced payload shape is unchanged, so
    every digest recorded before namespaces existed still verifies.
    """
    parts: list = [key.provider, key.version, key.prompt, key.max_tokens]
    if key.namespace:
        parts.append(key.namespace)
    payload = json.dumps(parts, ensure_ascii=False)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    exact_hits: int = 0
    near_hits: int = 0
    misses: int = 0
    evictions: int = 0
    loaded: int = 0  # entries restored from the disk journal

    def snapshot(self) -> "CacheStats":
        """A copy safe to hand out while counters keep moving."""
        return CacheStats(**asdict(self))

    def to_text(self) -> str:
        """One-line rendering."""
        return (
            f"exact_hits={self.exact_hits} near_hits={self.near_hits} "
            f"misses={self.misses} evictions={self.evictions} loaded={self.loaded}"
        )


def _encode_entry(key: CacheKey, response: LLMResponse) -> str:
    payload: dict = {
        "provider": key.provider,
        "version": key.version,
        "prompt": key.prompt,
        "max_tokens": key.max_tokens,
    }
    if key.namespace:
        # Written only when set so un-namespaced journals keep their
        # pre-namespace byte format (and digests) exactly.
        payload["namespace"] = key.namespace
    return json.dumps(
        {
            **payload,
            "response": {
                "text": response.text,
                "prompt_tokens": response.prompt_tokens,
                "completion_tokens": response.completion_tokens,
                "model": response.model,
                "skill": response.skill,
                "latency_seconds": response.latency_seconds,
            },
        },
        ensure_ascii=False,
        sort_keys=True,
    )


def _decode_entry(line: str) -> tuple[CacheKey, LLMResponse]:
    payload = json.loads(line)
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
    """Append-only JSONL persistence for the exact-match tier.

    Every ``put`` appends one line; a rerun replays the journal to
    warm-start.  The format is crash tolerant: :meth:`load` skips lines
    that fail to parse (a truncated final line after a crash, editor
    damage, garbage) and counts them in ``corrupt_lines`` instead of
    failing the load.  :meth:`compact` rewrites the file from the live
    entries, dropping superseded duplicates and evicted entries.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.corrupt_lines = 0
        self.lines_appended = 0
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
        with self.path.open("r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    key, response = _decode_entry(line)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    self.corrupt_lines += 1
                    continue
                entries.pop(key, None)  # re-puts refresh recency order
                entries[key] = response
        return list(entries.items())

    def append(self, key: CacheKey, response: LLMResponse) -> None:
        """Durably record one entry (one line, flushed)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(_encode_entry(key, response) + "\n")
        self.lines_appended += 1

    def compact(self, entries: Iterable[tuple[CacheKey, LLMResponse]]) -> int:
        """Rewrite the journal from ``entries``; returns lines written."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self._compact_tmp
        count = 0
        with tmp.open("w", encoding="utf-8") as handle:
            for key, response in entries:
                handle.write(_encode_entry(key, response) + "\n")
                count += 1
            handle.flush()
            # Data must reach the disk before the rename can: otherwise a
            # power cut persists the new name over unwritten blocks.
            os.fsync(handle.fileno())
        if self.crash_hook is not None:
            self.crash_hook("compaction:tmp-written")
        tmp.replace(self.path)
        self.lines_appended = 0
        return count


class NearDuplicateIndex:
    """TF-IDF near-duplicate lookup over a sealed set of cached prompts.

    Prompts are canonicalised with :func:`normalize_text`; lookups return
    the best-scoring donor whose canonical form clears ``threshold`` cosine
    similarity under TF-IDF weights fit on the sealed corpus.  Two fast
    paths keep the hot lookup cheap: a canonical-equality dict (score 1.0
    without any vector math) and a banded Levenshtein check (O(n·d)) that
    accepts near-identical strings before cosine is computed.

    The index is **immutable after build**: determinism of parallel runs
    requires the candidate set to be a pure function of the warm snapshot,
    not of mid-run insertion order.
    """

    def __init__(self, threshold: float = 0.92):
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold
        self._entries: list[tuple[CacheKey, LLMResponse, str, Counter, float]] = []
        self._by_canonical: dict[tuple[str, str, int, str], int] = {}
        self._token_index: dict[str, list[int]] = {}
        self._idf: dict[str, float] = {}
        self._default_idf = 1.0

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[CacheKey]:
        """The cache keys of the sealed snapshot, in insertion order."""
        return [key for key, _, _, _, _ in self._entries]

    @staticmethod
    def _scope(key: CacheKey) -> tuple[str, str, int, str]:
        # Near-hits must never cross provider, version, max_tokens or
        # tenant-namespace boundaries — only the prompt text is allowed
        # to be fuzzy.
        return (key.provider, key.version, key.max_tokens, key.namespace)

    def build(self, items: Iterable[tuple[CacheKey, LLMResponse]]) -> None:
        """(Re)build the sealed index from ``items``."""
        self._entries = []
        self._by_canonical = {}
        self._token_index = {}
        document_frequency: Counter = Counter()
        for key, response in items:
            canonical = normalize_text(key.prompt)
            tf = Counter(canonical.split())
            entry_id = len(self._entries)
            self._entries.append((key, response, canonical, tf, 0.0))
            self._by_canonical.setdefault(
                self._scope(key) + (canonical,), entry_id
            )
            document_frequency.update(set(tf))
        n_docs = len(self._entries)
        self._idf = {
            token: math.log((1 + n_docs) / (1 + df)) + 1.0
            for token, df in document_frequency.items()
        }
        self._default_idf = math.log(1 + n_docs) + 1.0
        for entry_id, (key, response, canonical, tf, _) in enumerate(self._entries):
            norm = math.sqrt(
                sum((count * self._idf[token]) ** 2 for token, count in tf.items())
            )
            self._entries[entry_id] = (key, response, canonical, tf, norm)
            for token in tf:
                self._token_index.setdefault(token, []).append(entry_id)

    def lookup(self, key: CacheKey) -> tuple[LLMResponse, float] | None:
        """Best sealed donor for ``key`` above the threshold, if any.

        Deterministic: ties break on insertion order.  Returns the donor
        response and its similarity score.
        """
        if not self._entries:
            return None
        canonical = normalize_text(key.prompt)
        exact_id = self._by_canonical.get(self._scope(key) + (canonical,))
        if exact_id is not None:
            return self._entries[exact_id][1], 1.0
        tf = Counter(canonical.split())
        if not tf:
            return None
        weights = {
            token: count * self._idf.get(token, self._default_idf)
            for token, count in tf.items()
        }
        norm = math.sqrt(sum(value * value for value in weights.values()))
        if norm == 0.0:
            return None
        candidate_ids: set[int] = set()
        for token in tf:
            candidate_ids.update(self._token_index.get(token, ()))
        scope = self._scope(key)
        # Banded-Levenshtein fast path: accept a near-identical canonical
        # form (within ~2% edits) before paying for cosine on every
        # candidate.  The band makes this O(len · d), not O(len²).
        edit_budget = max(2, len(canonical) // 50)
        best_id = -1
        best_score = 0.0
        for entry_id in sorted(candidate_ids):
            donor_key, _, donor_canonical, donor_tf, donor_norm = self._entries[
                entry_id
            ]
            if self._scope(donor_key) != scope:
                continue
            if (
                abs(len(donor_canonical) - len(canonical)) <= edit_budget
                and levenshtein_distance(
                    canonical, donor_canonical, max_distance=edit_budget
                )
                <= edit_budget
            ):
                return self._entries[entry_id][1], 1.0
            if donor_norm == 0.0:
                continue
            dot = sum(
                weights[token] * donor_tf[token] * self._idf[token]
                for token in weights.keys() & donor_tf.keys()
            )
            score = dot / (norm * donor_norm)
            if score > best_score:
                best_id, best_score = entry_id, score
        if best_id >= 0 and best_score >= self.threshold:
            return self._entries[best_id][1], min(1.0, best_score)
        return None


@dataclass
class PromptCache:
    """The layered prompt cache the :class:`LLMService` consults.

    Parameters
    ----------
    path:
        Optional JSONL journal location.  When given, previous runs'
        answers are loaded at construction (warm start) and every new
        answer is appended.
    max_entries:
        LRU capacity of the exact tier; the least recently used entry is
        evicted past it (and counted in ``stats.evictions``).
    near_threshold:
        TF-IDF cosine bar for tier-2 near-duplicate hits.
    near_enabled:
        Gate for tier 2 (the sealed snapshot is only consulted when true).
    """

    path: str | Path | None = None
    max_entries: int = 10_000
    near_threshold: float = 0.92
    near_enabled: bool = True
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
        self._near = NearDuplicateIndex(self.near_threshold)
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

    # -- tier 1: exact ---------------------------------------------------------

    def get(self, key: CacheKey) -> LLMResponse | None:
        """Exact-tier lookup; a hit refreshes LRU recency."""
        with self._lock:
            response = self._entries.get(key)
            if response is None:
                self.stats.misses += 1
                if self.metrics is not None:
                    self.metrics.counter("cache.misses").inc()
                return None
            self._entries.move_to_end(key)
            self.stats.exact_hits += 1
            if self.metrics is not None:
                self.metrics.counter("cache.exact_hits").inc()
            return response

    def peek(self, key: CacheKey) -> bool:
        """Whether the exact tier holds ``key`` (no stats, no LRU touch)."""
        with self._lock:
            return key in self._entries

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
        """Drop one exact-tier entry (in-memory only); True if it existed.

        This is the scope-rollback hook: when a streaming shard attempt is
        abandoned (worker killed, lease lost mid-flight), the entries that
        attempt inserted must not survive it, or the retry would find its
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

    # -- tier 2: near duplicates --------------------------------------------------

    def get_near(self, key: CacheKey) -> tuple[LLMResponse, float] | None:
        """Near-duplicate lookup against the sealed snapshot."""
        if not self.near_enabled:
            return None
        with self._lock:
            found = self._near.lookup(key)
            if found is not None:
                self.stats.near_hits += 1
                if self.metrics is not None:
                    self.metrics.counter("cache.near_hits").inc()
            return found

    def has_any(self, key: CacheKey) -> bool:
        """Whether either tier can answer ``key`` (no stats counted).

        Used by the batched prefetch path to keep already-answerable
        prompts out of provider batches.
        """
        with self._lock:
            if key in self._entries:
                return True
            return self.near_enabled and self._near.lookup(key) is not None

    def seal(self) -> int:
        """Snapshot the current exact entries as the tier-2 candidate set.

        Called automatically after a journal load; callers that populate
        the cache programmatically invoke it to enable near lookups over
        what they inserted.  Returns the number of sealed entries.
        """
        with self._lock:
            self._near.build(self._entries.items())
            return len(self._near)

    # -- checkpoint support -----------------------------------------------------

    def state_digests(self) -> tuple[list[str], list[str]]:
        """``(exact, sealed)`` digest lists describing the current state.

        ``exact`` fingerprints the live exact-tier entries, ``sealed`` the
        tier-2 snapshot.  Recorded in a run checkpoint's header so resume
        can rebuild exactly this state via :meth:`restore_state`.
        """
        with self._lock:
            exact = sorted(key_digest(key) for key in self._entries)
            sealed = sorted(key_digest(key) for key in self._near.keys())
        return exact, sealed

    def restore_state(self, exact: Iterable[str], sealed: Iterable[str]) -> int:
        """Reconcile the cache back to a recorded :meth:`state_digests`.

        A crashed checkpointed run keeps appending to the cache journal
        right up to the kill, so a resume loads *more* entries than the
        original run had at its start — and serving those early would make
        the resumed report cheaper than the uninterrupted one instead of
        byte-identical.  This drops exact entries outside the recorded
        ``exact`` set and re-seals the near-duplicate snapshot from the
        subset recorded in ``sealed``.  Returns the number of entries
        dropped.  The journal file is left untouched (dropped entries stay
        replayable for later runs); only the in-memory state rewinds.
        """
        exact_set, sealed_set = set(exact), set(sealed)
        with self._lock:
            dropped = 0
            for key in list(self._entries):
                if key_digest(key) not in exact_set:
                    del self._entries[key]
                    dropped += 1
            self._near.build(
                [
                    (key, response)
                    for key, response in self._entries.items()
                    if key_digest(key) in sealed_set
                ]
            )
            if self.metrics is not None:
                self.metrics.gauge("cache.entries").set(len(self._entries))
        return dropped

    # -- maintenance ----------------------------------------------------------------

    def clear(self) -> None:
        """Drop all entries, the sealed snapshot and the journal contents."""
        with self._lock:
            self._entries.clear()
            self._near.build(())
            if self.journal is not None:
                self.journal.compact(())

    def compact(self) -> int:
        """Force a journal compaction; returns live lines written (0 if no journal)."""
        with self._lock:
            if self.journal is None:
                return 0
            return self.journal.compact(self._entries.items())

    def entries(self) -> list[tuple[CacheKey, LLMResponse]]:
        """A stable copy of the live entries (LRU order, oldest first)."""
        with self._lock:
            return list(self._entries.items())
