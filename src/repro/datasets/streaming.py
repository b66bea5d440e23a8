"""Index-addressable synthetic ER corpus for out-of-core streaming runs.

:func:`repro.datasets.entity_resolution.generate_er_dataset` materializes
every entity and pair up front, which is exactly what a memory-bounded
streaming benchmark must not do.  :class:`StreamingERCorpus` is the
out-of-core counterpart: a *seeded, index-addressable* pair generator —
``corpus.pair(i)`` derives pair ``i`` in O(1) memory from
``(seed, name, i)`` alone, so a million-pair corpus occupies a few dozen
bytes until iterated and re-yields byte-identical pairs on every pass.
That re-iterability is what lets a durable streaming resume rebuild shard
inputs by skipping the source forward instead of persisting them.  A
pair's stream is read through ``random()`` and ``getrandbits()`` alone
(see :func:`repro._util.below`).

Every record carries an index-derived ``lot`` attribute, which makes each
pair's rendered prompt unique across the corpus.  That is deliberate: the
streaming executor's byte-identity guarantee under *shard retries* relies on
a failed shard attempt's cache inserts being removable without another
in-flight shard having already consumed them, which prompt-uniqueness makes
structural (see ``repro.core.runtime.workqueue``).  Process-crash resume
has no such requirement.

The domain mirrors the ``beer`` profile of the batch generator (style-name
rewrites, brewery suffix churn, ABV drift, typos) and reuses its corruption
helpers, so matcher prompts look the same in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import ClassVar, Iterator

from repro._util import below, indexed_hash, stable_prefix
from repro.datasets.catalog import BEER_STYLES, BREWERY_WORDS
from repro.datasets.entity_resolution import (
    _BREWERY_SUFFIXES,
    _STYLE_REWRITES,
    _typo,
    RecordPair,
)

__all__ = ["StreamingERCorpus"]

_ADJECTIVES = (
    "Old", "Double", "Dark", "Wild", "Lucky", "Iron", "Golden",
    "Rusty", "Smoky", "Velvet", "Arrogant", "Hazy", "Raging",
)
_NOUNS = (
    "Bastard", "Monk", "Ranger", "Trail", "Otter", "Moon", "Anvil",
    "Harvest", "Saint", "Heron", "Canyon", "Ember", "Compass",
)


@dataclass(frozen=True)
class StreamingERCorpus:
    """A seeded, O(1)-memory entity-resolution pair stream.

    Parameters
    ----------
    n_pairs:
        Corpus size; one labelled candidate pair per index in
        ``range(n_pairs)``.
    seed:
        With ``name``, the corpus identity: every pair is a pure function
        of ``(seed, name, index)``.  ``fingerprint`` folds them into a
        stable string for the shard ledger's run header.
    """

    n_pairs: int
    seed: int | str = 7
    #: probability that pair ``i`` is a true match (label 1)
    match_fraction: ClassVar[float] = 0.4
    name: ClassVar[str] = "stream-beer"
    #: ``stable_prefix(seed, name, "pair")``: what every pair's seed hash
    #: starts with, joined once per corpus
    _prefix: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n_pairs < 0:
            raise ValueError("n_pairs must be non-negative")
        object.__setattr__(self, "_prefix", stable_prefix(self.seed, self.name, "pair"))

    def __len__(self) -> int:
        return self.n_pairs

    @property
    def fingerprint(self) -> str:
        """Stable identity string (recorded in streaming ledger headers)."""
        return (
            f"streaming-er:{self.name}:{self.seed}:"
            f"{self.n_pairs}:{self.match_fraction}"
        )

    # -- pair derivation ---------------------------------------------------------

    @staticmethod
    def _entity(rng: Random, lot: str) -> dict:
        bits = rng.getrandbits
        style = BEER_STYLES[below(bits, len(BEER_STYLES))]
        adjective = _ADJECTIVES[below(bits, len(_ADJECTIVES))]
        noun = _NOUNS[below(bits, len(_NOUNS))]
        brewery = BREWERY_WORDS[below(bits, len(BREWERY_WORDS))]
        return {
            "name": f"{adjective} {noun} {style}",
            "brewery": f"{brewery} {_BREWERY_SUFFIXES[0]}",
            "style": style,
            "abv": f"{4.0 + 7.0 * rng.random():.1f}%",
            "lot": lot,
        }

    @staticmethod
    def _corrupt(entity: dict, rng: Random) -> dict:
        """A dirty second view of ``entity`` (the matching right side)."""
        random = rng.random
        dirty = dict(entity)
        style = dirty["style"]
        if style in _STYLE_REWRITES and random() < 0.6:
            rewritten = _STYLE_REWRITES[style]
            dirty["style"] = rewritten
            dirty["name"] = dirty["name"].replace(style, rewritten)
        if random() < 0.5:
            base = dirty["brewery"].removesuffix(" " + _BREWERY_SUFFIXES[0])
            suffix = _BREWERY_SUFFIXES[below(rng.getrandbits, len(_BREWERY_SUFFIXES))]
            dirty["brewery"] = f"{base} {suffix}"
        if random() < 0.4:
            dirty["abv"] = f"{float(dirty['abv'].rstrip('%')) + 0.1:.1f}%"
        if random() < 0.5:
            dirty["name"] = _typo(dirty["name"], rng)
        return dirty

    def pair(self, index: int) -> RecordPair:
        """Derive pair ``index`` from scratch; O(1) memory, deterministic."""
        if not 0 <= index < self.n_pairs:
            raise IndexError(f"pair index {index} out of range [0, {self.n_pairs})")
        rng = Random(indexed_hash(self._prefix, index))
        label = 1 if rng.random() < self.match_fraction else 0
        lot = f"LOT-{index:08d}"
        left = self._entity(rng, lot)
        if label:
            right = self._corrupt(left, rng)
        else:
            # A blocking-style hard negative: same style, different entity
            # (and its own lot, so the rendered prompt stays corpus-unique).
            right = self._entity(rng, f"{lot}-B")
            right["style"] = left["style"]
        return RecordPair(
            left=left, right=right, label=label, pair_id=f"{self.name}-{index}"
        )

    # -- streaming views ---------------------------------------------------------

    def __iter__(self) -> Iterator[RecordPair]:
        for index in range(self.n_pairs):
            yield self.pair(index)

    def inputs(self) -> Iterator[dict]:
        """Lazy pipeline-input view: ``{"left", "right"}`` dicts, one per pair."""
        for pair in self:
            yield {"left": pair.left, "right": pair.right}

    def labels(self) -> Iterator[int]:
        """Lazy gold labels, aligned with :meth:`inputs`.

        A label is a pair's first draw, so nothing after it is derived.
        """
        prefix, match_fraction = self._prefix, self.match_fraction
        for index in range(self.n_pairs):
            yield 1 if Random(indexed_hash(prefix, index)).random() < match_fraction else 0

    def examples(self) -> list[tuple[tuple, bool]]:
        """Four balanced few-shot examples drawn from the first 512 pairs.

        The streaming analogue of
        :func:`repro.tasks.entity_resolution.pick_examples`: alternating
        positive/negative examples, found by a bounded forward scan so no
        split ever needs materializing.
        """
        positives: list[RecordPair] = []
        negatives: list[RecordPair] = []
        need = 2
        for index in range(min(512, self.n_pairs)):
            pair = self.pair(index)
            bucket = positives if pair.label else negatives
            if len(bucket) < need:
                bucket.append(pair)
            if len(positives) >= need and len(negatives) >= need:
                break
        chosen: list[RecordPair] = []
        for index in range(4):
            source = positives if index % 2 == 0 else negatives
            if index // 2 < len(source):
                chosen.append(source[index // 2])
        return [((p.left, p.right), bool(p.label)) for p in chosen]
