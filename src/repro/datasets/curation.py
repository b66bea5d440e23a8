"""Seeded synthetic corpus for the curation workload family.

:class:`CurationCorpus` is the corpus-level sibling of
:class:`repro.datasets.streaming.StreamingERCorpus`: a seeded,
*index-addressable* document generator with known ground truth for all
three curation tasks —

- **duplicate clusters**: a fraction of documents are mutated copies of an
  earlier canonical document (variant-token rewrites the knowledge
  normaliser can undo, sentence drops/swaps, typos);
- **quality tiers**: each cluster carries a latent quality score rendered
  into the text as monotone features (junk pseudo-words, boilerplate,
  truncated sentences), plus *decoy* features (legitimate ALL-CAPS brand
  shouts, spec numbers) that fool surface heuristics but not a
  vocabulary-aware judge;
- **planted contamination**: a fraction of documents splice in a sentence
  from a held-out :class:`CurationEvalSet`, either verbatim (caught by a
  raw n-gram scan) or disguised through normalisation-invertible rewrites
  (only the LLM adjudicator recovers those).

Determinism contract: every random decision is drawn from a
``stable_hash``-keyed stream scoped to the record (or cluster) it concerns —
there is **no** shared ``random.Random`` advanced in iteration order — so
``corpus.doc(i)`` is a pure function of ``(seed, name, i)`` and streaming
consumption equals materialised iteration, in any access order.  A stream
is read through ``random()`` and ``getrandbits()`` alone (see
:func:`repro._util.below`).

A corpus object derives each document once: ``doc`` memoises the frozen
:class:`CurationDoc` it returns, and a cluster's canonical content once for
all its duplicates.  The memo lives and dies with the corpus object; a
second object with the same identity derives equal documents afresh.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from random import Random
from typing import Callable, ClassVar, Iterator, Sequence

from repro._util import below, indexed_hash, stable_prefix
from repro.datasets.catalog import BEER_STYLES, BREWERY_WORDS, CUISINES

__all__ = [
    "CurationDoc",
    "CurationEvalSet",
    "CurationCorpus",
    "BOILERPLATE_PHRASES",
    "curation_vocabulary",
]


# ---------------------------------------------------------------------------
# Shared word material
# ---------------------------------------------------------------------------

#: Documents an example picker looks through at most.
_EXAMPLE_SCAN = 256

_ADJECTIVES = (
    "Old", "Double", "Dark", "Wild", "Lucky", "Iron", "Golden",
    "Rusty", "Smoky", "Velvet", "Hazy", "Raging", "Quiet", "Copper",
)
_NOUNS = (
    "Bastard", "Monk", "Ranger", "Trail", "Otter", "Moon", "Anvil",
    "Harvest", "Saint", "Heron", "Canyon", "Ember", "Compass", "Lantern",
)
_STREETS = ("Oak", "Maple", "Cedar", "Harbor", "Mill", "Canyon", "Juniper")
_CITIES = ("Portland", "Austin", "Koln", "Köln", "Lyon", "Osaka", "Madrid")

#: Marketing boilerplate the generator plants in low-quality documents.  The
#: list is *world knowledge*: the simulated LLM's quality skill recognises
#: these phrases, the cheap surface heuristics do not.
BOILERPLATE_PHRASES = (
    "click here to subscribe now",
    "buy now limited time offer",
    "visit our website for more great deals",
    "follow us on social media today",
    "sign up free shipping on all orders",
)

#: Normalisation-invertible surface variants: each pair's two forms collapse
#: to the same text under :func:`repro.text.normalize.normalize_text` (the
#: knowledge canonicaliser) but differ under a knowledge-free one.  The
#: duplicate mutator and the contamination disguiser flip between forms.
_VARIANT_PAIRS = (
    ("St.", "Street"),
    ("Ave.", "Avenue"),
    ("Blvd.", "Boulevard"),
    ("&", "and"),
    ("IPA", "india pale ale"),
    ("ESB", "extra special bitter"),
    ("Co.", "company"),
    ("Ltd.", "limited"),
    ("feat.", "featuring"),
    ("Köln", "Koln"),
    ("café", "cafe"),
    ("12oz", "12 fl oz"),
    ("330ml", "330 milliliters"),
)

_VARIANT_LOOKUP: dict[str, str] = {}
for _a, _b in _VARIANT_PAIRS:
    _VARIANT_LOOKUP[_a] = _b
    _VARIANT_LOOKUP[_b] = _a

#: Canonical-document sentence templates.  Every sentence carries at least
#: two cluster-specific slots, so two different clusters almost never share
#: a whole sentence — candidate hard negatives stay below the verifier's
#: match threshold while the shared scaffolding still collides enough
#: shingles to exercise LSH.  Module-level so :func:`curation_vocabulary`
#: can enumerate the generator's full word material.
_SENTENCE_TEMPLATES = (
    "The {subject} {style} pours a deep {color} with a dense {head} head.",
    "{brewery} {suffix} first brewed the {subject} at {number} {street} St. in {city}.",
    "Bottles of the {subject} ship in {volume} format at {abv} percent abv.",
    "The {brewery} taproom on {street} Ave. pairs the {style} with {cuisine} plates.",
    "Critics rate the {subject} at {score} points {amp} praise its {finish} finish.",
    "A {season} cask of the {subject} appears at the {city} harvest fair.",
    "{brewery} ages part of the {subject} blend in {wood} casks for {number} days.",
    "Cafés {amp} bistros near {street} Blvd. pour the {subject} {style} on rotation.",
    "The {subject} recipe leans on {malt} barley {amp} {hop} hops.",
    "The {subject} label art changes with every {season} release in {city}.",
)

#: Slot values without their own word list above (see ``_canonical_content``).
_SLOT_WORDS = (
    "amber", "mahogany", "copper", "garnet", "chestnut",  # colours
    "cream", "ivory", "mocha", "tan",  # heads
    "autumn", "winter", "spring", "midsummer",  # seasons
    "oak", "cherrywood", "acacia",  # woods
    "floor-malted", "kilned", "peated", "biscuit",  # malts
    "whole-cone", "cryo", "noble", "wet-picked",  # hops
    "dry", "resinous", "silky", "bracing",  # finishes
    "official", "spec", "series", "catalogue", "ref",  # decoy / ref lines
)

#: Question frames of :class:`CurationEvalSet` (for the vocabulary).
_EVAL_FRAME_WORDS = (
    "according", "census", "released", "batch", "survey", "brewed", "lot",
    "won", "tasting", "score", "why", "where", "what", "who", "which",
    "brewery", "from",
)

#: Generic sentences shared across clusters (see ``_canonical_content``).
_GENERIC_SENTENCES = (
    "Tasting notes mention stone fruit, pine resin & soft carbonation.",
    "The bottling line runs small batches with hand-applied wax seals.",
    "Cellar staff recommend serving it a few degrees below room temperature.",
    "Distribution stays regional & allocations sell out within the week.",
    "The head brewer trained at a century-old brewhouse in Köln.",
    "Growler fills are offered on weekends & holidays only.",
    "Visitors can tour the cellars on the first weekend of each month.",
    "A portion of proceeds supports the local watershed restoration fund.",
)

#: Beer styles a canonical document draws from (the catalogue's first two
#: spelled as the variant forms the mutator flips).
_CONTENT_STYLES = ("IPA", "ESB") + BEER_STYLES[2:]

_VOCAB_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


@functools.lru_cache(maxsize=1)
def curation_vocabulary() -> frozenset[str]:
    """Every lower-cased word the generator can legitimately emit.

    This is the simulated LLM's "knows English" stand-in: the quality skill
    treats long words outside this vocabulary as gibberish.  The planted
    junk pseudo-words are by construction never in it, while every template
    word, slot value, catalogue entry, variant form, boilerplate phrase and
    eval-frame word is.
    """
    words: set[str] = set()

    def add(text: str) -> None:
        for word in _VOCAB_WORD_RE.findall(text.lower()):
            words.add(word)

    for template in _SENTENCE_TEMPLATES:
        add(re.sub(r"\{\w+\}", " ", template))
    for source in (
        _GENERIC_SENTENCES,
        BOILERPLATE_PHRASES,
        _SLOT_WORDS,
        _EVAL_FRAME_WORDS,
        _ADJECTIVES,
        _NOUNS,
        _STREETS,
        _CITIES,
        BEER_STYLES,
        BREWERY_WORDS,
        CUISINES,
    ):
        for item in source:
            add(item)
    for a, b in _VARIANT_PAIRS:
        add(a)
        add(b)
    return frozenset(words)


_JUNK_SYLLABLES = (
    "brim", "flar", "gund", "plo", "snur", "trab", "quin", "dral",
    "vops", "zent", "mizz", "kelb", "phro", "wib",
)

_CONSONANTS = "bcdfgkmprstvz"
_VOWELS = "aeiou"


def _junk_word(rng: Random) -> str:
    """A plausible-looking pseudo-word no vocabulary contains."""
    bits = rng.getrandbits
    parts = [
        _JUNK_SYLLABLES[below(bits, len(_JUNK_SYLLABLES))]
        for _ in range(2 + below(bits, 2))
    ]
    if rng.random() < 0.4:
        parts.append(
            _CONSONANTS[below(bits, len(_CONSONANTS))] + _VOWELS[below(bits, len(_VOWELS))]
        )
    return "".join(parts)


def _sample(bits: Callable[[int], int], population: Sequence, k: int) -> list:
    """``random.Random.sample(population, k)`` for a small ``population``.

    The pool form that ``sample`` takes whenever the population is no
    larger than a ``k``-set: ``k`` partial Fisher-Yates draws.
    """
    pool = list(population)
    n = len(pool)
    picked = []
    for i in range(k):
        j = below(bits, n - i)
        picked.append(pool[j])
        pool[j] = pool[n - i - 1]
    return picked


def _typo_word(word: str, rng: Random) -> str:
    """One character-level typo (swap/drop/double) in ``word``."""
    if len(word) < 4:
        return word
    i = 1 + below(rng.getrandbits, len(word) - 2)
    mode = rng.random()
    if mode < 0.34:
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    if mode < 0.67:
        return word[:i] + word[i + 1 :]
    return word[:i] + word[i] + word[i:]


#: Each per-record stream's tag as :func:`~repro._util.stable_prefix` bytes.
_TAGS = {
    tag: stable_prefix(tag)
    for tag in (
        "eval", "code", "dup", "pick", "contam", "content", "mutate",
        "evalpick", "disguise", "slot",
    )
}


def _key(prefix: bytes, tag: str, index: int) -> int:
    """``stable_hash(seed, name, tag, index)`` for ``prefix == stable_prefix(seed, name)``.

    The seed of one record's stream (or its one hashed decision).
    """
    return indexed_hash(prefix + _TAGS[tag], index)

#: ``stable_hash`` scale: a 64-bit hash over this is a unit float.
_UNIT = float(1 << 64)


# ---------------------------------------------------------------------------
# Held-out eval set (decontamination target)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurationEvalSet:
    """A small held-out benchmark whose items must not leak into the corpus.

    Items are single question sentences over the same domain vocabulary as
    the corpus (so accidental n-gram collisions exist, which is what makes
    the decontamination scan's gray zone non-empty).  Every item embeds at
    least two variant tokens, so a disguised splice can break *all* of its
    raw 8-grams while remaining fully recoverable under the knowledge
    normaliser.
    """

    size: int
    seed: int | str = 7
    name: str = "curation-eval"
    #: ``stable_prefix(seed, name)``, joined once (see ``_TAGS``)
    _prefix: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("eval set size must be positive")
        object.__setattr__(self, "_prefix", stable_prefix(self.seed, self.name))

    def __len__(self) -> int:
        return self.size

    @property
    def fingerprint(self) -> str:
        return f"curation-eval:{self.name}:{self.seed}:{self.size}"

    def item(self, index: int) -> str:
        """Derive eval question ``index``; pure function of the identity."""
        if not 0 <= index < self.size:
            raise IndexError(f"eval index {index} out of range [0, {self.size})")
        bits = Random(_key(self._prefix, "eval", index)).getrandbits
        year = 1958 + below(bits, 2014 - 1958 + 1)
        subject = (
            f"{_ADJECTIVES[below(bits, len(_ADJECTIVES))]} "
            f"{_NOUNS[below(bits, len(_NOUNS))]}"
        )
        style = ("IPA", "ESB", "Porter", "Stout")[below(bits, 4)]
        street = _STREETS[below(bits, len(_STREETS))]
        code = 1000 + _key(self._prefix, "code", index) % 9000
        frames = (
            f"according to the {year} {street} St. census which brewery "
            f"released the {subject} {style} batch {code} & why",
            f"in the {year} survey on {street} Ave. who brewed the "
            f"{subject} {style} lot {code} & where",
            f"which {subject} {style} from batch {code} won the {year} "
            f"{street} Blvd. tasting & what score",
        )
        return f"Q{index}: {frames[below(bits, 3)]}?"

    def items(self) -> Iterator[str]:
        for index in range(self.size):
            yield self.item(index)


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CurationDoc:
    """One corpus document with its full ground truth."""

    index: int
    doc_id: str
    text: str
    #: index of the cluster's canonical document (== ``index`` if canonical)
    cluster: int
    #: True when this document is a mutated copy of an earlier canonical one
    is_duplicate: bool
    #: latent quality score in [0, 1] (shared by the whole cluster)
    quality: float
    #: gold keep/drop label for the quality filter (``quality >= 0.5``)
    keep: bool
    #: True when an eval-set sentence was spliced into the text
    contaminated: bool
    #: index of the spliced eval item (-1 when clean)
    eval_index: int

    def record(self) -> dict:
        """Pipeline-input view (``id``/``text`` only; no labels leak)."""
        return {"id": self.doc_id, "text": self.text}


@dataclass(frozen=True)
class CurationCorpus:
    """Seeded, index-addressable corpus with planted curation ground truth.

    Parameters
    ----------
    n_docs:
        Corpus size; document ``i`` is a pure function of
        ``(seed, name, i)``.
    """

    n_docs: int
    seed: int | str = 7
    name: ClassVar[str] = "curation"
    #: probability that document ``i >= dup_floor`` is a mutated copy of an
    #: earlier canonical document
    dup_fraction: ClassVar[float] = 0.28
    #: probability that a document splices in an eval-set sentence
    contamination_fraction: ClassVar[float] = 0.10
    #: size of the paired held-out :class:`CurationEvalSet`
    eval_size: ClassVar[int] = 32
    #: first index eligible to be a duplicate (guarantees canonical targets)
    dup_floor: ClassVar[int] = 8
    #: ``stable_prefix(seed, name)``, joined once (see ``_TAGS``)
    _prefix: bytes = field(init=False, repr=False, compare=False)
    #: documents derived so far, by index (see :meth:`doc`)
    _docs: dict[int, CurationDoc] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: canonical ``(sentences, quality)`` derived so far, by cluster
    _contents: dict[int, tuple[tuple[str, ...], float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_docs < 0:
            raise ValueError("n_docs must be non-negative")
        object.__setattr__(self, "_prefix", stable_prefix(self.seed, self.name))

    def __len__(self) -> int:
        return self.n_docs

    @property
    def fingerprint(self) -> str:
        """Stable identity string (recorded in streaming ledger headers)."""
        return (
            f"curation:{self.name}:{self.seed}:{self.n_docs}:"
            f"{self.dup_fraction}:{self.contamination_fraction}:{self.eval_size}"
        )

    @property
    def eval_set(self) -> CurationEvalSet:
        return CurationEvalSet(size=self.eval_size, seed=self.seed, name=f"{self.name}-eval")

    # -- per-index structure (all pure functions of the identity) --------------

    def _is_duplicate_index(self, index: int) -> bool:
        if index < self.dup_floor:
            return False
        return _key(self._prefix, "dup", index) / _UNIT < self.dup_fraction

    def _cluster_of(self, index: int) -> int:
        """Canonical index of document ``index``'s cluster.

        Duplicates point backwards to a nearby canonical document; the
        search is a bounded, per-index seeded probe (no global state), so
        cluster structure is identical in any access order.
        """
        if not self._is_duplicate_index(index):
            return index
        bits = Random(_key(self._prefix, "pick", index)).getrandbits
        low = max(0, index - 64)
        for _ in range(24):
            j = low + below(bits, index - low)
            if not self._is_duplicate_index(j):
                return j
        for j in range(index - 1, -1, -1):
            if not self._is_duplicate_index(j):
                return j
        return 0  # unreachable: indices below dup_floor are canonical

    def _is_contaminated_index(self, index: int) -> bool:
        return _key(self._prefix, "contam", index) / _UNIT < self.contamination_fraction

    # -- canonical content ------------------------------------------------------

    def _canonical_content(self, cluster: int) -> tuple[list[str], float]:
        """``(sentences, quality)`` of a cluster's canonical document."""
        rng = Random(_key(self._prefix, "content", cluster))
        bits, random = rng.getrandbits, rng.random
        quality = random()
        subject = (
            f"{_ADJECTIVES[below(bits, len(_ADJECTIVES))]} "
            f"{_NOUNS[below(bits, len(_NOUNS))]}"
        )
        style = _CONTENT_STYLES[below(bits, len(_CONTENT_STYLES))]
        brewery = BREWERY_WORDS[below(bits, len(BREWERY_WORDS))]
        cuisine = CUISINES[below(bits, len(CUISINES))].lower()
        street = _STREETS[below(bits, len(_STREETS))]
        city = _CITIES[below(bits, len(_CITIES))]
        number = 4 + below(bits, 96 - 4 + 1)
        abv = f"{4.0 + 7.0 * random():.1f}"
        volume = ("12oz", "330ml")[below(bits, 2)]
        suffix = ("Co.", "Ltd.")[below(bits, 2)]
        amp = ("&", "and")[below(bits, 2)]
        color = ("amber", "mahogany", "copper", "garnet", "chestnut")[below(bits, 5)]
        head = ("cream", "ivory", "mocha", "tan")[below(bits, 4)]
        season = ("autumn", "winter", "spring", "midsummer")[below(bits, 4)]
        wood = ("oak", "cherrywood", "acacia", "chestnut")[below(bits, 4)]
        malt = ("floor-malted", "kilned", "peated", "biscuit")[below(bits, 4)]
        hop = ("whole-cone", "cryo", "noble", "wet-picked")[below(bits, 4)]
        finish = ("dry", "resinous", "silky", "bracing")[below(bits, 4)]
        score = 81 + below(bits, 99 - 81 + 1)

        slots = {
            "subject": subject,
            "style": style,
            "brewery": brewery,
            "cuisine": cuisine,
            "street": street,
            "city": city,
            "number": number,
            "abv": abv,
            "volume": volume,
            "suffix": suffix,
            "amp": amp,
            "color": color,
            "head": head,
            "season": season,
            "wood": wood,
            "malt": malt,
            "hop": hop,
            "finish": finish,
            "score": score,
        }
        # ``sample`` draws by position alone, so picking positions and
        # formatting only those equals sampling the formatted pool.
        n_templates = len(_SENTENCE_TEMPLATES)
        n_sentences = 6 + below(bits, min(9, n_templates) - 5)
        sentences = [
            _SENTENCE_TEMPLATES[position].format_map(slots)
            for position in _sample(bits, range(n_templates), n_sentences)
        ]
        # Up to three *generic* sentences from a small shared pool: different
        # clusters can share these verbatim, which pushes negative-pair raw
        # Jaccard into the LSH candidate band — the hard negatives the LLM
        # verifier must reject.
        generic = _sample(bits, _GENERIC_SENTENCES, 1 + below(bits, 3))
        for sentence in generic:
            sentences.insert(below(bits, len(sentences) + 1), sentence)

        # Quality features: monotone in (1 - quality), plus decoys on the
        # high end so surface heuristics have genuine failure modes.
        junk_count = int(max(0.0, 0.55 - quality) * 16.0 * (0.7 + 0.6 * random()))
        for _ in range(junk_count):
            target = below(bits, len(sentences))
            words = sentences[target].split()
            words.insert(1 + below(bits, len(words) - 1), _junk_word(rng))
            sentences[target] = " ".join(words)
        if quality < 0.55 and random() < (0.85 - quality):
            sentences.insert(
                below(bits, len(sentences) + 1),
                BOILERPLATE_PHRASES[below(bits, len(BOILERPLATE_PHRASES))].capitalize()
                + ".",
            )
        if quality < 0.5:
            # Spammy repetition: one sentence appears twice.
            if random() < (0.6 - quality) * 1.4:
                victim = sentences[below(bits, len(sentences))]
                sentences.insert(below(bits, len(sentences) + 1), victim)
        if quality < 0.45:
            # Scrape damage: truncated fragments and dropped terminal
            # punctuation (run-on text is the classic surface tell).
            if random() < 0.7:
                target = below(bits, len(sentences))
                words = sentences[target].split()
                sentences[target] = " ".join(words[: max(3, len(words) // 2)])
            for target in range(len(sentences)):
                if sentences[target].endswith(".") and random() < (0.52 - quality):
                    sentences[target] = sentences[target][:-1]
        if quality >= 0.6 and random() < 0.35:
            sentences.insert(
                below(bits, len(sentences) + 1),
                f"{brewery.upper()} OFFICIAL SPEC {10000 + below(bits, 99999 - 10000 + 1)} "
                f"SERIES {number}.",
            )
        return sentences, quality

    def _cluster_content(self, cluster: int) -> tuple[tuple[str, ...], float]:
        """:meth:`_canonical_content`, derived once per cluster."""
        content = self._contents.get(cluster)
        if content is None:
            sentences, quality = self._canonical_content(cluster)
            content = self._contents.setdefault(cluster, (tuple(sentences), quality))
        return content

    # -- mutation and contamination ---------------------------------------------

    @staticmethod
    def _mutate(sentences: list[str], rng: Random) -> list[str]:
        """A near-duplicate view: variant flips, drop/swap, a typo or two."""
        bits, random = rng.getrandbits, rng.random
        out = list(sentences)
        # A *disguised* duplicate is aggressively rewritten: it flips
        # essentially every variant token, drops more sentences and takes
        # more typos, dragging its knowledge-free shingle overlap down into
        # the band where hard negatives live — while the LLM's normaliser
        # still maps both copies to (nearly) the same canonical text.  A
        # raw-similarity threshold cannot separate these from negatives; the
        # knowledge path can.
        disguised = random() < 0.4
        drops = 1 if (disguised or random() < 0.35) else 0
        for _ in range(drops):
            if len(out) > 4:
                out.pop(below(bits, len(out)))
        if disguised:
            # A re-scraped page carries different boilerplate: swap one shared
            # generic sentence for another from the pool.
            present = [i for i, s in enumerate(out) if s in _GENERIC_SENTENCES]
            if present:
                slot = present[below(bits, len(present))]
                others = [g for g in _GENERIC_SENTENCES if g != out[slot]]
                out[slot] = others[below(bits, len(others))]
        if len(out) > 2 and random() < 0.4:
            i = below(bits, len(out) - 1)
            out[i], out[i + 1] = out[i + 1], out[i]
        flip_probability = 0.95 if disguised else 0.6
        mutated: list[str] = []
        for sentence in out:
            words = sentence.split()
            for w, word in enumerate(words):
                stripped = word.rstrip(".,?!")
                if stripped in _VARIANT_LOOKUP and random() < flip_probability:
                    words[w] = _VARIANT_LOOKUP[stripped] + word[len(stripped) :]
            mutated.append(" ".join(words))
        typos = below(bits, 3) if disguised else (1 if random() < 0.5 else 0)
        for _ in range(typos):
            target = below(bits, len(mutated))
            words = mutated[target].split()
            w = below(bits, len(words))
            words[w] = _typo_word(words[w], rng)
            mutated[target] = " ".join(words)
        return mutated

    @staticmethod
    def _disguise(sentence: str, rng: Random) -> str:
        """Rewrite of an eval sentence that breaks every clean 8-gram.

        Variant flips plus a typo roughly every fifth word guarantee no
        8-token window survives verbatim, so the *hard* n-gram scan goes
        blind; enough 4-token windows survive that the *soft* scan still
        raises a borderline flag for the LLM to adjudicate.
        """
        random = rng.random
        words = sentence.split()
        for w, word in enumerate(words):
            stripped = word.rstrip(".,?!")
            tail = word[len(stripped) :]
            if stripped in _VARIANT_LOOKUP and random() < 0.85:
                words[w] = _VARIANT_LOOKUP[stripped] + tail
            elif random() < 0.18:
                words[w] = _typo_word(stripped, rng) + tail
        return " ".join(words)

    # -- the document ------------------------------------------------------------

    def doc(self, index: int) -> CurationDoc:
        """Document ``index``, derived once per corpus object.

        The first call derives it (deterministically) and keeps it; later
        calls return that same object.  Two threads racing on one index may
        both derive it, into equal documents, and both get the one kept.
        """
        known = self._docs.get(index)
        if known is not None:
            return known
        if not 0 <= index < self.n_docs:
            raise IndexError(f"doc index {index} out of range [0, {self.n_docs})")
        cluster = self._cluster_of(index)
        content, quality = self._cluster_content(cluster)
        sentences = list(content)
        is_duplicate = cluster != index
        if is_duplicate:
            sentences = self._mutate(sentences, Random(_key(self._prefix, "mutate", index)))
        contaminated = self._is_contaminated_index(index)
        eval_index = -1
        if contaminated:
            eval_index = _key(self._prefix, "evalpick", index) % self.eval_size
            splice = self.eval_set.item(eval_index)
            rng = Random(_key(self._prefix, "disguise", index))
            if rng.random() < 0.55:
                splice = self._disguise(splice, rng)
            position = _key(self._prefix, "slot", index) % (len(sentences) + 1)
            sentences = sentences[:position] + [splice] + sentences[position:]
        doc_id = f"D{index:07d}"
        # A per-document reference sentence keeps every rendered prompt
        # corpus-unique — the streaming executor's rollback of a failed
        # attempt relies on that (see repro.core.runtime.workqueue).
        text = " ".join(sentences + [f"Catalogue ref {doc_id}."])
        derived = CurationDoc(
            index=index,
            doc_id=doc_id,
            text=text,
            cluster=cluster,
            is_duplicate=is_duplicate,
            quality=quality,
            keep=quality >= 0.5,
            contaminated=contaminated,
            eval_index=eval_index,
        )
        return self._docs.setdefault(index, derived)

    # -- streaming views ---------------------------------------------------------

    def __iter__(self) -> Iterator[CurationDoc]:
        for index in range(self.n_docs):
            yield self.doc(index)

    def inputs(self) -> Iterator[dict]:
        """Lazy pipeline-input view: ``{"id", "text"}`` dicts."""
        for doc in self:
            yield doc.record()

    def materialize(self) -> list[CurationDoc]:
        """All documents as a list (tests and small batch runs)."""
        return list(self)

    # -- few-shot example pickers -------------------------------------------------

    def dedup_examples(self, k: int = 4) -> list[tuple[tuple, bool]]:
        """Balanced duplicate/non-duplicate record-pair examples.

        Positives pair a duplicate with its cluster canonical; negatives
        pair two nearby canonicals.  Found by a bounded forward scan (the
        :meth:`StreamingERCorpus.examples` idiom): at most 256 documents.
        """
        positives: list[tuple[dict, dict]] = []
        negatives: list[tuple[dict, dict]] = []
        need = (k + 1) // 2
        previous_canonical: CurationDoc | None = None
        for index in range(min(_EXAMPLE_SCAN, self.n_docs)):
            doc = self.doc(index)
            if doc.is_duplicate and len(positives) < need:
                positives.append((self.doc(doc.cluster).record(), doc.record()))
            elif not doc.is_duplicate:
                if previous_canonical is not None and len(negatives) < need:
                    negatives.append((previous_canonical.record(), doc.record()))
                previous_canonical = doc
            if len(positives) >= need and len(negatives) >= need:
                break
        chosen: list[tuple[tuple, bool]] = []
        for index in range(k):
            source, label = (positives, True) if index % 2 == 0 else (negatives, False)
            if index // 2 < len(source):
                chosen.append((source[index // 2], label))
        return chosen

    def decontamination_examples(self, k: int = 4) -> list[tuple[dict, str, bool]]:
        """Balanced ``(document, eval item, leaked?)`` adjudication examples.

        Positives pair a contaminated document with the eval item actually
        spliced into it; negatives pair a clean document with an arbitrary
        (deterministically chosen) eval item.
        """
        positives: list[tuple[dict, str, bool]] = []
        negatives: list[tuple[dict, str, bool]] = []
        need = (k + 1) // 2
        for index in range(min(_EXAMPLE_SCAN, self.n_docs)):
            doc = self.doc(index)
            if doc.contaminated and len(positives) < need:
                positives.append(
                    (doc.record(), self.eval_set.item(doc.eval_index), True)
                )
            elif not doc.contaminated and len(negatives) < need:
                negatives.append(
                    (doc.record(), self.eval_set.item(index % self.eval_size), False)
                )
            if len(positives) >= need and len(negatives) >= need:
                break
        chosen: list[tuple[dict, str, bool]] = []
        for index in range(k):
            source = positives if index % 2 == 0 else negatives
            if index // 2 < len(source):
                chosen.append(source[index // 2])
        return chosen

    def quality_examples(self, k: int = 4) -> list[tuple[dict, bool]]:
        """Balanced keep/drop document examples for the quality teacher."""
        keeps: list[CurationDoc] = []
        drops: list[CurationDoc] = []
        need = (k + 1) // 2
        for index in range(min(_EXAMPLE_SCAN, self.n_docs)):
            doc = self.doc(index)
            bucket = keeps if doc.keep else drops
            if len(bucket) < need:
                bucket.append(doc)
            if len(keeps) >= need and len(drops) >= need:
                break
        chosen: list[tuple[dict, bool]] = []
        for index in range(k):
            source, label = (keeps, True) if index % 2 == 0 else (drops, False)
            if index // 2 < len(source):
                chosen.append((source[index // 2].record(), label))
        return chosen
