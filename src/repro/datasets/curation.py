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

Determinism contract (the ISSUE's generator fix): every random decision is
drawn from a ``stable_hash``-keyed stream scoped to the record (or cluster)
it concerns — there is **no** shared ``random.Random`` advanced in
iteration order — so ``corpus.doc(i)`` is a pure function of
``(seed, name, i)`` and streaming consumption equals materialised
iteration, in any access order.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator

from repro._util import seeded_rng, stable_hash, stable_unit

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
    from repro.datasets.catalog import BEER_STYLES, BREWERY_WORDS, CUISINES

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


def _junk_word(rng) -> str:
    """A plausible-looking pseudo-word no vocabulary contains."""
    parts = [rng.choice(_JUNK_SYLLABLES) for _ in range(rng.randint(2, 3))]
    if rng.random() < 0.4:
        parts.append(rng.choice(_CONSONANTS) + rng.choice(_VOWELS))
    return "".join(parts)


def _typo_word(word: str, rng) -> str:
    """One character-level typo (swap/drop/double) in ``word``."""
    if len(word) < 4:
        return word
    i = rng.randrange(1, len(word) - 1)
    mode = rng.random()
    if mode < 0.34:
        return word[:i] + word[i + 1] + word[i] + word[i + 2 :]
    if mode < 0.67:
        return word[:i] + word[i + 1 :]
    return word[:i] + word[i] + word[i:]


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

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("eval set size must be positive")

    def __len__(self) -> int:
        return self.size

    @property
    def fingerprint(self) -> str:
        return f"curation-eval:{self.name}:{self.seed}:{self.size}"

    def item(self, index: int) -> str:
        """Derive eval question ``index``; pure function of the identity."""
        if not 0 <= index < self.size:
            raise IndexError(f"eval index {index} out of range [0, {self.size})")
        rng = seeded_rng(stable_hash(self.seed, self.name, "eval", index))
        year = rng.randint(1958, 2014)
        subject = f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)}"
        style = rng.choice(("IPA", "ESB", "Porter", "Stout"))
        street = rng.choice(_STREETS)
        code = 1000 + (stable_hash(self.seed, self.name, "code", index) % 9000)
        frames = (
            f"according to the {year} {street} St. census which brewery "
            f"released the {subject} {style} batch {code} & why",
            f"in the {year} survey on {street} Ave. who brewed the "
            f"{subject} {style} lot {code} & where",
            f"which {subject} {style} from batch {code} won the {year} "
            f"{street} Blvd. tasting & what score",
        )
        return f"Q{index}: {rng.choice(frames)}?"

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
    dup_fraction:
        Probability that document ``i >= dup_floor`` is a mutated copy of
        an earlier canonical document.
    contamination_fraction:
        Probability that a document splices in an eval-set sentence.
    eval_size:
        Size of the paired held-out :class:`CurationEvalSet`.
    """

    n_docs: int
    seed: int | str = 7
    name: str = "curation"
    dup_fraction: float = 0.28
    contamination_fraction: float = 0.10
    eval_size: int = 32
    #: first index eligible to be a duplicate (guarantees canonical targets)
    dup_floor: int = 8

    def __post_init__(self) -> None:
        if self.n_docs < 0:
            raise ValueError("n_docs must be non-negative")
        if not 0.0 <= self.dup_fraction <= 1.0:
            raise ValueError("dup_fraction must be in [0, 1]")
        if not 0.0 <= self.contamination_fraction <= 1.0:
            raise ValueError("contamination_fraction must be in [0, 1]")

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
        return stable_unit(self.seed, self.name, "dup", index) < self.dup_fraction

    def _cluster_of(self, index: int) -> int:
        """Canonical index of document ``index``'s cluster.

        Duplicates point backwards to a nearby canonical document; the
        search is a bounded, per-index seeded probe (no global state), so
        cluster structure is identical in any access order.
        """
        if not self._is_duplicate_index(index):
            return index
        rng = seeded_rng(stable_hash(self.seed, self.name, "pick", index))
        low = max(0, index - 64)
        for _ in range(24):
            j = rng.randrange(low, index)
            if not self._is_duplicate_index(j):
                return j
        for j in range(index - 1, -1, -1):
            if not self._is_duplicate_index(j):
                return j
        return 0  # unreachable: indices below dup_floor are canonical

    def _is_contaminated_index(self, index: int) -> bool:
        return (
            stable_unit(self.seed, self.name, "contam", index)
            < self.contamination_fraction
        )

    # -- canonical content ------------------------------------------------------

    def _canonical_content(self, cluster: int) -> tuple[list[str], float]:
        """``(sentences, quality)`` of a cluster's canonical document."""
        from repro.datasets.catalog import BEER_STYLES, BREWERY_WORDS, CUISINES

        rng = seeded_rng(stable_hash(self.seed, self.name, "content", cluster))
        quality = rng.random()
        subject = f"{rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)}"
        style = rng.choice(("IPA", "ESB") + BEER_STYLES[2:])
        brewery = rng.choice(BREWERY_WORDS)
        cuisine = rng.choice(CUISINES).lower()
        street = rng.choice(_STREETS)
        city = rng.choice(_CITIES)
        number = rng.randint(4, 96)
        abv = f"{rng.uniform(4.0, 11.0):.1f}"
        volume = rng.choice(("12oz", "330ml"))
        suffix = rng.choice(("Co.", "Ltd."))
        amp = rng.choice(("&", "and"))
        color = rng.choice(("amber", "mahogany", "copper", "garnet", "chestnut"))
        head = rng.choice(("cream", "ivory", "mocha", "tan"))
        season = rng.choice(("autumn", "winter", "spring", "midsummer"))
        wood = rng.choice(("oak", "cherrywood", "acacia", "chestnut"))
        malt = rng.choice(("floor-malted", "kilned", "peated", "biscuit"))
        hop = rng.choice(("whole-cone", "cryo", "noble", "wet-picked"))
        finish = rng.choice(("dry", "resinous", "silky", "bracing"))
        score = rng.randint(81, 99)

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
        pool = [template.format(**slots) for template in _SENTENCE_TEMPLATES]
        n_sentences = rng.randint(6, min(9, len(pool)))
        sentences = rng.sample(pool, n_sentences)
        # Up to three *generic* sentences from a small shared pool: different
        # clusters can share these verbatim, which pushes negative-pair raw
        # Jaccard into the LSH candidate band — the hard negatives the LLM
        # verifier must reject.
        generic = rng.sample(_GENERIC_SENTENCES, rng.randint(1, 3))
        for sentence in generic:
            sentences.insert(rng.randrange(len(sentences) + 1), sentence)

        # Quality features: monotone in (1 - quality), plus decoys on the
        # high end so surface heuristics have genuine failure modes.
        junk_count = int(max(0.0, 0.55 - quality) * 16.0 * (0.7 + 0.6 * rng.random()))
        for _ in range(junk_count):
            target = rng.randrange(len(sentences))
            words = sentences[target].split()
            words.insert(rng.randrange(1, len(words)), _junk_word(rng))
            sentences[target] = " ".join(words)
        if quality < 0.55 and rng.random() < (0.85 - quality):
            sentences.insert(
                rng.randrange(len(sentences) + 1),
                rng.choice(BOILERPLATE_PHRASES).capitalize() + ".",
            )
        if quality < 0.5:
            # Spammy repetition: one sentence appears twice.
            if rng.random() < (0.6 - quality) * 1.4:
                victim = rng.choice(sentences)
                sentences.insert(rng.randrange(len(sentences) + 1), victim)
        if quality < 0.45:
            # Scrape damage: truncated fragments and dropped terminal
            # punctuation (run-on text is the classic surface tell).
            if rng.random() < 0.7:
                target = rng.randrange(len(sentences))
                words = sentences[target].split()
                sentences[target] = " ".join(words[: max(3, len(words) // 2)])
            for target in range(len(sentences)):
                if sentences[target].endswith(".") and rng.random() < (0.52 - quality):
                    sentences[target] = sentences[target][:-1]
        if quality >= 0.6 and rng.random() < 0.35:
            sentences.insert(
                rng.randrange(len(sentences) + 1),
                f"{brewery.upper()} OFFICIAL SPEC {rng.randint(10000, 99999)} "
                f"SERIES {number}.",
            )
        return sentences, quality

    # -- mutation and contamination ---------------------------------------------

    @staticmethod
    def _mutate(sentences: list[str], rng) -> list[str]:
        """A near-duplicate view: variant flips, drop/swap, a typo or two."""
        out = list(sentences)
        # A *disguised* duplicate is aggressively rewritten: it flips
        # essentially every variant token, drops more sentences and takes
        # more typos, dragging its knowledge-free shingle overlap down into
        # the band where hard negatives live — while the LLM's normaliser
        # still maps both copies to (nearly) the same canonical text.  A
        # raw-similarity threshold cannot separate these from negatives; the
        # knowledge path can.
        disguised = rng.random() < 0.4
        drops = 1 if (disguised or rng.random() < 0.35) else 0
        for _ in range(drops):
            if len(out) > 4:
                out.pop(rng.randrange(len(out)))
        if disguised:
            # A re-scraped page carries different boilerplate: swap one shared
            # generic sentence for another from the pool.
            present = [i for i, s in enumerate(out) if s in _GENERIC_SENTENCES]
            if present:
                slot = rng.choice(present)
                replacement = rng.choice(
                    [g for g in _GENERIC_SENTENCES if g != out[slot]]
                )
                out[slot] = replacement
        if len(out) > 2 and rng.random() < 0.4:
            i = rng.randrange(len(out) - 1)
            out[i], out[i + 1] = out[i + 1], out[i]
        flip_probability = 0.95 if disguised else 0.6
        mutated: list[str] = []
        for sentence in out:
            words = sentence.split()
            for w, word in enumerate(words):
                stripped = word.rstrip(".,?!")
                tail = word[len(stripped) :]
                if stripped in _VARIANT_LOOKUP and rng.random() < flip_probability:
                    words[w] = _VARIANT_LOOKUP[stripped] + tail
            mutated.append(" ".join(words))
        typos = rng.randint(0, 2) if disguised else (1 if rng.random() < 0.5 else 0)
        for _ in range(typos):
            target = rng.randrange(len(mutated))
            words = mutated[target].split()
            w = rng.randrange(len(words))
            words[w] = _typo_word(words[w], rng)
            mutated[target] = " ".join(words)
        return mutated

    def _disguise(self, sentence: str, rng) -> str:
        """Rewrite of an eval sentence that breaks every clean 8-gram.

        Variant flips plus a typo roughly every fifth word guarantee no
        8-token window survives verbatim, so the *hard* n-gram scan goes
        blind; enough 4-token windows survive that the *soft* scan still
        raises a borderline flag for the LLM to adjudicate.
        """
        words = sentence.split()
        for w, word in enumerate(words):
            stripped = word.rstrip(".,?!")
            tail = word[len(stripped) :]
            if stripped in _VARIANT_LOOKUP and rng.random() < 0.85:
                words[w] = _VARIANT_LOOKUP[stripped] + tail
            elif rng.random() < 0.18:
                words[w] = _typo_word(stripped, rng) + tail
        return " ".join(words)

    # -- the document ------------------------------------------------------------

    def doc(self, index: int) -> CurationDoc:
        """Derive document ``index`` from scratch; O(1) memory, deterministic."""
        if not 0 <= index < self.n_docs:
            raise IndexError(f"doc index {index} out of range [0, {self.n_docs})")
        cluster = self._cluster_of(index)
        sentences, quality = self._canonical_content(cluster)
        is_duplicate = cluster != index
        if is_duplicate:
            rng = seeded_rng(stable_hash(self.seed, self.name, "mutate", index))
            sentences = self._mutate(sentences, rng)
        contaminated = self._is_contaminated_index(index)
        eval_index = -1
        if contaminated:
            eval_index = stable_hash(self.seed, self.name, "evalpick", index) % self.eval_size
            splice = self.eval_set.item(eval_index)
            rng = seeded_rng(stable_hash(self.seed, self.name, "disguise", index))
            if rng.random() < 0.55:
                splice = self._disguise(splice, rng)
            position = stable_hash(self.seed, self.name, "slot", index) % (
                len(sentences) + 1
            )
            sentences = sentences[:position] + [splice] + sentences[position:]
        doc_id = f"D{index:07d}"
        # A per-document reference sentence keeps every rendered prompt
        # corpus-unique — the streaming executor's rollback of a failed
        # attempt relies on that (see repro.core.runtime.workqueue).
        text = " ".join(sentences + [f"Catalogue ref {doc_id}."])
        return CurationDoc(
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

    def dedup_examples(self, k: int = 4, scan: int = 256) -> list[tuple[tuple, bool]]:
        """Balanced duplicate/non-duplicate record-pair examples.

        Positives pair a duplicate with its cluster canonical; negatives
        pair two nearby canonicals.  Found by a bounded forward scan (the
        :meth:`StreamingERCorpus.examples` idiom) so nothing materialises.
        """
        positives: list[tuple[dict, dict]] = []
        negatives: list[tuple[dict, dict]] = []
        need = (k + 1) // 2
        previous_canonical: CurationDoc | None = None
        for index in range(min(scan, self.n_docs)):
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

    def decontamination_examples(
        self, k: int = 4, scan: int = 256
    ) -> list[tuple[dict, str, bool]]:
        """Balanced ``(document, eval item, leaked?)`` adjudication examples.

        Positives pair a contaminated document with the eval item actually
        spliced into it; negatives pair a clean document with an arbitrary
        (deterministically chosen) eval item.
        """
        positives: list[tuple[dict, str, bool]] = []
        negatives: list[tuple[dict, str, bool]] = []
        need = (k + 1) // 2
        for index in range(min(scan, self.n_docs)):
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

    def quality_examples(self, k: int = 4, scan: int = 256) -> list[tuple[dict, bool]]:
        """Balanced keep/drop document examples for the quality teacher."""
        keeps: list[CurationDoc] = []
        drops: list[CurationDoc] = []
        need = (k + 1) // 2
        for index in range(min(scan, self.n_docs)):
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
