"""Synthetic entity-resolution benchmark datasets.

Seeded generators standing in for the three Magellan benchmark datasets of
paper Table 1.  Each generator builds canonical entities, derives two dirty
"source" views with a domain-specific corruption profile, and emits labelled
record pairs (matches plus blocking-style hard negatives):

- ``beer``        — BeerAdvo-RateBeer:  style-name rewrites, brewery suffix
                    churn, ABV rounding, typos (medium difficulty).
- ``restaurants`` — Fodors-Zagats: address abbreviations, phone formats,
                    cuisine synonyms (easy; supervised methods saturate).
- ``music``       — iTunes-Amazon: featuring credits, edition suffixes,
                    heavy typos, missing fields (hard; dirtiest text).

The corruption menus lean on abbreviation/unit conventions that
:func:`repro.text.normalize.normalize_text` can invert — that is the
"world knowledge" edge the LLM-based methods have over similarity-feature
baselines, mirroring the paper's argument.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro._util import seeded_rng

__all__ = ["RecordPair", "ERDataset", "generate_er_dataset", "ER_DATASET_NAMES"]

ER_DATASET_NAMES = ("beer", "restaurants", "music")


@dataclass(frozen=True)
class RecordPair:
    """A labelled candidate pair: 1 = same entity, 0 = different."""

    left: dict
    right: dict
    label: int
    pair_id: str


@dataclass
class ERDataset:
    """A benchmark dataset with Magellan-style train/valid/test splits."""

    name: str
    attributes: list[str]
    train: list[RecordPair] = field(default_factory=list)
    valid: list[RecordPair] = field(default_factory=list)
    test: list[RecordPair] = field(default_factory=list)

    def summary(self) -> str:
        """One-line dataset description."""
        def pos(pairs: list[RecordPair]) -> int:
            return sum(p.label for p in pairs)

        return (
            f"{self.name}: train={len(self.train)} (+{pos(self.train)}) "
            f"valid={len(self.valid)} (+{pos(self.valid)}) "
            f"test={len(self.test)} (+{pos(self.test)})"
        )


# -- corruption helpers ---------------------------------------------------------


def _typo(text: str, rng: random.Random) -> str:
    if len(text) < 4:
        return text
    i = rng.randrange(1, len(text) - 2)
    kind = rng.random()
    if kind < 0.4:  # transpose
        return text[:i] + text[i + 1] + text[i] + text[i + 2 :]
    if kind < 0.7:  # drop
        return text[:i] + text[i + 1 :]
    return text[:i] + text[i] + text[i:]  # duplicate


def _maybe(rng: random.Random, p: float) -> bool:
    return rng.random() < p


_STYLE_REWRITES = {
    "IPA": "India Pale Ale",
    "Double IPA": "Imperial IPA",
    "ESB": "Extra Special Bitter",
    "Hefeweizen": "Wheat Beer",
    "Witbier": "White Ale",
}

_BREWERY_SUFFIXES = ["Brewing Co.", "Brewery", "Brewing Company", "Beer Co.", "Craft Brewery"]

_CUISINE_SYNONYMS = {
    "American (New)": "New American",
    "American (Traditional)": "Traditional American",
    "Steakhouses": "Steak House",
    "BBQ": "Barbecue",
    "Delis": "Delicatessen",
}

_EDITION_SUFFIXES = [" (Album Version)", " [Explicit]", " - Single", " (Deluxe Edition)", " (Remastered)"]


# -- canonical entity builders -----------------------------------------------------


def _beer_entities(rng: random.Random, n: int) -> list[dict]:
    from repro.datasets.catalog import BEER_STYLES, BREWERY_WORDS

    entities = []
    seen: set[tuple[str, str]] = set()
    adjectives = ["Old", "Double", "Dark", "Wild", "Lucky", "Iron", "Golden",
                  "Rusty", "Smoky", "Velvet", "Arrogant", "Hazy", "Raging"]
    nouns = ["Bastard", "Monk", "Ranger", "Trail", "Otter", "Moon", "Anvil",
             "Harvest", "Nugget", "Tide", "Summit", "Raven", "Badger"]
    while len(entities) < n:
        brewery = rng.choice(BREWERY_WORDS)
        style = rng.choice(BEER_STYLES)
        beer_name = f"{rng.choice(adjectives)} {rng.choice(nouns)} {style}"
        key = (brewery, beer_name)
        if key in seen:
            continue
        seen.add(key)
        entities.append(
            {
                "beer_name": beer_name,
                "brewery": f"{brewery} {rng.choice(_BREWERY_SUFFIXES)}",
                "style": style,
                "abv": round(rng.uniform(4.0, 11.5), 1),
            }
        )
    return entities


def _beer_corrupt(record: dict, rng: random.Random, intensity: float) -> dict:
    out = dict(record)
    if _maybe(rng, 0.5 * intensity):
        base = out["brewery"].rsplit(" ", 1)[0]
        for suffix in _BREWERY_SUFFIXES:
            if out["brewery"].endswith(suffix):
                base = out["brewery"][: -len(suffix)].strip()
                break
        out["brewery"] = f"{base} {rng.choice(_BREWERY_SUFFIXES)}"
    if _maybe(rng, 0.35 * intensity):
        out["beer_name"] = _typo(out["beer_name"], rng)
    if _maybe(rng, 0.3 * intensity):
        out["abv"] = round(record["abv"] + rng.choice([-0.1, 0.1]), 1)
    if _maybe(rng, 0.25 * intensity):
        out["style"] = None
    if _maybe(rng, 0.2 * intensity):
        out["beer_name"] = out["beer_name"].lower()
    return out


def _beer_test_corrupt(record: dict, rng: random.Random, intensity: float) -> dict:
    """Corruption kinds that only appear in the (later-crawled) test data.

    Style-name rewrites ("IPA" -> "India Pale Ale") and shouting case are
    format drift a trained matcher never saw — but normalisation-based
    methods invert them.
    """
    out = dict(record)
    if _maybe(rng, 0.75):
        for short, long_form in _STYLE_REWRITES.items():
            if short in out["beer_name"]:
                out["beer_name"] = out["beer_name"].replace(short, long_form)
                break
    if _maybe(rng, 0.25 * intensity):
        out["beer_name"] = out["beer_name"].upper()
    return out


def _restaurant_entities(rng: random.Random, n: int) -> list[dict]:
    from repro.datasets.catalog import CITY_NAMES, CUISINES

    words = ["Blue", "Golden", "Little", "Grand", "Royal", "Rustic", "Corner",
             "Garden", "Harbor", "Union", "Market", "Village", "Central", "Stone"]
    kinds = ["Bistro", "Grill", "Kitchen", "Tavern", "Cafe", "Table", "House",
             "Diner", "Trattoria", "Brasserie", "Cantina", "Osteria"]
    streets = ["Main", "Oak", "Maple", "Market", "Broadway", "Pine", "Cedar",
               "Elm", "Washington", "Lake", "Hill", "Park"]
    entities = []
    # Same-name restaurants in different cities are legitimate distinct
    # entities (and make for realistic hard negatives), so uniqueness is on
    # (name, city) rather than name alone.
    seen: set[tuple[str, str]] = set()
    while len(entities) < n:
        name = f"{rng.choice(words)} {rng.choice(kinds)}"
        city = rng.choice(CITY_NAMES)
        if (name, city) in seen:
            continue
        seen.add((name, city))
        entities.append(
            {
                "name": name,
                "address": f"{rng.randrange(10, 999)} {rng.choice(streets)} St.",
                "city": city,
                "phone": f"{rng.randrange(200, 999)}-{rng.randrange(200, 999)}-{rng.randrange(1000, 9999)}",
                "cuisine": rng.choice(CUISINES),
            }
        )
    return entities


def _restaurant_corrupt(record: dict, rng: random.Random, intensity: float) -> dict:
    out = dict(record)
    if _maybe(rng, 0.6 * intensity):
        out["address"] = out["address"].replace("St.", rng.choice(["Street", "St"]))
    if _maybe(rng, 0.5 * intensity):
        digits = out["phone"].replace("-", "")
        out["phone"] = f"{digits[:3]}/{digits[3:6]}-{digits[6:]}"
    if _maybe(rng, 0.4 * intensity):
        synonym = _CUISINE_SYNONYMS.get(out["cuisine"])
        if synonym:
            out["cuisine"] = synonym
    if _maybe(rng, 0.15 * intensity):
        out["name"] = _typo(out["name"], rng)
    if _maybe(rng, 0.1 * intensity):
        out["cuisine"] = None
    return out


def _music_entities(rng: random.Random, n: int) -> list[dict]:
    from repro.datasets.catalog import ARTIST_WORDS, GENRES

    song_a = ["Midnight", "Summer", "Broken", "Golden", "Silent", "Electric",
              "Lonely", "Crimson", "Fading", "Restless", "Neon", "Hollow"]
    song_b = ["Dreams", "Rain", "Hearts", "Roads", "Lights", "Echoes",
              "Fire", "Waves", "Shadows", "Letters", "Wings", "Rivers"]
    entities = []
    seen: set[tuple[str, str]] = set()
    while len(entities) < n:
        artist = f"The {rng.choice(ARTIST_WORDS)} {rng.choice(ARTIST_WORDS)}"
        song = f"{rng.choice(song_a)} {rng.choice(song_b)}"
        key = (artist, song)
        if key in seen:
            continue
        seen.add(key)
        minutes = rng.randrange(2, 6)
        seconds = rng.randrange(0, 60)
        entities.append(
            {
                "song": song,
                "artist": artist,
                "album": f"{rng.choice(song_a)} {rng.choice(song_b)}",
                "genre": rng.choice(GENRES),
                "time": f"{minutes}:{seconds:02d}",
                "released": str(rng.randrange(1995, 2023)),
            }
        )
    return entities


def _music_corrupt(record: dict, rng: random.Random, intensity: float) -> dict:
    from repro.datasets.catalog import FIRST_NAMES, LAST_NAMES

    out = dict(record)
    if _maybe(rng, 0.45 * intensity):
        out["song"] = out["song"] + rng.choice(_EDITION_SUFFIXES)
    if _maybe(rng, 0.4 * intensity):
        guest = f"{rng.choice(FIRST_NAMES['en'])} {rng.choice(LAST_NAMES['en'])}"
        out["artist"] = out["artist"] + rng.choice([" feat. ", " ft. ", " featuring "]) + guest
    if _maybe(rng, 0.45 * intensity):
        out["song"] = _typo(out["song"], rng)
    if _maybe(rng, 0.18 * intensity):
        out["song"] = _typo(out["song"], rng)  # second typo pass: very dirty feeds
    if _maybe(rng, 0.35 * intensity):
        out["artist"] = _typo(out["artist"], rng)
    if _maybe(rng, 0.3 * intensity):
        out["album"] = None
    if _maybe(rng, 0.3 * intensity):
        out["released"] = None
    if _maybe(rng, 0.25 * intensity):
        out["genre"] = rng.choice(["Pop", "Rock"])  # sloppy genre tagging
    if _maybe(rng, 0.3 * intensity):
        out["song"] = out["song"].lower()
    return out


def _music_test_corrupt(record: dict, rng: random.Random, intensity: float) -> dict:
    """Test-only music drift: track-number prefixes and duration reformats."""
    out = dict(record)
    if _maybe(rng, 0.3):
        out["song"] = f"{rng.randrange(1, 15):02d} - {out['song']}"
    if _maybe(rng, 0.35) and isinstance(out.get("time"), str) and ":" in out["time"]:
        minutes, seconds = out["time"].split(":")
        out["time"] = f"{int(minutes) * 60 + int(seconds)} sec"
    return out


_DOMAINS = {
    "beer": {
        "build": _beer_entities,
        "corrupt": _beer_corrupt,
        "key": "beer_name",
        "negative_keys": ("beer_name",),
        "copy_attr": "brewery",
        "copy_fraction": 0.55,
        "intensity": 1.0,
        "train_discount": 0.5,
        "test_corrupt": _beer_test_corrupt,
        "n_entities": 900,
        "pos_fraction": 0.22,
    },
    "restaurants": {
        "build": _restaurant_entities,
        "corrupt": _restaurant_corrupt,
        "key": "name",
        "negative_keys": ("name",),
        "intensity": 0.7,
        "train_discount": 0.95,
        "n_entities": 1100,
        "pos_fraction": 0.18,
    },
    "music": {
        "build": _music_entities,
        "corrupt": _music_corrupt,
        "key": "song",
        "negative_keys": ("song",),
        "copy_attr": "song",
        "copy_fraction": 0.35,
        "intensity": 1.45,
        "train_discount": 0.7,
        "test_corrupt": _music_test_corrupt,
        "n_entities": 1000,
        "pos_fraction": 0.25,
    },
}


def _similar_negatives(
    entities: list[dict], key: str, rng: random.Random, count: int
) -> list[tuple[int, int]]:
    """Pick hard-negative index pairs: different entities with token overlap.

    This mimics a blocking stage: candidate pairs that survive blocking share
    tokens, so negatives are not trivially dissimilar.
    """
    from collections import defaultdict

    by_token: dict[str, list[int]] = defaultdict(list)
    for index, entity in enumerate(entities):
        for token in str(entity[key]).lower().split():
            by_token[token].append(index)
    candidates: set[tuple[int, int]] = set()
    for indices in by_token.values():
        if len(indices) < 2:
            continue
        for _ in range(min(len(indices), 6)):
            a, b = rng.sample(indices, 2)
            if a > b:
                a, b = b, a
            if a != b:
                candidates.add((a, b))
    pool = sorted(candidates)
    rng.shuffle(pool)
    if len(pool) < count:
        # Top up with random pairs.
        while len(pool) < count:
            a, b = rng.sample(range(len(entities)), 2)
            if a > b:
                a, b = b, a
            if (a, b) not in pool:
                pool.append((a, b))
    return pool[:count]


def generate_er_dataset(
    name: str,
    seed: int = 7,
    n_entities: int | None = None,
    intensity: float | None = None,
) -> ERDataset:
    """Generate one of the three benchmark datasets by ``name``.

    ``n_entities`` and ``intensity`` override the domain defaults (useful
    for ablations on dataset dirtiness).
    """
    if name not in _DOMAINS:
        raise ValueError(f"unknown ER dataset {name!r}; have {ER_DATASET_NAMES}")
    spec = _DOMAINS[name]
    rng = seeded_rng(f"er-{name}-{seed}")
    n = n_entities if n_entities is not None else spec["n_entities"]
    level = intensity if intensity is not None else spec["intensity"]
    entities = spec["build"](rng, n)
    corrupt = spec["corrupt"]
    key = spec["key"]
    # The benchmark's test portions are dirtier than the labelled training
    # data (formatting drift between the two sources over time).  This is
    # what keeps trained matchers from saturating — training-free LLM
    # methods are unaffected because they never see the training split.
    train_discount = spec.get("train_discount", 1.0)

    # Skeletons first (entity indices + label), then split, then corrupt at
    # the split's intensity.
    n_pos = int(n * spec["pos_fraction"])
    pos_indices = rng.sample(range(n), n_pos)
    skeletons: list[tuple[int, int, dict | None]] = [
        (index, index, None) for index in pos_indices
    ]

    n_neg = int(n_pos * 3.4)
    negative_keys = spec.get("negative_keys", (key,))
    copy_attr = spec.get("copy_attr")
    copy_fraction = spec.get("copy_fraction", 0.0)
    per_key = [n_neg // len(negative_keys)] * len(negative_keys)
    per_key[0] += n_neg - sum(per_key)
    for negative_key, quota in zip(negative_keys, per_key):
        for a, b in _similar_negatives(entities, negative_key, rng, quota):
            right_entity = dict(entities[b])
            if copy_attr and rng.random() < copy_fraction:
                # Extra-hard negative: the right record shares ``copy_attr``
                # with the left one (same brewery's other beer; a cover of
                # the same song by another artist).
                right_entity[copy_attr] = entities[a][copy_attr]
            skeletons.append((a, b, right_entity))

    rng.shuffle(skeletons)
    n_total = len(skeletons)
    train_end = int(n_total * 0.6)
    valid_end = int(n_total * 0.8)
    splits: dict[str, list[RecordPair]] = {"train": [], "valid": [], "test": []}
    for rank, (a, b, right_override) in enumerate(skeletons):
        if rank < train_end:
            split = "train"
        elif rank < valid_end:
            split = "valid"
        else:
            split = "test"
        split_level = level * (train_discount if split != "test" else 1.0)
        label = 1 if (a == b and right_override is None) else 0
        right_entity = right_override if right_override is not None else entities[b]
        if label == 1:
            left = corrupt(entities[a], rng, split_level * 0.6)
            right = corrupt(right_entity, rng, split_level)
        else:
            left = corrupt(entities[a], rng, split_level * 0.5)
            right = corrupt(right_entity, rng, split_level * 0.8)
        test_corrupt = spec.get("test_corrupt")
        if split == "test" and test_corrupt is not None:
            right = test_corrupt(right, rng, level)
        splits[split].append(
            RecordPair(left, right, label, f"{name}-{split}-{rank}")
        )

    attributes = list(entities[0].keys())
    return ERDataset(
        name=name,
        attributes=attributes,
        train=splits["train"],
        valid=splits["valid"],
        test=splits["test"],
    )
