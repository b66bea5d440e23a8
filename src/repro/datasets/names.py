"""Synthetic multilingual name-extraction corpus (paper section 4.2).

Sentences in five languages (EN/ES/DE/FR/romanised ZH) containing zero or
more person names plus capitalised distractors (cities, companies).  Ground
truth is the exact set of person-name strings per sentence, which is what the
pipeline's F1 is scored against.  The startup dataset the paper used was
"unique in that it has to handle multilingual data", and this generator
recreates exactly that property.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro._util import seeded_rng
from repro.datasets.catalog import FIRST_NAMES, LAST_NAMES, NON_NAME_PROPER_NOUNS

__all__ = ["NameDocument", "NameExtractionDataset", "generate_name_dataset"]

# Sentence skeletons with {name}, {name2} and {place} slots.
_TEMPLATES: dict[str, list[str]] = {
    "en": [
        "Yesterday {name} met {name2} in {place} to discuss the merger.",
        "The report was written by {name}, according to {place} officials.",
        "{name} announced a new partnership with {place} on Monday.",
        "After the keynote, {name} thanked the team at {place}.",
        "Analysts say {name} will join the board of {place} next year.",
        "The quarterly review in {place} was led by {name} and {name2}.",
    ],
    "es": [
        "Ayer {name} se reunió con {name2} en {place} para discutir el acuerdo.",
        "El informe fue presentado por {name} según fuentes de {place}.",
        "{name} anunció una nueva alianza con {place} el lunes.",
        "Durante la conferencia, {name} agradeció al equipo de {place}.",
        "La reunión en {place} fue dirigida por {name} y {name2}.",
    ],
    "de": [
        "Gestern traf {name} in {place} {name2}, um die Fusion zu besprechen.",
        "Der Bericht wurde laut {place} von {name} verfasst.",
        "{name} kündigte am Montag eine neue Partnerschaft mit {place} an.",
        "Nach der Konferenz dankte {name} dem Team von {place}.",
        "Die Sitzung in {place} wurde von {name} und {name2} geleitet.",
    ],
    "fr": [
        "Hier {name} a rencontré {name2} à {place} pour discuter de la fusion.",
        "Selon {place}, le rapport a été rédigé par {name}.",
        "{name} a annoncé lundi un nouveau partenariat avec {place}.",
        "Après la conférence, {name} a remercié l'équipe de {place}.",
        "La réunion à {place} a été dirigée par {name} et {name2}.",
    ],
    "zh": [
        "Zuotian {name} zai {place} huijian le {name2} tan hezuo.",
        "Genju {place} de baogao, {name} xuanbu le xin jihua.",
        "{name} jintian zai {place} fabiao le jianghua.",
        "{name} he {name2} zuotian zai {place} juxing le huiyi.",
    ],
}

# Name-composition quirks per language.
_PARTICLES = {"es": ["de", "de la", "del"], "de": ["von", "van"], "fr": ["de"], "en": [], "zh": []}


@dataclass(frozen=True)
class NameDocument:
    """One sentence with its ground-truth person names and language."""

    text: str
    names: tuple[str, ...]
    language: str


@dataclass
class NameExtractionDataset:
    """A multilingual corpus of name-bearing sentences."""

    documents: list[NameDocument] = field(default_factory=list)

    def summary(self) -> str:
        """Per-language document counts."""
        counts: dict[str, int] = {}
        for doc in self.documents:
            counts[doc.language] = counts.get(doc.language, 0) + 1
        parts = ", ".join(f"{lang}={count}" for lang, count in sorted(counts.items()))
        total_names = sum(len(d.names) for d in self.documents)
        return f"names corpus: {len(self.documents)} docs ({parts}), {total_names} names"


def _make_name(language: str, rng: random.Random) -> str:
    first = rng.choice(FIRST_NAMES[language])
    last = rng.choice(LAST_NAMES[language])
    particles = _PARTICLES[language]
    if particles and rng.random() < 0.25:
        return f"{first} {rng.choice(particles)} {last}"
    return f"{first} {last}"


def generate_name_dataset(
    seed: int = 3,
    n_documents: int = 240,
) -> NameExtractionDataset:
    """Generate the multilingual corpus.

    The language mix is a mostly-English corpus with a substantial
    multilingual tail (the regime in which a monolingual pipeline visibly
    degrades).
    """
    mix = {"en": 0.4, "es": 0.18, "de": 0.16, "fr": 0.16, "zh": 0.10}
    rng = seeded_rng(f"names-{seed}")
    languages = sorted(mix)
    weights = [mix[lang] for lang in languages]
    documents: list[NameDocument] = []
    for _ in range(n_documents):
        language = rng.choices(languages, weights=weights, k=1)[0]
        template = rng.choice(_TEMPLATES[language])
        name = _make_name(language, rng)
        name2 = _make_name(language, rng)
        while name2 == name:
            name2 = _make_name(language, rng)
        place = rng.choice(NON_NAME_PROPER_NOUNS)
        text = template.format(name=name, name2=name2, place=place)
        names = [name] + ([name2] if "{name2}" in template else [])
        documents.append(NameDocument(text=text, names=tuple(names), language=language))
    return NameExtractionDataset(documents=documents)
