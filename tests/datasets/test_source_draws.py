"""The synthetic sources draw straight from the generator, and derive what
the wrapper-drawing derivation derived.

``StreamingERCorpus`` and ``CurationCorpus`` read each record's stream
through ``getrandbits`` and ``random()`` alone.  The derivation they
replaced — ``random.Random``'s ``choice`` / ``randrange`` / ``randint`` /
``uniform`` over a per-record ``stable_hash`` seed — survives in
``tests/oracles.py``; every record must equal it, in any access order and
for any identity.  The digests below were taken from that derivation
before the sources changed, and pin the benchmark corpora byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from repro._util import below, indexed_hash, stable_hash, stable_prefix
from repro.datasets import CurationCorpus, StreamingERCorpus, generate_er_dataset

from ..oracles import (
    curation_doc_reference,
    curation_eval_item_reference,
    er_pair_reference,
)

#: ``(n_pairs, seed)`` → sha256 of the pairs (one JSON line per
#: ``dataclasses.astuple``) and of the label list, as the wrapper-drawing
#: derivation produced them: the sizes and seeds of ``er_stream_cold``,
#: ``er_stream_warm`` and ``er_batch_latency``.
PINNED_PAIRS = {
    (2400, 7): (
        "17c2abedae3ec6d9370c5d996a1eb3dc5d3c3637387adff0e3fb2e86d0406e8c",
        "dfa427d6ee1218765a8750dd63db386b51045724f7bea47f0a50bd4bb0b6f299",
    ),
    (600, 7): (
        "054dd31cf066bd08ad273242f6335046064487b3a928cec29d072421e263bdbe",
        "3c110a9fe1336423c4f09bf69c5e054804dbe737a061c23cdecf52940bcb3d01",
    ),
    (1500, 11): (
        "6354347cd0985b742a7b437c27c6eba8dfef1f5a8395cd2a753f1033c8626482",
        "405c51b64e4f609bc07b63bca0f3bb61cf71efa0e20b4da4d86198ec8015500e",
    ),
}

#: The batch generator shares ``_typo``; its splits (train + valid + test,
#: digested like the pairs above) are pinned the same way.
PINNED_DATASETS = {
    "beer": "a5e3596a7c9d71b9074678cff5198bf6e4b04031d934d675d928c208681e550f",
    "restaurants": "bd827df37c9d7ea8193ac252d667102e490ad433fd176c74169a6ce17584d5d9",
    "music": "472d4820459ec48b3cb046b375fff36bfc11427bf8b532488730f0c42c0ba1ec",
}


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        line = json.dumps(dataclasses.astuple(record), sort_keys=True)
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


# -- the draw primitives -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 13, 64, 90000, 2**40 + 3])
def test_below_draws_what_the_wrappers_draw(n):
    wrapped, direct = random.Random(n), random.Random(n)
    for _ in range(200):
        assert below(direct.getrandbits, n) == wrapped.randrange(n)
        assert 5 + below(direct.getrandbits, n) == wrapped.randint(5, 5 + n - 1)
        items = range(n)
        assert items[below(direct.getrandbits, n)] == wrapped.choice(items)
    assert direct.random() == wrapped.random()


@pytest.mark.parametrize("n", [0, -1])
def test_below_refuses_an_empty_range(n):
    with pytest.raises(ValueError):
        below(random.Random(1).getrandbits, n)


@pytest.mark.parametrize(
    "parts", [(7, "stream-beer", "pair"), ("s", "curation"), (11, "x\x1fy", "dup"), ()]
)
@pytest.mark.parametrize("index", [0, 1, 99, 123456789])
def test_an_indexed_hash_is_the_stable_hash(parts, index):
    assert indexed_hash(stable_prefix(*parts), index) == stable_hash(*parts, index)


# -- StreamingERCorpus ---------------------------------------------------------------


@pytest.mark.parametrize(
    "corpus",
    [
        StreamingERCorpus(300, seed=7),
        StreamingERCorpus(300, seed=11),
        StreamingERCorpus(300, seed="a string seed"),
    ],
    ids=repr,
)
def test_every_pair_equals_the_reference(corpus):
    reference = [er_pair_reference(corpus, index) for index in range(len(corpus))]
    assert list(corpus) == reference
    assert [corpus.pair(i) for i in reversed(range(len(corpus)))] == reference[::-1]
    order = list(range(len(corpus)))
    random.Random(1).shuffle(order)
    assert [corpus.pair(i) for i in order] == [reference[i] for i in order]
    assert list(corpus.inputs()) == [{"left": p.left, "right": p.right} for p in reference]
    assert list(corpus.labels()) == [p.label for p in reference]


def test_examples_equal_the_reference_scan():
    corpus = StreamingERCorpus(600, seed=7)
    reference = [er_pair_reference(corpus, index) for index in range(64)]
    positives = [p for p in reference if p.label][:2]
    negatives = [p for p in reference if not p.label][:2]
    expected = [positives[0], negatives[0], positives[1], negatives[1]]
    assert corpus.examples() == [((p.left, p.right), bool(p.label)) for p in expected]


@pytest.mark.parametrize("n_pairs, seed", sorted(PINNED_PAIRS))
def test_benchmark_corpora_equal_their_pinned_digests(n_pairs, seed):
    corpus = StreamingERCorpus(n_pairs, seed=seed)
    pairs_digest, labels_digest = PINNED_PAIRS[n_pairs, seed]
    assert digest(corpus) == pairs_digest
    labels = json.dumps(list(corpus.labels())).encode("utf-8")
    assert hashlib.sha256(labels).hexdigest() == labels_digest


@pytest.mark.parametrize("name", sorted(PINNED_DATASETS))
def test_batch_datasets_equal_their_pinned_digests(name):
    dataset = generate_er_dataset(name)
    assert digest(dataset.train + dataset.valid + dataset.test) == PINNED_DATASETS[name]


# -- CurationCorpus ------------------------------------------------------------------


@pytest.mark.parametrize(
    "identity",
    [
        {"seed": 7},
        {"seed": 11},
        {"seed": "a string seed"},
    ],
    ids=repr,
)
def test_every_document_equals_the_reference(identity):
    corpus = CurationCorpus(240, **identity)
    reference = [curation_doc_reference(corpus, index) for index in range(len(corpus))]
    backwards = CurationCorpus(240, **identity)
    assert [backwards.doc(i) for i in reversed(range(240))] == reference[::-1]
    assert list(corpus) == reference
    assert list(corpus.inputs()) == [doc.record() for doc in reference]


def test_the_eval_set_equals_the_reference():
    for corpus in (CurationCorpus(10, seed=7), CurationCorpus(10, seed="s")):
        eval_set = corpus.eval_set
        assert list(eval_set.items()) == [
            curation_eval_item_reference(eval_set, index) for index in range(len(eval_set))
        ]


def test_example_pickers_equal_the_reference():
    corpus = CurationCorpus(256, seed=7)
    reference = [curation_doc_reference(corpus, index) for index in range(256)]
    eval_set = corpus.eval_set

    def item(index: int) -> str:
        return curation_eval_item_reference(eval_set, index)

    leaked = [d for d in reference if d.contaminated][:2]
    clean = [d for d in reference if not d.contaminated][:2]
    assert corpus.decontamination_examples() == [
        (leaked[0].record(), item(leaked[0].eval_index), True),
        (clean[0].record(), item(clean[0].index % corpus.eval_size), False),
        (leaked[1].record(), item(leaked[1].eval_index), True),
        (clean[1].record(), item(clean[1].index % corpus.eval_size), False),
    ]

    duplicates = [d for d in reference if d.is_duplicate][:2]
    canonicals = [d for d in reference if not d.is_duplicate][:3]
    assert corpus.dedup_examples() == [
        ((reference[duplicates[0].cluster].record(), duplicates[0].record()), True),
        ((canonicals[0].record(), canonicals[1].record()), False),
        ((reference[duplicates[1].cluster].record(), duplicates[1].record()), True),
        ((canonicals[1].record(), canonicals[2].record()), False),
    ]
