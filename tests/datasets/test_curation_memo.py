"""A corpus object derives each document once, and derives it unchanged.

``CurationCorpus.doc`` keeps the documents it has derived, and a cluster's
canonical content once for all its duplicates.  Every check compares with
digests pinned from the un-memoised derivation (each ``doc(i)`` computed
from scratch), so a memo that served a wrong, stale or order-dependent
document fails here whatever order produced it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import threading

import pytest

from repro.datasets.curation import CurationCorpus

#: sha256 over one JSON line per document (``dataclasses.astuple``), in
#: index order, of the un-memoised derivation.
PINNED = {
    (160, 7): "8258bac73b1216404a484efae9bcd358be5aae7944baa84d091206556ffa9a85",
    (500, 7): "83b3ee1249aceefb86d684c96dfb7b22a67d344c1bbfcd5413c4deb72e985529",
    (500, 11): "8c9e7bb9eec9b74ebe277ede6478c2c6c38142bfecfbe613cfa486e728b268c3",
}


def digest(docs) -> str:
    h = hashlib.sha256()
    for doc in docs:
        h.update(json.dumps(dataclasses.astuple(doc)).encode("utf-8") + b"\n")
    return h.hexdigest()


def derived_in(corpus: CurationCorpus, order) -> list:
    """Derive ``corpus``'s documents in ``order``; return them by index."""
    by_index = {index: corpus.doc(index) for index in order}
    return [by_index[index] for index in range(len(corpus))]


@pytest.mark.parametrize("n_docs, seed", sorted(PINNED))
def test_forward_iteration_equals_the_pinned_derivation(n_docs, seed):
    assert digest(CurationCorpus(n_docs, seed=seed)) == PINNED[n_docs, seed]


@pytest.mark.parametrize("n_docs, seed", sorted(PINNED))
def test_reverse_and_shuffled_orders_equal_forward(n_docs, seed):
    reverse = derived_in(CurationCorpus(n_docs, seed=seed), reversed(range(n_docs)))
    order = list(range(n_docs))
    random.Random(seed).shuffle(order)
    shuffled = derived_in(CurationCorpus(n_docs, seed=seed), order)
    assert digest(reverse) == digest(shuffled) == PINNED[n_docs, seed]


def test_a_duplicate_derived_before_its_canonical():
    forward = list(CurationCorpus(500, seed=7))
    duplicates = [doc for doc in forward if doc.is_duplicate]
    assert duplicates
    fresh = CurationCorpus(500, seed=7)
    for doc in duplicates:
        assert fresh.doc(doc.index) == doc
    for doc in duplicates:
        assert fresh.doc(doc.cluster) == forward[doc.cluster]
    assert digest(fresh) == PINNED[500, 7]


def test_doc_returns_the_same_object():
    corpus = CurationCorpus(160, seed=7)
    assert all(corpus.doc(i) is corpus.doc(i) for i in range(len(corpus)))
    assert [a is b for a, b in zip(corpus, corpus)] == [True] * len(corpus)


def test_each_cluster_content_is_derived_once(monkeypatch):
    calls: list[int] = []
    original = CurationCorpus._canonical_content

    def counted(self, cluster):
        calls.append(cluster)
        return original(self, cluster)

    monkeypatch.setattr(CurationCorpus, "_canonical_content", counted)
    corpus = CurationCorpus(500, seed=7)
    docs = list(corpus)
    corpus.dedup_examples()
    corpus.quality_examples()
    corpus.decontamination_examples()
    list(corpus)
    assert sorted(calls) == sorted({doc.cluster for doc in docs})


@pytest.mark.parametrize("n_threads", [2, 8])
def test_threads_iterating_one_corpus_get_equal_documents(n_threads):
    """Threads racing on one index derive it twice at worst, never differently."""
    corpus = CurationCorpus(500, seed=7)
    barrier = threading.Barrier(n_threads)
    seen: list[list] = [[] for _ in range(n_threads)]

    def iterate(slot: int) -> None:
        order = list(range(len(corpus)))
        if slot:  # thread 0 iterates forward, the others in their own order
            random.Random(slot).shuffle(order)
        barrier.wait()
        seen[slot] = derived_in(corpus, order)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=iterate, args=(slot,)) for slot in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert {digest(docs) for docs in seen} == {PINNED[500, 7]}
    # Whichever thread derived a document first, every thread holds the kept one.
    assert all(all(doc is kept for doc in docs) for kept, *docs in zip(*seen))


def test_a_longer_corpus_agrees_on_the_shorter_ones_prefix():
    shorter = CurationCorpus(160, seed=7)
    longer = CurationCorpus(500, seed=7)
    assert digest(list(longer)[:160]) == digest(shorter) == PINNED[160, 7]


def test_memo_is_not_identity():
    """Equal corpora compare and hash equal whatever each has derived."""
    touched = CurationCorpus(160, seed=7)
    list(touched)
    fresh = CurationCorpus(160, seed=7)
    assert touched == fresh and hash(touched) == hash(fresh)
    assert repr(touched) == repr(fresh)
