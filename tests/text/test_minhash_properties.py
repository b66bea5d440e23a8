"""Property-based tests for the MinHash / LSH / shingling substrate.

Hypothesis locks the three guarantees the dedup template leans on:

- **Estimator accuracy** — the MinHash Jaccard estimate stays inside the
  analytic bound ``sigmas * sqrt(J(1-J)/k) + 1/k`` of the exact Jaccard
  (:func:`repro.text.minhash.minhash_error_bound`); the permutation family
  is a real universal-hash family, not a biased stand-in.
- **LSH no-drop (pigeonhole form)** — a pair whose signatures disagree in
  fewer than ``bands`` positions always shares at least one complete band,
  so above-threshold pairs can never be silently dropped by banding.
- **Canonicalization algebra** — both canonical forms are idempotent and
  shingling is invariant under re-canonicalization, which is what makes
  the dedup pipeline idempotent end to end.

The scalar ≡ columnar bitwise equivalence of the batch kernels is locked
here too (skipped where numpy is absent, like the other columnar suites).
"""

from __future__ import annotations

import os

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.compiler.curation import _bucket_pairs  # noqa: E402
from repro.text.minhash import (  # noqa: E402
    EMPTY_SLOT,
    band_keys,
    estimate_jaccard,
    minhash_error_bound,
    minhash_params,
    minhash_signature,
)
from repro.text.shingle import (  # noqa: E402
    SHINGLE_SPACE,
    exact_jaccard,
    knowledge_canonical,
    shingle_ids,
    simple_canonical,
)

MAX_EXAMPLES = int(os.environ.get("MINHASH_PROP_EXAMPLES", "60"))

SHINGLE_ID = st.integers(min_value=0, max_value=SHINGLE_SPACE - 1)
ID_SET = st.frozensets(SHINGLE_ID, min_size=0, max_size=60)
TEXT = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_categories=("Cs",), max_codepoint=0x2FFF
    ),
    max_size=120,
)

PARAMS_128 = minhash_params(128)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(a=ID_SET, b=ID_SET)
def test_minhash_estimate_within_analytic_bound(a, b):
    ids_a, ids_b = tuple(sorted(a)), tuple(sorted(b))
    sig_a = minhash_signature(ids_a, PARAMS_128)
    sig_b = minhash_signature(ids_b, PARAMS_128)
    jaccard = exact_jaccard(ids_a, ids_b)
    estimate = estimate_jaccard(sig_a, sig_b)
    bound = minhash_error_bound(jaccard, PARAMS_128.num_perm, sigmas=5.0)
    assert abs(estimate - jaccard) <= bound


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(ids=ID_SET)
def test_identical_sets_estimate_one(ids):
    signature = minhash_signature(tuple(sorted(ids)), PARAMS_128)
    assert estimate_jaccard(signature, signature) == 1.0


def test_empty_set_gets_sentinel_signature():
    signature = minhash_signature((), PARAMS_128)
    assert set(signature) == {EMPTY_SLOT}


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    ids=st.frozensets(SHINGLE_ID, min_size=1, max_size=60),
    bands=st.sampled_from([8, 16, 32]),
    rows=st.sampled_from([2, 4]),
    data=st.data(),
)
def test_lsh_pigeonhole_never_drops_close_pairs(ids, bands, rows, data):
    """< ``bands`` signature mismatches ⇒ at least one shared full band."""
    params = minhash_params(bands * rows, seed=f"prop-{bands}x{rows}")
    sig_a = list(minhash_signature(tuple(sorted(ids)), params))
    n_flips = data.draw(st.integers(min_value=0, max_value=bands - 1))
    positions = data.draw(
        st.lists(
            st.integers(0, len(sig_a) - 1),
            min_size=n_flips,
            max_size=n_flips,
            unique=True,
        )
    )
    sig_b = list(sig_a)
    for position in positions:
        sig_b[position] = (sig_b[position] + 1) % EMPTY_SLOT
    keys_a = band_keys(tuple(sig_a), bands, rows)
    keys_b = band_keys(tuple(sig_b), bands, rows)
    assert set(keys_a) & set(keys_b), "pigeonhole guarantee violated"
    # Bucketed as the dedup scan buckets: band key -> the documents holding it.
    buckets: dict[str, set] = {}
    for doc, keys in (("a", keys_a), ("b", keys_b)):
        for key in keys:
            buckets.setdefault(key, set()).add(doc)
    pairs: set[tuple] = set()
    _bucket_pairs(buckets.values(), pairs)
    assert pairs == {("a", "b")}


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(text=TEXT)
def test_canonicalizers_idempotent(text):
    simple = simple_canonical(text)
    knowledge = knowledge_canonical(text)
    assert simple_canonical(simple) == simple
    assert knowledge_canonical(knowledge) == knowledge


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(text=TEXT, n=st.integers(min_value=1, max_value=4))
def test_shingling_stable_under_recanonicalization(text, n):
    canonical = simple_canonical(text)
    assert shingle_ids(canonical, n) == shingle_ids(simple_canonical(canonical), n)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(a=ID_SET, b=ID_SET)
def test_exact_jaccard_symmetric_and_bounded(a, b):
    ids_a, ids_b = tuple(sorted(a)), tuple(sorted(b))
    j = exact_jaccard(ids_a, ids_b)
    assert j == exact_jaccard(ids_b, ids_a)
    assert 0.0 <= j <= 1.0
    assert exact_jaccard(ids_a, ids_a) == (1.0 if ids_a else 1.0)


# -- scalar ≡ columnar bitwise equivalence ----------------------------------

np = pytest.importorskip("numpy")

from repro.storage.columnar import (  # noqa: E402
    band_keys_many,
    minhash_signatures_many,
)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(rows_of_ids=st.lists(ID_SET, min_size=0, max_size=8))
def test_columnar_signatures_bitwise_equal_scalar(rows_of_ids):
    id_rows = [tuple(sorted(ids)) for ids in rows_of_ids]
    batch = minhash_signatures_many(id_rows, PARAMS_128.a, PARAMS_128.b)
    assert batch.shape == (len(id_rows), PARAMS_128.num_perm)
    for row_index, ids in enumerate(id_rows):
        scalar = minhash_signature(ids, PARAMS_128)
        assert tuple(int(v) for v in batch[row_index]) == scalar


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(
    rows_of_ids=st.lists(st.frozensets(SHINGLE_ID, min_size=1, max_size=30), min_size=1, max_size=6),
    bands=st.sampled_from([8, 32]),
)
def test_columnar_band_keys_bitwise_equal_scalar(rows_of_ids, bands):
    rows = 128 // bands
    id_rows = [tuple(sorted(ids)) for ids in rows_of_ids]
    batch = minhash_signatures_many(id_rows, PARAMS_128.a, PARAMS_128.b)
    batch_keys = band_keys_many(batch, bands, rows)
    for row_index, ids in enumerate(id_rows):
        scalar = band_keys(minhash_signature(ids, PARAMS_128), bands, rows)
        assert batch_keys[row_index] == scalar
