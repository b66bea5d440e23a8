"""Tests for the synthetic dataset generators."""

from __future__ import annotations

import pytest

from repro.datasets.catalog import BRANDS, brand_and_line_of_product
from repro.datasets.entity_resolution import ER_DATASET_NAMES, generate_er_dataset
from repro.datasets.imputation import generate_buy_dataset
from repro.datasets.names import generate_name_dataset


class TestCatalog:
    def test_line_lookup(self):
        assert brand_and_line_of_product("PlayStation 2 Memory Card 8MB")[0] == "Sony"

    def test_longest_line_wins(self):
        assert brand_and_line_of_product("Memory Stick Pro Duo")[0] == "SanDisk"

    def test_brand_mention_fallback(self):
        assert brand_and_line_of_product("a genuine Bose product")[0] == "Bose"

    def test_short_brand_needs_word_boundary(self):
        assert brand_and_line_of_product("Generic Gadget 9000")[0] is None

    def test_no_match(self):
        assert brand_and_line_of_product("completely unknown thing")[0] is None

    def test_line_reported(self):
        brand, line = brand_and_line_of_product("Walkman portable player")
        assert brand == "Sony" and line == "walkman"

    def test_many_brands_exist(self):
        assert len(BRANDS) >= 80
        assert len({b.name for b in BRANDS}) == len(BRANDS)


class TestERGenerator:
    @pytest.mark.parametrize("name", ER_DATASET_NAMES)
    def test_splits_populated_and_balanced(self, name: str):
        ds = generate_er_dataset(name)
        for split in (ds.train, ds.valid, ds.test):
            assert len(split) > 30
            positives = sum(p.label for p in split)
            assert 0 < positives < len(split)

    def test_deterministic_given_seed(self):
        a = generate_er_dataset("beer", seed=5)
        b = generate_er_dataset("beer", seed=5)
        assert [p.pair_id for p in a.test] == [p.pair_id for p in b.test]
        assert [p.left for p in a.test] == [p.left for p in b.test]

    def test_seed_changes_data(self):
        a = generate_er_dataset("beer", seed=1)
        b = generate_er_dataset("beer", seed=2)
        assert [p.left for p in a.test] != [p.left for p in b.test]

    def test_positive_pairs_share_identity_traces(self):
        ds = generate_er_dataset("restaurants")
        positives = [p for p in ds.test if p.label == 1]
        # A positive pair is two corruptions of one entity: the city is never
        # corrupted, so it must agree.
        assert all(p.left["city"] == p.right["city"] for p in positives)

    def test_attributes_consistent(self):
        ds = generate_er_dataset("music")
        for pair in ds.test[:20]:
            assert set(pair.left) == set(ds.attributes)
            assert set(pair.right) == set(ds.attributes)

    def test_unknown_dataset_raises(self):
        with pytest.raises(ValueError):
            generate_er_dataset("nope")

    def test_summary_mentions_counts(self):
        assert "train=" in generate_er_dataset("beer").summary()


class TestBuyGenerator:
    def test_hard_fraction_respected(self):
        buy = generate_buy_dataset(n_test=600, hard_fraction=0.25)
        hard = sum(1 for r in buy.test if r.hard)
        assert abs(hard / 600 - 0.25) < 0.03

    def test_hard_records_never_mention_brand(self):
        buy = generate_buy_dataset()
        for record in buy.test:
            if record.hard:
                text = (record.name + " " + record.description).lower()
                assert record.manufacturer.lower() not in text

    def test_easy_records_mention_brand(self):
        buy = generate_buy_dataset()
        for record in buy.test:
            if not record.hard:
                text = (record.name + " " + record.description).lower()
                assert record.manufacturer.lower() in text

    def test_ground_truth_is_recoverable_from_line(self):
        buy = generate_buy_dataset(n_test=200)
        hits = sum(
            1
            for r in buy.test
            if brand_and_line_of_product(r.name)[0] == r.manufacturer
        )
        assert hits / 200 > 0.95

    def test_visible_record_hides_manufacturer(self):
        record = generate_buy_dataset(n_test=10).test[0]
        assert record.visible()["manufacturer"] is None

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            generate_buy_dataset(hard_fraction=2.0)

    def test_deterministic(self):
        a = generate_buy_dataset(seed=3, n_test=50)
        b = generate_buy_dataset(seed=3, n_test=50)
        assert [r.name for r in a.test] == [r.name for r in b.test]


class TestNamesGenerator:
    def test_language_mix_roughly_respected(self):
        ds = generate_name_dataset(n_documents=400)
        english = sum(1 for doc in ds.documents if doc.language == "en")
        assert 0.3 < english / 400 < 0.5

    def test_names_appear_in_text(self):
        ds = generate_name_dataset(n_documents=100)
        for doc in ds.documents:
            for name in doc.names:
                assert name in doc.text

    def test_each_doc_has_at_least_one_name(self):
        ds = generate_name_dataset(n_documents=100)
        assert all(doc.names for doc in ds.documents)

    def test_deterministic(self):
        a = generate_name_dataset(seed=9, n_documents=40)
        b = generate_name_dataset(seed=9, n_documents=40)
        assert [d.text for d in a.documents] == [d.text for d in b.documents]

    def test_summary_counts_names(self):
        summary = generate_name_dataset(n_documents=20).summary()
        assert "20 docs" in summary
