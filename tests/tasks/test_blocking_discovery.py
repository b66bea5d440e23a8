"""Tests for the blocking and table-discovery task stages."""

from __future__ import annotations

import pytest

from repro._util import seeded_rng
from repro.datasets.entity_resolution import _beer_corrupt, _beer_entities
from repro.storage.database import Database
from repro.storage.table import Table
from repro.tasks.blocking import block_records
from repro.tasks.discovery import search_tables
from tests.conftest import block_records_reference


class TestBlocking:
    @pytest.fixture(scope="class")
    def two_views(self):
        rng = seeded_rng("blocking-test")
        entities = _beer_entities(rng, 100)
        left = [_beer_corrupt(e, rng, 0.6) for e in entities]
        right = [_beer_corrupt(e, rng, 1.0) for e in entities]
        return left, right

    def test_recall_of_true_matches(self, two_views):
        left, right = two_views
        result = block_records(left, right, key="beer_name")
        found = set(result.pairs)
        recall = sum(1 for i in range(len(left)) if (i, i) in found) / len(left)
        assert recall > 0.85

    def test_reduction_ratio_substantial(self, two_views):
        left, right = two_views
        result = block_records(left, right, key="beer_name")
        assert result.reduction_ratio > 0.9

    def test_candidate_cap_respected(self, two_views):
        left, right = two_views
        result = block_records(left, right, key="beer_name", max_candidates_per_record=2)
        from collections import Counter

        per_left = Counter(i for i, _ in result.pairs)
        assert max(per_left.values()) <= 2

    def test_empty_inputs(self):
        result = block_records([], [{"beer_name": "x"}], key="beer_name")
        assert result.pairs == []
        assert result.reduction_ratio == 1.0

    def test_disjoint_vocabularies_produce_nothing(self):
        left = [{"k": "alpha beta"}]
        right = [{"k": "gamma delta"}]
        assert block_records(left, right, key="k").pairs == []

    def test_summary_text(self, two_views):
        left, right = two_views
        assert "candidate pairs" in block_records(left, right, key="beer_name").summary()


class TestSortedNeighborhoodFallback:
    """Left records with zero token overlap get one edit-gated rescue pass."""

    def test_typo_in_every_token_is_rescued(self):
        left = [{"k": "sierr nevda pal alee"}]  # no token matches exactly
        right = [{"k": "sierra nevada pale ale"}, {"k": "gamma delta epsilon"}]
        result = block_records(left, right, key="k")
        assert result.pairs == [(0, 0)]

    def test_fallback_never_bridges_disjoint_vocabularies(self):
        # Lexicographic neighbours, but far beyond the edit-similarity gate.
        left = [{"k": "alpha beta"}]
        right = [{"k": "gamma delta"}, {"k": "almost anything"}]
        assert block_records(left, right, key="k").pairs == []

    def test_token_overlap_records_never_take_the_fallback(self):
        # The fallback only fires on empty candidate sets, so records the
        # index covers keep exactly the index's pairs.
        left = [{"k": "stone ipa"}, {"k": "lucky otter pilsner"}]
        right = [{"k": "stone ipa beer"}, {"k": "lucky otter pilsner ale"}]
        assert block_records(left, right, key="k").pairs == [(0, 0), (0, 1), (1, 1)]

    def test_fallback_respects_candidate_cap(self):
        left = [{"k": "stone ipa"}]
        right = [{"k": f"stone ipa{suffix}"} for suffix in ("", "s", "x")]
        result = block_records(left, right, key="k", max_candidates_per_record=1)
        # "stone ipa" shares tokens with right[0] only; cap still holds if
        # more than one neighbour clears the gate.
        assert len(result.pairs) <= 1


class TestColumnarBlocking:
    """The array-join path must agree with the dict-probe oracle exactly."""

    @pytest.fixture(scope="class")
    def two_views(self):
        rng = seeded_rng("columnar-blocking-test")
        entities = _beer_entities(rng, 80)
        left = [_beer_corrupt(e, rng, 0.6) for e in entities]
        right = [_beer_corrupt(e, rng, 1.0) for e in entities]
        return left, right

    def _both(self, left, right, **kwargs):
        return (
            block_records_reference(left, right, key="beer_name", **kwargs),
            block_records(left, right, key="beer_name", **kwargs),
        )

    def test_identical_on_corrupted_views(self, two_views):
        scalar, columnar = self._both(*two_views)
        assert scalar.pairs == columnar.pairs
        assert scalar.candidates_considered == columnar.candidates_considered
        assert scalar.reduction_ratio == columnar.reduction_ratio

    def test_identical_across_parameter_grid(self, two_views):
        left, right = two_views
        for cap in (1, 3):
            scalar, columnar = self._both(left, right, max_candidates_per_record=cap)
            assert scalar.pairs == columnar.pairs, cap
            assert scalar.candidates_considered == columnar.candidates_considered, cap

    def test_identical_on_fallback_heavy_input(self):
        # Every left record needs the sorted-neighborhood rescue.
        left = [{"k": "sierr nevda pal alee"}, {"k": "lucki otterr pilsner"}]
        right = [
            {"k": "sierra nevada pale ale"},
            {"k": "lucky otter pilsners"},
            {"k": ""},
            {"k": None},
        ]
        scalar = block_records_reference(left, right, key="k")
        columnar = block_records(left, right, key="k")
        assert scalar.pairs == columnar.pairs
        assert scalar.candidates_considered == columnar.candidates_considered


class TestDiscovery:
    @pytest.fixture()
    def db(self) -> Database:
        database = Database()
        database.register(
            Table.from_records(
                "customers",
                [{"first_name": "John", "last_name": "Smith", "city": "Boston"}],
            )
        )
        database.register(
            Table.from_records(
                "orders", [{"order_id": 1, "total": 20.0, "status": "shipped"}]
            )
        )
        database.register(
            Table.from_records("beers", [{"beer_name": "Stone IPA", "abv": 6.9}])
        )
        return database

    def test_finds_table_by_column_concepts(self, db):
        hits = search_tables(db, "customer names and cities")
        assert hits[0].table == "customers"

    def test_finds_table_by_values(self, db):
        hits = search_tables(db, "records about Boston")
        assert hits[0].table == "customers"

    def test_finds_table_by_domain_word(self, db):
        hits = search_tables(db, "beer abv strength")
        assert hits[0].table == "beers"

    def test_singular_plural_robust(self, db):
        singular = search_tables(db, "order status")
        assert singular and singular[0].table == "orders"

    def test_no_match_returns_empty(self, db):
        assert search_tables(db, "zzz qqq vvv") == []

    def test_limit_respected(self):
        database = Database()
        for index in range(7):
            database.register(Table.from_records(f"t{index}", [{"name": f"n{index}"}]))
        assert len(search_tables(database, "name")) == 5

    def test_empty_database(self):
        assert search_tables(Database(), "anything") == []

    def test_matched_terms_reported(self, db):
        hits = search_tables(db, "customer city")
        assert "city" in hits[0].matched_terms
