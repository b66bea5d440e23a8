"""Property-based tests: the SQL engine vs a naive Python reference."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.database import Database
from repro.storage.table import Column, ColumnType, Schema, Table

ROWS = st.lists(
    st.tuples(
        st.integers(-50, 50),
        st.one_of(st.none(), st.floats(-100, 100, allow_nan=False)),
        st.sampled_from(["red", "green", "blue", "Red Wine", ""]),
    ),
    max_size=25,
)


def make_db(rows) -> Database:
    schema = Schema(
        (
            Column("k", ColumnType.INT),
            Column("v", ColumnType.FLOAT),
            Column("c", ColumnType.TEXT),
        )
    )
    table = Table("t", schema)
    for row in rows:
        table.insert(row)
    db = Database()
    db.register(table)
    return db


@settings(max_examples=60, deadline=None)
@given(ROWS, st.integers(-50, 50))
def test_where_filter_matches_reference(rows, threshold):
    db = make_db(rows)
    result = db.query(f"SELECT k FROM t WHERE k > {threshold}")
    expected = [k for k in db.table("t").column("k") if k is not None and k > threshold]
    assert result.column("k") == expected


@settings(max_examples=60, deadline=None)
@given(ROWS)
def test_count_and_sum_match_reference(rows):
    db = make_db(rows)
    result = db.query("SELECT COUNT(*) AS n, COUNT(v) AS nv, SUM(k) AS s FROM t")
    record = result.record(0)
    raw = db.table("t").records()
    assert record["n"] == len(raw)
    assert record["nv"] == sum(1 for r in raw if r["v"] is not None)
    expected_sum = sum(r["k"] for r in raw) if raw else None
    assert record["s"] == expected_sum


@settings(max_examples=60, deadline=None)
@given(ROWS)
def test_order_by_sorts_non_nulls(rows):
    db = make_db(rows)
    result = db.query("SELECT v FROM t WHERE v IS NOT NULL ORDER BY v")
    values = result.column("v")
    assert values == sorted(values)


@settings(max_examples=60, deadline=None)
@given(ROWS, st.integers(0, 10))
def test_limit_caps_cardinality(rows, limit):
    db = make_db(rows)
    result = db.query(f"SELECT * FROM t LIMIT {limit}")
    assert len(result) == min(limit, len(rows))


@settings(max_examples=60, deadline=None)
@given(ROWS)
def test_distinct_removes_duplicates(rows):
    db = make_db(rows)
    result = db.query("SELECT DISTINCT c FROM t")
    expected = []
    for c in db.table("t").column("c"):
        if c not in expected:
            expected.append(c)
    assert result.column("c") == expected


@settings(max_examples=60, deadline=None)
@given(ROWS)
def test_group_by_counts_match_reference(rows):
    db = make_db(rows)
    result = db.query("SELECT c, COUNT(*) AS n FROM t GROUP BY c")
    from collections import Counter

    expected = Counter(db.table("t").column("c"))
    got = {r["c"]: r["n"] for r in result.records()}
    assert got == dict(expected)
