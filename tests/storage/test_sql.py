"""Tests for the SQL lexer, parser and executor."""

from __future__ import annotations

import pytest

from repro.storage.database import Database
from repro.storage.sql.ast import SelectStatement
from repro.storage.sql.lexer import SqlLexError, tokenize_sql
from repro.storage.sql.parser import SqlParseError, parse_sql
from repro.storage.table import Table


@pytest.fixture()
def db() -> Database:
    database = Database()
    database.register(
        Table.from_records(
            "beers",
            [
                {"id": 1, "name": "Stone IPA", "abv": 6.9, "brewery": "Stone"},
                {"id": 2, "name": "Wild Otter", "abv": 5.1, "brewery": "Avery"},
                {"id": 3, "name": "Old Monk", "abv": None, "brewery": "Stone"},
                {"id": 4, "name": "Raging Moon", "abv": 9.0, "brewery": "Bells"},
            ],
        )
    )
    return database


class TestLexer:
    def test_keywords_uppercased(self):
        kinds = [(t.kind, t.value) for t in tokenize_sql("select a FROM t")]
        assert kinds[0] == ("KEYWORD", "SELECT")
        assert kinds[2] == ("KEYWORD", "FROM")

    def test_string_with_escaped_quote(self):
        tokens = tokenize_sql("SELECT 'it''s'")
        assert tokens[1] == tokens[1].__class__("STRING", "it's", tokens[1].position)

    def test_numbers(self):
        tokens = tokenize_sql("1 2.5")
        assert [t.value for t in tokens] == ["1", "2.5"]

    def test_unterminated_string_raises(self):
        with pytest.raises(SqlLexError):
            tokenize_sql("SELECT 'oops")

    def test_unknown_character_raises(self):
        with pytest.raises(SqlLexError):
            tokenize_sql("SELECT @")


class TestParser:
    def test_simple_select(self):
        statement = parse_sql("SELECT name FROM beers")
        assert isinstance(statement, SelectStatement)
        assert statement.table == "beers"
        assert not statement.star

    def test_select_star(self):
        assert parse_sql("SELECT * FROM t").star is True

    def test_where_with_precedence(self):
        statement = parse_sql("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
        # AND binds tighter than OR.
        assert statement.where.op == "OR"

    def test_order_limit_offset(self):
        statement = parse_sql("SELECT * FROM t ORDER BY a DESC, b LIMIT 5 OFFSET 2")
        assert statement.order_by[0].descending is True
        assert statement.order_by[1].descending is False
        assert statement.limit == 5 and statement.offset == 2

    def test_group_by_having(self):
        statement = parse_sql(
            "SELECT brewery, COUNT(*) AS n FROM beers GROUP BY brewery HAVING n > 1"
        )
        assert len(statement.group_by) == 1
        assert statement.having is not None

    def test_aliases(self):
        statement = parse_sql("SELECT name AS n, abv strength FROM beers")
        assert statement.items[0].alias == "n"
        assert statement.items[1].alias == "strength"

    # The store is read-only: a write statement is refused at parse time,
    # and the error names its keyword.
    def test_insert(self):
        with pytest.raises(SqlParseError, match="INSERT"):
            parse_sql("INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)")

    def test_create_table(self):
        with pytest.raises(SqlParseError, match="CREATE"):
            parse_sql("CREATE TABLE t (a INT, b TEXT)")

    def test_delete(self):
        with pytest.raises(SqlParseError, match="DELETE"):
            parse_sql("DELETE FROM t WHERE a = 1")

    def test_trailing_garbage_raises(self):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT * FROM t garbage here")

    def test_empty_raises(self):
        with pytest.raises(SqlParseError):
            parse_sql("   ")

    def test_unsupported_statement_raises(self):
        with pytest.raises(SqlParseError):
            parse_sql("UPDATE t SET a = 1")

    def test_like_requires_string(self):
        with pytest.raises(SqlParseError):
            parse_sql("SELECT * FROM t WHERE a LIKE 5")


class TestExecutor:
    def test_projection(self, db: Database):
        result = db.query("SELECT name FROM beers")
        assert result.schema.names == ["name"]
        assert len(result) == 4

    def test_where_filters(self, db: Database):
        result = db.query("SELECT name FROM beers WHERE abv > 6")
        assert sorted(result.column("name")) == ["Raging Moon", "Stone IPA"]

    def test_null_excluded_by_comparison(self, db: Database):
        result = db.query("SELECT name FROM beers WHERE abv < 100")
        assert "Old Monk" not in result.column("name")

    def test_is_null(self, db: Database):
        result = db.query("SELECT name FROM beers WHERE abv IS NULL")
        assert result.column("name") == ["Old Monk"]

    def test_like(self, db: Database):
        result = db.query("SELECT name FROM beers WHERE name LIKE '%moon%'")
        assert result.column("name") == ["Raging Moon"]

    def test_in_list(self, db: Database):
        result = db.query("SELECT name FROM beers WHERE brewery IN ('Stone', 'Bells')")
        assert len(result) == 3

    def test_order_by_desc_nulls_last(self, db: Database):
        result = db.query("SELECT name, abv FROM beers ORDER BY abv DESC")
        assert result.column("name")[0] == "Raging Moon"
        assert result.column("name")[-1] == "Old Monk"

    def test_order_by_asc_nulls_first(self, db: Database):
        result = db.query("SELECT name FROM beers ORDER BY abv ASC")
        assert result.column("name")[0] == "Old Monk"

    def test_limit_offset(self, db: Database):
        result = db.query("SELECT id FROM beers ORDER BY id LIMIT 2 OFFSET 1")
        assert result.column("id") == [2, 3]

    def test_distinct(self, db: Database):
        result = db.query("SELECT DISTINCT brewery FROM beers")
        assert len(result) == 3

    def test_count_star(self, db: Database):
        result = db.query("SELECT COUNT(*) AS n FROM beers")
        assert result.column("n") == [4]

    def test_count_column_skips_nulls(self, db: Database):
        result = db.query("SELECT COUNT(abv) AS n FROM beers")
        assert result.column("n") == [3]

    def test_avg_min_max_sum(self, db: Database):
        result = db.query("SELECT AVG(abv) a, MIN(abv) lo, MAX(abv) hi, SUM(abv) s FROM beers")
        record = result.record(0)
        assert record["lo"] == 5.1 and record["hi"] == 9.0
        assert record["a"] == pytest.approx((6.9 + 5.1 + 9.0) / 3)
        assert record["s"] == pytest.approx(21.0)

    def test_group_by(self, db: Database):
        result = db.query(
            "SELECT brewery, COUNT(*) AS n FROM beers GROUP BY brewery ORDER BY n DESC"
        )
        assert result.record(0) == {"brewery": "Stone", "n": 2}

    def test_having(self, db: Database):
        result = db.query(
            "SELECT brewery, COUNT(*) AS n FROM beers GROUP BY brewery HAVING n > 1"
        )
        assert result.column("brewery") == ["Stone"]

    def test_group_by_rejects_ungrouped_column(self, db: Database):
        from repro.storage.sql.executor import SqlExecutionError

        with pytest.raises(SqlExecutionError):
            db.query("SELECT name, COUNT(*) FROM beers GROUP BY brewery")

    def test_scalar_function_in_where(self, db: Database):
        result = db.query("SELECT name FROM beers WHERE LOWER(brewery) = 'stone'")
        assert len(result) == 2

    def test_arithmetic_in_projection(self, db: Database):
        result = db.query("SELECT abv * 2 AS double FROM beers WHERE id = 1")
        assert result.column("double") == [pytest.approx(13.8)]

    def test_unknown_table_raises(self, db: Database):
        from repro.storage.sql.executor import SqlExecutionError

        with pytest.raises(SqlExecutionError):
            db.query("SELECT * FROM nope")

    def test_query_rejects_non_select(self, db: Database):
        with pytest.raises(SqlParseError, match="DELETE"):
            db.query("DELETE FROM beers")
        assert len(db.table("beers")) == 4

    def test_schema_text_mentions_tables(self, db: Database):
        assert "TABLE beers" in db.schema_text()
        assert "4 rows" in db.schema_text()
