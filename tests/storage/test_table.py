"""Tests for repro.storage.table."""

from __future__ import annotations

import pytest

from repro.storage.table import Column, ColumnType, Schema, Table


class TestColumnType:
    def test_convert_int(self):
        assert ColumnType.convert("42", ColumnType.INT) == 42

    def test_convert_float_string_to_int(self):
        assert ColumnType.convert("42.0", ColumnType.INT) == 42

    def test_convert_bool_strings(self):
        assert ColumnType.convert("true", ColumnType.BOOL) is True
        assert ColumnType.convert("no", ColumnType.BOOL) is False

    def test_empty_string_is_null(self):
        assert ColumnType.convert("", ColumnType.TEXT) is None

    def test_none_is_null(self):
        assert ColumnType.convert(None, ColumnType.FLOAT) is None

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError):
            ColumnType.convert("x", "BLOB")

    def test_infer_int(self):
        assert ColumnType.infer(["1", "2", None]) == ColumnType.INT

    def test_infer_float(self):
        assert ColumnType.infer(["1.5", "2"]) == ColumnType.FLOAT

    def test_infer_text(self):
        assert ColumnType.infer(["a", "1"]) == ColumnType.TEXT

    def test_infer_bool(self):
        assert ColumnType.infer(["true", "false"]) == ColumnType.BOOL

    def test_infer_empty_defaults_text(self):
        assert ColumnType.infer([]) == ColumnType.TEXT


class TestSchema:
    def test_names_in_order(self):
        schema = Schema(
            (Column("a"), Column("b", ColumnType.INT), Column("c", ColumnType.FLOAT))
        )
        assert schema.names == ["a", "b", "c"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema((Column("a"), Column("a")))

    def test_index_of(self):
        schema = Schema((Column("x"), Column("y")))
        assert schema.index_of("y") == 1
        with pytest.raises(KeyError):
            schema.index_of("z")

    def test_names(self):
        schema = Schema((Column("x"),))
        assert "x" in schema.names and "q" not in schema.names


class TestTable:
    def make(self) -> Table:
        return Table.from_records(
            "t",
            [
                {"id": 1, "name": "alpha", "price": 1.5},
                {"id": 2, "name": "beta", "price": None},
            ],
        )

    def test_schema_inference(self):
        table = self.make()
        types = {c.name: c.type for c in table.schema.columns}
        assert types == {"id": "INT", "name": "TEXT", "price": "FLOAT"}

    def test_insert_mapping(self):
        table = self.make()
        table.insert({"id": 3, "name": "gamma", "price": 2.0})
        assert len(table) == 3

    def test_insert_wrong_arity_raises(self):
        table = self.make()
        with pytest.raises(ValueError):
            table.insert([1, 2])

    def test_values_coerced_on_insert(self):
        table = self.make()
        table.insert(["7", "delta", "3.25"])
        assert table.record(2) == {"id": 7, "name": "delta", "price": 3.25}

    def test_column_access(self):
        assert self.make().column("name") == ["alpha", "beta"]

    def test_head(self):
        assert len(self.make().head(1)) == 1

    def test_csv_roundtrip(self):
        table = self.make()
        text = table.to_csv()
        back = Table.from_csv(text)
        assert back.records() == table.records()

    def test_csv_roundtrip_via_file(self, tmp_path):
        table = self.make()
        path = tmp_path / "t.csv"
        table.to_csv(path)
        back = Table.from_csv(path)
        assert back.records() == table.records()
        assert back.name == "t"

    def test_to_text_contains_headers_and_values(self):
        text = self.make().to_text()
        assert "name" in text and "alpha" in text

    def test_to_text_truncates(self):
        table = self.make()
        for i in range(30):
            table.insert([i, f"r{i}", 0.0])
        assert "more rows" in table.to_text()

    def test_copy_is_independent(self):
        table = self.make()
        clone = table.copy()
        clone.insert([9, "x", 0.0])
        assert len(table) == 2 and len(clone) == 3

    def test_empty_csv_raises(self):
        with pytest.raises(ValueError):
            Table.from_csv("")
