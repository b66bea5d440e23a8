"""Tests for the typed expression evaluator."""

from __future__ import annotations

import pytest

from repro.storage.expressions import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
    evaluate,
)

ENV = {"a": 10, "b": 3, "name": "Stone IPA", "missing": None}


def col(name: str) -> ColumnRef:
    return ColumnRef(name)


class TestArithmetic:
    def test_add(self):
        assert evaluate(BinaryOp("+", col("a"), col("b")), ENV) == 13

    def test_divide(self):
        assert evaluate(BinaryOp("/", col("a"), Literal(4)), ENV) == 2.5

    def test_divide_by_zero_is_null(self):
        assert evaluate(BinaryOp("/", col("a"), Literal(0)), ENV) is None

    def test_modulo(self):
        assert evaluate(BinaryOp("%", col("a"), col("b")), ENV) == 1

    def test_string_concat_with_plus(self):
        assert evaluate(BinaryOp("+", Literal("x"), Literal("y")), ENV) == "xy"

    def test_null_propagates(self):
        assert evaluate(BinaryOp("+", col("missing"), Literal(1)), ENV) is None

    def test_unary_minus(self):
        assert evaluate(UnaryOp("-", col("b")), ENV) == -3


class TestComparisons:
    def test_equals(self):
        assert evaluate(BinaryOp("=", col("a"), Literal(10)), ENV) is True

    def test_not_equals(self):
        assert evaluate(BinaryOp("<>", col("a"), Literal(10)), ENV) is False

    def test_less_than(self):
        assert evaluate(BinaryOp("<", col("b"), col("a")), ENV) is True

    def test_null_comparison_is_null(self):
        assert evaluate(BinaryOp("=", col("missing"), Literal(1)), ENV) is None

    def test_numeric_string_coercion(self):
        assert evaluate(BinaryOp("=", Literal("10"), Literal(10)), ENV) is True


class TestLogic:
    def test_and_short_circuit_with_null(self):
        # NULL AND FALSE is FALSE in three-valued logic.
        expr = BinaryOp("AND", BinaryOp("=", col("missing"), Literal(1)), Literal(False))
        assert evaluate(expr, ENV) is False

    def test_and_with_null_and_true_is_null(self):
        expr = BinaryOp("AND", BinaryOp("=", col("missing"), Literal(1)), Literal(True))
        assert evaluate(expr, ENV) is None

    def test_or_true_dominates_null(self):
        expr = BinaryOp("OR", BinaryOp("=", col("missing"), Literal(1)), Literal(True))
        assert evaluate(expr, ENV) is True

    def test_not(self):
        assert evaluate(UnaryOp("NOT", Literal(True)), ENV) is False

    def test_not_null_is_null(self):
        assert evaluate(UnaryOp("NOT", BinaryOp("=", col("missing"), Literal(1))), ENV) is None


class TestPredicates:
    def test_in_list(self):
        assert evaluate(InList(col("a"), (Literal(5), Literal(10))), ENV) is True

    def test_not_in_list(self):
        assert evaluate(InList(col("a"), (Literal(5),), negated=True), ENV) is True

    def test_in_with_null_operand(self):
        assert evaluate(InList(col("missing"), (Literal(1),)), ENV) is None

    def test_is_null(self):
        assert evaluate(IsNull(col("missing")), ENV) is True
        assert evaluate(IsNull(col("a")), ENV) is False

    def test_is_not_null(self):
        assert evaluate(IsNull(col("a"), negated=True), ENV) is True

    def test_like_percent(self):
        assert evaluate(Like(col("name"), "Stone%"), ENV) is True

    def test_like_underscore(self):
        assert evaluate(Like(Literal("cat"), "c_t"), ENV) is True

    def test_like_case_insensitive(self):
        assert evaluate(Like(col("name"), "stone%"), ENV) is True

    def test_not_like(self):
        assert evaluate(Like(col("name"), "Lager%", negated=True), ENV) is True


class TestFunctions:
    def test_lower_upper(self):
        assert evaluate(FunctionCall("LOWER", (col("name"),)), ENV) == "stone ipa"
        assert evaluate(FunctionCall("UPPER", (Literal("ab"),)), ENV) == "AB"

    def test_length(self):
        assert evaluate(FunctionCall("LENGTH", (Literal("abc"),)), ENV) == 3

    def test_coalesce(self):
        expr = FunctionCall("COALESCE", (col("missing"), Literal("fallback")))
        assert evaluate(expr, ENV) == "fallback"

    def test_abs(self):
        assert evaluate(FunctionCall("ABS", (Literal(-4),)), ENV) == 4

    def test_unknown_function_raises(self):
        with pytest.raises(ValueError):
            evaluate(FunctionCall("NOPE", (Literal(1),)), ENV)


class TestMisc:
    def test_unknown_column_raises(self):
        with pytest.raises(KeyError):
            evaluate(col("nope"), ENV)

    def test_sql_rendering_roundtrips_structure(self):
        expr = BinaryOp("AND", BinaryOp(">", col("a"), Literal(1)), IsNull(col("b")))
        rendered = expr.sql()
        assert "a > 1" in rendered and "IS NULL" in rendered

    def test_string_literal_escaping(self):
        assert Literal("it's").sql() == "'it''s'"
