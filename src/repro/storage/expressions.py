"""Typed expression trees shared by the SQL engine.

Expressions evaluate against an *environment*: a mapping from column name to
value.  SQL three-valued logic is approximated with Python ``None`` as NULL:
comparisons with NULL yield ``None`` and ``WHERE`` treats ``None`` as false,
which matches the observable behaviour of the SQL subset we support.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Mapping

__all__ = [
    "Expression",
    "Literal",
    "ColumnRef",
    "UnaryOp",
    "BinaryOp",
    "FunctionCall",
    "InList",
    "IsNull",
    "Like",
    "evaluate",
]


class Expression:
    """Base class for expression nodes."""

    def sql(self) -> str:
        """Render back to SQL-ish text (used by EXPLAIN and the UI)."""
        raise NotImplementedError


@dataclass(frozen=True)
class Literal(Expression):
    """A constant value (number, string, boolean or NULL)."""

    value: Any

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return str(self.value)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to a column by name."""

    name: str

    def sql(self) -> str:
        return self.name


@dataclass(frozen=True)
class UnaryOp(Expression):
    """``NOT expr`` or ``-expr``."""

    op: str
    operand: Expression

    def sql(self) -> str:
        if self.op.upper() == "NOT":
            return f"NOT ({self.operand.sql()})"
        return f"{self.op}({self.operand.sql()})"


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Binary arithmetic, comparison or logical operator."""

    op: str
    left: Expression
    right: Expression

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass(frozen=True)
class FunctionCall(Expression):
    """Scalar function call: LOWER, UPPER, LENGTH, ABS, COALESCE."""

    name: str
    args: tuple[Expression, ...]

    def sql(self) -> str:
        return f"{self.name}({', '.join(a.sql() for a in self.args)})"


@dataclass(frozen=True)
class InList(Expression):
    """``expr IN (v1, v2, ...)`` (optionally negated)."""

    operand: Expression
    options: tuple[Expression, ...]
    negated: bool = False

    def sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {keyword} ({', '.join(o.sql() for o in self.options)}))"


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {keyword})"


@dataclass(frozen=True)
class Like(Expression):
    """``expr LIKE pattern`` with ``%`` and ``_`` wildcards (case-insensitive)."""

    operand: Expression
    pattern: str
    negated: bool = False

    def sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.sql()} {keyword} '{self.pattern}')"


def _like_to_regex(pattern: str) -> re.Pattern[str]:
    parts: list[str] = []
    for ch in pattern:
        if ch == "%":
            parts.append(".*")
        elif ch == "_":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("^" + "".join(parts) + "$", re.IGNORECASE | re.DOTALL)


_SCALAR_FUNCTIONS = {
    "LOWER": lambda args: None if args[0] is None else str(args[0]).lower(),
    "UPPER": lambda args: None if args[0] is None else str(args[0]).upper(),
    "LENGTH": lambda args: None if args[0] is None else len(str(args[0])),
    "ABS": lambda args: None if args[0] is None else abs(args[0]),
    "COALESCE": lambda args: next((a for a in args if a is not None), None),
    "TRIM": lambda args: None if args[0] is None else str(args[0]).strip(),
}


def _numeric(op: str, a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            return None
        return a / b
    if op == "%":
        if b == 0:
            return None
        return a % b
    raise ValueError(f"unknown arithmetic operator: {op}")


def _compare(op: str, a: Any, b: Any) -> Any:
    if a is None or b is None:
        return None
    # Allow numeric/text cross-comparison by coercing numbers when one side
    # is a string that parses; otherwise compare as-is.
    if isinstance(a, str) != isinstance(b, str):
        try:
            a = float(a)
            b = float(b)
        except (TypeError, ValueError):
            a, b = str(a), str(b)
    if op in ("=", "=="):
        return a == b
    if op in ("!=", "<>"):
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    raise ValueError(f"unknown comparison operator: {op}")


def evaluate(expr: Expression, env: Mapping[str, Any]) -> Any:
    """Evaluate ``expr`` against environment ``env`` (column -> value)."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        if expr.name not in env:
            raise KeyError(f"unknown column {expr.name!r}")
        return env[expr.name]
    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, env)
        if expr.op.upper() == "NOT":
            return None if value is None else not bool(value)
        if expr.op == "-":
            return None if value is None else -value
        raise ValueError(f"unknown unary operator: {expr.op}")
    if isinstance(expr, BinaryOp):
        op = expr.op.upper()
        if op in ("AND", "OR"):
            left = evaluate(expr.left, env)
            right = evaluate(expr.right, env)
            lb = None if left is None else bool(left)
            rb = None if right is None else bool(right)
            if op == "AND":
                if lb is False or rb is False:
                    return False
                if lb is None or rb is None:
                    return None
                return True
            if lb is True or rb is True:
                return True
            if lb is None or rb is None:
                return None
            return False
        left = evaluate(expr.left, env)
        right = evaluate(expr.right, env)
        if expr.op in ("+", "-", "*", "/", "%"):
            if expr.op == "+" and (isinstance(left, str) or isinstance(right, str)):
                if left is None or right is None:
                    return None
                return str(left) + str(right)
            return _numeric(expr.op, left, right)
        return _compare(expr.op, left, right)
    if isinstance(expr, FunctionCall):
        fn = _SCALAR_FUNCTIONS.get(expr.name.upper())
        if fn is None:
            raise ValueError(f"unknown function: {expr.name}")
        return fn([evaluate(a, env) for a in expr.args])
    if isinstance(expr, InList):
        value = evaluate(expr.operand, env)
        if value is None:
            return None
        members = [evaluate(o, env) for o in expr.options]
        hit = any(_compare("=", value, m) is True for m in members)
        return (not hit) if expr.negated else hit
    if isinstance(expr, IsNull):
        value = evaluate(expr.operand, env)
        return (value is not None) if expr.negated else (value is None)
    if isinstance(expr, Like):
        value = evaluate(expr.operand, env)
        if value is None:
            return None
        hit = bool(_like_to_regex(expr.pattern).match(str(value)))
        return (not hit) if expr.negated else hit
    raise TypeError(f"cannot evaluate expression of type {type(expr).__name__}")
