"""Statement AST for the SQL subset: one ``SELECT`` statement."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.expressions import Expression

__all__ = [
    "SelectItem",
    "Aggregate",
    "OrderItem",
    "SelectStatement",
]


@dataclass(frozen=True)
class Aggregate:
    """An aggregate call in a select list: COUNT/SUM/AVG/MIN/MAX.

    ``argument`` is ``None`` for ``COUNT(*)``.
    """

    function: str
    argument: Expression | None

    def sql(self) -> str:
        inner = "*" if self.argument is None else self.argument.sql()
        return f"{self.function}({inner})"


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: an expression or aggregate, with optional alias."""

    expression: Expression | Aggregate
    alias: str | None = None

    def output_name(self, position: int) -> str:
        """Column name this item produces in the result schema."""
        if self.alias:
            return self.alias
        from repro.storage.expressions import ColumnRef

        if isinstance(self.expression, ColumnRef):
            return self.expression.name
        if isinstance(self.expression, Aggregate):
            return self.expression.sql().lower().replace(" ", "")
        return f"col{position}"


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY key."""

    expression: Expression
    descending: bool = False


@dataclass
class SelectStatement:
    """``SELECT ... FROM ... [WHERE] [GROUP BY] [HAVING] [ORDER BY] [LIMIT]``."""

    items: list[SelectItem] = field(default_factory=list)
    star: bool = False
    table: str = ""
    where: Expression | None = None
    group_by: list[Expression] = field(default_factory=list)
    having: Expression | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
