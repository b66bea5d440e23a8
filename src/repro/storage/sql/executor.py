"""Executor for the SQL subset: a ``SELECT`` against a table catalog."""

from __future__ import annotations

from typing import Any, Mapping

from repro.storage.expressions import evaluate
from repro.storage.sql.ast import Aggregate, SelectStatement
from repro.storage.table import Column, ColumnType, Schema, Table

__all__ = ["SqlExecutionError", "execute_statement"]


class SqlExecutionError(ValueError):
    """Raised on semantic errors (unknown table/column, bad aggregates...)."""


def execute_statement(statement: SelectStatement, catalog: Mapping[str, Table]) -> Table:
    """Run ``statement`` against ``catalog`` (name -> Table); a new result table."""
    if statement.table not in catalog:
        raise SqlExecutionError(
            f"no such table: {statement.table!r}; have {sorted(catalog)}"
        )
    table = catalog[statement.table]
    records = table.records()
    if statement.where is not None:
        records = [r for r in records if evaluate(statement.where, r) is True]

    has_aggregates = any(
        isinstance(item.expression, Aggregate) for item in statement.items
    )
    if statement.group_by or has_aggregates:
        result_records, names = _grouped_select(statement, records)
        environments = result_records
    else:
        result_records, names = _plain_select(statement, records, table)
        # ORDER BY may reference base columns that were projected away, so
        # sort keys are evaluated against base record + projected values.
        environments = [
            {**base, **projected}
            for base, projected in zip(records, result_records)
        ]

    if statement.having is not None and not (statement.group_by or has_aggregates):
        raise SqlExecutionError("HAVING requires GROUP BY or aggregates")

    if statement.order_by:
        result_records = _order(result_records, statement, environments)
    if statement.distinct:
        seen: set[tuple[Any, ...]] = set()
        unique: list[dict[str, Any]] = []
        for record in result_records:
            key = tuple(record[n] for n in names)
            if key not in seen:
                seen.add(key)
                unique.append(record)
        result_records = unique
    if statement.offset:
        result_records = result_records[statement.offset :]
    if statement.limit is not None:
        result_records = result_records[: statement.limit]

    return Table.from_records(
        "result", result_records, schema=_result_schema(names, result_records)
    )


def _result_schema(names: list[str], records: list[dict[str, Any]]) -> Schema:
    columns = tuple(
        Column(name, ColumnType.infer(r.get(name) for r in records)) for name in names
    )
    return Schema(columns)


def _plain_select(
    statement: SelectStatement, records: list[dict[str, Any]], table: Table
) -> tuple[list[dict[str, Any]], list[str]]:
    if statement.star:
        names = table.schema.names
        return [dict(r) for r in records], list(names)
    names = [item.output_name(i) for i, item in enumerate(statement.items)]
    out = []
    for record in records:
        row: dict[str, Any] = {}
        for name, item in zip(names, statement.items):
            row[name] = evaluate(item.expression, record)  # type: ignore[arg-type]
        out.append(row)
    return out, names


def _aggregate_value(agg: Aggregate, group: list[dict[str, Any]]) -> Any:
    if agg.function == "COUNT" and agg.argument is None:
        return len(group)
    values = [evaluate(agg.argument, r) for r in group]  # type: ignore[arg-type]
    values = [v for v in values if v is not None]
    if agg.function == "COUNT":
        return len(values)
    if not values:
        return None
    if agg.function == "SUM":
        return sum(values)
    if agg.function == "AVG":
        return sum(values) / len(values)
    if agg.function == "MIN":
        return min(values)
    if agg.function == "MAX":
        return max(values)
    raise SqlExecutionError(f"unknown aggregate: {agg.function}")


def _grouped_select(
    statement: SelectStatement, records: list[dict[str, Any]]
) -> tuple[list[dict[str, Any]], list[str]]:
    if statement.star:
        raise SqlExecutionError("SELECT * cannot be combined with aggregation")
    # Bucket rows by the GROUP BY key (a single global group if absent).
    groups: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
    order: list[tuple[Any, ...]] = []
    for record in records:
        key = tuple(evaluate(e, record) for e in statement.group_by)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(record)
    if not statement.group_by and not groups:
        groups[()] = []
        order.append(())

    names = [item.output_name(i) for i, item in enumerate(statement.items)]
    group_by_sql = [e.sql() for e in statement.group_by]
    out: list[dict[str, Any]] = []
    for key in order:
        group = groups[key]
        row: dict[str, Any] = {}
        env: dict[str, Any] = dict(group[0]) if group else {}
        # Expose aggregate results under their rendered names so HAVING can
        # reference e.g. COUNT(*) indirectly through the output alias.
        for name, item in zip(names, statement.items):
            if isinstance(item.expression, Aggregate):
                row[name] = _aggregate_value(item.expression, group)
            else:
                expr_sql = item.expression.sql()
                if statement.group_by and expr_sql not in group_by_sql:
                    raise SqlExecutionError(
                        f"non-aggregated column {expr_sql} must appear in GROUP BY"
                    )
                if not group:
                    row[name] = None
                else:
                    row[name] = evaluate(item.expression, group[0])
            env[name] = row[name]
        if statement.having is not None:
            if evaluate(statement.having, env) is not True:
                continue
        out.append(row)
    return out, names


def _order(
    records: list[dict[str, Any]],
    statement: SelectStatement,
    environments: list[dict[str, Any]] | None = None,
) -> list[dict[str, Any]]:
    """Sort ``records``; sort keys are evaluated against ``environments``.

    ``environments`` carries the base columns alongside the projected ones
    so ORDER BY works on columns the projection dropped.  None sorts first
    ascending / last descending (SQLite order).
    """
    envs = environments if environments is not None else records

    def sort_key(pair: tuple[dict[str, Any], dict[str, Any]]):
        _, env = pair
        key = []
        for item in statement.order_by:
            try:
                value = evaluate(item.expression, env)
            except KeyError:
                # Unknown name: fall back to the rendered-alias lookup.
                value = env.get(item.expression.sql())
            null_rank = 0 if value is None else 1
            if item.descending:
                key.append((-null_rank, _Reversed(value)))
            else:
                key.append((null_rank, _Comparable(value)))
        return tuple(key)

    paired = sorted(zip(records, envs), key=sort_key)
    return [record for record, _ in paired]


class _Comparable:
    """Wrap heterogeneous values so sorting never raises TypeError."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def _rank(self) -> tuple[int, Any]:
        if self.value is None:
            return (0, 0)
        if isinstance(self.value, bool):
            return (1, int(self.value))
        if isinstance(self.value, (int, float)):
            return (2, self.value)
        return (3, str(self.value))

    def __lt__(self, other: "_Comparable") -> bool:
        return self._rank() < other._rank()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Comparable) and self._rank() == other._rank()


class _Reversed(_Comparable):
    """Descending-order wrapper."""

    def __lt__(self, other: "_Comparable") -> bool:  # type: ignore[override]
        return other._rank() < self._rank()
