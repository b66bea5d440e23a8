"""A named-table catalog with a SQL front end.

This is the locally-running store the optimizer's connector queries on the
LLM's behalf (paper section 3.2): the LLM sees only the schema and the
results of allow-listed queries, never the raw data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.sql.ast import SelectStatement, Statement
from repro.storage.sql.executor import SqlExecutionError, execute_statement
from repro.storage.sql.parser import parse_sql
from repro.storage.table import Table

__all__ = ["Database", "QueryLogEntry"]


@dataclass(frozen=True)
class QueryLogEntry:
    """One executed statement with its result cardinality."""

    sql: str
    kind: str
    rows_returned: int


@dataclass
class Database:
    """An in-memory database: tables by name plus a query log."""

    name: str = "default"
    tables: dict[str, Table] = field(default_factory=dict)
    query_log: list[QueryLogEntry] = field(default_factory=list)

    def register(self, table: Table, name: str | None = None) -> None:
        """Add (or replace) ``table`` under ``name`` (default: its own name)."""
        self.tables[name or table.name] = table

    def table(self, name: str) -> Table:
        """Fetch table ``name`` (raises KeyError if absent)."""
        if name not in self.tables:
            raise KeyError(f"no such table: {name!r}; have {sorted(self.tables)}")
        return self.tables[name]

    def execute(self, sql: str) -> Table | int:
        """Parse and run one SQL statement; logs the execution."""
        statement = parse_sql(sql)
        result = execute_statement(statement, self.tables)
        rows = len(result) if isinstance(result, Table) else int(result)
        self.query_log.append(
            QueryLogEntry(sql=sql, kind=type(statement).__name__, rows_returned=rows)
        )
        return result

    def query(self, sql: str) -> Table:
        """Run a SELECT and return its result table (rejects non-SELECT)."""
        statement = parse_sql(sql)
        if not isinstance(statement, SelectStatement):
            raise SqlExecutionError("query() only accepts SELECT statements")
        result = execute_statement(statement, self.tables)
        assert isinstance(result, Table)
        self.query_log.append(
            QueryLogEntry(sql=sql, kind="SelectStatement", rows_returned=len(result))
        )
        return result

    def parse(self, sql: str) -> Statement:
        """Parse without executing (used by the connector's allow-list check)."""
        return parse_sql(sql)

    def schema_text(self) -> str:
        """Human/LLM-readable description of every table's schema.

        This is the *only* data-shaped information the connector reveals to
        the LLM by default.
        """
        lines = []
        for name in sorted(self.tables):
            table = self.tables[name]
            columns = ", ".join(f"{c.name} {c.type}" for c in table.schema.columns)
            lines.append(f"TABLE {name} ({columns}) -- {len(table)} rows")
        return "\n".join(lines)
