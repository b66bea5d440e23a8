"""A named-table catalog with a SQL front end.

This is the locally-running store the optimizer's connector queries on the
LLM's behalf (paper section 3.2): the LLM sees only the schema and the
results of allow-listed queries, never the raw data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.sql.executor import execute_statement
from repro.storage.sql.parser import parse_sql
from repro.storage.table import Table

__all__ = ["Database"]


@dataclass
class Database:
    """An in-memory, read-only-through-SQL database: tables by name."""

    tables: dict[str, Table] = field(default_factory=dict)

    def register(self, table: Table) -> None:
        """Add (or replace) ``table`` under its own name."""
        self.tables[table.name] = table

    def table(self, name: str) -> Table:
        """Fetch table ``name`` (raises KeyError if absent)."""
        if name not in self.tables:
            raise KeyError(f"no such table: {name!r}; have {sorted(self.tables)}")
        return self.tables[name]

    def query(self, sql: str) -> Table:
        """Run one ``SELECT`` and return its result table."""
        return execute_statement(parse_sql(sql), self.tables)

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
