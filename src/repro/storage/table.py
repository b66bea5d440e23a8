"""In-memory relational table with a typed schema and CSV/JSON I/O.

The :class:`Table` is the unit of data that flows through Lingua Manga
pipelines (load -> curate -> save) and the storage layer the optimizer's
connector queries via SQL.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

__all__ = ["ColumnType", "Column", "Schema", "Table"]


class ColumnType:
    """Supported column types and their conversion rules."""

    INT = "INT"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOL = "BOOL"

    ALL = (INT, FLOAT, TEXT, BOOL)

    @staticmethod
    def convert(value: Any, type_name: str) -> Any:
        """Coerce ``value`` to ``type_name``; ``None`` and '' become NULL."""
        if value is None or (isinstance(value, str) and value == ""):
            return None
        if type_name == ColumnType.INT:
            return int(float(value))
        if type_name == ColumnType.FLOAT:
            return float(value)
        if type_name == ColumnType.BOOL:
            if isinstance(value, str):
                return value.strip().lower() in {"1", "true", "t", "yes"}
            return bool(value)
        if type_name == ColumnType.TEXT:
            return str(value)
        raise ValueError(f"unknown column type: {type_name}")

    @staticmethod
    def infer(values: Iterable[Any]) -> str:
        """Infer the narrowest type that fits all non-null ``values``."""
        saw_any = False
        could_be_int = could_be_float = could_be_bool = True
        for value in values:
            if value is None or value == "":
                continue
            saw_any = True
            text = str(value).strip()
            if text.lower() not in {"true", "false", "t", "f", "0", "1", "yes", "no"}:
                could_be_bool = False
            try:
                as_float = float(text)
                if not as_float.is_integer():
                    could_be_int = False
            except ValueError:
                could_be_int = could_be_float = False
        if not saw_any:
            return ColumnType.TEXT
        if could_be_bool and not could_be_int:
            return ColumnType.BOOL
        if could_be_int:
            return ColumnType.INT
        if could_be_float:
            return ColumnType.FLOAT
        return ColumnType.TEXT


@dataclass(frozen=True)
class Column:
    """A named, typed column."""

    name: str
    type: str = ColumnType.TEXT

    def __post_init__(self) -> None:
        if self.type not in ColumnType.ALL:
            raise ValueError(f"unknown column type: {self.type}")


@dataclass(frozen=True)
class Schema:
    """An ordered collection of columns with name lookup."""

    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate column names in schema: {names}")

    @classmethod
    def of(cls, *specs: str | Column | tuple[str, str]) -> "Schema":
        """Build a schema from names, ``(name, type)`` pairs, or columns."""
        columns: list[Column] = []
        for spec in specs:
            if isinstance(spec, Column):
                columns.append(spec)
            elif isinstance(spec, tuple):
                columns.append(Column(spec[0], spec[1]))
            else:
                columns.append(Column(spec))
        return cls(tuple(columns))

    @property
    def names(self) -> list[str]:
        """Column names in order."""
        return [c.name for c in self.columns]

    def index_of(self, name: str) -> int:
        """Position of column ``name`` (raises KeyError if absent)."""
        for i, column in enumerate(self.columns):
            if column.name == name:
                return i
        raise KeyError(f"no such column: {name!r}; have {self.names}")

    def __contains__(self, name: object) -> bool:
        return any(c.name == name for c in self.columns)

    def __len__(self) -> int:
        return len(self.columns)


class Table:
    """A named, schema-typed, row-oriented table.

    Rows are stored as tuples aligned with the schema.  Values are coerced on
    insert, so a ``Table`` is always internally consistent.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[Any]] | None = None,
    ):
        self.name = name
        self.schema = schema
        self._rows: list[tuple[Any, ...]] = []
        if rows is not None:
            for row in rows:
                self.insert(row)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_records(
        cls,
        name: str,
        records: Sequence[Mapping[str, Any]],
        schema: Schema | None = None,
    ) -> "Table":
        """Build a table from dict records, inferring the schema if absent."""
        if schema is None:
            keys: list[str] = []
            for record in records:
                for key in record:
                    if key not in keys:
                        keys.append(key)
            columns = tuple(
                Column(key, ColumnType.infer(r.get(key) for r in records))
                for key in keys
            )
            schema = Schema(columns)
        table = cls(name, schema)
        for record in records:
            table.insert([record.get(c.name) for c in schema.columns])
        return table

    # -- mutation --------------------------------------------------------------

    def insert(self, row: Sequence[Any] | Mapping[str, Any]) -> None:
        """Insert one row (sequence in schema order, or a mapping)."""
        if isinstance(row, Mapping):
            row = [row.get(c.name) for c in self.schema.columns]
        if len(row) != len(self.schema):
            raise ValueError(
                f"row has {len(row)} values but schema has {len(self.schema)} columns"
            )
        converted = tuple(
            ColumnType.convert(value, column.type)
            for value, column in zip(row, self.schema.columns)
        )
        self._rows.append(converted)

    def extend(self, rows: Iterable[Sequence[Any] | Mapping[str, Any]]) -> None:
        """Insert many rows."""
        for row in rows:
            self.insert(row)

    # -- access ------------------------------------------------------------------

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        """The raw row tuples (do not mutate)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._rows)

    def record(self, index: int) -> dict[str, Any]:
        """Row ``index`` as a dict keyed by column name."""
        return dict(zip(self.schema.names, self._rows[index]))

    def records(self) -> list[dict[str, Any]]:
        """All rows as dicts."""
        names = self.schema.names
        return [dict(zip(names, row)) for row in self._rows]

    def column(self, name: str) -> list[Any]:
        """All values of column ``name``."""
        index = self.schema.index_of(name)
        return [row[index] for row in self._rows]

    def select_rows(self, predicate: Callable[[dict[str, Any]], bool]) -> "Table":
        """New table containing the rows whose record satisfies ``predicate``."""
        out = Table(self.name, self.schema)
        for record, row in zip(self.records(), self._rows):
            if predicate(record):
                out._rows.append(row)
        return out

    def head(self, n: int = 5) -> "Table":
        """New table with the first ``n`` rows."""
        out = Table(self.name, self.schema)
        out._rows = list(self._rows[:n])
        return out

    def copy(self, name: str | None = None) -> "Table":
        """Shallow copy (rows are immutable tuples so this is safe)."""
        out = Table(name or self.name, self.schema)
        out._rows = list(self._rows)
        return out

    # -- serialisation -------------------------------------------------------------

    def to_csv(self, path: str | Path | None = None) -> str:
        """Write CSV (returned as a string; also written to ``path`` if given)."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.schema.names)
        for row in self._rows:
            writer.writerow(["" if v is None else v for v in row])
        text = buffer.getvalue()
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_csv(
        cls, source: str | Path, name: str | None = None, schema: Schema | None = None
    ) -> "Table":
        """Read a table from a CSV file path or CSV text."""
        path = Path(source) if isinstance(source, Path) else None
        if path is None:
            candidate = Path(str(source))
            try:
                if candidate.is_file():
                    path = candidate
            except OSError:
                path = None
        text = path.read_text(encoding="utf-8") if path else str(source)
        reader = csv.reader(io.StringIO(text))
        rows = list(reader)
        if not rows:
            raise ValueError("CSV source is empty")
        header, data = rows[0], rows[1:]
        if schema is None:
            columns = tuple(
                Column(
                    header[i],
                    ColumnType.infer(row[i] if i < len(row) else None for row in data),
                )
                for i in range(len(header))
            )
            schema = Schema(columns)
        table_name = name or (path.stem if path else "table")
        table = cls(table_name, schema)
        for row in data:
            padded = list(row) + [None] * (len(schema) - len(row))
            table.insert(padded[: len(schema)])
        return table

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialise to a JSON document with schema and rows."""
        doc = {
            "name": self.name,
            "schema": [{"name": c.name, "type": c.type} for c in self.schema.columns],
            "rows": [list(row) for row in self._rows],
        }
        text = json.dumps(doc, ensure_ascii=False, indent=2)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, source: str | Path) -> "Table":
        """Deserialise a table previously written by :meth:`to_json`."""
        path = Path(str(source))
        try:
            exists = path.is_file()
        except OSError:
            exists = False
        text = path.read_text(encoding="utf-8") if exists else str(source)
        doc = json.loads(text)
        schema = Schema(tuple(Column(c["name"], c["type"]) for c in doc["schema"]))
        table = cls(doc["name"], schema)
        for row in doc["rows"]:
            table.insert(row)
        return table

    # -- display -------------------------------------------------------------------

    def to_text(self, max_rows: int = 20) -> str:
        """Fixed-width textual rendering (used by the terminal UI)."""
        names = self.schema.names
        shown = self._rows[:max_rows]
        widths = [len(n) for n in names]
        rendered = [["" if v is None else str(v) for v in row] for row in shown]
        for row in rendered:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [
            " | ".join(n.ljust(w) for n, w in zip(names, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rendered:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if len(self._rows) > max_rows:
            lines.append(f"... ({len(self._rows) - max_rows} more rows)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"Table({self.name!r}, {len(self)} rows, cols={self.schema.names})"
