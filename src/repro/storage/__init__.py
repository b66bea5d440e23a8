"""Relational storage substrate: typed tables, a SQL subset, a catalog."""

from repro.storage.columnar import ColumnarBlock, TokenColumn, Vocabulary
from repro.storage.database import Database, QueryLogEntry
from repro.storage.spill import SpillStore, SpillWriteError
from repro.storage.sql.executor import SqlExecutionError, execute_statement
from repro.storage.sql.lexer import SqlLexError, tokenize_sql
from repro.storage.sql.parser import SqlParseError, parse_sql
from repro.storage.table import Column, ColumnType, Schema, Table

__all__ = [
    "ColumnarBlock",
    "TokenColumn",
    "Vocabulary",
    "Database",
    "QueryLogEntry",
    "SpillStore",
    "SpillWriteError",
    "SqlExecutionError",
    "execute_statement",
    "SqlLexError",
    "tokenize_sql",
    "SqlParseError",
    "parse_sql",
    "Column",
    "ColumnType",
    "Schema",
    "Table",
]
