"""Relational storage substrate: typed tables, a read-only SQL subset, a catalog."""

from repro.storage.columnar import Vocabulary
from repro.storage.database import Database
from repro.storage.sql.executor import SqlExecutionError, execute_statement
from repro.storage.sql.lexer import SqlLexError, tokenize_sql
from repro.storage.sql.parser import SqlParseError, parse_sql
from repro.storage.table import Column, ColumnType, Schema, Table

__all__ = [
    "Vocabulary",
    "Database",
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
