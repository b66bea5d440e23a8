"""SQL subset: lexer, parser, AST and executor for read-only ``SELECT``."""

from repro.storage.sql.ast import Aggregate, OrderItem, SelectItem, SelectStatement
from repro.storage.sql.executor import SqlExecutionError, execute_statement
from repro.storage.sql.lexer import SqlLexError, SqlToken, tokenize_sql
from repro.storage.sql.parser import SqlParseError, parse_sql

__all__ = [
    "Aggregate",
    "OrderItem",
    "SelectItem",
    "SelectStatement",
    "SqlExecutionError",
    "execute_statement",
    "SqlLexError",
    "SqlToken",
    "tokenize_sql",
    "SqlParseError",
    "parse_sql",
]
