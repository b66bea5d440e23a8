"""Recursive-descent parser for the SQL subset the connector allows.

Grammar (informal)::

    statement   := SELECT [DISTINCT] select_list FROM ident
                   [WHERE expr] [GROUP BY expr_list] [HAVING expr]
                   [ORDER BY order_list] [LIMIT n [OFFSET m]]
    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := additive [comparison | IN | IS NULL | LIKE]
    additive    := term ((+|-) term)*
    term        := factor ((*|/|%) factor)*
    factor      := -factor | literal | ident | function(...) | ( expr )
"""

from __future__ import annotations

from repro.storage.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    UnaryOp,
)
from repro.storage.sql.ast import Aggregate, OrderItem, SelectItem, SelectStatement
from repro.storage.sql.lexer import SqlToken, tokenize_sql

__all__ = ["SqlParseError", "parse_sql"]

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
_SCALAR_FUNCTIONS = {"LOWER", "UPPER", "LENGTH", "ABS", "COALESCE", "TRIM"}
_COMPARISONS = {"=", "!=", "<>", "<", "<=", ">", ">="}


class SqlParseError(ValueError):
    """Raised on malformed SQL."""


class _Parser:
    def __init__(self, tokens: list[SqlToken], text: str):
        self._tokens = tokens
        self._text = text
        self._pos = 0

    # -- token helpers --------------------------------------------------------

    def _peek(self) -> SqlToken | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def _next(self) -> SqlToken:
        token = self._peek()
        if token is None:
            raise SqlParseError(f"unexpected end of input in: {self._text!r}")
        self._pos += 1
        return token

    def _match_keyword(self, *keywords: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "KEYWORD" and token.value in keywords:
            self._pos += 1
            return True
        return False

    def _expect_keyword(self, keyword: str) -> None:
        if not self._match_keyword(keyword):
            token = self._peek()
            found = token.value if token else "end of input"
            raise SqlParseError(f"expected {keyword}, found {found!r}")

    def _match_symbol(self, symbol: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "SYMBOL" and token.value == symbol:
            self._pos += 1
            return True
        return False

    def _expect_symbol(self, symbol: str) -> None:
        if not self._match_symbol(symbol):
            token = self._peek()
            found = token.value if token else "end of input"
            raise SqlParseError(f"expected {symbol!r}, found {found!r}")

    def _expect_ident(self) -> str:
        token = self._next()
        if token.kind != "IDENT":
            raise SqlParseError(f"expected identifier, found {token.value!r}")
        return token.value

    # -- statements ------------------------------------------------------------

    def parse_statement(self) -> SelectStatement:
        token = self._peek()
        if token is None:
            raise SqlParseError("empty statement")
        if token.kind != "KEYWORD":
            raise SqlParseError(f"expected a statement keyword, found {token.value!r}")
        if token.value != "SELECT":
            raise SqlParseError(
                f"unsupported statement: {token.value} (the store is read-only)"
            )
        statement = self._parse_select()
        self._match_symbol(";")
        if self._peek() is not None:
            raise SqlParseError(f"trailing input after statement: {self._peek().value!r}")
        return statement

    def _parse_select(self) -> SelectStatement:
        self._expect_keyword("SELECT")
        statement = SelectStatement()
        statement.distinct = self._match_keyword("DISTINCT")
        if self._match_symbol("*"):
            statement.star = True
        else:
            statement.items.append(self._parse_select_item())
            while self._match_symbol(","):
                statement.items.append(self._parse_select_item())
        self._expect_keyword("FROM")
        statement.table = self._expect_ident()
        if self._match_keyword("WHERE"):
            statement.where = self._parse_expression()
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            statement.group_by.append(self._parse_expression())
            while self._match_symbol(","):
                statement.group_by.append(self._parse_expression())
        if self._match_keyword("HAVING"):
            statement.having = self._parse_expression()
        if self._match_keyword("ORDER"):
            self._expect_keyword("BY")
            statement.order_by.append(self._parse_order_item())
            while self._match_symbol(","):
                statement.order_by.append(self._parse_order_item())
        if self._match_keyword("LIMIT"):
            statement.limit = self._parse_int()
            if self._match_keyword("OFFSET"):
                statement.offset = self._parse_int()
        return statement

    def _parse_order_item(self) -> OrderItem:
        expr = self._parse_expression()
        descending = False
        if self._match_keyword("DESC"):
            descending = True
        else:
            self._match_keyword("ASC")
        return OrderItem(expr, descending)

    def _parse_int(self) -> int:
        token = self._next()
        if token.kind != "NUMBER" or "." in token.value:
            raise SqlParseError(f"expected integer, found {token.value!r}")
        return int(token.value)

    def _parse_select_item(self) -> SelectItem:
        token = self._peek()
        expression: Expression | Aggregate
        if token is not None and token.kind == "KEYWORD" and token.value in _AGGREGATES:
            self._pos += 1
            self._expect_symbol("(")
            if token.value == "COUNT" and self._match_symbol("*"):
                expression = Aggregate("COUNT", None)
            else:
                expression = Aggregate(token.value, self._parse_expression())
            self._expect_symbol(")")
        else:
            expression = self._parse_expression()
        alias = None
        if self._match_keyword("AS"):
            alias = self._expect_ident()
        else:
            nxt = self._peek()
            if nxt is not None and nxt.kind == "IDENT":
                alias = self._next().value
        return SelectItem(expression, alias)

    # -- expressions ----------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._match_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._match_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._match_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token is None:
            return left
        if token.kind == "SYMBOL" and token.value in _COMPARISONS:
            self._pos += 1
            return BinaryOp(token.value, left, self._parse_additive())
        negated = False
        if token.kind == "KEYWORD" and token.value == "NOT":
            lookahead = (
                self._tokens[self._pos + 1] if self._pos + 1 < len(self._tokens) else None
            )
            if lookahead is not None and lookahead.kind == "KEYWORD" and lookahead.value in (
                "IN",
                "LIKE",
            ):
                self._pos += 1
                negated = True
                token = self._peek()
        if token is not None and token.kind == "KEYWORD":
            if token.value == "IN":
                self._pos += 1
                self._expect_symbol("(")
                options: list[Expression] = [self._parse_expression()]
                while self._match_symbol(","):
                    options.append(self._parse_expression())
                self._expect_symbol(")")
                return InList(left, tuple(options), negated)
            if token.value == "LIKE":
                self._pos += 1
                pattern_token = self._next()
                if pattern_token.kind != "STRING":
                    raise SqlParseError("LIKE requires a string pattern")
                return Like(left, pattern_token.value, negated)
            if token.value == "IS":
                self._pos += 1
                is_negated = self._match_keyword("NOT")
                self._expect_keyword("NULL")
                return IsNull(left, is_negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_term()
        while True:
            token = self._peek()
            if token is not None and token.kind == "SYMBOL" and token.value in ("+", "-"):
                self._pos += 1
                left = BinaryOp(token.value, left, self._parse_term())
            else:
                return left

    def _parse_term(self) -> Expression:
        left = self._parse_factor()
        while True:
            token = self._peek()
            if token is not None and token.kind == "SYMBOL" and token.value in ("*", "/", "%"):
                self._pos += 1
                left = BinaryOp(token.value, left, self._parse_factor())
            else:
                return left

    def _parse_factor(self) -> Expression:
        token = self._next()
        if token.kind == "SYMBOL" and token.value == "-":
            return UnaryOp("-", self._parse_factor())
        if token.kind == "SYMBOL" and token.value == "(":
            inner = self._parse_expression()
            self._expect_symbol(")")
            return inner
        if token.kind == "NUMBER":
            value = float(token.value) if "." in token.value else int(token.value)
            return Literal(value)
        if token.kind == "STRING":
            return Literal(token.value)
        if token.kind == "KEYWORD":
            if token.value == "NULL":
                return Literal(None)
            if token.value in ("TRUE", "FALSE"):
                return Literal(token.value == "TRUE")
            raise SqlParseError(f"unexpected keyword in expression: {token.value}")
        if token.kind == "IDENT":
            if token.value.upper() in _SCALAR_FUNCTIONS and self._match_symbol("("):
                args: list[Expression] = []
                if not self._match_symbol(")"):
                    args.append(self._parse_expression())
                    while self._match_symbol(","):
                        args.append(self._parse_expression())
                    self._expect_symbol(")")
                return FunctionCall(token.value.upper(), tuple(args))
            return ColumnRef(token.value)
        raise SqlParseError(f"unexpected token in expression: {token.value!r}")


def parse_sql(text: str) -> SelectStatement:
    """Parse one ``SELECT`` statement; raises :class:`SqlParseError` on failure.

    The store is read-only: any other statement (``INSERT``, ``DELETE``,
    ...) is refused here, naming its keyword.
    """
    tokens = tokenize_sql(text)
    return _Parser(tokens, text).parse_statement()
