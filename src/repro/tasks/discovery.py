"""Data discovery: table search by natural-language description.

The paper's introduction lists "data discovery through table search" among
the curation tasks a generic system must cover.  This module ranks the
tables of a local :class:`~repro.storage.database.Database` against an NL
query using TF-IDF over each table's name, column names and a sample of its
values — entirely local, no LLM required (though the query may have been
produced by one).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.database import Database
from repro.text.normalize import normalize_text
from repro.text.similarity import TfIdfModel

__all__ = ["TableMatch", "search_tables"]


@dataclass(frozen=True)
class TableMatch:
    """One ranked search hit."""

    table: str
    score: float
    matched_terms: tuple[str, ...]


def _expand_tokens(text: str) -> str:
    """Split snake_case identifiers and add naive singular forms.

    ``first_name`` must match a query saying "names", and ``customers``
    must match "customer" — a light, stemming-like expansion is enough.
    """
    tokens: list[str] = []
    for token in normalize_text(text).replace("_", " ").split():
        tokens.append(token)
        if token.endswith("ies") and len(token) > 4:
            tokens.append(token[:-3] + "y")
        elif token.endswith("es") and len(token) > 4:
            tokens.append(token[:-2])
        if token.endswith("s") and len(token) > 3:
            tokens.append(token[:-1])
    return " ".join(tokens)


def _table_document(database: Database, name: str, sample_rows: int) -> str:
    table = database.table(name)
    parts = [name]
    parts.extend(column.name for column in table.schema.columns)
    for record in table.records()[:sample_rows]:
        parts.extend(str(v) for v in record.values() if v is not None)
    return _expand_tokens(" ".join(parts))


def search_tables(
    database: Database,
    query: str,
) -> list[TableMatch]:
    """Rank tables against ``query``; returns at most 5 scored hits.

    Scoring is TF-IDF cosine between the query and each table's "document"
    (name + columns + sampled values), so a query mentioning either a column
    name or a cell value finds the right table.
    """
    names = sorted(database.tables)
    if not names:
        return []
    documents = {
        name: _table_document(database, name, 20) for name in names
    }
    model = TfIdfModel(list(documents.values()))
    cleaned_query = _expand_tokens(query)
    query_tokens = set(cleaned_query.split())
    matches: list[TableMatch] = []
    for name in names:
        score = model.similarity(cleaned_query, documents[name])
        if score <= 0.0:
            continue
        matched = tuple(
            sorted(query_tokens & set(documents[name].split()))
        )
        matches.append(TableMatch(table=name, score=score, matched_terms=matched))
    matches.sort(key=lambda m: (-m.score, m.table))
    return matches[:5]
