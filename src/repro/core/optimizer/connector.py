"""The optimizer's connector (paper section 3.2).

"Concerning efficiency and data privacy, it is crucial for applications to
reduce the amount of data exposed to LLMs ... a locally-running connector can
be employed to manage the selective data upload to LLMs.  A pre-defined
connector for tabular data enables LLMs to execute SQL commands in local
databases and obtain the resulting data while ensuring that the execution is
limited to the queries specified by the user."

:class:`TabularConnector` implements that contract: the LLM sees only the
schema, proposes SQL, the SQL is checked against an allow-list and executed
*locally*, and only result rows (up to a cap) ever reach a prompt.  Exposure
accounting quantifies the privacy story for the ablation benchmark.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.storage.database import Database
from repro.storage.sql.ast import SelectStatement
from repro.storage.sql.parser import SqlParseError
from repro.storage.table import Table
from repro.llm.service import LLMService

__all__ = ["ConnectorPolicyError", "ConnectorAnswer", "ExposureReport", "TabularConnector"]


class ConnectorPolicyError(RuntimeError):
    """The LLM proposed a statement the connector's policy forbids."""


@dataclass(frozen=True)
class ConnectorAnswer:
    """Result of one connector interaction."""

    question: str
    sql: str
    result: Table
    values_exposed: int  # cell values that were uploaded to the LLM


@dataclass
class ExposureReport:
    """Cumulative privacy accounting for a connector."""

    questions: int = 0
    values_uploaded: int = 0
    rows_uploaded: int = 0
    schema_uploads: int = 0
    rejected_statements: int = 0
    log: list[ConnectorAnswer] = field(default_factory=list)

    def to_text(self) -> str:
        """One-line rendering."""
        return (
            f"questions={self.questions} rows_uploaded={self.rows_uploaded} "
            f"values_uploaded={self.values_uploaded} "
            f"schema_uploads={self.schema_uploads} "
            f"rejected={self.rejected_statements}"
        )


class TabularConnector:
    """Schema-only NL querying over a local database.

    Parameters
    ----------
    database:
        The local store; its contents never enter a prompt wholesale.
    service:
        The LLM service used for NL -> SQL translation.
    max_result_rows:
        Cap on rows a single answer may expose onward.
    allowed_tables:
        Optional allow-list restricting which tables the LLM may query.
    """

    def __init__(
        self,
        database: Database,
        service: LLMService,
        max_result_rows: int = 20,
        allowed_tables: list[str] | None = None,
    ):
        self.database = database
        self.service = service
        self.max_result_rows = max_result_rows
        self.allowed_tables = allowed_tables
        self.report = ExposureReport()

    # -- policy ---------------------------------------------------------------

    def _check_policy(self, sql: str) -> SelectStatement:
        try:
            statement = self.database.parse(sql)
        except SqlParseError as error:
            self.report.rejected_statements += 1
            raise ConnectorPolicyError(f"unparseable SQL from LLM: {error}") from error
        if not isinstance(statement, SelectStatement):
            self.report.rejected_statements += 1
            raise ConnectorPolicyError(
                f"connector policy allows SELECT only, got {type(statement).__name__}"
            )
        if self.allowed_tables is not None and statement.table not in self.allowed_tables:
            self.report.rejected_statements += 1
            raise ConnectorPolicyError(
                f"table {statement.table!r} is not in the connector allow-list"
            )
        return statement

    # -- the NL question path ------------------------------------------------------

    def ask(self, question: str, purpose: str = "connector") -> ConnectorAnswer:
        """Answer an NL question: schema -> LLM SQL -> local execution.

        Only the schema text goes up; only capped result rows come back into
        scope for any downstream prompt.  Raises
        :class:`ConnectorPolicyError` when the LLM proposes non-SELECT SQL.
        """
        schema = self.database.schema_text()
        self.report.schema_uploads += 1
        prompt = (
            "Translate the question into a single SQL SELECT statement for "
            "this schema. Answer with SQL only.\n"
            f"Schema: {schema}\n"
            f"Question: {question}"
        )
        response = self.service.complete(prompt, purpose=purpose)
        sql = self._extract_sql(response)
        self._check_policy(sql)
        result = self.database.query(sql)
        exposed_rows = min(len(result), self.max_result_rows)
        values = exposed_rows * len(result.schema)
        self.report.questions += 1
        self.report.rows_uploaded += exposed_rows
        self.report.values_uploaded += values
        answer = ConnectorAnswer(
            question=question,
            sql=sql,
            result=result.head(self.max_result_rows),
            values_exposed=values,
        )
        self.report.log.append(answer)
        return answer

    def run_user_sql(self, sql: str) -> Table:
        """Execute user-specified SQL under the same SELECT-only policy."""
        self._check_policy(sql)
        return self.database.query(sql)

    @staticmethod
    def _extract_sql(response: str) -> str:
        """Pull the SQL statement out of the LLM's reply."""
        fenced = re.search(r"```(?:sql)?\s*\n(.*?)```", response, re.DOTALL)
        if fenced:
            return fenced.group(1).strip().rstrip(";")
        match = re.search(r"SELECT\b.*", response, re.IGNORECASE | re.DOTALL)
        if match:
            return match.group().strip().rstrip(";")
        return response.strip().rstrip(";")
