"""Textual DSL for Lingua Manga pipelines.

Grammar (line oriented)::

    pipeline "entity resolution demo":
      pairs  = load(source="pairs")
      match  = match_entities(input=pairs, impl="llm", examples=3)
      save(input=match, path="out.csv")

- The header names the pipeline.
- Each body line is ``[alias =] kind(key=value, ...)``.
- ``input=alias`` / ``inputs=[a, b]`` wire the DAG; every other key becomes
  an operator parameter.
- Values: single/double-quoted strings, numbers, ``true``/``false``,
  ``null``, bare identifiers (operator references), and ``[...]`` lists.
- ``#`` outside a quoted string starts a comment.
- ``custom`` is refused: its ``module=`` takes a Python ``Module``, which
  no DSL value spells; ``PipelineBuilder.custom`` builds one.
"""

from __future__ import annotations

import re
from typing import Any

from repro.core.dsl.operators import LogicalOperator, OperatorKind
from repro.core.dsl.pipeline import Pipeline

__all__ = ["DslParseError", "parse_pipeline"]


class DslParseError(ValueError):
    """Raised on malformed DSL text (message includes the line number)."""


_HEADER_RE = re.compile(r'^pipeline\s+(?:"([^"]*)"|\'([^\']*)\'|(\w+))\s*:\s*$')
_STATEMENT_RE = re.compile(r"^(?:(\w+)\s*=\s*)?(\w+)\s*\((.*)\)\s*$")
# A line's code: quoted strings (a ``#`` inside one is data) and any other
# character but ``#``; an unterminated string runs to the end of the line.
_CODE_RE = re.compile(r"""(?:"(?:[^"\\]|\\.)*"?|'(?:[^'\\]|\\.)*'?|[^"'#])*""")
_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<string>"(?:[^"\\]|\\.)*"|'(?:[^'\\]|\\.)*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<word>[A-Za-z_]\w*)
      | (?P<punct>[=,\[\]])
    )""",
    re.VERBOSE,
)


def _tokenize_args(text: str, line_number: int) -> list[tuple[str, str]]:
    tokens: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        if text[position].isspace():
            position += 1
            continue
        match = _TOKEN_RE.match(text, position)
        if match is None or match.start() != position:
            raise DslParseError(
                f"line {line_number}: cannot tokenise arguments near {text[position:position + 12]!r}"
            )
        for kind in ("string", "number", "word", "punct"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value))
                break
        position = match.end()
    return tokens


def _parse_value(tokens: list[tuple[str, str]], index: int, line_number: int) -> tuple[Any, int]:
    kind, value = tokens[index]
    if kind == "string":
        body = value[1:-1]
        return body.replace('\\"', '"').replace("\\'", "'"), index + 1
    if kind == "number":
        return (float(value) if "." in value else int(value)), index + 1
    if kind == "word":
        lowered = value.lower()
        if lowered == "true":
            return True, index + 1
        if lowered == "false":
            return False, index + 1
        if lowered == "null":
            return None, index + 1
        return _Ref(value), index + 1
    if kind == "punct" and value == "[":
        items: list[Any] = []
        index += 1
        while index < len(tokens):
            if tokens[index] == ("punct", "]"):
                return items, index + 1
            item, index = _parse_value(tokens, index, line_number)
            items.append(item)
            if index < len(tokens) and tokens[index] == ("punct", ","):
                index += 1
        raise DslParseError(f"line {line_number}: unterminated list")
    raise DslParseError(f"line {line_number}: unexpected token {value!r}")


class _Ref:
    """A bare-identifier value: a reference to another operator."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"_Ref({self.name!r})"


def _parse_kwargs(text: str, line_number: int) -> dict[str, Any]:
    tokens = _tokenize_args(text, line_number)
    kwargs: dict[str, Any] = {}
    index = 0
    while index < len(tokens):
        kind, key = tokens[index]
        if kind != "word":
            raise DslParseError(f"line {line_number}: expected a keyword, found {key!r}")
        if index + 1 >= len(tokens) or tokens[index + 1] != ("punct", "="):
            raise DslParseError(f"line {line_number}: expected '=' after {key!r}")
        value, index = _parse_value(tokens, index + 2, line_number)
        kwargs[key] = value
        if index < len(tokens):
            if tokens[index] != ("punct", ","):
                raise DslParseError(
                    f"line {line_number}: expected ',' between arguments"
                )
            index += 1
    return kwargs


def parse_pipeline(text: str) -> Pipeline:
    """Parse DSL ``text`` into a validated :class:`Pipeline`."""
    lines = text.splitlines()
    pipeline: Pipeline | None = None
    auto_counter = 0
    for line_number, raw in enumerate(lines, start=1):
        line = _CODE_RE.match(raw).group(0).strip()
        if not line:
            continue
        if pipeline is None:
            header = _HEADER_RE.match(line)
            if header is None:
                raise DslParseError(
                    f"line {line_number}: expected 'pipeline \"name\":', found {line!r}"
                )
            name = header.group(1) or header.group(2) or header.group(3)
            pipeline = Pipeline(name=name)
            continue
        statement = _STATEMENT_RE.match(line)
        if statement is None:
            raise DslParseError(f"line {line_number}: cannot parse statement {line!r}")
        alias, kind, args_text = statement.groups()
        if kind not in OperatorKind.ALL:
            raise DslParseError(
                f"line {line_number}: unknown operator kind {kind!r}"
            )
        if kind == OperatorKind.CUSTOM:
            raise DslParseError(
                f"line {line_number}: custom(...) takes a Python Module, "
                "which DSL text cannot spell; build it with "
                "PipelineBuilder.custom"
            )
        kwargs = _parse_kwargs(args_text, line_number)
        inputs: list[str] = []
        if "input" in kwargs:
            ref = kwargs.pop("input")
            if not isinstance(ref, _Ref):
                raise DslParseError(
                    f"line {line_number}: input= must be an operator reference"
                )
            inputs.append(ref.name)
        if "inputs" in kwargs:
            refs = kwargs.pop("inputs")
            if not isinstance(refs, list) or not all(isinstance(r, _Ref) for r in refs):
                raise DslParseError(
                    f"line {line_number}: inputs= must be a list of operator references"
                )
            inputs.extend(r.name for r in refs)
        # Any remaining _Ref values are plain string parameters.
        params = {
            key: (value.name if isinstance(value, _Ref) else value)
            for key, value in kwargs.items()
        }
        if alias is None:
            auto_counter += 1
            alias = f"{kind}_{auto_counter}"
        pipeline.add(
            LogicalOperator(name=alias, kind=kind, params=params, inputs=inputs)
        )
    if pipeline is None:
        raise DslParseError("empty DSL document")
    pipeline.validate()
    return pipeline
