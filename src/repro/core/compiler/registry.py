"""Physical strategy registry: logical operator kind -> module factories.

Like a relational optimizer's implementation rules, each logical operator
kind maps to one or more *strategies* ("custom", "llm", "llmgc").  The
compiler picks a strategy (operator param ``impl`` overrides the default)
and calls its factory with the operator and the compilation context.
Programmers extend the system by registering their own strategies
(paper: "Lingua Manga is extensible").
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from repro.core.compiler.context import CompilerContext
from repro.core.dsl.operators import LogicalOperator, OperatorKind
from repro.core.modules.base import ErrorPolicy, Module
from repro.core.modules.custom import CustomModule
from repro.core.modules.llm_module import (
    LLMModule,
    encode_payload,
    parse_leading_word,
    parse_yes_no,
)
from repro.core.modules.llmgc import LLMGCModule
from repro.core.modules.mapping import EnrichModule, MapModule
from repro.core.modules.validation import NonEmptyValidator
from repro.datasets.catalog import BRANDS
from repro.storage.table import Table
from repro.text.language import detect_language
from repro.text.normalize import normalize_text
from repro.text.phrases import noun_phrases
from repro.text.similarity import jaro_winkler_similarity

__all__ = [
    "CompileError",
    "ModuleFactory",
    "register_strategy",
    "default_strategy",
    "build_module",
    "render_pair",
    "make_pair_matcher",
    "make_name_tagger",
]

ModuleFactory = Callable[[LogicalOperator, CompilerContext], Module]


class CompileError(ValueError):
    """Raised when an operator cannot be bound to a physical module."""


_REGISTRY: dict[str, dict[str, ModuleFactory]] = {}
_DEFAULTS: dict[str, str] = {}


def register_strategy(
    kind: str, strategy: str, factory: ModuleFactory, default: bool = False
) -> None:
    """Register ``factory`` as implementation ``strategy`` of ``kind``."""
    _REGISTRY.setdefault(kind, {})[strategy] = factory
    if default or kind not in _DEFAULTS:
        _DEFAULTS[kind] = strategy


def default_strategy(kind: str) -> str:
    """The strategy used when the operator does not pin one."""
    if kind not in _DEFAULTS:
        raise CompileError(f"no strategies registered for kind {kind!r}")
    return _DEFAULTS[kind]


def build_module(operator: LogicalOperator, context: CompilerContext) -> Module:
    """Bind ``operator`` to a physical module via its (chosen) strategy."""
    strategies = _REGISTRY.get(operator.kind)
    if not strategies:
        raise CompileError(f"no strategies registered for kind {operator.kind!r}")
    wanted = operator.params.get("impl", default_strategy(operator.kind))
    factory = strategies.get(wanted)
    if factory is None:
        raise CompileError(
            f"operator {operator.name!r}: no strategy {wanted!r} for kind "
            f"{operator.kind!r}; have {sorted(strategies)}"
        )
    return factory(operator, context)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def render_pair(pair: Any) -> str:
    """Render a record pair as the two labelled JSON lines the skills parse."""
    if isinstance(pair, dict) and "left" in pair and "right" in pair:
        left, right = pair["left"], pair["right"]
    elif isinstance(pair, (tuple, list)) and len(pair) == 2:
        left, right = pair
    else:
        raise TypeError(f"cannot interpret {pair!r} as a record pair")
    return "Record A: " + encode_payload(left) + "\nRecord B: " + encode_payload(right)


def make_pair_matcher(
    name: str,
    context: CompilerContext,
    task: str | None = None,
    examples: list[tuple[Any, bool]] | None = None,
    purpose: str = "match",
) -> LLMModule:
    """Per-pair LLM matcher used by both the compiler and the templates."""
    rendered_examples = [
        (render_pair(pair).replace("\n", "  "), "Yes" if label else "No")
        for pair, label in (examples or [])
    ]
    return LLMModule(
        name=name,
        service=context.service,
        task_description=task
        or (
            "Entity resolution: determine if the following two records refer "
            "to the same entity. Answer Yes or No."
        ),
        parser=parse_yes_no,
        render=render_pair,
        payload_label="Pair",
        examples=rendered_examples,
        purpose=purpose,
    )


def make_name_tagger(
    name: str,
    context: CompilerContext,
    use_language: bool = False,
    purpose: str = "tag",
) -> LLMModule:
    """Per-phrase person-name tagger; optionally language-aware."""

    def render(value: Any) -> str:
        if isinstance(value, dict):
            phrase = value.get("phrase", "")
            language = value.get("language")
            if use_language and language:
                return f"{phrase}\nLanguage: {language}"
            return str(phrase)
        return str(value)

    return LLMModule(
        name=name,
        service=context.service,
        task_description="Decide whether the following phrase is a person name. Answer Yes or No.",
        parser=parse_yes_no,
        render=render,
        payload_label="Phrase",
        purpose=purpose,
    )


def _maybe_map(module: Module, operator: LogicalOperator) -> Module:
    """Wrap per-item modules in a MapModule unless ``map=False``.

    The operator's ``error_policy`` param (``fail`` | ``skip_record`` |
    ``degrade``) is threaded onto the wrapper, giving every mapped operator
    record-level isolation.
    """
    if operator.params.get("map", True):
        return MapModule(
            f"{operator.name}",
            module,
            error_policy=operator.params.get("error_policy", ErrorPolicy.FAIL),
        )
    return module


# ---------------------------------------------------------------------------
# load / save
# ---------------------------------------------------------------------------


def _load_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
    params = operator.params

    def load(inputs: Any) -> Any:
        if "source" in params:
            key = params["source"]
            if not isinstance(inputs, dict) or key not in inputs:
                raise KeyError(
                    f"load operator {operator.name!r}: no input named {key!r}"
                )
            return inputs[key]
        if "table" in params:
            return context.database.table(params["table"]).records()
        if "path" in params:
            path = str(params["path"])
            if path.endswith(".json"):
                return json.loads(Path(path).read_text(encoding="utf-8"))
            return Table.from_csv(Path(path)).records()
        raise CompileError(
            f"load operator {operator.name!r} needs source=, table= or path="
        )

    return CustomModule(operator.name, load, "data source")


def _save_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
    params = operator.params

    def save(value: Any) -> Any:
        path = params.get("path")
        if path:
            path = str(path)
            if path.endswith(".json"):
                Path(path).write_text(
                    json.dumps(value, ensure_ascii=False, indent=2, default=str),
                    encoding="utf-8",
                )
            elif isinstance(value, Table):
                value.to_csv(path)
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                Table.from_records(operator.name, value).to_csv(path)
            else:
                Path(path).write_text(str(value), encoding="utf-8")
        key = params.get("key")
        if key:
            context.options.setdefault("outputs", {})[key] = value
        return value

    return CustomModule(operator.name, save, "data sink")


# ---------------------------------------------------------------------------
# entity matching
# ---------------------------------------------------------------------------


def _match_llm_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
    examples = operator.params.get("examples")
    if examples is None:
        examples = context.options.get("match_examples", [])
    matcher = make_pair_matcher(
        f"{operator.name}_llm",
        context,
        task=operator.params.get("task"),
        examples=examples,
        purpose=operator.params.get("purpose", operator.name),
    )
    return _maybe_map(matcher, operator)


def _match_llm_batch_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
    """Batched LLM matching: ``batch_size`` pairs per prompt."""
    from repro.core.modules.batch_llm import BatchLLMModule
    from repro.core.modules.llm_module import parse_yes_no

    examples = operator.params.get("examples")
    if examples is None:
        examples = context.options.get("match_examples", [])
    single = make_pair_matcher(
        f"{operator.name}_single",
        context,
        task=operator.params.get("task"),
        examples=examples,
        purpose=operator.params.get("purpose", operator.name),
    )
    rendered_examples = [
        (render_pair(pair).replace("\n", "  "), "Yes" if label else "No")
        for pair, label in (examples or [])
    ]
    return BatchLLMModule(
        name=f"{operator.name}_batch",
        service=context.service,
        task_description=operator.params.get(
            "task",
            "Entity resolution: determine for each pair whether the two "
            "records refer to the same entity. Answer Yes or No per pair.",
        ),
        render_item=render_pair,
        parse_answer=parse_yes_no,
        batch_size=int(operator.params.get("batch_size", 10)),
        item_label="Pair",
        examples=rendered_examples,
        fallback=single,
        purpose=operator.params.get("purpose", operator.name),
        error_policy=operator.params.get("error_policy", ErrorPolicy.FAIL),
    )


# ---------------------------------------------------------------------------
# imputation
# ---------------------------------------------------------------------------


def _impute_llm_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
    module = LLMModule(
        name=f"{operator.name}_llm",
        service=context.service,
        task_description=operator.params.get(
            "task",
            "Which company is the manufacturer of this product? Answer with "
            "the company name only, or Unknown.",
        ),
        parser=parse_leading_word,
        payload_label="Product",
        purpose=operator.params.get("purpose", operator.name),
    )
    return _maybe_map(module, operator)


def _impute_llmgc_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
    service = context.service
    purpose = operator.params.get("purpose", operator.name)

    def llm_impute(record: dict) -> str | None:
        payload = json.dumps(
            {k: v for k, v in record.items() if v is not None},
            ensure_ascii=False,
            sort_keys=True,
        )
        text = service.complete(
            "Which company is the manufacturer of this product? Answer with "
            f"the company name only, or Unknown.\nProduct: {payload}",
            purpose=f"{purpose}-escalation",
        )
        head = text.strip().split(".")[0].strip()
        return None if head.lower() == "unknown" else head

    tools = dict(context.tools)
    tools.setdefault("brand_names", [b.name for b in BRANDS])
    tools.setdefault("llm_impute", llm_impute)
    module = LLMGCModule(
        name=f"{operator.name}_llmgc",
        service=service,
        task_description=operator.params.get(
            "task", "Impute the missing manufacturer of a product record."
        ),
        tools=tools,
        guidelines=operator.params.get("guidelines", ""),
        purpose=f"{purpose}-codegen",
    )
    return _maybe_map(module, operator)


# ---------------------------------------------------------------------------
# text stages (document-enrichment protocol)
# ---------------------------------------------------------------------------


def _tools_for_text(context: CompilerContext) -> dict[str, Any]:
    tools = dict(context.tools)
    tools.setdefault("noun_phrases", noun_phrases)
    tools.setdefault("detect_language", detect_language)
    tools.setdefault("normalize_text", normalize_text)
    tools.setdefault("string_similarity", jaro_winkler_similarity)
    return tools


def _text_stage_factory(kind_task: str, in_key: str, out_key: str) -> ModuleFactory:
    """The LLMGC factory of a document text stage."""

    def llmgc_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
        inner = LLMGCModule(
            name=f"{operator.name}_llmgc",
            service=context.service,
            task_description=operator.params.get("task", kind_task),
            tools=_tools_for_text(context),
            guidelines=operator.params.get("guidelines", ""),
            purpose=operator.params.get("purpose", f"{operator.name}-codegen"),
        )
        stage = EnrichModule(operator.name, inner, in_key=in_key, out_key=out_key)
        return _maybe_map(stage, operator)

    return llmgc_factory


def _tag_names_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
    use_language = bool(operator.params.get("use_language", False))
    tagger = make_name_tagger(
        f"{operator.name}_llm",
        context,
        use_language=use_language,
        purpose=operator.params.get("purpose", operator.name),
    )

    # The per-phrase tagger lives in a mutable holder so the optimizer can
    # swap in a simulator-wrapped version after compilation.
    holder: dict[str, Module] = {"tagger": tagger}

    def tag_document(doc: dict) -> list[str]:
        names = []
        for phrase in doc.get("phrases", []):
            payload = {"phrase": phrase, "language": doc.get("language")}
            if holder["tagger"].run(payload):
                names.append(phrase)
        return names

    stage = EnrichModule(
        operator.name, tag_document, in_key="phrases", out_key="names", whole_doc=True
    )
    stage.tagger_holder = holder
    return _maybe_map(stage, operator)


def _detect_language_custom_factory(
    operator: LogicalOperator, context: CompilerContext
) -> Module:
    stage = EnrichModule(
        operator.name,
        lambda text: detect_language(text).language,
        in_key="text",
        out_key="language",
    )
    return _maybe_map(stage, operator)


# ---------------------------------------------------------------------------
# generic operators
# ---------------------------------------------------------------------------


def _dedupe_custom_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
    def dedupe(records: list) -> list:
        seen: set = set()
        out = []
        for record in records:
            key = (
                tuple(sorted(record.items()))
                if isinstance(record, dict)
                else record
            )
            if key not in seen:
                seen.add(key)
                out.append(record)
        return out

    return CustomModule(operator.name, dedupe, "exact dedupe")


def _clean_text_custom_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
    inner = CustomModule(f"{operator.name}_fn", lambda v: normalize_text(str(v)), "normalize_text")
    return _maybe_map(inner, operator)


def _custom_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
    """A user's own ``Module``."""
    module = operator.params.get("module")
    if not isinstance(module, Module):
        raise CompileError(f"custom operator {operator.name!r} needs module= (a Module)")
    return module


def _schema_match_factory(operator: LogicalOperator, context: CompilerContext) -> Module:
    def render(value: Any) -> str:
        return (
            "Left columns: " + ", ".join(value["left"])
            + "\nRight columns: " + ", ".join(value["right"])
        )

    def parse(text: str) -> list[tuple[str, str]]:
        pairs = json.loads(text)
        return [tuple(pair) for pair in pairs]

    return LLMModule(
        name=f"{operator.name}_llm",
        service=context.service,
        task_description="Match the columns of two table schemas by meaning.",
        parser=parse,
        render=render,
        payload_label="Schemas",
        validators=[NonEmptyValidator()],
        purpose=operator.params.get("purpose", operator.name),
    )


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------

register_strategy(OperatorKind.LOAD, "custom", _load_factory, default=True)
register_strategy(OperatorKind.SAVE, "custom", _save_factory, default=True)

register_strategy(OperatorKind.MATCH_ENTITIES, "llm", _match_llm_factory, default=True)
register_strategy(OperatorKind.MATCH_ENTITIES, "llm_batch", _match_llm_batch_factory)

register_strategy(OperatorKind.IMPUTE, "llm", _impute_llm_factory, default=True)
register_strategy(OperatorKind.IMPUTE, "llmgc", _impute_llmgc_factory)

register_strategy(
    OperatorKind.TOKENIZE,
    "llmgc",
    _text_stage_factory("Tokenize a text into words.", "text", "tokens"),
)
register_strategy(
    OperatorKind.NOUN_PHRASES,
    "llmgc",
    _text_stage_factory(
        "Extract candidate noun phrases (capitalised spans) from a text.", "text", "phrases"
    ),
)
register_strategy(OperatorKind.TAG_NAMES, "llm", _tag_names_factory)
register_strategy(OperatorKind.DETECT_LANGUAGE, "custom", _detect_language_custom_factory)
register_strategy(OperatorKind.DEDUPE, "custom", _dedupe_custom_factory)
register_strategy(OperatorKind.CLEAN_TEXT, "custom", _clean_text_custom_factory)
register_strategy(OperatorKind.CUSTOM, "custom", _custom_factory)
register_strategy(OperatorKind.SCHEMA_MATCH, "llm", _schema_match_factory)
