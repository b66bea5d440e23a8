"""The cached-prefix prompt renderer against the line-by-line one.

``LLMModule.build_prompt`` renders the task and worked
examples once per module and appends each value's payload to that prefix.
The prompt is a cache key, so the bytes may not move: for every LLM module
a built-in template compiles to, at strictness 0, 1 and 2, the prompt must
be the one :func:`reference_prompt` — the renderer before the prefix was
cached, kept here — builds from the module's attributes.
"""

from __future__ import annotations

import json
from decimal import Decimal
from typing import Any, Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compiler.curation import render_document
from repro.core.compiler.registry import render_pair
from repro.core.modules.llm_module import LLMModule, _payload_encoder, encode_payload
from repro.core.runtime.system import LinguaManga
from repro.core.templates.library import available_templates, get_template
from repro.datasets.entity_resolution import generate_er_dataset
from repro.tasks.entity_resolution import pick_examples

STRICTNESS = (0, 1, 2)

#: Payloads of every shape the built-in renderers take or refuse, with what
#: JSON escaping and ``default=str`` treat specially.
VALUES = (
    {"left": {"name": "Ale", "abv": 5.2, "note": "é \"q\""}, "right": {"name": "ale"}},
    ({"b": [1, 2], "a": None}, {"when": object}),
    json.loads('{"left": {"name": "\\ud800"}, "right": {"name": "x"}}'),
    "Maria Garcia",
    {"text": "A document about brewing.\nTwo lines.", "id": 3},
    {"text": "Notes: the brewery released the sample"},  # echoes decontamination's item
    {"left": ["id", "name"], "right": ["identifier", "full_name"]},
    42,
)


def reference_prompt(module: LLMModule, value: Any, strictness: int) -> str:
    """``build_prompt`` as it rendered every line on every call."""
    lines = [f"Task: {module.task_description}"]
    for index, (example_in, example_out) in enumerate(module.examples, start=1):
        lines.append(f"Example {index}:")
        lines.append(f"{module.payload_label}: {example_in}")
        lines.append(f"Output: {example_out}")
    lines.append(f"{module.payload_label}: {module.render(value)}")
    if strictness == 1:
        lines.append(
            "Answer strictly in the required output format, with no extra words."
        )
    elif strictness >= 2:
        lines.append(
            "IMPORTANT: your previous answer was malformed. Output ONLY the "
            "required value and nothing else."
        )
    return "\n".join(lines)


def reference_pair(pair: Any) -> str:
    """``render_pair`` as it encoded each record with its own ``json.dumps``."""
    if isinstance(pair, dict) and "left" in pair and "right" in pair:
        left, right = pair["left"], pair["right"]
    elif isinstance(pair, (tuple, list)) and len(pair) == 2:
        left, right = pair
    else:
        raise TypeError(f"cannot interpret {pair!r} as a record pair")
    return (
        "Record A: " + json.dumps(left, ensure_ascii=False, sort_keys=True, default=str)
        + "\nRecord B: " + json.dumps(right, ensure_ascii=False, sort_keys=True, default=str)
    )


def reference_document(value: Any) -> str:
    """``render_document`` as it called ``json.dumps`` itself."""
    if isinstance(value, dict):
        return json.dumps(value, ensure_ascii=False, sort_keys=True, default=str)
    return json.dumps({"text": str(value)}, ensure_ascii=False)


def dumps(value: Any) -> str:
    """What :func:`encode_payload` must return."""
    return json.dumps(value, ensure_ascii=False, sort_keys=True, default=str)


#: Payload leaves JSON escapes or spells specially: any text (lone
#: surrogates and non-ASCII included), NaN and the infinities, integers past
#: 64 bits, and objects only ``default=str`` can write.
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.text(alphabet=st.characters(exclude_categories=()), max_size=12),
    st.sampled_from([object, Decimal("1.50"), complex(1, 2), b"raw", frozenset()]),
)
#: Nested lists, tuples and dicts of leaves; some dicts mix key types
#: that cannot be sorted together, which both encoders refuse.
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(
            st.one_of(st.text(max_size=6), st.integers(), st.floats(), st.none()),
            children,
            max_size=4,
        ),
    ),
    max_leaves=24,
)


def llm_modules(obj: Any, seen: set[int]) -> Iterator[LLMModule]:
    """Every :class:`LLMModule` reachable from a compiled plan's bindings."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, LLMModule):
        yield obj
        return
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif type(obj).__module__.startswith("repro.core") and hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return
    for child in children:
        yield from llm_modules(child, seen)


def compiled_modules() -> list[tuple[str, LLMModule]]:
    system = LinguaManga()
    found = []
    pipelines = [(t.name, t.instantiate(**t.sample_args)) for t in available_templates()]
    dataset = generate_er_dataset("beer", seed=7, n_entities=20)
    pipelines.append(
        (
            "entity_resolution+examples",
            get_template("entity_resolution").instantiate(
                examples=pick_examples(dataset.train, 3),
            ),
        )
    )
    for label, pipeline in pipelines:
        plan = system.compile(pipeline)
        for module in llm_modules(plan.bound, set()):
            found.append((f"{label}:{module.name}", module))
    return found


MODULES = compiled_modules()


def outcome(function, *args):
    try:
        return function(*args)
    except Exception as error:  # noqa: BLE001 - compared by type
        return type(error)


def test_the_sweep_covers_instructions_examples_and_their_absence():
    assert len({label.split(":")[0] for label, _ in MODULES}) >= 6
    assert any(m.examples for _, m in MODULES)
    assert any(not m.examples for _, m in MODULES)


@pytest.mark.parametrize("label,module", MODULES, ids=[label for label, _ in MODULES])
def test_build_prompt_is_the_line_by_line_render(label, module):
    rendered = 0
    for value in VALUES:
        for strictness in STRICTNESS:
            expected = outcome(reference_prompt, module, value, strictness)
            assert outcome(module.build_prompt, value, strictness) == expected
            rendered += isinstance(expected, str)
    assert rendered >= len(STRICTNESS)  # some value is a payload it takes


def test_render_pair_encodes_as_json_dumps():
    for value in VALUES:
        assert outcome(render_pair, value) == outcome(reference_pair, value)


@settings(max_examples=150, deadline=None)
@given(value=PAYLOADS)
def test_encode_payload_is_json_dumps(value):
    assert outcome(encode_payload, value) == outcome(dumps, value)


@settings(max_examples=60, deadline=None)
@given(value=PAYLOADS)
def test_encode_payload_without_the_c_encoder_is_json_dumps(value):
    """The stdlib-only build: ``json.encoder`` has no C encoder to prebuild."""
    with mock.patch.object(json.encoder, "c_make_encoder", None):
        fallback = _payload_encoder()
        assert outcome(fallback, value) == outcome(dumps, value)
    assert isinstance(fallback.__self__, json.JSONEncoder)


def test_render_document_is_its_own_json_dumps():
    for value in VALUES:
        assert outcome(render_document, value) == outcome(reference_document, value)
