"""The cached-prefix prompt renderer against the line-by-line one.

``LLMModule.build_prompt`` renders the task, instructions and worked
examples once per module and appends each value's payload to that prefix.
The prompt is a cache key, so the bytes may not move: for every LLM module
a built-in template compiles to, at strictness 0, 1 and 2, the prompt must
be the one :func:`reference_prompt` — the renderer before the prefix was
cached, kept here — builds from the module's attributes.
"""

from __future__ import annotations

import json
from typing import Any, Iterator

import pytest

from repro.core.compiler.registry import render_pair
from repro.core.modules.llm_module import LLMModule
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
    if module.instructions:
        lines.append(module.instructions)
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
            "entity_resolution+examples+instructions",
            get_template("entity_resolution").instantiate(
                examples=pick_examples(dataset.train, 3),
                instructions="Brewery names may be abbreviated.\nIgnore case.",
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
    assert any(m.instructions and m.examples for _, m in MODULES)
    assert any(not m.instructions and not m.examples for _, m in MODULES)


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
