"""Tests for the DSL: operators, pipeline graph, builder, textual parser."""

from __future__ import annotations

import pytest

from repro.core.dsl.builder import PipelineBuilder
from repro.core.dsl.operators import LogicalOperator, OperatorKind
from repro.core.dsl.parser import DslParseError, parse_pipeline
from repro.core.dsl.pipeline import Pipeline, PipelineError
from repro.core.runtime.system import LinguaManga


def by_name(pipeline: Pipeline, name: str) -> LogicalOperator:
    return next(op for op in pipeline.operators if op.name == name)


class TestLogicalOperator:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            LogicalOperator("x", "frobnicate")

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            LogicalOperator("has space", OperatorKind.LOAD)

    def test_describe_includes_hints(self):
        op = LogicalOperator("m", OperatorKind.MATCH_ENTITIES, params={"impl": "llm"})
        assert "impl=llm" in op.describe()


class TestPipelineGraph:
    def make_linear(self) -> Pipeline:
        p = Pipeline("p")
        p.add(LogicalOperator("a", OperatorKind.LOAD))
        p.add(LogicalOperator("b", OperatorKind.DEDUPE, inputs=["a"]))
        p.add(LogicalOperator("c", OperatorKind.SAVE, inputs=["b"]))
        return p

    def test_validate_accepts_linear(self):
        self.make_linear().validate()

    def test_duplicate_names_rejected(self):
        p = Pipeline("p")
        p.add(LogicalOperator("a", OperatorKind.LOAD))
        with pytest.raises(PipelineError):
            p.add(LogicalOperator("a", OperatorKind.SAVE))

    def test_unknown_input_rejected(self):
        p = Pipeline("p")
        p.add(LogicalOperator("a", OperatorKind.SAVE, inputs=["ghost"]))
        with pytest.raises(PipelineError):
            p.validate()

    def test_self_reference_rejected(self):
        p = Pipeline("p")
        p.add(LogicalOperator("a", OperatorKind.SAVE, inputs=["a"]))
        with pytest.raises(PipelineError):
            p.validate()

    def test_cycle_rejected(self):
        p = Pipeline("p")
        p.add(LogicalOperator("a", OperatorKind.DEDUPE, inputs=["b"]))
        p.add(LogicalOperator("b", OperatorKind.DEDUPE, inputs=["a"]))
        with pytest.raises(PipelineError):
            p.validate()

    def test_empty_pipeline_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline("p").validate()

    def test_topological_order_respects_dependencies(self):
        p = Pipeline("p")
        p.add(LogicalOperator("sink", OperatorKind.SAVE, inputs=["mid"]))
        p.add(LogicalOperator("src", OperatorKind.LOAD))
        p.add(LogicalOperator("mid", OperatorKind.DEDUPE, inputs=["src"]))
        order = [op.name for op in p.topological_order()]
        assert order.index("src") < order.index("mid") < order.index("sink")

    def test_sinks(self):
        p = self.make_linear()
        assert [op.name for op in p.sinks()] == ["c"]

    def test_diamond_dag(self):
        p = Pipeline("diamond")
        p.add(LogicalOperator("src", OperatorKind.LOAD))
        p.add(LogicalOperator("l", OperatorKind.DEDUPE, inputs=["src"]))
        p.add(LogicalOperator("r", OperatorKind.CLEAN_TEXT, inputs=["src"]))
        p.add(LogicalOperator("join", OperatorKind.CUSTOM, inputs=["l", "r"]))
        p.validate()
        assert [op.name for op in p.sinks()] == ["join"]

    def test_to_text_lists_operators(self):
        text = self.make_linear().to_text()
        assert "a: load" in text and "c: save" in text


class TestBuilder:
    def test_linear_chaining(self):
        p = (
            PipelineBuilder("t")
            .load(source="x")
            .dedupe(impl="custom")
            .save(key="out")
            .build()
        )
        order = [op.kind for op in p.topological_order()]
        assert order == ["load", "dedupe", "save"]
        assert p.operators[1].inputs == [p.operators[0].name]

    def test_explicit_names_and_inputs(self):
        p = (
            PipelineBuilder("t")
            .add(OperatorKind.LOAD, name="a", inputs=[])
            .add(OperatorKind.LOAD, name="b", inputs=[])
            .add(OperatorKind.CUSTOM, name="j", inputs=["a", "b"])
            .build()
        )
        assert by_name(p, "j").inputs == ["a", "b"]

    def test_params_forwarded(self):
        p = PipelineBuilder("t").load(source="x").match_entities(impl="llm", examples=[]).save().build()
        assert p.operators[1].params["impl"] == "llm"

    def test_build_validates(self):
        builder = PipelineBuilder("t")
        builder.add(OperatorKind.SAVE, inputs=["ghost"])
        with pytest.raises(PipelineError):
            builder.build()


class TestTextualParser:
    GOOD = '''
    pipeline "demo":
      a = load(source="values")   # comment
      b = clean_text(input=a, impl="custom")
      save(input=b, key="out", limit=3, ratio=0.5, flag=true, nothing=null)
    '''

    def test_parses_structure(self):
        p = parse_pipeline(self.GOOD)
        assert p.name == "demo"
        assert [op.kind for op in p.topological_order()] == ["load", "clean_text", "save"]

    def test_literal_types(self):
        p = parse_pipeline(self.GOOD)
        params = p.topological_order()[-1].params
        assert params["limit"] == 3
        assert params["ratio"] == 0.5
        assert params["flag"] is True
        assert params["nothing"] is None

    def test_inputs_wired(self):
        p = parse_pipeline(self.GOOD)
        assert by_name(p, "b").inputs == ["a"]

    def test_inputs_list(self):
        text = '''
        pipeline "m":
          a = load(source="x")
          b = load(source="y")
          j = save(inputs=[a, b], key="both")
        '''
        p = parse_pipeline(text)
        assert by_name(p, "j").inputs == ["a", "b"]
        # What the DSL spells also compiles and runs: both inputs arrive.
        report = LinguaManga().run(p, inputs={"x": [1], "y": [2]})
        assert report.outputs["j"] == ([1], [2])

    def test_custom_refused_at_its_line(self):
        text = (
            'pipeline "m":\n'
            '  a = load(source="x")\n'
            '  j = custom(inputs=[a], description="join")\n'
        )
        with pytest.raises(DslParseError, match=r"line 3: .*PipelineBuilder\.custom"):
            parse_pipeline(text)

    def test_unnamed_operator_gets_auto_alias(self):
        p = parse_pipeline('pipeline "x":\n  load(source="v")\n')
        assert p.operators[0].name == "load_1"

    def test_unknown_kind_rejected(self):
        with pytest.raises(DslParseError):
            parse_pipeline('pipeline "x":\n  fly(height=3)\n')

    def test_missing_header_rejected(self):
        with pytest.raises(DslParseError):
            parse_pipeline('load(source="x")')

    def test_bad_statement_reports_line(self):
        with pytest.raises(DslParseError, match="line 3"):
            parse_pipeline('pipeline "x":\n  a = load(source="v")\n  ???\n')

    def test_input_must_be_reference(self):
        with pytest.raises(DslParseError):
            parse_pipeline('pipeline "x":\n  a = save(input="stringy")\n')

    def test_empty_document_rejected(self):
        with pytest.raises(DslParseError):
            parse_pipeline("   \n  # only a comment\n")

    def test_hash_inside_quotes_is_data(self):
        p = parse_pipeline(
            'pipeline "C# demo":  # header comment\n'
            '  a = load(source="in#put")\n'
            '  s = save(input=a, key="out#1", note=\'x # y\')  # trailing "#" comment\n'
        )
        assert p.name == "C# demo"
        assert by_name(p, "a").params == {"source": "in#put"}
        assert by_name(p, "s").params == {"key": "out#1", "note": "x # y"}

    def test_string_escapes(self):
        p = parse_pipeline('pipeline "x":\n  load(path="a\\"b")\n')
        assert p.operators[0].params["path"] == 'a"b'
