import string

import pytest
from hypothesis import given, settings, strategies as st

from divgen.providers import catalog
from divgen.providers.signature import (
    Field,
    PromptSignature,
    SignatureError,
    SignatureParseError,
    format_output,
    parse_signature_output,
    render_signature,
)


def sig_of(inputs, outputs, name="Test", objective="Test objective."):
    return PromptSignature(
        name=name,
        objective=objective,
        input_fields=tuple(Field(n) for n in inputs),
        output_fields=tuple(Field(n) for n in outputs),
    )


def test_render_contains_blocks_in_order():
    sig = sig_of(["query"], ["answer"])
    text = render_signature(sig, {"query": "hi"})
    assert "[[ ## query ## ]]\nhi" in text
    assert text.index("Your input fields are:") < text.index("[[ ## query ## ]]")
    assert text.index("[[ ## query ## ]]") < text.index("[[ ## answer ## ]]")
    assert text.rstrip().endswith("[[ ## completed ## ]]")


def test_render_empty_value_keeps_marker():
    sig = sig_of(["query"], ["answer"])
    text = render_signature(sig, {"query": ""})
    assert "[[ ## query ## ]]\n" in text


def test_render_missing_input_field_errors():
    sig = sig_of(["query", "context"], ["answer"])
    with pytest.raises(SignatureError, match="query not provided"):
        render_signature(sig, {"context": "x"})


def test_render_takes_only_declared_fields_from_a_wider_context():
    # Callers pass one context for several signatures; each takes its own fields.
    sig = sig_of(["query", "context"], ["answer"])
    context = {"context": "c", "query": "q", "api_schema": "UNDECLARED"}
    text = render_signature(sig, context)
    assert text == render_signature(sig, {"query": "q", "context": "c"})
    assert "api_schema" not in text and "UNDECLARED" not in text
    del context["context"]
    with pytest.raises(SignatureError, match="context not provided"):
        render_signature(sig, context)


def test_signature_definition_invariants():
    with pytest.raises(SignatureError, match="duplicate"):
        sig_of(["a", "a"], ["b"])
    with pytest.raises(SignatureError, match="at least one output"):
        sig_of(["a"], [])


def test_parse_appendix_style_blocks():
    compat = catalog.get("ValidateSequentialSchemaCompatibility")
    reply = ("[[ ## reasoning ## ]]\n"
             "The first function returns caption text that carries no identifier"
             " the second function could require.\n\n"
             "[[ ## is_compatible ## ]]\nNO\n\n"
             "[[ ## completed ## ]]")
    assert parse_signature_output(reply, compat)["is_compatible"] == "NO"

    judge = catalog.get("APIQueryJudge")
    reply = ("[[ ## reasoning ## ]]\nParameters match the request directly.\n\n"
             "[[ ## is_reasonable ## ]]\nYES\n\n"
             "[[ ## completed ## ]]")
    assert parse_signature_output(reply, judge)["is_reasonable"] == "YES"

    validator = catalog.get("ParameterSetValidator")
    reply = ("[[ ## reasoning ## ]]\nAll required parameters present.\n\n"
             "[[ ## is_valid ## ]]\nYES\n\n[[ ## completed ## ]]")
    assert parse_signature_output(reply, validator)["is_valid"] == "YES"


def test_parse_out_of_order_markers():
    sig = sig_of([], ["first", "second"])
    reply = ("[[ ## second ## ]]\ntwo\n\n[[ ## first ## ]]\none\n\n"
             "[[ ## completed ## ]]")
    assert parse_signature_output(reply, sig) == {"first": "one", "second": "two"}


def test_parse_missing_marker_lists_fields():
    sig = sig_of([], ["reasoning", "verdict"])
    reply = "[[ ## verdict ## ]]\nYES\n\n[[ ## completed ## ]]"
    with pytest.raises(SignatureParseError, match="reasoning") as err:
        parse_signature_output(reply, sig)
    assert err.value.missing == ["reasoning"]


def test_parse_without_completed_marker_uses_text_end():
    sig = sig_of([], ["answer"])
    assert parse_signature_output("[[ ## answer ## ]]\n42", sig) == {"answer": "42"}


_names = st.lists(
    st.text(alphabet=string.ascii_lowercase + "_", min_size=1, max_size=12),
    min_size=1, max_size=6, unique=True)
_value = st.text(
    alphabet=string.printable, max_size=80).filter(lambda s: "[[ ##" not in s)


@settings(max_examples=200, deadline=None)
@given(names=_names, data=st.data())
def test_format_parse_inverse_property(names, data):
    sig = sig_of([], names)
    values = {n: data.draw(_value) for n in names}
    reply = format_output(sig, values)
    assert parse_signature_output(reply, sig) == {
        n: v.strip() for n, v in values.items()}


def test_catalog_field_orders_match_wire_format():
    sig = catalog.get("GenerateMultipleStringParameters")
    assert [f.name for f in sig.input_fields] == [
        "parameter_name", "parameter_description", "parameter_type",
        "function_name", "function_description", "other_parameter_values",
        "existing_values", "parameter_group_context", "num_candidates",
        "previous_failures"]
    assert [f.name for f in sig.output_fields] == ["reasoning", "generated_values"]

    seq = catalog.get("GenerateSequentialCohesiveStringParameter")
    assert [f.name for f in seq.input_fields] == [
        "parameter_name", "parameter_description", "parameter_type",
        "function_name", "function_description", "other_parameter_values",
        "return_value", "next_api_parameters", "later_api_parameters",
        "existing_values", "parameter_group_context", "previous_failures"]

    other = catalog.get("GenerateOtherParameter")
    assert [f.name for f in other.output_fields] == ["generated_value"]

    equiv = catalog.get("ToolCallEquivalence")
    assert [f.name for f in equiv.input_fields] == [
        "user_query", "tool_schema", "ground_truth_call", "predicted_call"]
    assert [f.name for f in equiv.output_fields] == ["reasoning", "equivalent"]

    gen = catalog.get("MultiQueryGenerator")
    assert [f.name for f in gen.output_fields] == [
        "reasoning", "query_1", "query_2", "query_3", "query_4", "query_5"]


def test_catalog_complete():
    expected = {
        "ValidateSequentialSchemaCompatibility",
        "GenerateMultipleStringParameters", "GenerateMultipleNumericalParameters",
        "GenerateOtherParameter", "GenerateCohesiveStringParameter",
        "GenerateCohesiveNumericalParameter", "GenerateCohesiveOtherParameter",
        "GenerateSequentialCohesiveStringParameter",
        "GenerateSequentialCohesiveNumericalParameter",
        "GenerateSequentialCohesiveOtherParameter",
        "GenerateReturnValue", "ParameterSetValidator",
        "PartialParameterSetValidator", "ValidateReturnValue",
        "ValidateSequentialChain",
        "NoAPIQueryGenerator", "SequentialQueryGenerator",
        "ParallelQueryGenerator", "MultiQueryGenerator",
        "MissingParamsQueryGenerator",
        "SequentialQueryJudge", "ParallelQueryJudge", "APIQueryJudge",
        "MissingParamsQueryJudge",
        "DatasetPatternAnalysis", "DiversityGuidanceGeneration",
        "BatchAPIRelevanceScorer", "ParallelAPIRelevanceScorer",
        "ConstructSequentialInvocation", "ValidateSequentialInvocation",
        "ConstructParallelInvocation", "ValidateParallelInvocation",
        "ToolCallEquivalence",
    }
    assert set(catalog.SIGNATURES) == expected
