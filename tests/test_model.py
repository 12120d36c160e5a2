import inspect
import json
import re
from collections import Counter
from pathlib import Path

import pytest

from divgen.model import (
    ExecutionType,
    GeneratedExample,
    Invocation,
    ModelError,
    ParamCategory,
    ParameterSpec,
    RunConfig,
    classify_parameter_type,
    load_function_library,
    read_dataset,
    write_dataset,
)
from divgen.preprocess import build_similarity_graph, group_parameters
from divgen.providers.base import SignatureClient
from divgen.providers.http import HttpEmbedder
from divgen.sampler import check_pairwise_similarity


def test_load_single_function(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps([{
        "name": "f",
        "description": "does things",
        "parameters": [
            {"name": "x", "type": "integer", "description": "a count"},
            {"name": "mode", "type": "string", "enum": ["fast", "slow"],
             "description": "speed choice"},
        ],
    }]))
    lib = load_function_library(path)
    assert len(lib) == 1
    assert [p.category for p in lib[0].parameters] == [
        ParamCategory.NUMERICAL, ParamCategory.ENUM]


def test_duplicate_function_name_rejected(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps([
        {"name": "f", "parameters": []},
        {"name": "f", "parameters": []},
    ]))
    with pytest.raises(ModelError, match="duplicate function name 'f'"):
        load_function_library(path)


def test_parse_error_names_offender(tmp_path):
    path = tmp_path / "lib.json"
    path.write_text(json.dumps([{"name": "f", "parameters": [{"type": "string"}]}]))
    with pytest.raises(ModelError, match="'f'"):
        load_function_library(path)


def test_fixture_library_hand_counts(library):
    assert len(library) == 12
    counts = Counter(p.category for fn in library for p in fn.parameters)
    assert counts[ParamCategory.ENUM] == 3
    assert counts[ParamCategory.NUMERICAL] == 4
    assert counts[ParamCategory.STRING] == 4
    assert counts[ParamCategory.OTHER] == 1
    # names preserved byte-exactly, including spaces
    assert any(fn.name == "Video Info by URL" for fn in library)


@pytest.mark.parametrize("declared,enum,expected", [
    ("integer", None, ParamCategory.NUMERICAL),
    ("float", None, ParamCategory.NUMERICAL),
    ("number", None, ParamCategory.NUMERICAL),
    ("string", None, ParamCategory.STRING),
    ("string", ["a", "b"], ParamCategory.ENUM),
    ("array of string", None, ParamCategory.OTHER),
    ("object", None, ParamCategory.OTHER),
    ("boolean", None, ParamCategory.OTHER),
])
def test_classify_parameter_type(declared, enum, expected):
    assert classify_parameter_type(declared, enum) is expected
    assert classify_parameter_type(declared, enum) is expected  # deterministic


def test_parameter_spec_invariants():
    with pytest.raises(ModelError):
        ParameterSpec("x", "", "string", ParamCategory.ENUM)  # ENUM without values
    with pytest.raises(ModelError):
        ParameterSpec("x", "", "string", ParamCategory.STRING, enum_values=("a",))
    with pytest.raises(ModelError):
        ParameterSpec("", "", "string", ParamCategory.STRING)


def _example(eid="e1", etype=ExecutionType.SINGLE, **kw):
    defaults = dict(
        query="do the thing",
        target_invocations=(Invocation("f", {"x": 1}),),
        return_values=(),
        candidate_functions=("f", "g"),
        metadata={"seed": 0},
    )
    defaults.update(kw)
    return GeneratedExample(id=eid, execution_type=etype, **defaults)


def test_example_invariants():
    _example().validate()
    with pytest.raises(ModelError, match="targets absent"):
        _example(candidate_functions=("g",)).validate()
    with pytest.raises(ModelError, match="NONE"):
        _example(etype=ExecutionType.NONE).validate()
    _example(etype=ExecutionType.NONE, target_invocations=(),
             candidate_functions=("g",)).validate()
    with pytest.raises(ModelError, match=">= 2"):
        _example(etype=ExecutionType.PARALLEL).validate()
    with pytest.raises(ModelError, match="order_index 0"):
        _example(etype=ExecutionType.PARALLEL,
                 target_invocations=(Invocation("f", {}), Invocation("g", {}, 1))).validate()
    with pytest.raises(ModelError, match="return values"):
        _example(etype=ExecutionType.SEQUENTIAL,
                 target_invocations=(Invocation("f", {}, 0), Invocation("g", {}, 1))).validate()
    _example(etype=ExecutionType.SEQUENTIAL,
             target_invocations=(Invocation("f", {}, 0), Invocation("g", {}, 1)),
             return_values=({"v": 1},)).validate()


def test_dataset_roundtrip_empty(tmp_path):
    path = tmp_path / "ds.jsonl"
    assert write_dataset([], path) == 0
    assert read_dataset(path) == []


def test_dataset_roundtrip_byte_identical(tmp_path):
    examples = [
        _example("e1"),
        _example("e2", etype=ExecutionType.NONE, target_invocations=(),
                 candidate_functions=("g",), query="just chат"),
        _example("e3", query="unicode ✓ and spaces"),
    ]
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_dataset(examples, p1)
    loaded = read_dataset(p1)
    assert loaded == examples
    write_dataset(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_read_error_carries_line_number(tmp_path):
    path = tmp_path / "ds.jsonl"
    good = _example().to_dict()
    missing = dict(good)
    del missing["execution_type"]
    bad_records = [
        missing,
        {**good, "query": 7},
        {**good, "target_invocations": [7]},
        {**good, "target_invocations": 7},
        {**good, "return_values": 7},
        [good],
    ]
    for bad in bad_records:
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ModelError, match="line 2"):
            read_dataset(path)
    # records of the wrong shape that iteration or dict() would otherwise accept
    call = good["target_invocations"][0]
    bad_shapes = [
        ("candidate_functions", {**good, "candidate_functions": "fg"}),
        ("candidate_functions", {**good, "candidate_functions": ["f", 7]}),
        ("return_values", {**good, "return_values": "ab"}),
        ("target_invocations", {**good, "target_invocations": ""}),
        ("metadata", {**good, "metadata": [["seed", 0]]}),
        ("arguments", {**good, "target_invocations": [{**call, "arguments": [["x", 1]]}]}),
        ("function_name", {**good, "target_invocations": [{**call, "function_name": {}}]}),
    ]
    for field, bad in bad_shapes:
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ModelError, match=f"line 2: {field} "):
            read_dataset(path)


def test_dataset_write_rejects_invalid(tmp_path):
    bad = _example(candidate_functions=("other",))
    with pytest.raises(ModelError, match="e1"):
        write_dataset([bad], tmp_path / "ds.jsonl")


def test_runconfig_validation():
    with pytest.raises(ModelError, match="positive"):
        RunConfig(rounds=0)
    with pytest.raises(ModelError, match="sum"):
        RunConfig(type_weights={"SINGLE": 0.0})
    with pytest.raises(ModelError, match=r"unknown execution types.*'FOO'"):
        RunConfig(type_weights={"SINGLE": 1.0, "FOO": 1.0})
    with pytest.raises(ModelError, match="unknown config keys"):
        RunConfig.from_dict({"bogus": 1})
    cfg = RunConfig(rng_seed=3)
    assert RunConfig.from_dict(cfg.to_dict()) == cfg


@pytest.mark.parametrize("values, field", [
    ({"type_weights": {"SINGLE": float("nan"), "PARALLEL": 0, "SEQUENTIAL": 0,
                       "MISSING_PARAMS": 0, "NONE": 0}}, "type_weights['SINGLE']"),
    ({"type_weights": {"SINGLE": float("inf"), "NONE": 1}}, "type_weights['SINGLE']"),
    ({"type_weights": {"SINGLE": "1"}}, "type_weights['SINGLE']"),
    ({"group_threshold": float("nan")}, "group_threshold"),
    ({"graph_threshold": float("-inf")}, "graph_threshold"),
    ({"pairwise_similarity_threshold": float("inf")}, "pairwise_similarity_threshold"),
    ({"rounds": 2.5}, "rounds"),
    ({"retry_limit": True}, "retry_limit"),
    ({"pattern_period": 10.0}, "pattern_period"),
    ({"embedding_dimension": "384"}, "embedding_dimension"),
])
def test_runconfig_refuses_values_it_cannot_serve(values, field):
    with pytest.raises(ModelError, match=re.escape(field)):
        RunConfig.from_dict(values)


@pytest.mark.parametrize("function, name", [
    (group_parameters, "threshold"),
    (build_similarity_graph, "threshold"),
    (check_pairwise_similarity, "threshold"),
    (HttpEmbedder, "dimension"),
    (SignatureClient, "retry_limit"),
    (SignatureClient, "decode_params"),
], ids=lambda v: getattr(v, "__name__", v))
def test_a_value_run_config_owns_has_no_second_default(function, name):
    # the program passes RunConfig's value; a default would be a second copy
    assert inspect.signature(function).parameters[name].default is inspect.Parameter.empty


def test_readme_configuration_table_lists_every_config_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    keys = [key for line in section.splitlines() if line.startswith("| `")
            for key in re.findall(r"`(\w+)`", line.split("|")[1])]
    assert sorted(keys) == sorted(RunConfig.__dataclass_fields__)
