import base64
import contextlib
import copy
import functools
import hashlib
import io
import json
import operator
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import alarm, packed_column
import divgen.cli
from divgen.cli import main
from divgen.fixtures import fixture_library_path, repetitive_corpus, varied_corpus
from divgen.metrics import trees
from divgen.metrics.text import fkgl_grade, tokenize
from divgen.model import RunConfig, read_dataset
from divgen.preprocess import EDGE_KINDS
from divgen.providers.hash_embed import HashEmbedder


def run(argv):
    return main(argv)


def test_missing_library_is_usage_error(tmp_path, capsys):
    code = run(["preprocess", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "a.json")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_empty_library_is_refused_before_any_file(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    lib.write_text("[]")
    assert run(["preprocess", str(lib), "--out", str(tmp_path / "a.json")]) == 2
    assert f"error: {lib}: the library holds no function" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["lib.json"]


def test_a_library_that_is_not_utf8_is_refused_before_any_file(tmp_path, capsys):
    lib = tmp_path / "lib.json"
    lib.write_bytes('[{"name": "caf\u00e9"}]'.encode("latin-1"))
    assert run(["preprocess", str(lib), "--out", str(tmp_path / "a.json")]) == 2
    assert f"error: cannot parse {lib}: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["lib.json"]


def _library_with(**fields):
    """One function definition, its parameter and its return field, each with
    the given fields replacing theirs (keys ``function_*``, ``parameter_*``,
    ``return_*``)."""
    parameter = {"name": "city", "type": "string", "description": "a city", "required": True}
    returned = {"name": "forecast", "type": "object", "description": "the forecast",
                "fields": [{"name": "high", "type": "float"}]}
    function = {"name": "weather", "description": "look up weather",
                "parameters": [parameter], "returns": [returned]}
    for key, value in fields.items():
        part, field = key.split("_", 1)
        {"function": function, "parameter": parameter, "return": returned}[part][field] = value
    return [function]


@pytest.mark.parametrize("fields, message", [
    ({"function_parameters": ["name"]},
     "function 'weather': each entry of parameters must be an object, not \"name\""),
    ({"function_parameters": {"name": "x", "type": "string"}},
     "function 'weather': parameters must be an array, not {"),
    ({"function_returns": [1]}, "function 'weather': each entry of returns must be an object"),
    ({"function_parameters": "city"},
     "function 'weather': parameters must be an array, not \"city\""),
    ({"parameter_enum": "ab"},
     "function 'weather', parameter 'city': enum must be an array, not \"ab\""),
    ({"parameter_required": "false"},
     "function 'weather', parameter 'city': required must be true or false, not \"false\""),
    ({"function_name": ["f"]}, "library entry 0: name must be a string, not [\"f\"]"),
    ({"function_description": 5}, "function 'weather': description must be a string, not 5"),
    ({"parameter_type": 1}, "function 'weather', parameter 'city': type must be a string"),
    ({"return_type": ["object"]}, "function 'weather', return field 'forecast': type must be"),
    ({"return_fields": "high"},
     "function 'weather', return field 'forecast': fields must be an array, not \"high\""),
    ({"return_fields": [2]}, "function 'weather': each entry of fields must be an object"),
], ids=["parameter-not-object", "parameters-object", "return-not-object", "parameters-string",
        "enum-string", "required-string", "name-array", "description-number", "type-number",
        "return-type-array", "fields-string", "field-not-object"])
def test_library_field_of_the_wrong_type_is_refused_before_any_file(tmp_path, capsys, fields,
                                                                    message):
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps(_library_with(**fields)), encoding="utf-8")
    assert run(["preprocess", str(lib), "--out", str(tmp_path / "a.json")]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["lib.json"]


def test_library_fields_of_their_types_and_null_arrays_are_read(tmp_path):
    lib = tmp_path / "lib.json"
    lib.write_text(json.dumps(_library_with(parameter_enum=None, return_fields=None)),
                   encoding="utf-8")
    assert run(["preprocess", str(lib), "--out", str(tmp_path / "a.json")]) == 0


def test_negative_n_is_refused_before_any_file(tmp_path, capsys):
    art = tmp_path / "art.json"
    assert run(["preprocess", fixture_library_path(), "--out", str(art)]) == 0
    assert run(["generate", str(art), "--n", "-1", "--out", str(tmp_path / "ds.jsonl"),
                "--log", str(tmp_path / "run.log")]) == 2
    assert "error: --n must be 0 or more, not -1" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["art.json"]


def test_unknown_provider_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"embedding_provider": "martian"}))
    code = run(["preprocess", fixture_library_path(), "--config", str(cfg),
                "--out", str(tmp_path / "a.json")])
    assert code == 2


def test_unknown_execution_type_is_usage_error_before_any_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"type_weights": {"SINGLE": 1, "FOO": 1}}))
    art, out = tmp_path / "art.json", tmp_path / "ds.jsonl"
    assert run(["preprocess", fixture_library_path(), "--config", str(cfg),
                "--out", str(art)]) == 2
    assert "FOO" in capsys.readouterr().err
    assert run(["preprocess", fixture_library_path(), "--out", str(art)]) == 0
    assert run(["generate", str(art), "--config", str(cfg), "--n", "2",
                "--out", str(out)]) == 2
    assert "FOO" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["art.json", "cfg.json"]


@pytest.mark.parametrize("kinds, weights, message", [
    ((), {"PARALLEL": 1}, "need a similarity graph edge"),  # no walk start
    (("P-P",), {"SEQUENTIAL": 1}, "need a P-R edge"),       # no walk takes a P-R edge
])
def test_type_weights_the_graph_cannot_serve_are_refused_before_any_file(
        tmp_path, capsys, kinds, weights, message):
    art, cfg = tmp_path / "art.json", tmp_path / "cfg.json"
    assert run(["preprocess", fixture_library_path(), "--out", str(art)]) == 0
    doc = json.loads(art.read_text(encoding="utf-8"))
    graph = doc["graph"]
    keep = np.isin(packed_column(graph, "kinds"), [EDGE_KINDS.index(k) for k in kinds])
    for column in ("sources", "targets", "kinds", "weights"):
        packed_column(graph, column, lambda values: values[keep])
    art.write_text(json.dumps(doc), encoding="utf-8")
    cfg.write_text(json.dumps({"type_weights": weights}))
    with alarm(60):
        code = run(["generate", str(art), "--config", str(cfg), "--n", "2",
                    "--out", str(tmp_path / "ds.jsonl"), "--log", str(tmp_path / "run.log")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["art.json", "cfg.json"]


def _edit_edge(column, value):
    def first(values):
        values[0] = value
        return values

    def edit(doc):
        packed_column(doc["graph"], column, first)
    return edit


def _list_columns(doc):
    """The graph's columns as the lists an older divgen wrote."""
    graph = doc["graph"]
    for column in ("sources", "targets", "weights"):
        graph[column] = packed_column(graph, column).tolist()
    graph["kinds"] = [EDGE_KINDS[k] for k in packed_column(graph, "kinds").tolist()]


def _old_edge_form(doc):
    _list_columns(doc)
    graph = doc["graph"]
    vertices = graph["vertices"]
    graph["edges"] = [{"source": vertices[s], "target": vertices[t], "kind": k, "weight": w}
                      for s, t, k, w in zip(*(graph.pop(c) for c in
                                              ("sources", "targets", "kinds", "weights")))]


def _cut_last_byte(doc):
    graph = doc["graph"]
    graph["weights"] = base64.b64encode(base64.b64decode(graph["weights"])[:-1]).decode()


@pytest.mark.parametrize("edit, message", [
    (None, "line 1 column"),  # the file cut in half: a JSON syntax error
    (lambda doc: doc.pop("graph"), "no 'graph' entry"),
    (lambda doc: doc["graph"].pop("weights"), "no 'weights' entry"),
    (_edit_edge("sources", 2 ** 31 - 1), "vertex indexes must be integers from 0 to 11"),
    (_edit_edge("kinds", 2), "graph edge kind code 2 is neither P-P (0) nor P-R (1)"),
    (_edit_edge("kinds", -1), "graph edge kind code -1 is neither P-P (0) nor P-R (1)"),
    # four base64 letters decode to 3 bytes, not one 8-byte weight
    (lambda doc: doc["graph"].update(weights="high"),
     "graph column weights holds 3 bytes, not a whole number of 8-byte values"),
    (_cut_last_byte, "graph column weights holds 55 bytes, not a whole number of 8-byte"
                     " values"),  # the fixture's 7 weights, one byte short
    (_edit_edge("weights", float("nan")), "graph edge weights must be finite floats"),
    (_edit_edge("weights", float("inf")), "graph edge weights must be finite floats"),
    (_edit_edge("targets", 12), "vertex indexes must be integers from 0 to 11"),
    (_edit_edge("targets", -1), "vertex indexes must be integers from 0 to 11"),
    (lambda doc: doc["graph"].update(sources=True), "graph column sources must be a base64"
                                                    " string"),
    (lambda doc: packed_column(doc["graph"], "kinds", lambda values: values[:-1]),
     "must be of one length"),
    (lambda doc: doc["graph"].update(kinds="P-P"), "graph column kinds is not valid base64"),
    (lambda doc: doc["graph"].update(kinds="\u00e9t\u00e9"),
     "graph column kinds is not valid base64"),
    (_list_columns, "graph columns are lists, the form of an older divgen; re-run"
                    " `divgen preprocess`"),
    (_old_edge_form, "re-run `divgen preprocess`"),
    (lambda doc: doc["graph"]["vertices"].reverse(), "vertices are not the library's"),
    (lambda doc: doc["pools"]["focused"].append("ghost"),
     "the focused API pool names 'ghost', not a library function"),
    (lambda doc: doc["pools"].update(other="weather_forecast"),
     "the API pools must be lists of function names"),
    (lambda doc: doc["groups"][0]["members"].pop(), "no group holds the library parameter"),
    (lambda doc: doc["groups"][0]["members"].append(["weather_forecast", "ghost"]),
     "holds ('weather_forecast', 'ghost'), not a library parameter"),
    (lambda doc: doc["groups"][0].update(category="OTHER"), "is OTHER, but its member"),
    (lambda doc: doc["groups"][0]["members"].__setitem__(0, ""),
     "holds (), not a library parameter"),
    # the checkpoint keys each group's tracker by its id
    (lambda doc: doc["groups"][1].update(id=doc["groups"][0]["id"]),
     "group ids must be distinct strings, not 'g000'"),
    (lambda doc: doc["groups"][0].update(id={"g": 0}),
     "group ids must be distinct strings, not {'g': 0}"),
    (lambda doc: doc["library"][0]["parameters"][0].update(required="false"),
     "required must be true or false"),
    # a tracker value its group could not place: g000 is NUMERICAL, g003 STRING
    (lambda doc: doc["groups"][0].update(tracker=["abc"]),
     "group g000's tracker: non-numeric value: 'abc'"),
    (lambda doc: doc["groups"][0].update(tracker=[float("inf")]),
     "group g000's tracker: non-finite value: inf"),
    (lambda doc: doc["groups"][0].update(tracker=[True]),
     "group g000's tracker: non-numeric value: True"),
    (lambda doc: doc["groups"][0].update(tracker=[10 ** 400]),
     "group g000's tracker: non-finite value: 1000"),
    (lambda doc: doc["groups"][3].update(tracker=["!!!"]),
     "group g003's tracker: value '!!!' has no word token"),
    (lambda doc: doc["groups"][3].update(tracker="Paris"),
     "group g003's tracker must be an array, not 'Paris'"),
    (lambda doc: doc["groups"][3].update(tracker={"x": 1}),
     "group g003's tracker must be an array, not {'x': 1}"),
], ids=["truncated", "no-graph", "no-weights", "ghost", "kind", "kind-negative", "weight-text",
        "partial-width", "weight-nan", "weight-huge", "index-past-end", "index-negative",
        "index-bool", "column-length", "not-base64", "not-ascii", "list-columns", "old-form",
        "vertices", "pool-ghost", "pool-string", "parameter-no-group", "group-ghost",
        "group-category", "group-member-text", "group-id-repeated", "group-id-object",
        "library-type", "tracker-text", "tracker-infinity", "tracker-bool", "tracker-huge-int",
        "tracker-no-token", "tracker-string", "tracker-object"])
def test_malformed_artifact_is_refused_before_any_file(tmp_path, capsys, edit, message):
    art = tmp_path / "art.json"
    assert run(["preprocess", fixture_library_path(), "--out", str(art)]) == 0
    text = art.read_text(encoding="utf-8")
    if edit is None:
        text = text[:len(text) // 2]
    else:
        doc = json.loads(text)
        edit(doc)
        text = json.dumps(doc)
    art.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert run(["generate", str(art), "--n", "2", "--out", str(tmp_path / "ds.jsonl"),
                "--log", str(tmp_path / "run.log")]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read artifact {art}: " in err
    assert message in err
    assert [p.name for p in tmp_path.iterdir()] == ["art.json"]


def test_preprocess_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["preprocess", fixture_library_path(), "--seed", "3",
                "--out", str(a)]) == 0
    assert run(["preprocess", fixture_library_path(), "--seed", "3",
                "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_reports_the_size_the_dataset_holds(tmp_path, capsys):
    art, out = tmp_path / "art.json", tmp_path / "d.jsonl"
    assert run(["preprocess", fixture_library_path(), "--seed", "3", "--out", str(art)]) == 0
    assert run(["generate", str(art), "--n", "4", "--seed", "3", "--out", str(out)]) == 0
    assert run(["generate", str(art), "--n", "2", "--seed", "3", "--out", str(out),
                "--resume"]) == 0
    assert f"0 example(s) added; dataset holds 4 -> {out}" in capsys.readouterr().out
    assert len(read_dataset(out)) == 4


def test_generate_resume_requires_checkpoint(tmp_path):
    art = tmp_path / "art.json"
    run(["preprocess", fixture_library_path(), "--seed", "3", "--out", str(art)])
    code = run(["generate", str(art), "--n", "2", "--seed", "3",
                "--out", str(tmp_path / "d.jsonl"), "--resume"])
    assert code == 2


@pytest.mark.parametrize("logged", [True, False])
def test_a_resume_reads_the_dataset_prefix_once(tmp_path, monkeypatch, logged):
    import divgen.engine
    reads = []

    def counting_read(path, *args, **kwargs):
        reads.append(str(path))
        return read_dataset(path, *args, **kwargs)

    monkeypatch.setattr(divgen.engine, "read_dataset", counting_read)
    art, out, log = tmp_path / "art.json", tmp_path / "d.jsonl", tmp_path / "run.log"
    logging = ["--log", str(log)] if logged else []
    assert run(["preprocess", fixture_library_path(), "--seed", "3", "--out", str(art)]) == 0
    assert run(["generate", str(art), "--n", "2", "--seed", "3", "--out", str(out),
                *logging]) == 0
    assert reads == []
    assert run(["generate", str(art), "--n", "4", "--seed", "3", "--out", str(out),
                "--resume", *logging]) == 0
    assert reads == [str(out)]
    assert len(read_dataset(out)) == 4


def test_older_artifact_or_checkpoint_is_usage_error(tmp_path, capsys):
    art, out = tmp_path / "art.json", tmp_path / "d.jsonl"
    assert run(["preprocess", fixture_library_path(), "--seed", "3", "--out", str(art)]) == 0
    assert run(["generate", str(art), "--n", "1", "--seed", "3", "--out", str(out)]) == 0
    # a checkpoint written under another configuration
    assert run(["generate", str(art), "--n", "2", "--seed", "4", "--out", str(out),
                "--resume"]) == 2
    assert "different configuration" in capsys.readouterr().err
    # an artifact that stores a configuration key this version does not know
    doc = json.loads(art.read_text(encoding="utf-8"))
    doc["config"]["batch_judging"] = True
    art.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["generate", str(art), "--n", "2", "--out", str(out), "--resume"]) == 2
    assert "unknown config keys: ['batch_judging']" in capsys.readouterr().err
    # a key that became a module constant, in an artifact or in a config file,
    # is named, and no file is written
    fresh, cfg = tmp_path / "fresh.jsonl", tmp_path / "cfg.json"
    del doc["config"]["batch_judging"]
    doc["config"]["rrf_k"] = 60
    art.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["generate", str(art), "--n", "2", "--out", str(fresh)]) == 2
    assert "unknown config keys: ['rrf_k']" in capsys.readouterr().err
    cfg.write_text(json.dumps({"walk_lambda": 0.75}), encoding="utf-8")
    assert run(["generate", str(art), "--config", str(cfg), "--n", "2",
                "--out", str(fresh)]) == 2
    assert "unknown config keys: ['walk_lambda']" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "art.json", "cfg.json", "d.jsonl", "d.jsonl.checkpoint", "d.jsonl.rows"]


#: The keys that left RunConfig for module constants, with the values they held.
RETIRED_KEYS = {"walk_lambda": 0.75, "walk_edge_bias": 3.0, "walk_retries": 16,
                "candidates_per_round": 5, "rrf_k": 60, "retrieval_k": 20,
                "virtual_candidates": 25, "selection_size": 5, "optional_param_rate": 0.3,
                "missing_binomial_p": 0.5, "pattern_sample": 20}


def test_checkpoint_digesting_the_retired_keys_is_refused_untouched(tmp_path, capsys):
    art, out, log = tmp_path / "art.json", tmp_path / "d.jsonl", tmp_path / "run.log"
    assert run(["preprocess", fixture_library_path(), "--seed", "3", "--out", str(art)]) == 0
    assert run(["generate", str(art), "--n", "2", "--seed", "3", "--out", str(out),
                "--log", str(log)]) == 0
    # the digest a checkpoint carried while the constants were config keys
    ckpt = out.with_name(out.name + ".checkpoint")
    doc = json.loads(ckpt.read_text(encoding="utf-8"))
    older = {**RunConfig(rng_seed=3).to_dict(), **RETIRED_KEYS}
    doc["config_digest"] = hashlib.sha256(
        json.dumps(older, sort_keys=True).encode("utf-8")).hexdigest()
    ckpt.write_text(json.dumps(doc), encoding="utf-8")
    for path in (out, log):  # lines a resume would cut
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn"\n')
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(["generate", str(art), "--n", "3", "--seed", "3", "--out", str(out),
                "--log", str(log), "--resume"]) == 2
    assert "different configuration" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("config, field", [
    ({"type_weights": {"SINGLE": float("nan"), "PARALLEL": 0, "SEQUENTIAL": 0,
                       "MISSING_PARAMS": 0, "NONE": 0}}, "type_weights['SINGLE']"),
    ({"type_weights": {"SINGLE": float("inf"), "NONE": 1}}, "type_weights['SINGLE']"),
    ({"pairwise_similarity_threshold": float("nan")}, "pairwise_similarity_threshold"),
    ({"graph_threshold": float("inf")}, "graph_threshold"),
    ({"rounds": 2.5}, "rounds"),
    ({"retry_limit": True}, "retry_limit"),
    ({"decode_params": 5}, "decode_params"),
    ({"decode_params": [["temperature", 0]]}, "decode_params"),
    ({"type_weights": ["SINGLE"]}, "type_weights"),
    ({"rng_seed": [1]}, "rng_seed"),
    ({"rng_seed": True}, "rng_seed"),
    (True, "the config must be a JSON object, got True"),
    (5, "the config must be a JSON object, got 5"),
    ("x", "the config must be a JSON object, got 'x'"),
])
def test_config_values_a_run_cannot_serve_are_refused_before_any_file(
        tmp_path, capsys, config, field):
    art, cfg = tmp_path / "art.json", tmp_path / "cfg.json"
    assert run(["preprocess", fixture_library_path(), "--seed", "7", "--out", str(art)]) == 0
    cfg.write_text(json.dumps(config), encoding="utf-8")  # NaN and Infinity as JSON reads them
    with alarm(60):
        code = run(["generate", str(art), "--config", str(cfg), "--n", "3",
                    "--out", str(tmp_path / "ds.jsonl"), "--log", str(tmp_path / "run.log")])
    assert code == 2
    assert field in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["art.json", "cfg.json"]


def test_an_artifact_config_that_is_not_an_object_is_refused_before_any_file(tmp_path, capsys):
    art = tmp_path / "art.json"
    assert run(["preprocess", fixture_library_path(), "--seed", "7", "--out", str(art)]) == 0
    doc = json.loads(art.read_text(encoding="utf-8"))
    doc["config"] = True
    art.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run(["generate", str(art), "--n", "3", "--out", str(tmp_path / "ds.jsonl"),
                "--log", str(tmp_path / "run.log")]) == 2
    err = capsys.readouterr().err
    assert "cannot load config: the config must be a JSON object, got True" in err
    assert [p.name for p in tmp_path.iterdir()] == ["art.json"]


def test_fixture_run_golden_digest(tmp_path):
    # Pins the bytes of the seed-7 fixture run, dataset and run log, at n=25
    # and at n=200, ROADMAP's definition of behaviour. A change that alters
    # them on purpose updates these digests and says why.
    art = tmp_path / "art.json"
    assert run(["preprocess", fixture_library_path(), "--seed", "7", "--out", str(art)]) == 0
    for n, dataset, log in [
        (25, "e22dea5c4572be5b81194312bf75dd8509c097ceedfefc08d850bb0dcd52b886",
         "6e89d5558f351f4bcce1f133ef18f923c7362545beb6cb6cae73528d5e63475a"),
        (200, "87eaf1c71ea673d7ef46a86eef2cf103a4b0544d6698dd38eb74cd88d08435e3",
         "2facedb38bda88d1192bd8147e4ae56e5e17615f57f0ab366d18b85e1a2ea8ac"),
    ]:
        out, run_log = tmp_path / f"ds{n}.jsonl", tmp_path / f"run{n}.log"
        assert run(["generate", str(art), "--n", str(n), "--seed", "7", "--out", str(out),
                    "--log", str(run_log)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == dataset, n
        assert hashlib.sha256(run_log.read_bytes()).hexdigest() == log, n


def test_a_run_and_its_report_fill_neither_process_wide_text_memo(tmp_path):
    # each reads a text once, by sentences_of, and keeps that reading itself
    art, out = tmp_path / "art.json", tmp_path / "ds.jsonl"
    tokenize.cache_clear()
    fkgl_grade.cache_clear()
    assert run(["preprocess", fixture_library_path(), "--seed", "7", "--out", str(art)]) == 0
    assert run(["generate", str(art), "--n", "20", "--seed", "7", "--out", str(out)]) == 0
    assert run(["analyze", str(out), "--out", str(tmp_path / "report.json")]) == 0
    assert (tokenize.cache_info().currsize, fkgl_grade.cache_info().currsize) == (0, 0)


def test_a_run_and_its_report_fill_no_process_wide_tree_memo(tmp_path):
    # a report's Corpus keeps the distance table of its own shapes
    art, out = tmp_path / "art.json", tmp_path / "ds.jsonl"
    trees.chunk_sentence.cache_clear()
    trees._ted_between_sentences.cache_clear()
    assert run(["preprocess", fixture_library_path(), "--seed", "7", "--out", str(art)]) == 0
    assert run(["generate", str(art), "--n", "20", "--seed", "7", "--out", str(out)]) == 0
    assert run(["analyze", str(out), "--out", str(tmp_path / "report.json")]) == 0
    assert trees.chunk_sentence.cache_info().currsize == 0
    info = trees._ted_between_sentences.cache_info()
    assert (info.hits, info.misses) == (0, 0)


def test_generate_smoke_and_examples_valid(tmp_path):
    art = tmp_path / "art.json"
    out = tmp_path / "ds.jsonl"
    run(["preprocess", fixture_library_path(), "--seed", "5", "--out", str(art)])
    assert run(["generate", str(art), "--n", "4", "--seed", "5",
                "--out", str(out), "--log", str(tmp_path / "run.log")]) == 0
    examples = read_dataset(out)
    assert len(examples) == 4
    for ex in examples:
        ex.validate()
        assert ex.query
    log_lines = [json.loads(l) for l in
                 (tmp_path / "run.log").read_text().splitlines()]
    assert sum(1 for e in log_lines if e["event"] == "accepted") == 4


def _write_corpus(path, queries):
    path.write_text(json.dumps(queries))
    return str(path)


def test_analyze_writes_report(tmp_path):
    src = _write_corpus(tmp_path / "c.json", varied_corpus()[:10])
    out = tmp_path / "report.json"
    assert run(["analyze", src, "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["rows"]) == 12


@pytest.mark.parametrize("queries, problem", [
    ([], "cannot analyze an empty corpus"),
    (["Find a hotel in Paris.", "你好吗？"], "query 2 has no word token"),
    (["...", "Find a hotel in Paris."], "query 1 has no word token"),
])
def test_analyze_refuses_a_corpus_it_cannot_score(tmp_path, capsys, queries, problem):
    src = _write_corpus(tmp_path / "bad.json", queries)
    out = tmp_path / "report.json"
    assert run(["analyze", src, "--out", str(out)]) == 2
    assert f"error: {src}: {problem}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, problem", [
    (b"[", "Expecting value: line 1 column 2"),
    ('["caf\u00e9"]'.encode("latin-1"), "can't decode byte 0xe9"),
])
def test_analyze_refuses_a_json_corpus_it_cannot_read(tmp_path, capsys, content, problem):
    src, out = tmp_path / "x.json", tmp_path / "report.json"
    src.write_bytes(content)
    assert run(["analyze", str(src), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read {src}: " in err and problem in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "compare"])
@pytest.mark.parametrize("queries, problem", [
    ([1, 2], "query 1 is 1, not a string"),
    (["Find a hotel in Paris.", None], "query 2 is None, not a string"),
])
def test_a_query_that_is_not_a_string_is_refused(tmp_path, capsys, command, queries, problem):
    src = _write_corpus(tmp_path / "bad.json", queries)
    pair = [src, _write_corpus(tmp_path / "good.json", varied_corpus()[:10])]
    out = tmp_path / "report.json"
    assert run([command, *pair[: 1 if command == "analyze" else 2], "--out", str(out)]) == 2
    assert f"error: {src}: {problem}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad_first", [True, False])
def test_compare_refuses_a_corpus_it_cannot_score(tmp_path, capsys, bad_first):
    good = _write_corpus(tmp_path / "good.json", varied_corpus()[:10])
    bad = _write_corpus(tmp_path / "bad.json", ["Book a flight.", "Rome", "!?"])
    out = tmp_path / "cmp.json"
    pair = [bad, good] if bad_first else [good, bad]
    assert run(["compare", *pair, "--out", str(out)]) == 2
    assert f"error: {bad}: query 3 has no word token" in capsys.readouterr().err
    assert not out.exists()


def test_compare_self_has_zero_significant_rows(tmp_path):
    src = _write_corpus(tmp_path / "c.json", varied_corpus()[:10])
    out = tmp_path / "cmp.json"
    assert run(["compare", src, src, "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert all(not row["significant"] for row in report["rows"])


def test_compare_fixture_pair_direction(tmp_path):
    a = _write_corpus(tmp_path / "varied.json", varied_corpus())
    b = _write_corpus(tmp_path / "repetitive.json", repetitive_corpus())
    out = tmp_path / "cmp.json"
    assert run(["compare", a, b, "--seed", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    wins = [r for r in report["rows"]
            if r["metric"] != "var_length" and r["score_a"] > r["score_b"]]
    assert len(wins) >= 11


def _write_labels(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return str(path)


def test_evaluate_identical_labels(tmp_path, capsys):
    rows = [{"id": f"i{k}", "correct": True} for k in range(8)]
    a = _write_labels(tmp_path / "a.jsonl", rows)
    b = _write_labels(tmp_path / "b.jsonl", rows)
    out = tmp_path / "eval.json"
    assert run(["evaluate", a, b, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["accuracy_a"] == 1.0
    assert result["accuracy_b"] == 1.0
    assert result["p_value"] == 1.0
    assert not result["significant"]


def test_evaluate_with_categories_applies_holm(tmp_path):
    rows_a, rows_b = [], []
    k = 0
    for cat, (b_cnt, c_cnt) in {"x": (0, 12), "y": (1, 12)}.items():
        for _ in range(b_cnt):
            rows_a.append({"id": f"i{k}", "correct": True, "category": cat})
            rows_b.append({"id": f"i{k}", "correct": False})
            k += 1
        for _ in range(c_cnt):
            rows_a.append({"id": f"i{k}", "correct": False, "category": cat})
            rows_b.append({"id": f"i{k}", "correct": True})
            k += 1
    a = _write_labels(tmp_path / "a.jsonl", rows_a)
    b = _write_labels(tmp_path / "b.jsonl", rows_b)
    out = tmp_path / "eval.json"
    assert run(["evaluate", a, b, "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert {r["category"] for r in result["categories"]} == {"x", "y"}


@pytest.mark.parametrize("row, problem", [
    ({"id": "2", "correct": "false"}, "'correct' is 'false', not true or false"),
    (["2", True], "not a JSON object"),
])
def test_evaluate_refuses_a_malformed_label_line(tmp_path, capsys, row, problem):
    good = {"id": "1", "correct": True}
    a = _write_labels(tmp_path / "a.jsonl", [good, row])
    b = _write_labels(tmp_path / "b.jsonl", [good, {"id": "2", "correct": False}])
    assert run(["evaluate", a, b, "--out", str(tmp_path / "o.json")]) == 2
    assert f"{a}: line 2: {problem}" in capsys.readouterr().err


def test_evaluate_refuses_a_label_file_that_is_not_utf8(tmp_path, capsys):
    a = _write_labels(tmp_path / "a.jsonl", [{"id": "1", "correct": True}])
    b = tmp_path / "b.jsonl"
    b.write_bytes('{"id": "1", "correct": true}\n{"id": "caf\u00e9", "correct": true}\n'
                  .encode("latin-1"))
    out = tmp_path / "o.json"
    assert run(["evaluate", a, str(b), "--out", str(out)]) == 2
    assert f"error: {b}: line 2: 'utf-8' codec can't decode" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_refuses_empty_label_files(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("")
    b.write_text("\n")
    out = tmp_path / "o.json"
    assert run(["evaluate", str(a), str(b), "--out", str(out)]) == 2
    assert f"error: {a}: holds no label row" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["2", "inf", "0", "-1", "nan"])
def test_evaluate_refuses_an_alpha_outside_0_1_before_any_file(tmp_path, capsys, alpha):
    rows = [{"id": f"i{k}", "correct": True} for k in range(8)]
    a = _write_labels(tmp_path / "a.jsonl", rows)
    b = _write_labels(tmp_path / "b.jsonl", rows)
    out = tmp_path / "eval.json"
    assert run(["evaluate", a, b, "--alpha", alpha, "--out", str(out)]) == 2
    assert "error: alpha must be a number between 0 and 1" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_mismatched_ids_is_usage_error(tmp_path):
    a = _write_labels(tmp_path / "a.jsonl", [{"id": "1", "correct": True}])
    b = _write_labels(tmp_path / "b.jsonl", [{"id": "2", "correct": True}])
    assert run(["evaluate", a, b, "--out", str(tmp_path / "o.json")]) == 2


def test_evaluate_golden_digest(tmp_path):
    # Pins the bytes of the paired comparison: overall accuracies, discordant
    # counts and McNemar p, and the Holm-corrected rows of four categories
    # (one of them the rows that name none).
    rows_a = [{"id": f"i{k}", "correct": k % 4 != 0, "category": ["x", "y", "z", ""][k % 7 % 4]}
              for k in range(40)]
    rows_b = [{"id": f"i{k}", "correct": k % 5 < 2 or k % 7 == 3} for k in range(40)]
    a = _write_labels(tmp_path / "a.jsonl", rows_a)
    b = _write_labels(tmp_path / "b.jsonl", rows_b)
    out = tmp_path / "eval.json"
    assert run(["evaluate", a, b, "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["categories"]) == 4
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4194de72be18e242fbaca176a9c2a2b7ca69f6cf9ef17c1496693a0e15375721")


def test_preprocess_fixture_group_count(tmp_path):
    out = tmp_path / "artifact.json"
    assert run(["preprocess", fixture_library_path(), "--seed", "1",
                "--out", str(out)]) == 0
    artifact = json.loads(out.read_text())
    assert len(artifact["groups"]) == 9  # hand count under the hashing embedder
    kinds = {EDGE_KINDS[k] for k in packed_column(artifact["graph"], "kinds").tolist()}
    assert kinds == {"P-P", "P-R"}


class MemolessEmbedder:
    """Hash embeddings with no memo of their own; records every text sent."""

    dimension = 384

    def __init__(self):
        self.sent: list[str] = []

    def embed(self, texts):
        self.sent.extend(texts)
        return HashEmbedder(self.dimension).embed(texts)


def test_each_command_sends_each_distinct_text_to_the_embedder_once(tmp_path, monkeypatch):
    embedders = []

    def make_embedder(config):
        embedders.append(MemolessEmbedder())
        return embedders[-1]

    monkeypatch.setattr(divgen.cli, "make_embedder", make_embedder)
    art, out = tmp_path / "art.json", tmp_path / "cmp.json"
    a, b, lib = tmp_path / "a.jsonl", tmp_path / "b.jsonl", fixture_library_path()
    assert run(["preprocess", lib, "--seed", "7", "--out", str(art)]) == 0
    # large enough that the argument comparison matches parameter groups: its
    # bootstrap scores each group's value sample once per resample
    for seed, path in (("7", a), ("9", b)):
        assert run(["generate", str(art), "--n", "50", "--seed", seed, "--out", str(path)]) == 0
    assert run(["analyze", str(a), "--out", str(tmp_path / "report.json")]) == 0
    assert run(["compare", str(a), str(b), "--library-a", lib, "--library-b", lib,
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["argument_diversity"]["groups"]
    assert len(embedders) == 5  # preprocess, two generates, analyze, compare
    for embedder in embedders:
        assert embedder.sent and len(embedder.sent) == len(set(embedder.sent))


def test_compare_datasets_with_argument_diversity(tmp_path):
    art = tmp_path / "art.json"
    ds_a = tmp_path / "a.jsonl"
    ds_b = tmp_path / "b.jsonl"
    run(["preprocess", fixture_library_path(), "--seed", "7", "--out", str(art)])
    assert run(["generate", str(art), "--n", "25", "--seed", "7",
                "--out", str(ds_a)]) == 0
    assert run(["generate", str(art), "--n", "25", "--seed", "9",
                "--out", str(ds_b)]) == 0
    out = tmp_path / "cmp.json"
    assert run(["compare", str(ds_a), str(ds_b),
                "--library-a", fixture_library_path(),
                "--library-b", fixture_library_path(),
                "--seed", "1", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert "argument_diversity" in report
    arg = report["argument_diversity"]
    assert "groups" in arg and ("average" in arg or "warning" in arg)


def test_compare_with_libraries_reads_each_dataset_once(tmp_path, monkeypatch):
    reads = []

    def counting_read(path, *args, **kwargs):
        reads.append(str(path))
        return read_dataset(path, *args, **kwargs)

    monkeypatch.setattr(divgen.cli, "read_dataset", counting_read)
    art, lib = tmp_path / "art.json", fixture_library_path()
    a, b, out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "cmp.json"
    assert run(["preprocess", lib, "--seed", "7", "--out", str(art)]) == 0
    for seed, path in (("7", a), ("9", b)):
        assert run(["generate", str(art), "--n", "5", "--seed", seed, "--out", str(path)]) == 0
    assert reads == []
    assert run(["compare", str(a), str(b), "--library-a", lib, "--library-b", lib,
                "--out", str(out)]) == 0
    assert reads == [str(a), str(b)]
    assert "argument_diversity" in json.loads(out.read_text())
    # a JSON array of queries serves the linguistic sections only
    queries = _write_corpus(tmp_path / "q.json", varied_corpus()[:10])
    assert run(["compare", str(queries), str(a), "--out", str(out)]) == 0
    out.unlink()
    assert run(["compare", str(queries), str(a), "--library-a", lib, "--library-b", lib,
                "--out", str(out)]) == 2
    assert not out.exists()


@pytest.fixture(scope="module")
def seed_11_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("seed11")
    art, ds = path / "art.json", path / "a.jsonl"
    assert run(["preprocess", fixture_library_path(), "--seed", "11", "--out", str(art)]) == 0
    assert run(["generate", str(art), "--n", "50", "--seed", "11", "--out", str(ds)]) == 0
    return ds


@pytest.mark.parametrize("name, bad, problem", [
    ("city", "東京", "has no word token"),
    ("year", "soon", "is not a finite number"),
    ("year", True, "is not a finite number"),
])
def test_compare_refuses_an_argument_it_cannot_place(tmp_path, capsys, seed_11_dataset,
                                                      name, bad, problem):
    a, b, out = seed_11_dataset, tmp_path / "b.jsonl", tmp_path / "cmp.json"
    with b.open("w", encoding="utf-8") as stream:
        for line in a.read_text(encoding="utf-8").splitlines():
            example = json.loads(line)
            for call in example["target_invocations"]:
                if name in call["arguments"]:
                    call["arguments"][name] = bad
            stream.write(json.dumps(example, ensure_ascii=False) + "\n")
    lib = fixture_library_path()
    assert run(["compare", str(a), str(b), "--library-a", lib, "--library-b", lib,
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "error: dataset B: group " in err and f": {bad!r} {problem}" in err
    assert not out.exists()


@pytest.mark.parametrize("missing", ["a", "b"])
def test_compare_refuses_a_missing_library_before_the_report(tmp_path, capsys, monkeypatch,
                                                             seed_11_dataset, missing):
    monkeypatch.setattr(divgen.cli, "compare_linguistic_diversity",
                        lambda *args, **kwargs: pytest.fail("the report started"))
    libs = {"a": fixture_library_path(), "b": fixture_library_path()}
    libs[missing] = str(tmp_path / "missing.json")
    out = tmp_path / "cmp.json"
    assert run(["compare", str(seed_11_dataset), str(seed_11_dataset),
                "--library-a", libs["a"], "--library-b", libs["b"], "--out", str(out)]) == 2
    assert f"error: library file not found: {libs[missing]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["preprocess", "generate", "analyze", "evaluate"])
def test_a_directory_given_as_the_input_file_is_usage_error(tmp_path, capsys, command):
    folder, out = tmp_path / "input.json", tmp_path / "out.json"
    folder.mkdir()
    extra = {"generate": ["--n", "1"], "evaluate": [str(folder)]}.get(command, [])
    assert run([command, str(folder), *extra, "--out", str(out)]) == 2
    assert f"not found: {folder}" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["input.json"]


def test_a_directory_in_place_of_the_checkpoint_is_nothing_to_resume(tmp_path, capsys):
    art, out = tmp_path / "art.json", tmp_path / "ds.jsonl"
    assert run(["preprocess", fixture_library_path(), "--out", str(art)]) == 0
    (tmp_path / "ds.jsonl.checkpoint").mkdir()
    assert run(["generate", str(art), "--n", "1", "--resume", "--out", str(out),
                "--log", str(tmp_path / "run.log")]) == 2
    assert "error: nothing to resume: no checkpoint next to the output file" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["art.json", "ds.jsonl.checkpoint"]


@pytest.mark.parametrize("flag", ["--library-a", "--library-b"])
def test_compare_with_one_library_is_usage_error(tmp_path, capsys, flag):
    a = _write_corpus(tmp_path / "a.json", varied_corpus()[:10])
    out = tmp_path / "cmp.json"
    code = run(["compare", str(a), str(a), flag, fixture_library_path(),
                "--out", str(out)])
    assert code == 2
    assert "--library-a and --library-b" in capsys.readouterr().err
    assert not out.exists()


def test_report_golden_digests(tmp_path, monkeypatch):
    # Pins the bytes of the diversity reports: analyze and compare on the
    # bundled corpora, and compare with argument diversity on two fixture runs.
    # Relative paths keep the labels, which the reports carry, independent of
    # tmp_path.
    monkeypatch.chdir(tmp_path)
    _write_corpus(tmp_path / "varied.json", varied_corpus())
    _write_corpus(tmp_path / "repetitive.json", repetitive_corpus())
    lib = fixture_library_path()
    assert run(["preprocess", lib, "--seed", "7", "--out", "art.json"]) == 0
    for seed in ("7", "9"):
        assert run(["generate", "art.json", "--n", "25", "--seed", seed,
                    "--out", f"ds{seed}.jsonl"]) == 0
    commands = {
        "analyze.json": ["analyze", "varied.json", "--seed", "3"],
        "compare.json": ["compare", "varied.json", "repetitive.json", "--seed", "3"],
        "arguments.json": ["compare", "ds7.jsonl", "ds9.jsonl", "--library-a", lib,
                           "--library-b", lib, "--seed", "1"],
    }
    digests = {}
    for out, argv in commands.items():
        assert run(argv + ["--out", out]) == 0
        digests[out] = hashlib.sha256((tmp_path / out).read_bytes()).hexdigest()
    assert digests == {
        "analyze.json": "82ec37e96a16497affbbf31d2599087c1135cbfb08fa73bcf7d335120dafaf18",
        "compare.json": "d6bd92f2bd5844acb0bdb338b7e9c997817be1a85f4f5683be84e66dc1034917",
        "arguments.json": "9664d4ee58062687f62f661764a621c348b0ee2b63566a9f92bb1ffb8156f881",
    }


def test_compare_calls_the_bootstrap_by_its_module_name_once_per_loop(tmp_path, monkeypatch):
    # a benchmark rebinds ``evaluate.bootstrap_std`` to take a reading after
    # each bootstrap loop, so every loop must look it up there
    import divgen.evaluate as evaluate
    loops = []
    bootstrap = evaluate.bootstrap_std

    def counting_bootstrap(*args, **kwargs):
        loops.append(kwargs["seed"])
        return bootstrap(*args, **kwargs)

    monkeypatch.setattr(evaluate, "bootstrap_std", counting_bootstrap)
    art, lib = tmp_path / "art.json", fixture_library_path()
    a, b, out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "cmp.json"
    assert run(["preprocess", lib, "--seed", "7", "--out", str(art)]) == 0
    for seed, path in (("7", a), ("9", b)):
        assert run(["generate", str(art), "--n", "50", "--seed", seed, "--out", str(path)]) == 0
    assert loops == []
    assert run(["compare", str(a), str(b), "--library-a", lib, "--library-b", lib,
                "--out", str(out)]) == 0
    groups = json.loads(out.read_text())["argument_diversity"]["groups"]
    assert groups
    # 12 metrics per corpus, then 4 columns per matched group
    assert len(loops) == 2 * 12 + 4 * len(groups)


# --- the exit-code contract under malformed input -----------------------------

_DELETE = object()
_ODD_VALUES = st.sampled_from([None, True, -1, "", [], {}, 1e308, _DELETE])


def _paths(doc, above=()):
    """The key path of every value inside ``doc``'s objects and arrays."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield above + (key,)
            yield from _paths(value, above + (key,))


@st.composite
def mutated(draw, doc, reach=_paths, odd=_ODD_VALUES):
    """A copy of ``doc`` with 1-3 values replaced by ``odd`` ones or deleted,
    each at one of the key paths ``reach`` gives of the copy so far (by default
    anywhere in it)."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(reach(doc))
        if not paths:  # every value deleted: nothing left to replace
            break
        *above, key = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, above, doc)
        value = draw(odd)
        if value is _DELETE:
            del parent[key]
        else:
            parent[key] = copy.deepcopy(value)
    return doc


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, seed_11_dataset):
    """The seed-7 fixture artifact and the first 8 records of a seed-11 run."""
    art = tmp_path_factory.mktemp("fuzz") / "art.json"
    assert run(["preprocess", fixture_library_path(), "--seed", "7", "--out", str(art)]) == 0
    lines = seed_11_dataset.read_text(encoding="utf-8").splitlines()[:8]
    return json.loads(art.read_text(encoding="utf-8")), [json.loads(line) for line in lines]


def _exits_0_or_2(argv, *outputs):
    """Run ``argv``: it exits 0, or 2 with none of ``outputs`` written, and
    reports no runtime failure."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), alarm(60):
        code = run(argv)
    assert code in (0, 2) and "failure:" not in err.getvalue(), (code, err.getvalue())
    if code == 2:
        assert not any(path.exists() for path in outputs)
    return code


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_malformed_artifact_exits_0_or_2(fuzz_inputs, data):
    artifact, _ = fuzz_inputs
    with tempfile.TemporaryDirectory() as tmp:
        art, out, log = (Path(tmp) / name for name in ("art.json", "ds.jsonl", "run.log"))
        art.write_text(json.dumps(data.draw(mutated(artifact))), encoding="utf-8")
        _exits_0_or_2(["generate", str(art), "--n", "2", "--out", str(out), "--log", str(log)],
                      out, log)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_malformed_library_exits_0_or_2(data):
    library = json.loads(Path(fixture_library_path()).read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        lib, art = Path(tmp) / "lib.json", Path(tmp) / "art.json"
        lib.write_text(json.dumps(data.draw(mutated(library))), encoding="utf-8")
        _exits_0_or_2(["preprocess", str(lib), "--out", str(art)], art)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_malformed_config_exits_0_or_2(fuzz_inputs, data):
    artifact, _ = fuzz_inputs
    with tempfile.TemporaryDirectory() as tmp:
        cfg, art, out, log = (Path(tmp) / name
                              for name in ("cfg.json", "art.json", "ds.jsonl", "run.log"))
        cfg.write_text(json.dumps(data.draw(mutated(RunConfig().to_dict()))), encoding="utf-8")
        _exits_0_or_2(["preprocess", fixture_library_path(), "--config", str(cfg),
                       "--out", str(art)], art)
        art.write_text(json.dumps(artifact), encoding="utf-8")
        _exits_0_or_2(["generate", str(art), "--config", str(cfg), "--n", "2",
                       "--out", str(out), "--log", str(log)], out, log)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_malformed_label_file_exits_0_or_2(data):
    rows = [{"id": f"i{k}", "correct": k % 3 == 0, "category": "xy"[k % 2]} for k in range(8)]
    files = data.draw(mutated({"predictions": rows,
                               "references": [{**r, "correct": not r["correct"]} for r in rows]}))
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{name}.jsonl" for name in ("predictions", "references")]
        for path in paths:
            if path.stem in files:  # a deleted file is not written
                doc = files[path.stem]
                path.write_text("".join(json.dumps(r) + "\n" for r in
                                        (doc if isinstance(doc, list) else [doc])),
                                encoding="utf-8")
        out = Path(tmp) / "eval.json"
        _exits_0_or_2(["evaluate", *map(str, paths), "--out", str(out)], out)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_malformed_dataset_exits_0_or_2(fuzz_inputs, seed_11_dataset, data):
    _, records = fuzz_inputs
    lib = fixture_library_path()
    with tempfile.TemporaryDirectory() as tmp:
        bad, out = Path(tmp) / "bad.jsonl", Path(tmp) / "out.json"
        bad.write_text("".join(json.dumps(r) + "\n" for r in data.draw(mutated(records))),
                       encoding="utf-8")
        _exits_0_or_2(["analyze", str(bad), "--out", str(out)], out)
        out.unlink(missing_ok=True)
        _exits_0_or_2(["compare", str(bad), str(seed_11_dataset), "--library-a", lib,
                       "--library-b", lib, "--out", str(out)], out)


@pytest.fixture(scope="module")
def resumable_run(tmp_path_factory):
    """A folder with the seed-7 fixture artifact and a 3-example run of it: the
    dataset ``ds.jsonl``, its rows store and checkpoint, and ``run.log``."""
    work = tmp_path_factory.mktemp("resumable")
    assert run(["preprocess", fixture_library_path(), "--seed", "7",
                "--out", str(work / "art.json")]) == 0
    assert run(["generate", str(work / "art.json"), "--n", "3", "--out", str(work / "ds.jsonl"),
                "--log", str(work / "run.log")]) == 0
    return work


def _checkpoint_entries(doc):
    """Each top-level entry of a checkpoint, each part of its RNG state, and the
    first and last (the position) of the state's words."""
    state = doc.get("rng_state")
    inside = [(i,) for i in range(len(state))] if isinstance(state, list) else []
    if len(inside) == 3 and isinstance(state[1], list) and state[1]:
        inside += [(1, 0), (1, len(state[1]) - 1)]
    return [(key,) for key in doc] + [("rng_state", *path) for path in inside]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_malformed_checkpoint_exits_0_or_2(resumable_run, data):
    checkpoint = json.loads((resumable_run / "ds.jsonl.checkpoint").read_text(encoding="utf-8"))
    odd = st.sampled_from([None, True, -1, "", [], {}, 1e308, "x", 10**30, 3.5, _DELETE])
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(shutil.copytree(resumable_run, Path(tmp) / "run"))
        (work / "ds.jsonl.checkpoint").write_text(
            json.dumps(data.draw(mutated(checkpoint, _checkpoint_entries, odd))), encoding="utf-8")
        kept = {name: (work / name).read_bytes()
                for name in ("ds.jsonl", "ds.jsonl.rows", "run.log")}
        code = _exits_0_or_2(["generate", str(work / "art.json"), "--n", "4", "--resume",
                              "--out", str(work / "ds.jsonl"), "--log", str(work / "run.log")])
        if code == 2:
            assert {name: (work / name).read_bytes() for name in kept} == kept


@pytest.mark.parametrize("key", ["accepted", "attempts", "dataset_bytes", "log_bytes"])
def test_a_checkpoint_count_of_true_is_refused_untouched(resumable_run, tmp_path, capsys, key):
    # true is a JSON boolean, not a count, though Python's True equals 1
    work = Path(shutil.copytree(resumable_run, tmp_path / "run"))
    checkpoint = work / "ds.jsonl.checkpoint"
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    checkpoint.write_text(json.dumps({**doc, key: True}), encoding="utf-8")
    before = {path.name: path.read_bytes() for path in work.iterdir()}
    assert run(["generate", str(work / "art.json"), "--n", "4", "--resume",
                "--out", str(work / "ds.jsonl"), "--log", str(work / "run.log")]) == 2
    assert f"error: {checkpoint}: {key} is True, not a count" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in work.iterdir()} == before


@pytest.mark.parametrize("kind", ["library", "config", "artifact", "checkpoint", "dataset",
                                   "queries", "labels"])
def test_input_nested_deeper_than_the_parser_goes_exits_2(tmp_path, capsys, kind):
    # json.dumps recurses as the parser does, so the text is written by hand
    lib, art, out = fixture_library_path(), tmp_path / "art.json", tmp_path / "out.jsonl"
    if kind == "checkpoint":
        assert run(["preprocess", lib, "--out", str(art)]) == 0
    name = {"checkpoint": "out.jsonl.checkpoint", "dataset": "ds.jsonl",
            "labels": "labels.jsonl"}.get(kind, f"{kind}.json")
    deep = tmp_path / name
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    argv = {
        "library": ["preprocess", str(deep)],
        "config": ["preprocess", lib, "--config", str(deep)],
        "artifact": ["generate", str(deep), "--n", "1", "--log", str(tmp_path / "run.log")],
        "checkpoint": ["generate", str(art), "--n", "1", "--resume",
                       "--log", str(tmp_path / "run.log")],
        "dataset": ["analyze", str(deep)],
        "queries": ["analyze", str(deep)],
        "labels": ["evaluate", str(deep), str(deep)],
    }[kind]
    before = sorted(tmp_path.iterdir())
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert str(deep) in err and "failure:" not in err, err
    assert sorted(tmp_path.iterdir()) == before


def test_a_config_that_is_not_utf8_is_refused_before_any_file(tmp_path, capsys):
    cfg, art = tmp_path / "cfg.json", tmp_path / "art.json"
    cfg.write_bytes('{"chat_model": "caf\u00e9"}'.encode("latin-1"))
    assert run(["preprocess", fixture_library_path(), "--config", str(cfg),
                "--out", str(art)]) == 2
    assert f"error: cannot load config: cannot parse {cfg}: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
