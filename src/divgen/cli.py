"""Operator entry point: preprocess, generate, analyze, compare, evaluate.

Configuration comes from a single JSON file (every RunConfig field) with flag
overrides for the common knobs; credentials are environment-only. Exit codes:
0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from divgen.engine import GenerationEngine
from divgen.evaluate import (
    analyze_corpus,
    compare_argument_diversity,
    compare_linguistic_diversity,
    paired_model_comparison,
)
from divgen.model import ModelError, RunConfig, load_function_library, read_dataset
from divgen.preprocess import (
    build_api_pools,
    build_similarity_graph,
    group_parameters,
    read_artifact,
    write_artifact,
)
from divgen.providers.base import ProviderError
from divgen.providers.hash_embed import HashEmbedder
from divgen.providers.http import HttpChat, HttpEmbedder
from divgen.providers.mock import StubChat

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def load_config(path: str | None, seed: int | None = None) -> RunConfig:
    try:
        config = RunConfig.from_file(path) if path else RunConfig()
    except (OSError, json.JSONDecodeError, ModelError) as exc:
        raise UsageError(f"cannot load config: {exc}") from exc
    if seed is not None:
        config.rng_seed = seed
    return config


def make_chat(config: RunConfig):
    if config.chat_provider == "stub":
        return StubChat()
    if config.chat_provider == "http":
        return HttpChat(config.chat_endpoint, config.chat_model)
    raise UsageError(f"unknown chat provider {config.chat_provider!r}")


def make_embedder(config: RunConfig):
    if config.embedding_provider == "hash":
        return HashEmbedder(config.embedding_dimension)
    if config.embedding_provider == "http":
        return HttpEmbedder(config.embedding_endpoint, config.embedding_model,
                            config.embedding_dimension)
    raise UsageError(f"unknown embedding provider {config.embedding_provider!r}")


def cmd_preprocess(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.seed)
    library_path = Path(args.library)
    if not library_path.exists():
        raise UsageError(f"library file not found: {library_path}")
    library = load_function_library(library_path)
    embedder = make_embedder(config)
    rng = random.Random(config.rng_seed)
    groups = group_parameters(library, embedder, config.group_threshold)
    pools = build_api_pools(library, groups, rng)
    graph = build_similarity_graph(library, embedder, config.graph_threshold)
    write_artifact(args.out, library, groups, pools, graph, config.to_dict())
    print(f"preprocess: {len(library)} functions, {len(groups.groups)} parameter"
          f" groups, {len(graph.edges)} graph edges -> {args.out}")
    return EXIT_OK


def cmd_generate(args: argparse.Namespace) -> int:
    artifact_path = Path(args.artifact)
    if not artifact_path.exists():
        raise UsageError(f"artifact not found: {artifact_path}")
    library, groups, pools, graph, stored = read_artifact(artifact_path)
    config = (load_config(args.config, args.seed) if args.config
              else RunConfig.from_dict(stored) if stored else RunConfig())
    if args.config is None and args.seed is not None:
        config.rng_seed = args.seed
    chat = make_chat(config)
    embedder = make_embedder(config)
    engine = GenerationEngine(library, groups, pools, graph, config, chat, embedder, args.out)
    if args.resume and not engine.checkpoint_path.exists():
        raise UsageError("nothing to resume: no checkpoint next to the output file")
    if args.log:
        if args.resume:
            engine.cut_log(args.log)
        engine.log_stream = open(args.log, "a" if args.resume else "w", encoding="utf-8")
    try:
        added = engine.generate(args.n, resume=args.resume)
    finally:
        if engine.log_stream is not None:
            engine.log_stream.close()
    print(f"generate: {added} example(s) added; dataset holds {args.n} -> {args.out}")
    return EXIT_OK


def _queries_from_dataset(path: str) -> list[str]:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"dataset not found: {p}")
    if p.suffix == ".json":
        data = json.loads(p.read_text(encoding="utf-8"))
        if not isinstance(data, list):
            raise UsageError(f"{p}: expected a JSON array of queries")
        return [str(q) for q in data]
    return [ex.query for ex in read_dataset(p)]


def cmd_analyze(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.seed)
    queries = _queries_from_dataset(args.dataset)
    embedder = make_embedder(config)
    report = analyze_corpus(queries, embedder, config.rng_seed, label=args.dataset)
    Path(args.out).write_text(json.dumps(report.to_dict(), ensure_ascii=False, indent=1)
                              + "\n", encoding="utf-8")
    print(report.to_table())
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    config = load_config(args.config, args.seed)
    queries_a = _queries_from_dataset(args.dataset_a)
    queries_b = _queries_from_dataset(args.dataset_b)
    embedder = make_embedder(config)
    report = compare_linguistic_diversity(
        queries_a, queries_b, embedder, config.rng_seed,
        label_a=args.dataset_a, label_b=args.dataset_b)
    doc = report.to_dict()
    if args.library_a and args.library_b:
        # argument-diversity comparison needs the function libraries to match
        # parameter groups across the two datasets
        examples_a = read_dataset(args.dataset_a)
        examples_b = read_dataset(args.dataset_b)
        doc["argument_diversity"] = compare_argument_diversity(
            examples_a, examples_b,
            load_function_library(args.library_a),
            load_function_library(args.library_b),
            embedder, seed=config.rng_seed, threshold=config.group_threshold)
    Path(args.out).write_text(json.dumps(doc, ensure_ascii=False, indent=1)
                              + "\n", encoding="utf-8")
    print(report.to_table())
    return EXIT_OK


def _labels_from_file(path: str) -> tuple[list[str], list[bool], list[str] | None]:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"label file not found: {p}")
    ids: list[str] = []
    labels: list[bool] = []
    categories: list[str] = []
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            ids.append(str(row["id"]))
            labels.append(bool(row["correct"]))
            categories.append(str(row.get("category", "")))
        except (json.JSONDecodeError, KeyError) as exc:
            raise UsageError(f"{p}: line {lineno}: {exc}") from exc
    has_categories = any(categories)
    return ids, labels, categories if has_categories else None


def cmd_evaluate(args: argparse.Namespace) -> int:
    ids_a, labels_a, cats_a = _labels_from_file(args.predictions)
    ids_b, labels_b, _ = _labels_from_file(args.references)
    if ids_a != ids_b:
        raise UsageError("prediction and reference files must list the same ids"
                         " in the same order")
    result = paired_model_comparison(
        labels_a, labels_b, alpha=args.alpha,
        correction="holm" if cats_a else "none",
        categories=cats_a)
    Path(args.out).write_text(json.dumps(result, ensure_ascii=False, indent=1) + "\n",
                              encoding="utf-8")
    print(f"accuracy A={result['accuracy_a']:.4f} B={result['accuracy_b']:.4f}"
          f" b={result['b']} c={result['c']} p={result['p_value']:.4f}"
          f" significant={result['significant']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divgen",
        description="Diversity-optimized function-calling dataset generator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="group parameters, build pools and graph")
    p.add_argument("library", help="function library JSON file")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("generate", help="produce dataset examples")
    p.add_argument("artifact", help="preprocess artifact")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--log", default=None, help="run log path (one JSON event per line)")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("analyze", help="single-corpus diversity report")
    p.add_argument("dataset", help="dataset .jsonl or a JSON array of queries")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("compare", help="two-corpus diversity comparison")
    p.add_argument("dataset_a")
    p.add_argument("dataset_b")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--library-a", default=None,
                   help="function library of dataset A (enables the"
                        " argument-diversity section)")
    p.add_argument("--library-b", default=None,
                   help="function library of dataset B")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("evaluate", help="paired model comparison on binary labels")
    p.add_argument("predictions", help="JSONL: {id, correct, category?} per line")
    p.add_argument("references", help="JSONL with the same ids")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_evaluate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ProviderError as exc:
        print(f"provider failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # runtime failure, state preserved via checkpoint
        print(f"failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
