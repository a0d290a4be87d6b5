"""Command-line front end.

Subcommands cover the whole pipeline: validate-menu, flatten, gen-intents,
route, eval, demo, check-roles. Settings layer as CLI flags > config file >
environment > built-in defaults. Exit codes: 0 ok, 1 failed work, 2 usage
or missing input file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from .datagen import Dataset, load_dataset, save_dataset, validate_dataset
from .menu import (
    MenuFormatError,
    MenuTree,
    flatten,
    parse_menu,
    render_flattened,
    render_paths_tsv,
)
from .prompts import RoutingCondition
from .provider import (
    DEFAULT_API_KEY_ENV,
    HttpProvider,
    KeywordProvider,
    OracleProvider,
    PIPELINE_STAGES,
    Provider,
    ProviderConfig,
    ProviderError,
    ScriptedProvider,
    check_role_separation,
)
from .router import (
    RoutingAborted,
    accuracy,
    format_percent,
    route,
    route_all,
    render_context,
    run_calls,
    run_identity,
    load_results,
    save_results,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

_CONDITIONS = {
    "descriptive": RoutingCondition.DESCRIPTIVE_MENU,
    "flattened": RoutingCondition.FLATTENED_PATHS,
}

_PROVIDER_KINDS = ("http", "oracle", "keyword", "scripted")

# The keys some command reads from a config file: at the top level, and in
# the block of a stage (one of PIPELINE_STAGES) under "providers".
_CONFIG_KEYS = {"seed", "providers"}
_STAGE_KEYS = {"kind", "endpoint_url", "model_name", "api_key_env", "temperature", "max_retries",
               "request_timeout", "max_in_flight", "requests_per_second", "script"}


class CommandFailed(Exception):
    """Ends a subcommand: ``main`` prints ``error: <message>`` and returns
    ``code``."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_json(path: str, what: str):
    """The value a JSON input file holds; exit 2 when the file is absent or
    holds no JSON."""
    file = Path(path)
    if not file.is_file():
        raise CommandFailed(f"no such {what} file: {file}", EXIT_USAGE)
    try:
        return json.loads(file.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CommandFailed(f"cannot read {what} file {file}: {exc}", EXIT_USAGE)


def _load_config_file(path: str | None) -> dict:
    """Parsed config mapping; exit 2 when the file is absent, holds no JSON
    object, or holds a key that no command reads."""
    if not path:
        return {}
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise CommandFailed(f"config file {path} must hold a JSON object", EXIT_USAGE)
    _check_config_block(data, _CONFIG_KEYS, "the top level")
    _check_config_block(data.get("providers", {}), set(PIPELINE_STAGES), "providers")
    for stage, settings in data.get("providers", {}).items():
        _check_config_block(settings, _STAGE_KEYS, f"providers.{stage}")
    return data


def _check_config_block(block, readable: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise CommandFailed(f"bad config: {where} must be an object, not {block!r}", EXIT_USAGE)
    unread = sorted(set(block) - readable)
    if unread:
        raise CommandFailed(f"bad config: no command reads {where} key(s) {unread}", EXIT_USAGE)


def _read_menu(path_str: str) -> MenuTree:
    """Parsed tree; exit 2 when the file is absent, 1 when the content does
    not parse."""
    path = Path(path_str)
    if not path.is_file():
        raise CommandFailed(f"no such menu file: {path}", EXIT_USAGE)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise CommandFailed(f"cannot read {path}: {exc}", EXIT_USAGE)
    try:
        return parse_menu(text)
    except MenuFormatError as exc:
        raise CommandFailed(f"invalid menu: {exc}", EXIT_FAILURE)


def _read_dataset(path_str: str, menu_name: str) -> Dataset:
    """Loaded dataset; exit 2 when the file is absent, 1 when a line does
    not load."""
    path = Path(path_str)
    if not path.is_file():
        raise CommandFailed(f"no such dataset file: {path}", EXIT_USAGE)
    try:
        return load_dataset(path, menu_name=menu_name)
    except ValueError as exc:
        raise CommandFailed(f"cannot load dataset {path}: {exc}", EXIT_FAILURE)


def _load_script(args: argparse.Namespace, config: dict, stage: str) -> list[str]:
    script_path = args.script or config.get("providers", {}).get(stage, {}).get("script")
    if not script_path:
        raise CommandFailed("scripted provider needs --script <json array file>", EXIT_USAGE)
    replies = _read_json(script_path, "script")
    if not isinstance(replies, list) or not all(isinstance(r, str) for r in replies):
        raise CommandFailed(f"script file {script_path} must hold a JSON array of strings", EXIT_USAGE)
    return replies


def _make_provider(
    args: argparse.Namespace,
    config: dict,
    stage: str,
    dataset=None,
    paths=None,
) -> Provider:
    """The stage's provider, with CLI flags layered over the stage's
    config-file block over defaults; exit 2 when none can be built."""
    stage_cfg = config.get("providers", {}).get(stage, {})

    def pick(cli_value, key, default):
        if cli_value is not None:
            return cli_value
        if key in stage_cfg and stage_cfg[key] is not None:
            return stage_cfg[key]
        return default

    kind = pick(args.provider, "kind", "http")
    if kind not in _PROVIDER_KINDS:
        raise CommandFailed(f"unknown provider kind {kind!r}", EXIT_USAGE)
    if stage == "datagen" and kind in ("oracle", "keyword"):
        raise CommandFailed(f"{kind} provider cannot synthesize intents; use http or scripted", EXIT_USAGE)
    try:
        cfg = ProviderConfig(
            endpoint_url=pick(args.endpoint, "endpoint_url", ""),
            model_name=pick(args.model, "model_name", "mock" if kind == "http" else f"{kind}-mock"),
            api_key_source=pick(args.api_key_env, "api_key_env", DEFAULT_API_KEY_ENV),
            temperature=pick(args.temperature, "temperature", None),
            max_retries=pick(args.max_retries, "max_retries", 3),
            request_timeout=pick(args.timeout, "request_timeout", 60.0),
            max_in_flight=pick(args.max_in_flight, "max_in_flight", 4),
            requests_per_second=pick(args.rps, "requests_per_second", None),
        )
    except (TypeError, ValueError) as exc:  # TypeError: a config-file value of the wrong type
        raise CommandFailed(f"bad provider settings: {exc}", EXIT_USAGE)

    if kind == "http":
        if not cfg.endpoint_url:
            raise CommandFailed(
                "http provider needs --endpoint (or an endpoint_url in the config file)", EXIT_USAGE
            )
        try:
            return HttpProvider(cfg)
        except ValueError as exc:  # an endpoint or proxy URL it cannot use
            raise CommandFailed(f"bad provider settings: {exc}", EXIT_USAGE)
    if kind == "oracle":
        if dataset is None:
            raise CommandFailed("oracle provider needs a dataset to take its answers from", EXIT_USAGE)
        return OracleProvider.for_dataset(dataset, config=cfg)
    if kind == "keyword":
        if paths is None:
            raise CommandFailed("keyword provider needs a menu", EXIT_USAGE)
        return KeywordProvider(paths, config=cfg)
    return ScriptedProvider(_load_script(args, config, stage), config=cfg)


# --- subcommands ----------------------------------------------------------------

def cmd_validate_menu(args: argparse.Namespace) -> int:
    tree = _read_menu(args.menu)
    print(f"OK: {tree.name}: {len(flatten(tree))} terminal paths")
    return EXIT_OK


def cmd_flatten(args: argparse.Namespace) -> int:
    tree = _read_menu(args.menu)
    paths = flatten(tree)
    if args.format == "tsv":
        sys.stdout.write(render_paths_tsv(paths))
    else:
        print(render_flattened(paths))
    return EXIT_OK


def cmd_gen_intents(args: argparse.Namespace) -> int:
    from .synthesis import NoiseProfile, build_dataset  # only this command synthesizes

    if args.per_node < 1:
        raise CommandFailed(f"--per-node must be at least 1, not {args.per_node}", EXIT_USAGE)
    if args.variants < 0:
        raise CommandFailed(f"--variants must be at least 0, not {args.variants}", EXIT_USAGE)
    try:
        noise = NoiseProfile() if args.noise is None else NoiseProfile(*args.noise)
    except ValueError as exc:
        raise CommandFailed(f"--noise: {exc}", EXIT_USAGE)
    config = _load_config_file(args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    if type(seed) is not int:  # a bool is refused too
        raise CommandFailed(f"bad config: seed must be an integer, not {seed!r}", EXIT_USAGE)
    tree = _read_menu(args.menu)
    paths = flatten(tree)
    provider = _make_provider(args, config, "datagen", paths=paths)

    try:
        ds = build_dataset(
            tree,
            paths,
            provider,
            per_node=args.per_node,
            variants=args.variants,
            noise=noise,
            seed=seed,
        )
    except (ProviderError, ValueError) as exc:
        raise CommandFailed(str(exc), EXIT_FAILURE)
    finally:
        provider.close()  # once: both stages share its connections
    problems = validate_dataset(ds, paths)
    if problems:
        for problem in problems:
            print(f"violation: {problem}", file=sys.stderr)
        raise CommandFailed("generated dataset failed validation", EXIT_FAILURE)

    out_file = Path(args.dataset_out) if args.dataset_out else Path(args.out) / "intents.jsonl"
    out_file.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, out_file)
    print(f"wrote {len(ds.records)} records to {out_file}")
    return EXIT_OK


def cmd_route(args: argparse.Namespace) -> int:
    if not 0 <= args.error_budget <= 1:
        raise CommandFailed(f"--error-budget must be within [0, 1], not {args.error_budget}", EXIT_USAGE)
    config = _load_config_file(args.config)
    tree = _read_menu(args.menu)
    ds = _read_dataset(args.dataset, tree.name)

    condition = _CONDITIONS[args.condition]
    paths = flatten(tree)
    provider = _make_provider(args, config, "routing", dataset=ds, paths=paths)

    # The run directory is named by the inputs alone, so a run that could
    # not be saved is refused before any call is paid for.
    identity = run_identity(ds, tree, condition, args.filter, provider.config.model_name, args.lenient)
    run_dir = Path(args.out) / f"run-{identity['run_id']}"
    if run_dir.exists() and not args.force:
        raise CommandFailed(
            f"{run_dir} already exists (same menu/dataset/condition/model); use --force to overwrite",
            EXIT_FAILURE,
        )

    try:
        run = route_all(
            ds,
            condition,
            tree,
            provider,
            record_filter=args.filter,
            lenient=args.lenient,
            error_budget=args.error_budget,
            identity=identity,
        )
    except RoutingAborted as exc:
        lines = [f"run aborted: {exc}"]
        lines += [f"  failed {intent_id}: {message}" for intent_id, message in exc.failures[:5]]
        if len(exc.failures) > 5:
            lines.append(f"  ... and {len(exc.failures) - 5} more")
        raise CommandFailed("\n".join(lines), EXIT_FAILURE)
    except (ProviderError, ValueError) as exc:
        raise CommandFailed(str(exc), EXIT_FAILURE)

    run_dir.mkdir(parents=True, exist_ok=True)
    save_results(run.results, run_dir / "results.jsonl")
    (run_dir / "manifest.json").write_text(
        json.dumps(run.manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    if not run.results:  # every failure fit in the error budget, so nothing can be scored
        failures = len(run.manifest["failures"])
        raise CommandFailed(
            f"no intent was routed ({failures} provider failure(s)); see {run_dir}", EXIT_FAILURE
        )
    print(f"routed {len(run.results)} intents, accuracy {format_percent(accuracy(run.results))}%")
    print(f"run directory: {run_dir}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import build_report, emit_report  # only this command scores a report

    results_file = Path(args.results)
    if not results_file.is_file():
        raise CommandFailed(f"no such results file: {results_file}", EXIT_USAGE)
    try:
        results = load_results(results_file)
    except ValueError as exc:
        raise CommandFailed(f"cannot load results {results_file}: {exc}", EXIT_FAILURE)
    if not results:
        raise CommandFailed(f"results file {results_file} is empty", EXIT_FAILURE)

    manifest = {}
    manifest_file = results_file.parent / "manifest.json"
    if manifest_file.is_file():
        try:
            manifest = json.loads(manifest_file.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            pass
        if not isinstance(manifest, dict):  # parses, but is no manifest: ignored as unreadable
            manifest = {}

    if args.menu:
        tree = _read_menu(args.menu)
        classes = [tp.path for tp in flatten(tree)]
    else:
        # No menu at hand: score over the classes the results actually carry.
        # One character per digit, and "-" below "0": texts sort as digit sequences.
        classes = sorted({r.ground_truth for r in results})

    condition = manifest.get("condition", results[0].condition.value)
    dataset_filter = manifest.get(
        "dataset_filter",
        "all" if any(":v" in r.intent_id for r in results) else "base_only",
    )
    model_name = manifest.get("model_name", results[0].model_name)
    run_id = manifest.get("run_id") or hashlib.sha256(results_file.read_bytes()).hexdigest()[:12]

    try:
        report = build_report(results, classes, condition, dataset_filter, model_name)
    except ValueError as exc:
        raise CommandFailed(str(exc), EXIT_FAILURE)

    report_dir = Path(args.out or results_file.parent) / f"eval-{run_id}"
    if report_dir.exists() and not args.force:
        raise CommandFailed(f"{report_dir} already exists; use --force to overwrite", EXIT_FAILURE)
    written = emit_report(report, report_dir)
    print(f"accuracy {format_percent(report.accuracy)}% over {report.n} results")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    tree = _read_menu(args.menu)
    paths = flatten(tree)

    dataset = _read_dataset(args.dataset, tree.name) if args.dataset else None
    problems = validate_dataset(dataset, paths) if args.dataset else []
    if problems:  # the oracle would answer a text with two labels from either
        raise CommandFailed("dataset is not valid: " + "; ".join(problems), EXIT_FAILURE)
    provider = _make_provider(args, config, "routing", dataset=dataset, paths=paths)

    condition = _CONDITIONS[args.condition]
    context = render_context(tree, condition)
    breadcrumb_of = {tp.path: tp.breadcrumb_text() for tp in paths}
    interactive = sys.stdin.isatty()

    while True:
        if interactive:
            print("query> ", end="", file=sys.stderr, flush=True)
        line = sys.stdin.readline()
        if line == "":
            provider.close()  # kept open across lines: they share its connections
            return EXIT_OK
        query = line.strip()
        if not query:
            continue

        def step(index: int, attempt: int):
            return route(query, condition, context, provider, args.lenient, attempt)

        # One job per line; its failure is reported, not fatal.
        (outcome,), failures = run_calls(provider, 1, step, error_budget=1)
        if failures:
            print(f"error: {failures[0][1]}", file=sys.stderr)
            continue
        parsed, completion = outcome
        if parsed.path is None:
            print(f"INVALID  (reply did not parse: {completion.raw_text!r})")
            continue
        if parsed.path in breadcrumb_of:
            print(f"{parsed.path}  {breadcrumb_of[parsed.path]}")
        else:
            print(f"{parsed.path}  (not a terminal path of this menu)")


def cmd_check_roles(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    stage_configs: dict[str, ProviderConfig] = {}
    for stage in PIPELINE_STAGES:
        model = getattr(args, f"{stage}_model")  # --menugen-model and so on
        if model is None:
            model = config.get("providers", {}).get(stage, {}).get("model_name")
        if model is not None:
            stage_configs[stage] = ProviderConfig(model_name=model)
    warnings = check_role_separation(stage_configs)
    for warning in warnings:
        print(f"warning: {warning}")
    if not warnings:
        print(f"ok: {len(stage_configs)} stage(s), no shared models")
    if warnings and args.strict_roles:
        return EXIT_FAILURE
    return EXIT_OK


# --- parser ---------------------------------------------------------------------

def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")


def _add_provider_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--provider",
        choices=_PROVIDER_KINDS,
        help="provider kind (default http, or the config file's choice)",
    )
    parser.add_argument("--endpoint", help="chat-completions endpoint URL (http provider)")
    parser.add_argument("--model", help="model name sent with each request")
    parser.add_argument(
        "--api-key-env",
        help=f"environment variable holding the bearer token (default {DEFAULT_API_KEY_ENV})",
    )
    parser.add_argument("--temperature", type=float, help="sampling temperature (default: unset)")
    parser.add_argument("--max-retries", type=int, help="retry budget for transport failures")
    parser.add_argument("--timeout", type=float, help="per-request timeout in seconds")
    parser.add_argument("--max-in-flight", type=int, help="concurrent request cap")
    parser.add_argument("--rps", type=float, help="client-side requests-per-second cap")
    parser.add_argument("--script", help="JSON array of replies for the scripted provider")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivroute",
        description="Route free-form complaints to terminal DTMF paths of an IVR menu.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-menu", help="check a menu file against the schema rules")
    p.add_argument("menu", help="menu JSON file")
    p.set_defaults(func=cmd_validate_menu)

    p = sub.add_parser("flatten", help="list the terminal paths of a menu")
    p.add_argument("menu", help="menu JSON file")
    p.add_argument(
        "--format",
        choices=("tsv", "prompt-lines"),
        default="tsv",
        help="tsv: path/breadcrumb/type columns; prompt-lines: 'path: breadcrumb'",
    )
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("gen-intents", help="synthesize a labeled complaint dataset")
    p.add_argument("menu", help="menu JSON file")
    p.add_argument("--per-node", type=int, default=10, help="base complaints per terminal path")
    p.add_argument("--variants", type=int, default=3, help="paraphrase variants per base complaint")
    p.add_argument(
        "--noise",
        type=float,
        nargs=3,
        metavar=("INTERJECTION", "FILLER", "GRAMMAR"),
        help="noise directive probabilities (defaults 0.3 0.3 0.2)",
    )
    p.add_argument("--dataset-out", help="output JSONL file (default <out>/intents.jsonl)")
    p.add_argument("--out", default=".", help="output directory (default .)")
    p.add_argument("--seed", type=int, help="noise seed (default: the config file's, else 0)")
    _add_config(p)
    _add_provider_flags(p)
    p.set_defaults(func=cmd_gen_intents)

    p = sub.add_parser("route", help="route a dataset and write results + manifest")
    p.add_argument("--menu", required=True, help="menu JSON file")
    p.add_argument("--dataset", required=True, help="dataset JSONL file")
    p.add_argument("--condition", choices=sorted(_CONDITIONS), default="flattened")
    p.add_argument("--filter", choices=("base_only", "all"), default="all", dest="filter")
    p.add_argument("--lenient", action="store_true", help="salvage one path token from prose replies")
    p.add_argument("--error-budget", type=float, default=0.01, help="tolerated provider failure fraction")
    p.add_argument("--force", action="store_true", help="overwrite an existing run directory")
    p.add_argument("--out", default="runs", help="directory the run directory goes in (default runs)")
    _add_config(p)
    _add_provider_flags(p)
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("eval", help="score a results file into a report directory")
    p.add_argument("results", help="results JSONL file")
    p.add_argument("--menu", help="menu file fixing the class list (else classes come from the results)")
    p.add_argument("--force", action="store_true", help="overwrite an existing report directory")
    p.add_argument("--out", help="directory the report directory goes in (default: the results file's)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("demo", help="route queries typed on stdin, one per line")
    p.add_argument("--menu", required=True, help="menu JSON file")
    p.add_argument("--condition", choices=sorted(_CONDITIONS), default="flattened")
    p.add_argument("--dataset", help="dataset JSONL file (required by the oracle provider)")
    p.add_argument("--lenient", action="store_true", help="salvage one path token from prose replies")
    _add_config(p)
    _add_provider_flags(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("check-roles", help="warn when pipeline stages share a model")
    p.add_argument("--menugen-model", help="model used to synthesize menus")
    p.add_argument("--datagen-model", help="model used to synthesize intents")
    p.add_argument("--routing-model", help="model used to route intents")
    p.add_argument(
        "--strict-roles",
        action="store_true",
        help="exit nonzero when any stages share a model",
    )
    _add_config(p)
    p.set_defaults(func=cmd_check_roles)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
