"""Command-line front end.

Subcommands cover the whole pipeline: validate-menu, flatten, gen-intents,
route, eval, demo, check-roles. Settings layer as CLI flags > config file >
environment > built-in defaults. Exit codes: 0 ok, 1 failed work, 2 usage
or missing input file, 130 interrupted (Ctrl-C), 141 stdout closed by its
reader.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path

from .datagen import load_dataset, save_dataset, validate_dataset
from .menu import flatten, load_menu, render_flattened, render_paths_tsv
from .prompts import CONDITIONS, RoutingCondition
from .provider import (
    HttpProvider,
    KeywordProvider,
    OracleProvider,
    PIPELINE_STAGES,
    Provider,
    ProviderConfig,
    ProviderError,
    SETTINGS,
    check_role_separation,
    mock_config,
)
from .router import (
    DATASET_FILTERS,
    Pacing,
    RoutingAborted,
    accuracy,
    check_vouched,
    format_percent,
    menu_hash,
    plan_run,
    read_manifest,
    read_results,
    route,
    route_plan,
    render_context,
    run_calls,
    save_run,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

_PROVIDER_KINDS = ("http", "oracle", "keyword")

# The keys some command reads from a config file: at the top level, and in
# the block of each stage under "providers". Each provider flag's dest is
# its key. Only check-roles reads menugen's block, for its model_name.
_CONFIG_KEYS = {"seed", "providers"}
_PROVIDER_KEYS = ("kind", *ProviderConfig._fields)
_STAGE_KEYS = dict.fromkeys(PIPELINE_STAGES, _PROVIDER_KEYS) | {"menugen": ("model_name",)}


class CommandFailed(Exception):
    """Ends a subcommand: ``main`` prints ``error: <message>`` and returns
    ``code``."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _json_file(file: Path):
    return json.loads(file.read_text(encoding="utf-8"))


def _read(path: str | Path, what: str, load, refused: str = "cannot load {what} {file}",
          code: int = EXIT_FAILURE):
    """What ``load`` makes of an input file: exit 2 when the file is absent
    or unreadable, ``code`` when ``load`` refuses its content with a
    ValueError (undecodable bytes and bad JSON are ValueErrors too) or a
    RecursionError (nested too deep)."""
    file = Path(path)
    if not file.is_file():
        raise CommandFailed(f"no such {what} file: {file}", EXIT_USAGE)
    try:
        return load(file)
    except OSError as exc:
        raise CommandFailed(f"cannot read {what} file {file}: {exc}", EXIT_USAGE)
    except (ValueError, RecursionError) as exc:
        raise CommandFailed(f"{refused.format(what=what, file=file)}: {exc}", code)


def _claim_dir(directory: Path) -> None:
    """Make a command's output directory before any call is paid for; exit 2 when it cannot be."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CommandFailed(f"cannot write {directory}: {exc}", EXIT_USAGE)


def _read_dataset(path: str, paths):
    """The dataset at ``path``; exit 1 when it cannot be loaded or is not valid for the menu's ``paths``."""
    dataset = _read(path, "dataset", load_dataset)
    problems = validate_dataset(dataset, paths)
    if problems:
        raise CommandFailed("dataset is not valid: " + "; ".join(problems), EXIT_FAILURE)
    return dataset


def _load_config_file(path: str | None) -> dict:
    """Parsed config mapping; exit 2 when the file is absent, holds no JSON
    object, or holds a key that no command reads or a setting of the wrong
    type or value, even one a flag overrides."""
    if not path:
        return {}
    data = _read(path, "config", _json_file, "cannot read {what} file {file}", EXIT_USAGE)
    if not isinstance(data, dict):
        raise CommandFailed(f"config file {path} must hold a JSON object", EXIT_USAGE)
    _check_config_block(data, _CONFIG_KEYS, "the top level")
    if type(data.get("seed", 0)) is not int:  # a bool is refused too
        raise CommandFailed(f"bad config: seed must be an integer, not {data['seed']!r}", EXIT_USAGE)
    _check_config_block(data.get("providers", {}), _STAGE_KEYS, "providers")
    for stage, settings in data.get("providers", {}).items():
        _check_config_block(settings, _STAGE_KEYS[stage], f"providers.{stage}")
        _stage_settings({}, data, stage)
    return data


def _check_config_block(block, readable, where: str) -> None:
    if not isinstance(block, dict):
        raise CommandFailed(f"bad config: {where} must be an object, not {block!r}", EXIT_USAGE)
    unread = sorted(set(block).difference(readable))
    if unread:
        raise CommandFailed(f"bad config: no command reads {where} key(s) {unread}", EXIT_USAGE)


def _stage_settings(flags: dict, config: dict, stage: str) -> tuple[dict, ProviderConfig]:
    """The stage keys that a flag, else the stage's config-file block, gives
    (a null gives nothing), and the ProviderConfig they make over its
    defaults; exit 2 when a setting, the kind too, has the wrong type or value."""
    block = config.get("providers", {}).get(stage, {})
    given = {"kind": "http"}
    for key in _PROVIDER_KEYS:
        value = block.get(key) if flags.get(key) is None else flags[key]
        if value is not None:
            given[key] = value
    settings = {key: given[key] for key in ProviderConfig._fields if key in given}
    try:
        kind = given["kind"]
        if kind not in _PROVIDER_KINDS:  # a kind that is no string is none of them
            raise ValueError(f"kind must be one of {', '.join(_PROVIDER_KINDS)}, not {kind!r}")
        return given, ProviderConfig(**settings) if kind == "http" else mock_config(kind, **settings)
    except (TypeError, ValueError) as exc:  # TypeError: a config-file value of the wrong type
        raise CommandFailed(f"bad provider settings: {exc}", EXIT_USAGE)


def _make_provider(args: argparse.Namespace, config: dict, stage: str, dataset=None) -> Provider:
    """The stage's provider, built from its flag > config file > default
    settings; exit 2 when none can be built."""
    given, cfg = _stage_settings(vars(args), config, stage)
    kind = given["kind"]
    if stage == "datagen" and kind in ("oracle", "keyword"):
        raise CommandFailed(f"{kind} provider cannot synthesize intents; use http", EXIT_USAGE)

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
        return OracleProvider(dataset.records, config=cfg)
    return KeywordProvider(config=cfg)


# --- subcommands ----------------------------------------------------------------

def cmd_validate_menu(args: argparse.Namespace) -> int:
    tree = _read(args.menu, "menu", load_menu, "invalid menu")
    print(f"OK: {tree.name}: {len(flatten(tree))} terminal paths")
    return EXIT_OK


def cmd_flatten(args: argparse.Namespace) -> int:
    tree = _read(args.menu, "menu", load_menu, "invalid menu")
    paths = flatten(tree)
    if args.format == "tsv":
        sys.stdout.write(render_paths_tsv(paths))
    else:
        print(render_flattened(paths))
    return EXIT_OK


def cmd_gen_intents(args: argparse.Namespace) -> int:
    from .synthesis import build_dataset  # only this command synthesizes

    if args.per_node < 1:
        raise CommandFailed(f"--per-node must be at least 1, not {args.per_node}", EXIT_USAGE)
    if args.variants < 0:
        raise CommandFailed(f"--variants must be at least 0, not {args.variants}", EXIT_USAGE)
    config = _load_config_file(args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    tree = _read(args.menu, "menu", load_menu, "invalid menu")
    provider = _make_provider(args, config, "datagen")
    if args.dataset_out.is_dir():
        raise CommandFailed(f"cannot write {args.dataset_out}: it is a directory", EXIT_USAGE)
    _claim_dir(args.dataset_out.parent)

    try:
        ds = build_dataset(tree, provider, per_node=args.per_node, variants=args.variants, seed=seed)
    except (ProviderError, ValueError) as exc:
        raise CommandFailed(str(exc), EXIT_FAILURE)
    finally:
        provider.close()  # once: both stages share its connections
    problems = validate_dataset(ds, flatten(tree))
    if problems:
        for problem in problems:
            print(f"violation: {problem}", file=sys.stderr)
        raise CommandFailed("generated dataset failed validation", EXIT_FAILURE)

    try:
        save_dataset(ds, args.dataset_out)
    except OSError as exc:
        raise CommandFailed(f"cannot write {args.dataset_out}: {exc}", EXIT_FAILURE)
    print(f"wrote {len(ds.records)} records to {args.dataset_out}")
    return EXIT_OK


def cmd_route(args: argparse.Namespace) -> int:
    if not 0 <= args.error_budget <= 1:
        raise CommandFailed(f"--error-budget must be within [0, 1], not {args.error_budget}", EXIT_USAGE)
    config = _load_config_file(args.config)
    tree = _read(args.menu, "menu", load_menu, "invalid menu")
    ds = _read(args.dataset, "dataset", load_dataset)
    provider = _make_provider(args, config, "routing", dataset=ds)
    try:
        plan = plan_run(ds, tree, _condition(args), provider.config, args.filter, args.lenient)
    except ValueError as exc:
        raise CommandFailed(str(exc), EXIT_FAILURE)

    # The run directory is named by the inputs alone, so a run that could
    # not be saved is refused before any call is paid for.
    run_dir = Path(args.out) / f"run-{plan.identity['run_id']}"
    if run_dir.exists() and not args.force:
        raise CommandFailed(
            f"{run_dir} already exists (same menu/dataset/condition/model); use --force to overwrite",
            EXIT_FAILURE,
        )
    _claim_dir(Path(args.out))

    try:
        run = route_plan(plan, provider, args.error_budget)
    except RoutingAborted as exc:
        lines = [f"run aborted: {exc}"]
        lines += [f"  failed {intent_id}: {message}" for intent_id, message in exc.failures[:5]]
        if len(exc.failures) > 5:
            lines.append(f"  ... and {len(exc.failures) - 5} more")
        raise CommandFailed("\n".join(lines), EXIT_FAILURE)
    except (ProviderError, ValueError) as exc:
        raise CommandFailed(str(exc), EXIT_FAILURE)

    try:
        save_run(run, run_dir)
    except OSError as exc:
        raise CommandFailed(f"cannot write {run_dir}: {exc}", EXIT_FAILURE)
    failures = len(run.manifest["failures"])  # each fit in the error budget
    if not run.results:
        raise CommandFailed(
            f"no intent was routed ({failures} provider failure(s)); see {run_dir}", EXIT_FAILURE
        )
    unscored = f", {failures} failed and not scored" if failures else ""
    print(f"routed {len(run.results)} intents, accuracy {format_percent(accuracy(run.results))}%{unscored}")
    print(f"run directory: {run_dir}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluation import build_report, emit_report  # only this command scores a report

    results_file = Path(args.results)
    results, digest = _read(results_file, "results", read_results)
    manifest = _read(results_file.parent / "manifest.json", "manifest", read_manifest)
    try:
        check_vouched(results_file, results, digest, manifest)
    except ValueError as exc:
        raise CommandFailed(str(exc), EXIT_FAILURE)

    # The report's classes are the terminal paths of the menu the run routed against.
    tree = _read(args.menu, "menu", load_menu, "invalid menu")
    if menu_hash(tree) != manifest.get("menu_hash"):
        raise CommandFailed(f"menu {args.menu} has hash {menu_hash(tree)}, but the run's menu_hash "
                            f"is {manifest.get('menu_hash')}", EXIT_FAILURE)
    classes = [tp.path for tp in flatten(tree)]

    try:
        report = build_report(results, classes, manifest["condition"], manifest["dataset_filter"],
                              manifest["model_name"])
    except ValueError as exc:
        raise CommandFailed(str(exc), EXIT_FAILURE)

    report_dir = Path(args.out or results_file.parent) / f"eval-{manifest['run_id']}"
    _claim_dir(report_dir.parent)
    try:
        written = emit_report(report, report_dir)
    except OSError as exc:
        raise CommandFailed(f"cannot write {report_dir}: {exc}", EXIT_FAILURE)
    print(f"accuracy {format_percent(report.accuracy)}% over {report.n} results")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    tree = _read(args.menu, "menu", load_menu, "invalid menu")
    paths = flatten(tree)

    dataset = _read_dataset(args.dataset, paths) if args.dataset else None
    provider = _make_provider(args, config, "routing", dataset=dataset)
    pacing = Pacing(provider.config)  # one pace across the session's lines

    condition = _condition(args)
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

        def step(index: int):
            return route(query, condition, context, provider, args.lenient)

        # One job per line; its failure is reported, not fatal.
        (outcome,), failures = run_calls(provider, 1, step, error_budget=1, pacing=pacing)
        if failures:
            print(f"error: {failures[0][1]}", file=sys.stderr)
            continue
        parsed, raw = outcome
        if parsed.path is None:
            print(f"INVALID  (reply did not parse: {raw!r})", flush=True)
            continue
        where = breadcrumb_of.get(parsed.path, "(not a terminal path of this menu)")
        print(f"{parsed.path}  {where}", flush=True)  # a reader on a pipe waits for each answer


def cmd_check_roles(args: argparse.Namespace) -> int:
    config = _load_config_file(args.config)
    stage_configs: dict[str, ProviderConfig] = {}
    for stage in PIPELINE_STAGES:
        flags = {"model_name": getattr(args, f"{stage}_model")}  # --menugen-model and so on
        given, stage_configs[stage] = _stage_settings(flags, config, stage)
        if "model_name" not in given:  # a stage no model is named for shares none
            del stage_configs[stage]
    warnings = check_role_separation(stage_configs)
    for warning in warnings:
        print(f"warning: {warning}")
    if not warnings:
        print(f"ok: {len(stage_configs)} stage(s), no shared models")
    if warnings and args.strict_roles:
        return EXIT_FAILURE
    return EXIT_OK


# --- parser ---------------------------------------------------------------------

def _condition(args: argparse.Namespace) -> RoutingCondition:
    return next(condition for condition, spec in CONDITIONS.items() if spec.name == args.condition)


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override it")


def _add_provider_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider", dest="kind", choices=_PROVIDER_KINDS,
                        help="provider kind (default http, or the config file's choice)")
    for name, (flag, text, _, kind, _) in SETTINGS.items():
        parser.add_argument(flag, dest=name, type=kind, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivroute",
        description="Route free-form complaints to terminal DTMF paths of an IVR menu.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    conditions = [spec.name for spec in CONDITIONS.values()]

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
    p.add_argument("--dataset-out", type=Path, default="intents.jsonl",
                   help="output JSONL file (default intents.jsonl)")
    p.add_argument("--seed", type=int, help="noise and retry-jitter seed (default: the config file's, else 0)")
    _add_config(p)
    _add_provider_flags(p)
    p.set_defaults(func=cmd_gen_intents)

    p = sub.add_parser("route", help="route a dataset and write results + manifest")
    p.add_argument("--menu", required=True, help="menu JSON file")
    p.add_argument("--dataset", required=True, help="dataset JSONL file")
    p.add_argument("--condition", choices=conditions, default="flattened")
    p.add_argument("--filter", choices=DATASET_FILTERS, default="all")
    p.add_argument("--lenient", action="store_true", help="salvage one path token from prose replies")
    p.add_argument("--error-budget", type=float, default=0.01, help="tolerated provider failure fraction")
    p.add_argument("--force", action="store_true", help="overwrite an existing run directory")
    p.add_argument("--out", default="runs", help="directory the run directory goes in (default runs)")
    _add_config(p)
    _add_provider_flags(p)
    p.set_defaults(func=cmd_route)

    p = sub.add_parser("eval", help="score a results file into a report directory")
    p.add_argument("results", help="results JSONL file")
    p.add_argument("--menu", required=True, help="the run's menu JSON file; its terminal paths are the classes")
    p.add_argument("--out", help="directory the report directory goes in (default: the results file's)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("demo", help="route queries typed on stdin, one per line")
    p.add_argument("--menu", required=True, help="menu JSON file")
    p.add_argument("--condition", choices=conditions, default="flattened")
    p.add_argument("--dataset", help="dataset JSONL file (required by the oracle provider)")
    p.add_argument("--lenient", action="store_true", help="salvage one path token from prose replies")
    _add_config(p)
    _add_provider_flags(p)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("check-roles", help="warn when pipeline stages share a model")
    p.add_argument("--menugen-model", help="model that wrote the menu (ivroute does not generate menus)")
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
    if isinstance(sys.stdout, io.TextIOWrapper):
        # A path from argv bytes that are no UTF-8 is printed escaped, as on stderr.
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, so a closed pipe is seen while it can still be handled
        return code
    except CommandFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # The reader of stdout has gone. What is still buffered goes to
        # /dev/null at exit, so that flush does not fail again with a warning.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
