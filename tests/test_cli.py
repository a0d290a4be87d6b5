"""Command-line behavior: exit codes, file outputs, the demo loop, and
configuration layering."""

import hashlib
import io
import json
import math
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivroute.cli import _load_config_file, _make_provider, build_parser, main
from ivroute.datagen import load_dataset, validate_dataset
from ivroute.menu import flatten, load_menu
from ivroute.prompts import RoutingCondition
from ivroute.provider import DEFAULT_API_KEY_ENV, ScriptedProvider
from ivroute import router
from ivroute.router import load_results, run_identity

from conftest import data_text, make_record


def run(argv):
    return main(argv)


# --- validate-menu -------------------------------------------------------------------

def test_validate_menu_ok(fixture_menu_path, capsys):
    assert run(["validate-menu", str(fixture_menu_path)]) == 0
    out = capsys.readouterr().out
    assert "23 terminal paths" in out


def test_validate_menu_violations_exit_1(tmp_path, capsys):
    doc = {
        "name": "Dupes",
        "root": {
            "label": "Root",
            "kind": "menu",
            "prompt_text": "",
            "children": [
                {"label": "A", "digit": "1", "kind": "action", "action_type": "self_service"},
                {"label": "B", "digit": "1", "kind": "action", "action_type": "self_service"},
            ],
        },
    }
    bad = tmp_path / "bad.menu.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate-menu", str(bad)]) == 1
    assert "duplicate digit" in capsys.readouterr().err


def test_validate_menu_missing_file_exit_2(tmp_path, capsys):
    assert run(["validate-menu", str(tmp_path / "nope.json")]) == 2
    assert "no such menu file" in capsys.readouterr().err


def test_validate_menu_unparseable_json_exit_1(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{nope", encoding="utf-8")
    assert run(["validate-menu", str(bad)]) == 1


@pytest.mark.parametrize("digit", ["\u00b2", "\uff11"], ids=["superscript-two", "fullwidth-one"])
def test_validate_menu_unicode_digit_exit_1(tmp_path, capsys, digit):
    doc = json.loads(data_text("agentnet.menu.json"))
    doc["root"]["children"][0]["children"][0]["digit"] = digit
    menu = tmp_path / "unicode.menu.json"
    menu.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    assert run(["validate-menu", str(menu)]) == 1  # an exception would leave main
    captured = capsys.readouterr()
    assert captured.err == (f"error: invalid menu: node at 1-{digit}: "
                            "digit must be a one-character string '0'-'9'\n")
    assert captured.out == ""


def test_validate_menu_reports_every_tree_violation_together(tmp_path, capsys):
    doc = {"name": "Broken", "root": {"label": "Root", "kind": "menu", "children": [
        {"label": "Pay", "digit": "1", "kind": "action"},
        {"label": "Empty", "digit": "2", "kind": "menu", "children": []},
    ]}}
    menu = tmp_path / "broken.menu.json"
    menu.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["validate-menu", str(menu)]) == 1
    assert capsys.readouterr().err == ("error: invalid menu: 1: action node without an action_type; "
                                       "2: menu node has no children\n")


# --- flatten ---------------------------------------------------------------------------

def test_flatten_tsv_matches_golden(fixture_menu_path, capsys):
    assert run(["flatten", str(fixture_menu_path), "--format", "tsv"]) == 0
    assert capsys.readouterr().out == data_text("agentnet.paths.tsv")


def test_flatten_prompt_lines(fixture_menu_path, capsys):
    assert run(["flatten", str(fixture_menu_path), "--format", "prompt-lines"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 23
    assert lines[0] == "1-1: Billing and Account Management -> Check Balance"


def test_flatten_single_action_menu(tmp_path, capsys):
    doc = {
        "name": "One",
        "root": {
            "label": "Root",
            "kind": "menu",
            "prompt_text": "",
            "children": [
                {"label": "Only", "digit": "1", "kind": "action", "action_type": "self_service"},
            ],
        },
    }
    menu = tmp_path / "one.menu.json"
    menu.write_text(json.dumps(doc), encoding="utf-8")
    assert run(["flatten", str(menu)]) == 0
    assert capsys.readouterr().out == "1\tOnly\tself_service\n"


# --- gen-intents -----------------------------------------------------------------------

def write_script(tmp_path, replies, name="script.json"):
    file = tmp_path / name
    file.write_text(json.dumps(replies), encoding="utf-8")
    return file


def numbered(lines):
    return "\n".join(f"{i}. {line}" for i, line in enumerate(lines, start=1))


def test_gen_intents_scripted(tmp_path, fixture_menu_path, capsys):
    # 23 base replies then 23 paraphrase replies, driven in series.
    paths = [tp.path.canonical() for tp in flatten(load_menu(fixture_menu_path))]
    replies = [numbered([f"complaint about {p}"]) for p in paths]
    replies += [numbered([f"rephrased complaint about {p}"]) for p in paths]
    script = write_script(tmp_path, replies)
    out_file = tmp_path / "generated.jsonl"
    code = run([
        "gen-intents", str(fixture_menu_path),
        "--per-node", "1", "--variants", "1",
        "--provider", "scripted", "--script", str(script),
        "--max-in-flight", "1",
        "--dataset-out", str(out_file),
    ])
    assert code == 0
    assert "wrote 46 records" in capsys.readouterr().out
    ds = load_dataset(out_file)
    assert len(ds.records) == 46
    assert validate_dataset(ds, flatten(load_menu(fixture_menu_path))) == []


def test_gen_intents_rejects_oracle(fixture_menu_path, capsys):
    assert run(["gen-intents", str(fixture_menu_path), "--provider", "oracle"]) == 2
    assert "cannot synthesize" in capsys.readouterr().err


def test_gen_intents_scripted_needs_script(fixture_menu_path, capsys):
    assert run(["gen-intents", str(fixture_menu_path), "--provider", "scripted"]) == 2
    assert "--script" in capsys.readouterr().err


@pytest.mark.parametrize("counts", [["--per-node", "0"], ["--per-node", "1", "--variants", "-1"]],
                         ids=["per-node-0", "variants-minus-1"])
def test_gen_intents_counts_checked_before_any_call(fixture_menu_path, chat_server, monkeypatch,
                                                   tmp_path, capsys, counts):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    server = chat_server()
    code = run(["gen-intents", str(fixture_menu_path), *counts, "--provider", "http",
                "--endpoint", server.url, "--dataset-out", str(tmp_path / "intents.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {counts[-2]} must be at least")
    assert (server.accepted, server.answered) == (0, 0)
    assert not (tmp_path / "intents.jsonl").exists()


@pytest.mark.parametrize("noise", [["5", "0.3", "0.2"], ["0.3", "-1", "0.2"], ["0.3", "0.3", "nan"]])
def test_gen_intents_noise_out_of_range_exit_2(tmp_path, fixture_menu_path, capsys, noise):
    script = write_script(tmp_path, [])
    code = run(["gen-intents", str(fixture_menu_path), "--provider", "scripted",
                "--script", str(script), "--noise", *noise])
    assert code == 2
    err = capsys.readouterr().err
    assert "--noise" in err and "must be within [0, 1]" in err


# --- route -----------------------------------------------------------------------------

def route_args(menu, dataset, out, **extra):
    argv = [
        "route", "--menu", str(menu), "--dataset", str(dataset),
        "--provider", "oracle", "--out", str(out),
    ]
    for key, value in extra.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


def test_route_oracle_base_only(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    code = run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path,
                          condition="flattened", filter="base_only"))
    assert code == 0
    out = capsys.readouterr().out
    assert "routed 230 intents, accuracy 100.00%" in out
    run_dirs = list(tmp_path.glob("run-*"))
    assert len(run_dirs) == 1
    results = load_results(run_dirs[0] / "results.jsonl")
    assert len(results) == 230
    manifest = json.loads((run_dirs[0] / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["dataset_filter"] == "base_only"
    assert run_dirs[0].name == f"run-{manifest['run_id']}"
    assert list(manifest) == ["menu_name", "menu_hash", "dataset_hash", "condition", "dataset_filter",
                              "model_name", "parse_mode", "run_id", "failures", "timestamp", "results_sha256"]
    assert manifest["results_sha256"] == hashlib.sha256((run_dirs[0] / "results.jsonl").read_bytes()).hexdigest()


def test_route_descriptive_all_920(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    code = run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path,
                          condition="descriptive", filter="all"))
    assert code == 0
    assert "routed 920 intents" in capsys.readouterr().out


def test_route_refuses_overwrite_without_force(tmp_path, fixture_menu_path,
                                               fixture_dataset_path, capsys):
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path,
                      condition="flattened", filter="base_only")
    assert run(argv) == 0
    assert run(argv) == 1
    assert "already exists" in capsys.readouterr().err
    assert run(argv + ["--force"]) == 0


def test_route_force_replaces_the_report_only_once_new_results_are_written(
        tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    evaluate = ["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]
    assert run(evaluate) == 0
    report = run_dir / f"eval-{run_dir.name.removeprefix('run-')}" / "report.json"
    oracle_results = (run_dir / "results.jsonl").read_bytes()
    # The same run id under another provider: the model name is in it, the provider kind is not.
    rerun = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, condition="flattened",
                       filter="base_only", model="oracle-mock") + ["--force", "--provider"]
    # A rerun that aborts keeps the old results and their report together.
    assert run(rerun + ["scripted", "--script", str(write_script(tmp_path, ["1-1"]))]) == 1
    assert (run_dir / "results.jsonl").read_bytes() == oracle_results
    assert json.loads(report.read_text(encoding="utf-8"))["accuracy"] == 1.0
    assert run(rerun + ["keyword"]) == 0
    assert list(tmp_path.glob("run-*")) == [run_dir]
    assert not report.parent.exists()  # it scored the results just replaced
    capsys.readouterr()
    assert run(evaluate) == 0
    assert "accuracy 30.87% over 230 results" in capsys.readouterr().out


def test_route_a_set_temperature_names_its_own_run(tmp_path, fixture_menu_path, fixture_dataset_path):
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, condition="flattened",
                      filter="base_only")
    assert run(argv + ["--temperature", "0"]) == 0
    assert run(argv + ["--temperature", "1.5"]) == 0  # not refused as the same run
    names = {run_dir.name for run_dir in tmp_path.glob("run-*")}
    assert len(names) == 2 and "run-c3ca07a72a4f" not in names  # the unset temperature's run


def test_route_unknown_condition_usage_error(fixture_menu_path, fixture_dataset_path):
    with pytest.raises(SystemExit) as excinfo:
        run(route_args(fixture_menu_path, fixture_dataset_path, "out", condition="nonsense"))
    assert excinfo.value.code == 2


REMOVED_FLAGS = {
    "route-seed": lambda menu, data, out: ["route", "--menu", menu, "--dataset", data,
                                           "--provider", "oracle", "--out", out, "--seed", "1"],
    "demo-seed": lambda menu, data, out: ["demo", "--menu", menu, "--provider", "keyword",
                                          "--seed", "1"],
    "validate-menu-config": lambda menu, data, out: ["validate-menu", menu, "--config", "c.json"],
    "flatten-out": lambda menu, data, out: ["flatten", menu, "--out", out],
    "eval-config": lambda menu, data, out: ["eval", "results.jsonl", "--menu", menu, "--config", "c.json"],
    "check-roles-out": lambda menu, data, out: ["check-roles", "--out", out],
    "gen-intents-out": lambda menu, data, out: ["gen-intents", menu, "--provider", "scripted",
                                                "--out", out],
}


@pytest.mark.parametrize("argv", REMOVED_FLAGS.values(), ids=REMOVED_FLAGS.keys())
def test_flag_the_command_does_not_read_is_refused(tmp_path, fixture_menu_path,
                                                   fixture_dataset_path, capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        run(argv(str(fixture_menu_path), str(fixture_dataset_path), str(tmp_path)))
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_route_missing_dataset_exit_2(tmp_path, fixture_menu_path, capsys):
    code = run(["route", "--menu", str(fixture_menu_path),
                "--dataset", str(tmp_path / "absent.jsonl"), "--provider", "oracle"])
    assert code == 2


def test_route_http_requires_endpoint(fixture_menu_path, fixture_dataset_path, capsys):
    code = run(["route", "--menu", str(fixture_menu_path),
                "--dataset", str(fixture_dataset_path), "--provider", "http"])
    assert code == 2
    assert "--endpoint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--max-in-flight", "0"), ("--temperature", "3"), ("--rps", "0"), ("--rps", "nan"),
     ("--rps", "inf"), ("--max-retries", "9"), ("--timeout", "-1"), ("--timeout", "0"),
     ("--rps", "1e-300"), ("--timeout", "1e10")],
)
def test_route_bad_provider_setting_exit_2(tmp_path, fixture_menu_path, fixture_dataset_path,
                                           capsys, flag, value):
    out = tmp_path / "out"
    argv = route_args(fixture_menu_path, fixture_dataset_path, out) + [flag, value]
    assert run(argv) == 2  # returned, not raised
    assert capsys.readouterr().err.startswith("error: bad provider settings: ")
    assert not out.exists()  # refused before route claims its --out


@pytest.mark.parametrize("endpoint", ["ftp://example.test/v1", "http://127.0.0.1:port/v1"])
def test_route_unusable_endpoint_exit_2(tmp_path, fixture_menu_path, fixture_dataset_path,
                                        capsys, endpoint):
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path)
    argv += ["--provider", "http", "--endpoint", endpoint]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("error: bad provider settings")


def test_route_api_key_with_control_characters_exit_2(tmp_path, fixture_menu_path,
                                                     fixture_dataset_path, capsys, monkeypatch):
    monkeypatch.setenv("IVR_LLM_API_KEY", "sk-secret-123\n")
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path)
    argv += ["--provider", "http", "--endpoint", "http://127.0.0.1:9/v1"]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad provider settings") and "IVR_LLM_API_KEY" in err
    assert "sk-secret" not in err
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("budget", ["-0.1", "1.5", "2", "nan"])
def test_route_error_budget_out_of_range_exit_2(tmp_path, fixture_menu_path,
                                                fixture_dataset_path, capsys, budget):
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path) + ["--error-budget", budget]
    assert run(argv) == 2
    assert "--error-budget must be within [0, 1]" in capsys.readouterr().err
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("budget", ["0", "1"])
def test_route_error_budget_bounds_are_allowed(tmp_path, fixture_menu_path,
                                               fixture_dataset_path, budget):
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only")
    assert run(argv + ["--error-budget", budget]) == 0


def test_route_existing_run_dir_refused_before_any_request(tmp_path, fixture_menu_path,
                                                           fixture_dataset_path, capsys):
    tree = load_menu(fixture_menu_path)
    ds = load_dataset(fixture_dataset_path, menu_name=tree.name)
    run_id = run_identity(ds, tree, RoutingCondition.FLATTENED_PATHS, "all", "mock", False)["run_id"]
    (tmp_path / f"run-{run_id}").mkdir()
    with socket.socket() as probe:  # a port nothing listens on
        probe.bind(("127.0.0.1", 0))
        endpoint = f"http://127.0.0.1:{probe.getsockname()[1]}/v1/chat/completions"
    argv = ["route", "--menu", str(fixture_menu_path), "--dataset", str(fixture_dataset_path),
            "--condition", "flattened", "--provider", "http", "--endpoint", endpoint,
            "--out", str(tmp_path)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "already exists" in err
    assert "aborted" not in err  # what routing against the closed port would have ended in


def test_route_hashes_its_inputs_once(tmp_path, fixture_menu_path, fixture_dataset_path,
                                      monkeypatch):
    hashed = []
    dataset_to_jsonl = router.dataset_to_jsonl
    monkeypatch.setattr(router, "dataset_to_jsonl", lambda ds: hashed.append(1) or dataset_to_jsonl(ds))
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only")
    assert run(argv) == 0
    assert len(hashed) == 1  # for the run id, before routing; the manifest reuses it
    (run_dir,) = tmp_path.glob("run-*")
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    tree = load_menu(fixture_menu_path)
    ds = load_dataset(fixture_dataset_path, menu_name=tree.name)
    identity = run_identity(ds, tree, RoutingCondition.FLATTENED_PATHS, "base_only", "oracle-mock", False)
    assert list(manifest)[: len(identity)] == list(identity)
    assert {key: manifest[key] for key in identity} == identity
    assert run_dir.name == f"run-{identity['run_id']}"


def test_route_config_value_of_wrong_type_exit_2(tmp_path, fixture_menu_path,
                                                fixture_dataset_path, monkeypatch, capsys):
    file = tmp_path / "config.json"
    commands = config_commands(fixture_menu_path, fixture_dataset_path, tmp_path)
    # A bool is no number here, though Python counts it as an int; json.loads
    # reads NaN and Infinity as floats, but neither is a rate. No wait may
    # outlast threading.TIMEOUT_MAX: not a timeout of 1e10 s, nor a turn of
    # 1e300 s at 1e-300 requests per second. A stage block
    # is checked whole, so a flag that overrides a setting (as --provider
    # does kind) does not hide its wrong type. Every command checks every
    # block it may read, its own or not.
    for settings in [{"max_in_flight": "4"}, {"max_in_flight": 2.5}, {"max_retries": True},
                     {"temperature": True}, {"requests_per_second": math.nan},
                     {"requests_per_second": math.inf}, {"model_name": 3}, {"endpoint_url": 3},
                     {"api_key_env": []}, {"kind": 3}, {"script": 3}, {"requests_per_second": 1e-300},
                     {"request_timeout": 1e10}]:
        file.write_text(json.dumps({"providers": dict.fromkeys(("datagen", "routing"), settings)}),
                        encoding="utf-8")
        for name, argv in commands.items():
            feed_stdin(monkeypatch, "i want to check my balance\n")
            assert run(argv + ["--config", str(file)]) == 2, (name, settings)
            captured = capsys.readouterr()
            assert captured.err.startswith("error: bad provider settings"), (name, settings)
            assert captured.out == "", (name, settings)
    assert not list(tmp_path.glob("run-*")) and not (tmp_path / "intents.jsonl").exists()


@pytest.mark.parametrize("seed", ["x", True, 1.5, None])
def test_gen_intents_config_seed_of_wrong_type_exit_2(tmp_path, fixture_menu_path, capsys, seed):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": seed}), encoding="utf-8")
    script = write_script(tmp_path, [])
    code = run(["gen-intents", str(fixture_menu_path), "--provider", "scripted",
                "--script", str(script), "--config", str(config),
                "--dataset-out", str(tmp_path / "intents.jsonl")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: bad config: seed must be an integer")
    assert not (tmp_path / "intents.jsonl").exists()


def malformed_datasets(tmp_path):
    """Dataset files whose second line does not load: cut short, or JSON
    that is no object."""
    first, second = data_text("agentnet.intents.jsonl").splitlines()[:2]
    files = []
    for name, line in [("truncated", second[: len(second) // 2]), ("number", "3"),
                       ("string", '"x"'), ("null", "null"), ("array", f"[{second}]")]:
        files.append(tmp_path / f"{name}.jsonl")
        files[-1].write_text(first + "\n" + line + "\n", encoding="utf-8")
    return files


def test_route_malformed_dataset_line_exit_1(tmp_path, fixture_menu_path, capsys):
    for dataset in malformed_datasets(tmp_path):
        assert run(route_args(fixture_menu_path, dataset, tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load dataset {dataset}: ")
        assert f"{dataset.name}:2: bad record" in err


def test_route_text_under_two_labels_exit_1(tmp_path, fixture_menu_path, fixture_dataset_path,
                                             capsys):
    rows = [json.loads(line) for line in fixture_dataset_path.read_text(encoding="utf-8").splitlines()]
    by_id = {row["id"]: row for row in rows}
    by_id["1-2:b00"]["text"] = by_id["1-1:b00"]["text"]
    dataset = tmp_path / "relabelled.jsonl"
    dataset.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert run(route_args(fixture_menu_path, dataset, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dataset is not valid: record 1-2:b00: same text as record 1-1:b00")
    assert not list(tmp_path.glob("run-*"))


def test_route_invalid_dataset_claims_no_out_dir(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    lines = fixture_dataset_path.read_text(encoding="utf-8").splitlines(keepends=True)
    dataset = tmp_path / "head.jsonl"
    dataset.write_text("".join(lines[:229]), encoding="utf-8")  # one base record short of 230
    out = tmp_path / "newout"
    assert run(route_args(fixture_menu_path, dataset, out)) == 1
    assert capsys.readouterr().err.startswith("error: dataset is not valid: base record count per terminal path")
    assert not out.exists()


def test_route_blank_text_is_refused_before_any_call(tmp_path, fixture_menu_path, fixture_dataset_path,
                                                     chat_server, monkeypatch, capsys):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    server = chat_server()
    dataset = edited_fixture(tmp_path, fixture_dataset_path,
                             lambda row: {**row, "text": "   "} if row["id"] == "3-9:b09:v3" else row)
    out = tmp_path / "newout"
    argv = route_args(fixture_menu_path, dataset, out, filter="all") + ["--provider", "http",
                                                                         "--endpoint", server.url]
    assert run(argv) == 1
    assert capsys.readouterr().err == "error: dataset is not valid: record 3-9:b09:v3: text is blank\n"
    assert not out.exists()
    assert (server.accepted, server.answered) == (0, 0)


def edited_fixture(tmp_path, fixture_dataset_path, edit):
    """The fixture dataset with ``edit`` applied to each row."""
    rows = [json.loads(line) for line in fixture_dataset_path.read_text(encoding="utf-8").splitlines()]
    dataset = tmp_path / "edited.jsonl"
    dataset.write_text("".join(json.dumps(edit(row)) + "\n" for row in rows), encoding="utf-8")
    return dataset


def relabel_base_1_1_b00(row):
    # its base record and three paraphrases move from 1-1 to 1-2
    return {**row, "ground_truth": "1-2"} if row["base_id"] == "1-1:b00" else row


def move_paraphrase_1_1_b00_v3(row):
    if row["id"] == "1-1:b00:v3":
        return {**row, "base_id": "1-1:b01", "variant_index": 4}
    return row


@pytest.mark.parametrize("edit, problem", [
    (relabel_base_1_1_b00,
     "base record count per terminal path must be one number, but 1-1 has 9 and 1-2 has 11"),
    (move_paraphrase_1_1_b00_v3,
     "paraphrase count per base record must be one number, but 1-1:b00 has 2 and 1-1:b01 has 4"),
], ids=["uneven-base-counts", "uneven-paraphrase-counts"])
def test_route_uneven_dataset_exit_1(tmp_path, fixture_menu_path, fixture_dataset_path, capsys,
                                     edit, problem):
    dataset = edited_fixture(tmp_path, fixture_dataset_path, edit)
    assert run(route_args(fixture_menu_path, dataset, tmp_path)) == 1
    assert capsys.readouterr().err == f"error: dataset is not valid: {problem}\n"
    assert not list(tmp_path.glob("run-*"))


@pytest.mark.parametrize("field, value", [("text", 5), ("variant_index", 3.7), ("variant_index", True)])
def test_dataset_field_of_wrong_type_exit_1(tmp_path, fixture_menu_path, fixture_dataset_path,
                                            monkeypatch, capsys, field, value):
    # line 233, a paraphrase whose variant_index is 3: int() would read 3.7 as 3 and true as 1
    dataset = edited_fixture(tmp_path, fixture_dataset_path,
                             lambda row: {**row, field: value} if row["id"] == "1-1:b00:v3" else row)
    for argv in [route_args(fixture_menu_path, dataset, tmp_path),
                 ["demo", "--menu", str(fixture_menu_path), "--provider", "oracle",
                  "--dataset", str(dataset)]]:
        feed_stdin(monkeypatch, "i want to check my balance\n")
        assert run(argv) == 1, argv[0]
        captured = capsys.readouterr()
        assert captured.err == (f"error: cannot load dataset {dataset}: {dataset}:233: bad record: "
                                f"{field} must be {'a string' if field == 'text' else 'an integer'}, "
                                f"not {value!r}\n")
        assert captured.out == ""
    assert not list(tmp_path.glob("run-*"))


def test_route_names_each_failure_once(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    script = write_script(tmp_path, ["1-1", "1-1"])
    argv = ["route", "--menu", str(fixture_menu_path), "--dataset", str(fixture_dataset_path),
            "--filter", "base_only", "--provider", "scripted", "--script", str(script),
            "--max-in-flight", "1", "--out", str(tmp_path)]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: run aborted: 3 provider failure(s) exceeded the budget of 2"
    assert err[1:] == [f"  failed 1-1:b0{i}: scripted mock ran out of replies" for i in (2, 3, 4)]


def test_route_summary_counts_the_failures_it_does_not_score(tmp_path, fixture_menu_path,
                                                             fixture_dataset_path, capsys):
    script = write_script(tmp_path, ["1-1"] * 228)  # two of the 230 base intents get no reply
    argv = route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only",
                      max_in_flight=1) + ["--provider", "scripted", "--script", str(script)]
    assert run(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "routed 228 intents, accuracy 4.39%, 2 failed and not scored"


def test_route_every_intent_failing_within_budget_exit_1(tmp_path, fixture_menu_path,
                                                         fixture_dataset_path, capsys):
    script = tmp_path / "empty.json"
    script.write_text("[]", encoding="utf-8")
    argv = ["route", "--menu", str(fixture_menu_path), "--dataset", str(fixture_dataset_path),
            "--filter", "base_only", "--provider", "scripted", "--script", str(script),
            "--error-budget", "1", "--out", str(tmp_path)]
    assert run(argv) == 1  # returned, not raised: there is nothing to score
    err = capsys.readouterr().err
    assert err.startswith("error: no intent was routed (230 provider failure(s))")
    (run_dir,) = tmp_path.glob("run-*")
    assert (run_dir / "results.jsonl").read_text(encoding="utf-8") == ""
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert len(manifest["failures"]) == 230


def test_route_reply_content_that_is_no_text_exit_1(tmp_path, fixture_menu_path, fixture_dataset_path,
                                                    chat_server, monkeypatch, capsys):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    server = chat_server(reply=219)  # "content": 219
    argv = ["route", "--menu", str(fixture_menu_path), "--dataset", str(fixture_dataset_path),
            "--filter", "base_only", "--provider", "http", "--endpoint", server.url,
            "--max-in-flight", "1", "--out", str(tmp_path)]
    assert run(argv) == 1  # returned: an exception would leave main
    err = capsys.readouterr().err
    assert err.startswith("error: run aborted: 3 provider failure(s) exceeded the budget of 2")
    assert "content that is no text" in err and "Traceback" not in err
    assert server.answered == 3
    assert server.wait_all_closed()


# --- eval ------------------------------------------------------------------------------

def test_eval_oracle_run(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path,
                          condition="flattened", filter="base_only")) == 0
    run_dir = next(tmp_path.glob("run-*"))
    code = run(["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "accuracy 100.00% over 230 results" in out
    report_dir = run_dir / f"eval-{run_dir.name.removeprefix('run-')}"
    assert report_dir.is_dir()
    report = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))
    assert report["accuracy"] == 1.0
    assert report["dataset_filter"] == "base_only"
    summary = (report_dir / "summary.md").read_text(encoding="utf-8")
    assert "| Flattened Paths | Base Only | 100.00 | 230 |" in summary


# The sha256 of each file eval writes for the fixture's four oracle runs, named by run id.
ORACLE_REPORTS = {
    "c3ca07a72a4f": ("flattened", "base_only", {
        "report.json": "c6cb6da9168619d042124020a24afc190a0f5df5121c19840d5040079aef6475",
        "matrix.csv": "5ee26d428aea9533c9142f4076aff482ec2abae3a1dcf8cecb4ccb4d3cb9fdcf",
        "matrix_long.csv": "2cb852598550cf3c5e92fac20620b5f71d9090db1d2a23d203d6cc7e48d168e0",
        "summary.md": "d9c8c78cfb7f988c2760dd754aea630fe61e7bdbbd9d20710857be57f0d05f52"}),
    "dfc44e400268": ("flattened", "all", {
        "report.json": "6d87560bf6f7da6f0297cbdf147837cc2742fdd948417fc7ab86c08b184664a0",
        "matrix.csv": "e90258698e3c7f8e5abec26baf568eb514375af76306e3cf7e474f86a58f8a46",
        "matrix_long.csv": "635962ef06c06aca68fae631030a75fff9c00bff71cb3b43228a22ade573cbd8",
        "summary.md": "99c96df1e715658ee9d0c362f3194f3b4a13e91a8a524fb1b708369af1b0d81c"}),
    "8a900ae47168": ("descriptive", "base_only", {
        "report.json": "30f84890c937b22a19a83c1fd8fd4effe4a3e431c19bed9091a566876ba5b101",
        "matrix.csv": "5ee26d428aea9533c9142f4076aff482ec2abae3a1dcf8cecb4ccb4d3cb9fdcf",
        "matrix_long.csv": "2cb852598550cf3c5e92fac20620b5f71d9090db1d2a23d203d6cc7e48d168e0",
        "summary.md": "169fc01470d844464e78ebb4861f1ec1b771506c3d65d53cf384f0ec2efde037"}),
    "f01ca3e681f7": ("descriptive", "all", {
        "report.json": "cde2948ac86d6f8adb3cb215eb3f37f29bd7f150c976265ee4c0b0817ac24c6a",
        "matrix.csv": "e90258698e3c7f8e5abec26baf568eb514375af76306e3cf7e474f86a58f8a46",
        "matrix_long.csv": "635962ef06c06aca68fae631030a75fff9c00bff71cb3b43228a22ade573cbd8",
        "summary.md": "77c7a40834743f72e684b23a3d3a85aefbf186cb079a35d56ddbc835a41fda6f"}),
}


@pytest.mark.parametrize("run_id", ORACLE_REPORTS)
def test_eval_writes_the_pinned_report_of_each_fixture_oracle_run(tmp_path, fixture_menu_path,
                                                                  fixture_dataset_path, run_id):
    condition, record_filter, digests = ORACLE_REPORTS[run_id]
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path,
                          condition=condition, filter=record_filter)) == 0
    results_file = tmp_path / f"run-{run_id}" / "results.jsonl"
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path)]) == 0
    report_dir = results_file.parent / f"eval-{run_id}"
    assert {file.name: hashlib.sha256(file.read_bytes()).hexdigest() for file in report_dir.iterdir()} == digests


def test_eval_without_menu_exit_2_and_writes_nothing(tmp_path, fixture_menu_path, fixture_dataset_path,
                                                     capsys):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    before = set(tmp_path.rglob("*"))
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        run(["eval", str(run_dir / "results.jsonl")])
    assert excinfo.value.code == 2
    assert "the following arguments are required: --menu" in capsys.readouterr().err
    assert set(tmp_path.rglob("*")) == before


def test_eval_scores_an_earlier_format_row_over_the_menus_classes(tmp_path, fixture_menu_path,
                                                                   fixture_dataset_path, capsys):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    results_file = run_dir / "results.jsonl"
    # Rows of an earlier format: a row claiming that 9-9-9 is a terminal path
    # does not make it a class, and rules listed beside a clean reply are ignored.
    rows = [{**json.loads(line), "known_path": True, "normalization_applied": []}
            for line in results_file.read_text(encoding="utf-8").splitlines()]
    rows[3].update(raw_response="9-9-9", predicted="9-9-9", normalization_applied=["bogus", "trim"])
    results_file.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    vouch(run_dir)
    capsys.readouterr()
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path)]) == 0
    assert "accuracy 99.57% over 230 results" in capsys.readouterr().out
    report = json.loads((next(run_dir.glob("eval-*")) / "report.json").read_text(encoding="utf-8"))
    matrix = report["matrix"]
    assert matrix["true_labels"] == [tp.path for tp in flatten(load_menu(fixture_menu_path))]
    assert len(matrix["true_labels"]) == 23 and matrix["predicted_labels"][-2:] == ["INVALID", "UNKNOWN_PATH"]
    unknown = {label: row[-1] for label, row in zip(matrix["true_labels"], matrix["counts"]) if row[-1]}
    assert unknown == {rows[3]["ground_truth"]: 1}


def test_eval_refuses_an_intent_with_two_rows(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    results_file = run_dir / "results.jsonl"
    lines = results_file.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[5] = lines[4]  # as many rows as the run wrote, one intent twice
    results_file.write_text("".join(lines), encoding="utf-8")
    assert_unvouched(results_file, fixture_menu_path, capsys)


@pytest.mark.parametrize("menu, code, error", [
    (None, 2, "error: no such menu file: "),
    ('{"name": "Broken", "root": []}', 1, "error: invalid menu: "),
], ids=["missing", "invalid"])
def test_eval_menu_that_cannot_be_used_writes_no_report(tmp_path, fixture_menu_path, fixture_dataset_path,
                                                        capsys, menu, code, error):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    menu_file = tmp_path / "menu.json"
    if menu is not None:
        menu_file.write_text(menu, encoding="utf-8")
    capsys.readouterr()
    assert run(["eval", str(run_dir / "results.jsonl"), "--menu", str(menu_file)]) == code
    err = capsys.readouterr().err
    assert err.startswith(error) and err.count("\n") == 1, err
    assert not list(run_dir.glob("eval-*"))


def test_route_rows_hold_the_answer_alone(tmp_path, fixture_menu_path, fixture_dataset_path):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    rows = [json.loads(line) for line in (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 230
    assert {tuple(row) for row in rows} == {("intent_id", "raw_response", "predicted", "ground_truth", "latency")}


def test_eval_refuses_rows_of_two_runs(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    runs = {}
    for condition, provider in [("flattened", "keyword"), ("descriptive", "oracle")]:
        out = tmp_path / provider
        assert run(route_args(fixture_menu_path, fixture_dataset_path, out, condition=condition,
                              filter="base_only") + ["--provider", provider]) == 0
        runs[provider] = next(out.glob("run-*"))
    lines = {provider: (run_dir / "results.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
             for provider, run_dir in runs.items()}
    mixed = tmp_path / "mixed"
    mixed.mkdir()
    (mixed / "results.jsonl").write_text("".join(lines["keyword"][:5] + lines["oracle"][:5]),
                                         encoding="utf-8")
    (mixed / "manifest.json").write_bytes((runs["keyword"] / "manifest.json").read_bytes())
    assert_unvouched(mixed / "results.jsonl", fixture_menu_path, capsys)
    # One run's rows beside another run's manifest, which names another model.
    keyword_results = runs["keyword"] / "results.jsonl"
    edit_manifest(runs["keyword"], model_name="oracle-mock")
    assert run(["eval", str(keyword_results), "--menu", str(fixture_menu_path)]) == 1
    assert capsys.readouterr().err.endswith("is not the hash of the fields that name its run\n")
    assert not list(tmp_path.rglob("eval-*"))


def oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path):
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path,
                          condition="flattened", filter="base_only")) == 0
    return next(tmp_path.glob("run-*"))


def edit_manifest(run_dir, **fields):
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    (run_dir / "manifest.json").write_text(json.dumps({**manifest, **fields}), encoding="utf-8")


def vouch(run_dir):
    """Vouch for the run's results file as it now is, as README's migration of an earlier run does."""
    edit_manifest(run_dir, results_sha256=hashlib.sha256((run_dir / "results.jsonl").read_bytes()).hexdigest())


def assert_unvouched(results_file, menu, capsys, *flags):
    """``eval`` refuses ``results_file`` for bytes its manifest does not vouch for, and writes no report."""
    vouched = json.loads((results_file.parent / "manifest.json").read_text(encoding="utf-8"))["results_sha256"]
    capsys.readouterr()
    assert run(["eval", str(results_file), "--menu", str(menu), *flags]) == 1
    digest = hashlib.sha256(results_file.read_bytes()).hexdigest()
    assert capsys.readouterr().err == (f"error: {results_file} has sha256 {digest}, "
                                       f"but the run's results_sha256 is {vouched}\n")
    assert not list(results_file.parent.glob("eval-*"))


def rewrite_row(results_file, index, **fields):
    rows = [json.loads(line) for line in results_file.read_text(encoding="utf-8").splitlines()]
    rows[index].update(fields)
    results_file.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


@pytest.mark.parametrize("manifest", [
    "[]", '"run"', "3", "{not json",
    '{"run_id": "x/../../escaped"}',  # a run_id is a directory name
    '{"run_id": 7}',
    '{"condition": ["x"]}',
])
def test_eval_ignores_a_manifest_that_is_no_object(tmp_path, fixture_menu_path,
                                                   fixture_dataset_path, capsys, manifest):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    (run_dir / "manifest.json").write_text(manifest, encoding="utf-8")
    before = set(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot load manifest {run_dir / 'manifest.json'}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert set(tmp_path.rglob("*")) == before


# A route-written manifest edited in one field, and the error eval makes of it.
NOT_HASHED = "cannot load manifest {file}: run_id 'c3ca07a72a4f' is not the hash of the fields that name its run"
MANIFEST_EDITS = {
    # a value no route run writes, refused by its own check even under a run_id hashed to match it
    "run_id": ({"run_id": "C3CA07A72A4F"}, "cannot load manifest {file}: run_id 'C3CA07A72A4F' is not the hash"),
    "no condition": ({"condition": "foo"}, "cannot load manifest {file}: not a route run's manifest (bad condition)"),
    "no model name": ({"model_name": ["oracle-mock"]}, "not a route run's manifest (bad model_name)"),
    "dataset_filter": ({"dataset_filter": "augmented"}, "not a route run's manifest (bad dataset_filter)"),
    "parse_mode": ({"parse_mode": None}, "not a route run's manifest (bad parse_mode)"),
    "no digest": ({"results_sha256": None}, "not a route run's manifest (bad results_sha256)"),
    "digest in capitals": ({"results_sha256": "A" * 64}, "not a route run's manifest (bad results_sha256)"),
    # another run than the one its run_id names, in each field the run_id hashes
    "menu_name": ({"menu_name": "Other"}, NOT_HASHED),
    "menu_hash": ({"menu_hash": "0" * 64}, NOT_HASHED),
    "dataset_hash": ({"dataset_hash": "0" * 64}, NOT_HASHED),
    "condition": ({"condition": "descriptive_menu"}, NOT_HASHED),
    "dataset_filter hashed": ({"dataset_filter": "all"}, NOT_HASHED),
    "model_name": ({"model_name": "keyword-mock"}, NOT_HASHED),
    "parse_mode hashed": ({"parse_mode": "lenient"}, NOT_HASHED),
    "temperature": ({"temperature": 0.0}, NOT_HASHED),
    # another results file than the run's
    "results_sha256": ({"results_sha256": "0" * 64}, "but the run's results_sha256 is " + "0" * 64),
}


@pytest.mark.parametrize("field", MANIFEST_EDITS)
def test_eval_refuses_a_manifest_edited_in_one_field(tmp_path, fixture_menu_path, fixture_dataset_path,
                                                     capsys, field):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    edit, error = MANIFEST_EDITS[field]
    manifest = {**json.loads((run_dir / "manifest.json").read_text(encoding="utf-8")), **edit}
    if "not a route run's manifest" in error:  # a run_id forged to match: the field's own check must refuse it
        manifest["run_id"] = router.run_id(manifest)
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    before = set(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err  # returned, no traceback
    assert error.format(file=run_dir / "manifest.json") in err, err
    assert set(tmp_path.rglob("*")) == before


def test_eval_refuses_the_rows_of_another_slice_than_the_manifest(tmp_path, fixture_menu_path,
                                                                   fixture_dataset_path, capsys):
    run_dirs = {}
    for slice_ in ("base_only", "all"):
        assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path / slice_, filter=slice_)) == 0
        run_dirs[slice_] = next((tmp_path / slice_).glob("run-*"))
    # The 920 rows of the augmented run beside the base-only run's manifest.
    (run_dirs["all"] / "manifest.json").write_bytes((run_dirs["base_only"] / "manifest.json").read_bytes())
    assert_unvouched(run_dirs["all"] / "results.jsonl", fixture_menu_path, capsys)
    assert not list(tmp_path.rglob("eval-*"))


# Edits of a route-written results file that leave each row well formed and each intent once or absent.
RESULTS_EDITS = {
    "two rows swapped": lambda lines: lines[:3] + [lines[4], lines[3]] + lines[5:],
    "a row duplicated": lambda lines: lines[:4] + [lines[3]] + lines[4:],
    "the last row cut off": lambda lines: lines[:-1],
}


@pytest.mark.parametrize("edit", RESULTS_EDITS.values(), ids=RESULTS_EDITS.keys())
def test_eval_refuses_rows_in_another_order_or_number_than_route_wrote(tmp_path, fixture_menu_path,
                                                                      fixture_dataset_path, capsys, edit):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    results_file = run_dir / "results.jsonl"
    results_file.write_text("".join(edit(results_file.read_text(encoding="utf-8").splitlines(keepends=True))),
                            encoding="utf-8")
    assert_unvouched(results_file, fixture_menu_path, capsys)


def test_eval_refuses_a_row_of_another_run_in_place_of_one_of_its_own(tmp_path, fixture_menu_path,
                                                                      fixture_dataset_path, capsys):
    run_dir = oracle_run_dir(tmp_path / "base", fixture_menu_path, fixture_dataset_path)
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path / "all", filter="all")) == 0
    all_results = next((tmp_path / "all").glob("run-*/results.jsonl"))
    augmented = next(line for line in all_results.read_text(encoding="utf-8").splitlines(keepends=True)
                     if ":v" in json.loads(line)["intent_id"])
    results_file = run_dir / "results.jsonl"
    lines = results_file.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[5] = augmented  # 230 rows, each intent once, each reply parsing to its prediction
    results_file.write_text("".join(lines), encoding="utf-8")
    assert_unvouched(results_file, fixture_menu_path, capsys)


def test_eval_refuses_labels_edited_to_the_predictions(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    assert run(route_args(fixture_menu_path, fixture_dataset_path, tmp_path, filter="base_only")
               + ["--provider", "keyword"]) == 0
    results_file = next(tmp_path.glob("run-*/results.jsonl"))
    rows = [json.loads(line) for line in results_file.read_text(encoding="utf-8").splitlines()]
    wrong = [row for row in rows if row["predicted"] not in (row["ground_truth"], "INVALID")]
    assert len(wrong) > 40
    for row in wrong[:40]:
        row["ground_truth"] = row["predicted"]
    results_file.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")
    assert_unvouched(results_file, fixture_menu_path, capsys, "--force")


def test_eval_scores_a_run_routed_before_manifests_held_a_digest_once_vouched(tmp_path, fixture_menu_path,
                                                                             fixture_dataset_path, capsys):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    del manifest["results_sha256"]
    (run_dir / "manifest.json").write_text(json.dumps({**manifest, "n_results": 230}), encoding="utf-8")
    capsys.readouterr()
    evaluate = ["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]
    assert run(evaluate) == 1
    assert capsys.readouterr().err.endswith("not a route run's manifest (bad results_sha256)\n")
    assert not list(run_dir.glob("eval-*"))
    vouch(run_dir)  # the migration README gives
    assert run(evaluate) == 0
    assert "accuracy 100.00% over 230 results" in capsys.readouterr().out


def test_eval_without_a_manifest_exit_2(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "results.jsonl").write_bytes((run_dir / "results.jsonl").read_bytes())
    capsys.readouterr()
    assert run(["eval", str(alone / "results.jsonl"), "--menu", str(fixture_menu_path)]) == 2
    assert capsys.readouterr().err == f"error: no such manifest file: {alone / 'manifest.json'}\n"
    assert list(alone.iterdir()) == [alone / "results.jsonl"]


def test_eval_refuses_a_prediction_its_reply_does_not_parse_to(tmp_path, fixture_menu_path,
                                                               fixture_dataset_path, capsys):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    results_file = run_dir / "results.jsonl"
    rewrite_row(results_file, 3, raw_response="I cannot tell, sorry")  # "predicted" and "correct" left
    rewrite_row(results_file, 5, raw_response="no idea")
    vouch(run_dir)
    intent_id = json.loads(results_file.read_text(encoding="utf-8").splitlines()[3])["intent_id"]
    capsys.readouterr()
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path)]) == 1
    err = capsys.readouterr().err
    assert f"intent {intent_id}'s reply does not parse to its prediction" in err and "strict" in err
    assert not list(run_dir.glob("eval-*"))


@settings(max_examples=100, deadline=None)
@given(reply=st.text(max_size=30) | st.from_regex(r"\A[ '`.]{0,2}[0-9](-[0-9]){0,3}[ '`.]{0,2}\Z"),
       lenient=st.booleans(), other=st.sampled_from(["1-1", "2-1", "INVALID"]))
def test_eval_regrades_any_reply_route_one_wrote(tmp_path_factory, fixture_menu_path, reply, lenient, other):
    intent = make_record("1-1", "i want my balance")  # the ground truth is 1-1
    row = router.route_one(intent, RoutingCondition.FLATTENED_PATHS, "1-1: Balance",
                           ScriptedProvider([reply]), lenient)
    run_dir = tmp_path_factory.mktemp("regrade")
    tree = load_menu(fixture_menu_path)
    identity = {"menu_name": tree.name, "menu_hash": router.menu_hash(tree), "dataset_hash": "0" * 64,
                "condition": "flattened_paths", "dataset_filter": "base_only", "model_name": "scripted-mock",
                "parse_mode": "lenient" if lenient else "strict"}
    manifest = {**identity, "run_id": router.run_id(identity),
                "results_sha256": router.save_results([row], run_dir / "results.jsonl")}
    (run_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    evaluate = ["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path), "--out"]
    assert run(evaluate + [str(run_dir / "ok")]) == 0
    if other != row.predicted:
        edited = row._replace(predicted=other)
        router.save_results([edited], run_dir / "results.jsonl")
        vouch(run_dir)
        assert run(evaluate + [str(run_dir / "edited")]) == 1
        assert not (run_dir / "edited").exists()


@pytest.mark.parametrize("ground_truth", ["abc", "1--2", 12, None])
def test_eval_ground_truth_that_is_no_path_exit_1(tmp_path, fixture_menu_path,
                                                   fixture_dataset_path, capsys, ground_truth):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    results_file = run_dir / "results.jsonl"
    rewrite_row(results_file, 3, ground_truth=ground_truth)
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path)]) == 1
    assert "cannot load results" in capsys.readouterr().err


def test_eval_prediction_edited_against_its_flag_exit_1(tmp_path, fixture_menu_path,
                                                        fixture_dataset_path, capsys):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    results_file = run_dir / "results.jsonl"
    row = json.loads(results_file.read_text(encoding="utf-8").splitlines()[3])
    wrong = "1-2" if row["ground_truth"] == "1-1" else "1-1"
    rewrite_row(results_file, 3, predicted=wrong, correct=True)  # a stale flag of a previous-format row
    vouch(run_dir)
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path)]) == 1
    err = capsys.readouterr().err
    assert f"intent {row['intent_id']}'s reply does not parse to its prediction {wrong}" in err


def test_eval_scores_a_previous_format_results_file_from_the_evidence(tmp_path, fixture_menu_path,
                                                                      fixture_dataset_path, capsys):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    results_file = run_dir / "results.jsonl"
    truth = json.loads(results_file.read_text(encoding="utf-8").splitlines()[3])["ground_truth"]
    wrong = "1-2" if truth == "1-1" else "1-1"
    rewrite_row(results_file, 3, raw_response=wrong, predicted=wrong)
    vouch(run_dir)
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path), "--out", str(tmp_path / "now")]) == 0
    # The same answers as rows were written before they held the answer alone:
    # each names the run's condition and model and stores a flag, true even on the wrong answer.
    rows = [json.loads(line) for line in results_file.read_text(encoding="utf-8").splitlines()]
    results_file.write_text("".join(json.dumps({
        "intent_id": row["intent_id"], "condition": "flattened_paths", **row, "correct": True,
        "model_name": "oracle-mock"}) + "\n" for row in rows), encoding="utf-8")
    vouch(run_dir)
    capsys.readouterr()
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path),
                "--out", str(tmp_path / "previous")]) == 0
    assert "accuracy 99.57% over 230 results" in capsys.readouterr().out
    for name in ("report.json", "matrix.csv", "matrix_long.csv", "summary.md"):
        report = f"eval-{run_dir.name.removeprefix('run-')}/{name}"
        assert (tmp_path / "previous" / report).read_bytes() == (tmp_path / "now" / report).read_bytes()


def test_eval_refuses_a_menu_of_another_run(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    other = tmp_path / "other.menu.json"
    other.write_text(json.dumps({**json.loads(fixture_menu_path.read_text(encoding="utf-8")), "name": "Other"}),
                     encoding="utf-8")  # the same paths, so the same classes, under another name
    capsys.readouterr()
    assert run(["eval", str(run_dir / "results.jsonl"), "--menu", str(other)]) == 1
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    assert capsys.readouterr().err == (f"error: menu {other} has hash {router.menu_hash(load_menu(other))}, "
                                       f"but the run's menu_hash is {manifest['menu_hash']}\n")
    assert not list(run_dir.glob("eval-*"))


NOT_A_RESULTS_ROW = {
    "number": lambda row: 3,
    "string": lambda row: "row",
    "null": lambda row: None,
    "array": lambda row: [row],
    "latency-a-string": lambda row: {**row, "latency": "fast"},
    "latency-negative": lambda row: {**row, "latency": -0.5},
    "latency-not-finite": lambda row: {**row, "latency": float("inf")},
    "latency-a-bool": lambda row: {**row, "latency": True},
    "intent-id-not-a-string": lambda row: {**row, "intent_id": 7},
    "raw-response-not-a-string": lambda row: {**row, "raw_response": None},
}


@pytest.mark.parametrize("edit", NOT_A_RESULTS_ROW.values(), ids=NOT_A_RESULTS_ROW.keys())
def test_eval_results_line_that_is_no_results_row_exit_1(tmp_path, fixture_menu_path,
                                                         fixture_dataset_path, capsys, edit):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    results_file = run_dir / "results.jsonl"
    rows = [json.loads(line) for line in results_file.read_text(encoding="utf-8").splitlines()]
    rows[3] = edit(rows[3])
    results_file.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert run(["eval", str(results_file), "--menu", str(fixture_menu_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load results {results_file}: {results_file}:4: bad result")


def test_eval_empty_results_exit_1(tmp_path, fixture_menu_path, capsys):
    empty = tmp_path / "results.jsonl"
    empty.write_text("", encoding="utf-8")
    assert run(["eval", str(empty), "--menu", str(fixture_menu_path)]) == 1
    assert "empty" in capsys.readouterr().err


def test_eval_missing_file_exit_2(tmp_path, fixture_menu_path):
    assert run(["eval", str(tmp_path / "none.jsonl"), "--menu", str(fixture_menu_path)]) == 2


# --- output locations ------------------------------------------------------------------

# Each command's output location that cannot be written: under a file, or a
# directory where a file goes. Each is given a provider at a live endpoint.
UNWRITABLE_OUTPUTS = {
    "route --out a file": lambda menu, data, file, url: [
        "route", "--menu", str(menu), "--dataset", str(data), "--provider", "http", "--endpoint", url,
        "--out", str(file)],
    "gen-intents --dataset-out under a file": lambda menu, data, file, url: [
        "gen-intents", str(menu), "--provider", "http", "--endpoint", url,
        "--dataset-out", str(file / "intents.jsonl")],
    "gen-intents --dataset-out a directory": lambda menu, data, file, url: [
        "gen-intents", str(menu), "--provider", "http", "--endpoint", url, "--dataset-out", str(file.parent)],
}


@pytest.mark.parametrize("kind", UNWRITABLE_OUTPUTS)
def test_output_that_cannot_be_written_exit_2_before_any_call(tmp_path, fixture_menu_path,
                                                              fixture_dataset_path, chat_server,
                                                              monkeypatch, capsys, kind):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    server = chat_server()
    file = tmp_path / "taken"
    file.write_text("", encoding="utf-8")
    assert run(UNWRITABLE_OUTPUTS[kind](fixture_menu_path, fixture_dataset_path, file, server.url)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    assert (server.accepted, server.answered) == (0, 0)
    assert sorted(tmp_path.iterdir()) == [file]


def test_eval_out_a_file_exit_2(tmp_path, fixture_menu_path, fixture_dataset_path, capsys):
    run_dir = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path)
    file = tmp_path / "taken"
    file.write_text("", encoding="utf-8")
    capsys.readouterr()
    assert run(["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path), "--out", str(file)]) == 2
    report_dir = file / run_dir.name.replace("run-", "eval-")
    assert capsys.readouterr().err.startswith(f"error: cannot write {report_dir}: ")
    assert file.read_text(encoding="utf-8") == ""


# --- demo ------------------------------------------------------------------------------

def feed_stdin(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_demo_keyword_prints_path_and_breadcrumb(fixture_menu_path, monkeypatch, capsys):
    feed_stdin(monkeypatch, "i want to check my balance\n")
    code = run(["demo", "--menu", str(fixture_menu_path), "--provider", "keyword",
                "--condition", "flattened"])
    assert code == 0
    out = capsys.readouterr().out
    assert out == "1-1  Billing and Account Management -> Check Balance\n"


def test_demo_zero_overlap_falls_back_to_first_path(fixture_menu_path, monkeypatch, capsys):
    # No word of the query matches any breadcrumb, so the keyword mock ties
    # every path at zero and document order picks 1-1.
    feed_stdin(monkeypatch, "my bill looks wrong\n")
    run(["demo", "--menu", str(fixture_menu_path), "--provider", "keyword"])
    assert capsys.readouterr().out == "1-1  Billing and Account Management -> Check Balance\n"


def test_demo_empty_line_costs_no_provider_call(fixture_menu_path, tmp_path,
                                                monkeypatch, capsys):
    script = write_script(tmp_path, ["2-1-9"])
    feed_stdin(monkeypatch, "\n\nrouter is broken\n")
    code = run(["demo", "--menu", str(fixture_menu_path), "--provider", "scripted",
                "--script", str(script)])
    assert code == 0
    out = capsys.readouterr().out
    # One reply consumed by the only non-empty line; empty lines spent none.
    assert out.count("\n") == 1
    assert out.startswith("2-1-9  ")


def test_demo_eof_exits_zero(fixture_menu_path, monkeypatch, capsys):
    feed_stdin(monkeypatch, "")
    assert run(["demo", "--menu", str(fixture_menu_path), "--provider", "keyword"]) == 0
    assert capsys.readouterr().out == ""


def test_demo_provider_error_continues(fixture_menu_path, tmp_path, monkeypatch, capsys):
    script = write_script(tmp_path, ["1-4"])
    feed_stdin(monkeypatch, "first query\nsecond query\nthird query\n")
    code = run(["demo", "--menu", str(fixture_menu_path), "--provider", "scripted",
                "--script", str(script)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("1-4  ")
    assert captured.err.count("error:") == 2  # exhausted script, loop kept going


def test_demo_retries_a_503_and_prints_the_path(fixture_menu_path, chat_server, monkeypatch,
                                                capsys):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    server = chat_server(reply="2-1-9", statuses=[503], retry_after="0")
    feed_stdin(monkeypatch, "router is broken\n")
    code = run(["demo", "--menu", str(fixture_menu_path), "--provider", "http",
                "--endpoint", server.url])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("2-1-9  ") and captured.out.count("\n") == 1
    assert captured.err == ""
    assert server.answered == 2  # the 503, then its retry
    assert server.wait_all_closed()  # demo closed the connection when stdin ended


def echo_endpoint_or_original(prompt):
    """One complaint per path, its breadcrumb; a paraphrase repeats its
    original, which is asked again once and then kept."""
    marker = "Endpoint: " if "Endpoint: " in prompt else "Original message: "
    return prompt.split(marker, 1)[1].split("\n", 1)[0]


def test_gen_intents_one_text_for_every_path_exit_1(fixture_menu_path, chat_server, monkeypatch,
                                                    tmp_path, capsys):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    server = chat_server()  # every reply is "1-1", whichever path it is for
    code = run(["gen-intents", str(fixture_menu_path), "--per-node", "1", "--variants", "1",
                "--max-in-flight", "1", "--provider", "http", "--endpoint", server.url,
                "--dataset-out", str(tmp_path / "intents.jsonl")])
    assert code == 1
    err = capsys.readouterr().err
    assert "violation: record 1-2:b00: same text as record 1-1:b00, which is labelled 1-1" in err
    assert err.endswith("error: generated dataset failed validation\n")
    assert not (tmp_path / "intents.jsonl").exists()
    assert server.wait_all_closed()


def test_gen_intents_stages_share_one_connection(fixture_menu_path, chat_server, monkeypatch,
                                                tmp_path, capsys):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    server = chat_server(reply=echo_endpoint_or_original)
    code = run(["gen-intents", str(fixture_menu_path), "--per-node", "1", "--variants", "1",
                "--max-in-flight", "1", "--provider", "http", "--endpoint", server.url,
                "--dataset-out", str(tmp_path / "intents.jsonl")])
    assert code == 0 and "wrote 46 records" in capsys.readouterr().out
    assert server.answered == 3 * 23  # base, paraphrase, and its retry for each path
    assert server.accepted == 1  # the paraphrase stage reused the base stage's connection
    assert server.wait_all_closed()  # closed once, when the command ended


def test_demo_lines_share_one_connection(fixture_menu_path, chat_server, monkeypatch, capsys):
    monkeypatch.delenv(DEFAULT_API_KEY_ENV, raising=False)
    server = chat_server(reply="2-1-9")
    feed_stdin(monkeypatch, "router is broken\nstill broken\n")
    code = run(["demo", "--menu", str(fixture_menu_path), "--provider", "http",
                "--endpoint", server.url])
    assert code == 0
    assert capsys.readouterr().out.count("2-1-9  ") == 2
    assert server.answered == 2
    assert server.accepted == 1  # the second line reused the first line's connection
    assert server.wait_all_closed()


def test_demo_lines_share_one_pace(fixture_menu_path, monkeypatch, capsys):
    paced = []
    run_calls = router.run_calls
    monkeypatch.setattr("ivroute.cli.run_calls", lambda *args, pacing, **kwargs: (
        paced.append(pacing) or run_calls(*args, pacing=pacing, **kwargs)))
    feed_stdin(monkeypatch, "check my balance\npay my bill\n")
    assert run(["demo", "--menu", str(fixture_menu_path), "--provider", "keyword"]) == 0
    assert capsys.readouterr().out.count("\n") == 2
    assert len(paced) == 2 and paced[0] is paced[1]  # the second line keeps the first line's pace


def test_demo_invalid_reply_reported(fixture_menu_path, tmp_path, monkeypatch, capsys):
    script = write_script(tmp_path, ["press one please", "5-5-5"])
    feed_stdin(monkeypatch, "a\nb\n")
    run(["demo", "--menu", str(fixture_menu_path), "--provider", "scripted",
         "--script", str(script)])
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("INVALID  ")
    assert out[1] == "5-5-5  (not a terminal path of this menu)"


def test_demo_malformed_dataset_line_exit_1(tmp_path, fixture_menu_path, monkeypatch, capsys):
    for dataset in malformed_datasets(tmp_path):
        feed_stdin(monkeypatch, "i want to check my balance\n")
        code = run(["demo", "--menu", str(fixture_menu_path), "--provider", "oracle",
                    "--dataset", str(dataset)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot load dataset {dataset}: ")
        assert f"{dataset.name}:2: bad record" in captured.err
        assert captured.out == ""


def test_demo_dataset_is_validated(tmp_path, fixture_menu_path, fixture_dataset_path,
                                   monkeypatch, capsys):
    rows = {json.loads(line)["id"]: json.loads(line)
            for line in fixture_dataset_path.read_text(encoding="utf-8").splitlines()}
    text = rows["1-1:b00"]["text"]
    dataset = edited_fixture(tmp_path, fixture_dataset_path,
                             lambda row: {**row, "text": text} if row["id"] == "1-2:b00" else row)
    feed_stdin(monkeypatch, text + "\n")
    code = run(["demo", "--menu", str(fixture_menu_path), "--provider", "oracle",
                "--dataset", str(dataset)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        "error: dataset is not valid: record 1-2:b00: same text as record 1-1:b00"
    )
    assert captured.out == ""


# --- check-roles -------------------------------------------------------------------------

def test_check_roles_distinct_models(capsys):
    code = run(["check-roles", "--menugen-model", "gpt-3.5-turbo",
                "--datagen-model", "gpt-4o-mini", "--routing-model", "gpt-4.1-mini"])
    assert code == 0
    assert "no shared models" in capsys.readouterr().out


def test_check_roles_warns_without_strict(capsys):
    code = run(["check-roles", "--menugen-model", "m", "--datagen-model", "m",
                "--routing-model", "m"])
    assert code == 0
    assert capsys.readouterr().out.count("warning:") == 2


def test_check_roles_strict_exit_1(capsys):
    code = run(["check-roles", "--menugen-model", "m", "--datagen-model", "m",
                "--strict-roles"])
    assert code == 1


def test_check_roles_reads_config_file(tmp_path, capsys):
    config = {
        "providers": {
            "menugen": {"model_name": "shared"},
            "datagen": {"model_name": "shared"},
            "routing": {"model_name": "distinct"},
        }
    }
    file = tmp_path / "config.json"
    file.write_text(json.dumps(config), encoding="utf-8")
    assert run(["check-roles", "--config", str(file), "--strict-roles"]) == 1
    assert "warning:" in capsys.readouterr().out


def test_config_flag_overrides_file(tmp_path, capsys):
    config = {
        "providers": {
            "menugen": {"model_name": "shared"},
            "datagen": {"model_name": "shared"},
        }
    }
    file = tmp_path / "config.json"
    file.write_text(json.dumps(config), encoding="utf-8")
    # The CLI flag renames datagen's model, clearing the conflict.
    code = run(["check-roles", "--config", str(file), "--datagen-model", "unique",
                "--strict-roles"])
    assert code == 0


# --- pipeline composition -----------------------------------------------------------------

def test_pipeline_composes_end_to_end(tmp_path, fixture_menu_path, capsys):
    """validate-menu -> flatten -> gen-intents -> route -> eval, exit 0 each."""
    assert run(["validate-menu", str(fixture_menu_path)]) == 0
    assert run(["flatten", str(fixture_menu_path)]) == 0

    paths = [tp.path.canonical() for tp in flatten(load_menu(fixture_menu_path))]
    replies = [numbered([f"help with {p}"]) for p in paths]
    script = write_script(tmp_path, replies)
    dataset_file = tmp_path / "mini.jsonl"
    assert run(["gen-intents", str(fixture_menu_path), "--per-node", "1", "--variants", "0",
                "--provider", "scripted", "--script", str(script), "--max-in-flight", "1",
                "--dataset-out", str(dataset_file)]) == 0

    assert run(["route", "--menu", str(fixture_menu_path), "--dataset", str(dataset_file),
                "--provider", "oracle", "--condition", "descriptive", "--filter", "all",
                "--out", str(tmp_path)]) == 0
    run_dir = next(tmp_path.glob("run-*"))
    assert run(["eval", str(run_dir / "results.jsonl"), "--menu", str(fixture_menu_path)]) == 0
    capsys.readouterr()  # drain


# --- config files ---------------------------------------------------------------------------

UNREAD_CONFIGS = {
    "top-level key": {"seed": 1, "bogus": 1},
    "stage key": {"providers": {"routing": {"kind": "oracle", "bogus": 1}}},
    "menugen provider key": {"providers": {"menugen": {"model_name": "m", "temperature": 0}}},
    "misspelt stage key": {"providers": {"routing": {"max_in_fligth": 8}}},
    "stage": {"providers": {"scoring": {}}},
    "providers no object": {"providers": ["routing"]},
    "stage no object": {"providers": {"routing": "oracle"}},
}


def config_commands(menu, dataset, tmp_path):
    script = write_script(tmp_path, [])
    return {
        "route": route_args(menu, dataset, tmp_path),
        "demo": ["demo", "--menu", str(menu), "--provider", "keyword"],
        "gen-intents": ["gen-intents", str(menu), "--provider", "scripted", "--script", str(script),
                        "--dataset-out", str(tmp_path / "intents.jsonl")],
        "check-roles": ["check-roles"],
    }


@pytest.mark.parametrize("config", UNREAD_CONFIGS.values(), ids=UNREAD_CONFIGS.keys())
def test_config_key_no_command_reads_exit_2(tmp_path, fixture_menu_path, fixture_dataset_path,
                                            monkeypatch, capsys, config):
    file = tmp_path / "config.json"
    file.write_text(json.dumps(config), encoding="utf-8")
    feed_stdin(monkeypatch, "i want to check my balance\n")
    for name, argv in config_commands(fixture_menu_path, fixture_dataset_path, tmp_path).items():
        assert run(argv + ["--config", str(file)]) == 2, name
        captured = capsys.readouterr()
        assert captured.err.startswith("error: bad config: "), name
        assert captured.out == "", name
    assert not list(tmp_path.glob("run-*")) and not (tmp_path / "intents.jsonl").exists()


def test_config_kind_that_names_no_provider_exit_2(tmp_path, fixture_menu_path, fixture_dataset_path,
                                                  monkeypatch, capsys):
    file = tmp_path / "config.json"
    file.write_text(json.dumps({"providers": {"routing": {"kind": "bogus"}}}), encoding="utf-8")
    for name, argv in config_commands(fixture_menu_path, fixture_dataset_path, tmp_path).items():
        # --provider overrides the kind, but does not hide that it names no provider.
        for flags in ([], ["--provider", "oracle"]) if name != "check-roles" else ([],):
            feed_stdin(monkeypatch, "i want to check my balance\n")
            assert run(argv + flags + ["--config", str(file)]) == 2, (name, flags)
            captured = capsys.readouterr()
            assert captured.err.startswith("error: bad provider settings: kind must be one of"), name
            assert captured.out == "", name
    assert not list(tmp_path.glob("run-*")) and not (tmp_path / "intents.jsonl").exists()


# ProviderConfig field: its flag, its config-file key, its default (for the
# keyword provider), and values to draw for it.
PROVIDER_SETTINGS = {
    "endpoint_url": ("--endpoint", "endpoint_url", "", st.sampled_from(["http://a.test/v1", "http://b.test/v1"])),
    "model_name": ("--model", "model_name", "keyword-mock", st.sampled_from(["model-a", "model-b"])),
    "api_key_env": ("--api-key-env", "api_key_env", DEFAULT_API_KEY_ENV, st.sampled_from(["KEY_A", "KEY_B"])),
    "temperature": ("--temperature", "temperature", None, st.floats(0, 2)),
    "max_retries": ("--max-retries", "max_retries", 3, st.integers(0, 5)),
    "request_timeout": ("--timeout", "request_timeout", 60.0, st.floats(0.5, 600)),
    "max_in_flight": ("--max-in-flight", "max_in_flight", 4, st.integers(1, 64)),
    "requests_per_second": ("--rps", "requests_per_second", None, st.floats(0.5, 1000)),
}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_provider_settings_layer_flag_then_file_then_default(tmp_path_factory, fixture_menu_path,
                                                             paths, data):
    argv = ["demo", "--menu", str(fixture_menu_path), "--provider", "keyword"]
    stage, expected = {}, {}
    for field, (flag, key, default, values) in PROVIDER_SETTINGS.items():
        from_flag = data.draw(st.none() | values, label=flag)
        from_file = data.draw(st.none() | values, label=key)
        if from_flag is not None:
            argv += [flag, str(from_flag)]
        if from_file is not None or data.draw(st.booleans(), label=f"{key} null"):
            stage[key] = from_file  # a null in the file leaves the default
        expected[field] = from_flag if from_flag is not None else from_file if from_file is not None else default
    file = tmp_path_factory.getbasetemp() / "layering.json"  # rewritten by every example
    file.write_text(json.dumps({"providers": {"routing": stage}}), encoding="utf-8")
    args = build_parser().parse_args(argv + ["--config", str(file)])
    provider = _make_provider(args, _load_config_file(args.config), "routing", paths=paths)
    assert provider.config._asdict() == expected


# --- input files -----------------------------------------------------------------------------

def deep_menu(levels):
    return ('{"name": "Deep", "root": ' + '{"label": "m", "kind": "menu", "children": [' * levels
            + "]}" * levels + "}")


# Each input file of the CLI, the command that reads it, and the exit code
# and error line when the file is no UTF-8 text or nests too deep to parse:
# a menu, dataset, results or manifest file is refused (1), and a config or
# script file is a usage error (2). A JSONL
# line nested too deep is refused by its line number.
FRONT_DOOR = {
    "menu": (lambda menu, data, file: ["validate-menu", str(file)], 1, "error: invalid menu: 'utf-8'"),
    "deep menu": (lambda menu, data, file: ["validate-menu", str(file)], 1,
                  "error: invalid menu: maximum recursion depth exceeded"),
    "dataset": (lambda menu, data, file: route_args(menu, file, file.parent), 1,
                "error: cannot load dataset"),
    "results": (lambda menu, data, file: ["eval", str(file), "--menu", str(menu)], 1, "error: cannot load results"),
    "deep dataset": (lambda menu, data, file: route_args(menu, file, file.parent), 1,
                     "error: cannot load dataset"),
    "deep results": (lambda menu, data, file: ["eval", str(file), "--menu", str(menu)], 1,
                     "error: cannot load results"),
    "config": (lambda menu, data, file: route_args(menu, data, file.parent) + ["--config", str(file)], 2,
               "error: cannot read config file"),
    "script": (lambda menu, data, file: ["gen-intents", str(menu), "--provider", "scripted", "--script",
                                         str(file), "--dataset-out", str(file.parent / "intents.jsonl")], 2,
               "error: cannot read script file"),
    "manifest": (lambda menu, data, file: ["eval", str(file.parent / "results.jsonl"), "--menu", str(menu)], 1,
                 "error: cannot load manifest"),
}


GOOD_LINE = {
    "deep dataset": data_text("agentnet.intents.jsonl").splitlines()[0],
    "deep results": json.dumps({
        "intent_id": "1-1:b00", "raw_response": "1-1", "predicted": "1-1", "ground_truth": "1-1",
        "latency": 0.0}),
}


@pytest.mark.parametrize("kind", FRONT_DOOR)
def test_input_file_no_utf8_or_too_deep_ends_with_its_exit_code(tmp_path, fixture_menu_path,
                                                                 fixture_dataset_path, capsys, kind):
    argv_for, code, error = FRONT_DOOR[kind]
    if kind == "manifest":
        file = oracle_run_dir(tmp_path, fixture_menu_path, fixture_dataset_path) / "manifest.json"
        capsys.readouterr()
    else:
        file = tmp_path / kind.replace(" ", "-")
    if kind == "deep menu":
        file.write_text(deep_menu(600), encoding="utf-8")
    elif kind.startswith("deep "):  # a good line, then one nested too deep
        file.write_text(GOOD_LINE[kind] + "\n" + "[" * 5000 + "\n", encoding="utf-8")
    else:
        file.write_bytes(b"\xff\xfe{}\n")
    assert run(argv_for(fixture_menu_path, fixture_dataset_path, file)) == code  # nothing raised
    err = capsys.readouterr().err
    if error is None:
        assert err == ""
    else:
        assert err.startswith(error) and err.count("\n") == 1, err
    assert kind not in GOOD_LINE or f"{file}:2: bad " in err
    assert kind == "manifest" or not list(tmp_path.glob("run-*"))


@settings(max_examples=100, deadline=None)
@given(content=st.binary())
def test_any_bytes_as_menu_or_config_end_with_an_exit_code(tmp_path_factory, fixture_menu_path,
                                                           fixture_dataset_path, content):
    file = tmp_path_factory.getbasetemp() / "any-bytes"  # rewritten by every example
    file.write_bytes(content)
    assert run(["validate-menu", str(file)]) in (0, 1, 2)
    argv = route_args(fixture_menu_path, fixture_dataset_path, file.parent / "any-bytes-runs",
                      filter="base_only")
    assert run(argv + ["--config", str(file)]) in (0, 1, 2)
