"""The mutation gate: each rule that a reported accuracy rests on has tests
that fail when the rule is broken.

A mutant is a copy of src/ with one rule broken on purpose: an exact snippet
of one file under src/ivroute/, which must occur there once, replaced. For
each mutant the gate copies src/ to a temporary directory, applies the edit
there and runs the tier-1 tests the mutant names as its killers, with
PYTHONPATH set to the copy alone and the working directory inside the
temporary directory, so the checkout is only read. The mutant is killed when
pytest exits 1: a killer failed.

The gate fails when a snippet occurs other than once, when the killers do
not all pass on an unmutated copy, when a mutant survives (every killer
passed), on any other exit code of pytest (4: a killer id that is not
found) and when a run outlasts its timeout. A change that moves a snippet
updates its mutant; it does not drop it. Run it with no options:

    python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
KILLED = 1  # pytest's exit code when a test failed
TIMEOUT_S = 120  # per pytest run


class Mutant(NamedTuple):
    name: str
    file: str  # under src/ivroute/
    snippet: str
    replacement: str
    killers: tuple[str, ...]  # tier-1 test ids, relative to tests/


MALFORMED = "test_httpclient.py::test_malformed_response_is_a_transport_error_that_closes_the_connection"
MENU_NODE = "test_cli.py::test_validate_menu_refusal_names_the_node_exit_1"
MANIFEST_FIELD = "test_cli.py::test_eval_refuses_a_manifest_edited_in_one_field"
SCORER_ORACLE = "test_acceptance.py::test_criterion_05_metric_oracle_equivalence"

MUTANTS = [
    # --- the Schedule and its Pacing --------------------------------------------------
    Mutant("window-counts-no-waiting-retry", "router.py",
           "self.submitted + (len(self.waiting) if self.failing else 0) < self.window",
           "self.submitted < self.window",
           ("test_router.py::test_route_all_dead_endpoint_whose_retries_wait_sees_a_bounded_window",)),
    Mutant("window-counts-waiting-retries-while-not-failing", "router.py",
           "(len(self.waiting) if self.failing else 0)", "len(self.waiting)",
           ("test_router.py::test_route_all_keeps_starting_intents_while_retries_wait_on_a_healthy_endpoint",)),
    Mutant("retry-sent-before-it-is-due", "router.py",
           "heapq.heappush(self.waiting, (due, job, attempt + 1))",
           "heapq.heappush(self.waiting, (now, job, attempt + 1))",
           ("test_router.py::test_route_all_submits_a_retry_once_it_is_due",)),
    Mutant("pacing-turn-takes-no-time", "router.py",
           "self.next_send = now + self.interval", "self.next_send = now",
           ("test_provider.py::test_pacing_admits_one_attempt_per_turn",)),
    Mutant("budget-ceiling-not-floor", "router.py",
           "math.floor(Decimal(repr(error_budget)) * count)", "math.ceil(Decimal(repr(error_budget)) * count)",
           ("test_router.py::test_error_budget_allows_the_floor_of_the_decimal_product",)),
    Mutant("abort-at-the-budget", "router.py",
           "if len(self.failures) > self.allowed_failures:", "if len(self.failures) >= self.allowed_failures:",
           ("test_router.py::test_run_calls_counts_a_failure_within_budget_and_keeps_going",)),
    Mutant("sends-after-an-abort", "router.py",
           "        if self.error is not None:\n            return None\n        while self.waiting",
           "        while self.waiting",
           ("test_provider.py::test_run_calls_admits_nothing_after_an_abort",)),
    Mutant("a-worker-for-every-slot", "router.py",
           "for n in range(min(provider.config.max_in_flight, count))]",
           "for n in range(provider.config.max_in_flight)]",
           ("test_router.py::test_route_all_starts_no_more_workers_than_intents",)),
    Mutant("retry-after-of-60-not-honoured", "router.py",
           "int(seconds) <= MAX_RETRY_AFTER_S", "int(seconds) < MAX_RETRY_AFTER_S",
           ("test_provider.py::test_honoured_retry_after_is_exact_not_jittered",)),
    Mutant("retry-after-of-any-length-converted", "router.py",
           "len(seconds) <= 2 and int(seconds)", "int(seconds)",
           ("test_provider.py::test_retry_after_whole_seconds_up_to_60_are_honoured",)),
    # --- parsing a reply ----------------------------------------------------------------
    Mutant("strict-strips-every-trailing-period", "router.py",
           'text = text[:-1]\n        applied.append("strip_trailing_period")',
           'text = text.rstrip(".")\n        applied.append("strip_trailing_period")',
           ("test_router.py::test_strict_rejects_noise",)),
    Mutant("strict-maps-no-unicode-dash", "router.py",
           "mapped = text.translate(_DASH_TRANSLATION)", "mapped = text",
           ("test_router.py::test_strict_normalization_rules",)),
    Mutant("lenient-salvages-one-of-several-tokens", "router.py",
           "if len(tokens) == 1:", "if len(tokens) >= 1:",
           ("test_router.py::test_lenient_refuses_multiple_tokens",)),
    # --- the report's columns and the accuracy ----------------------------------------------
    Mutant("unknown-path-lands-in-invalid", "evaluation.py",
           "col_index.get(result.predicted, col_index[UNKNOWN_PATH])",
           "col_index.get(result.predicted, col_index[INVALID])",
           ("test_evaluation.py::test_matrix_shape_and_counts", SCORER_ORACLE)),
    Mutant("invalid-lands-in-unknown-path", "evaluation.py",
           "col = col_index.get(result.predicted, col_index[UNKNOWN_PATH])",
           "col = col_index.get(result.predicted if result.predicted != INVALID else None, col_index[UNKNOWN_PATH])",
           ("test_evaluation.py::test_matrix_shape_and_counts", SCORER_ORACLE)),
    Mutant("unknown-path-not-counted", "evaluation.py",
           "counts[row_index[result.ground_truth]][col] += 1",
           "counts[row_index[result.ground_truth]][col] += result.predicted in col_index",
           ("test_evaluation.py::test_matrix_shape_and_counts",)),
    Mutant("precision-defined-by-hits", "evaluation.py",
           "precision_defined = column > 0", "precision_defined = tp > 0",
           ("test_evaluation.py::test_per_class_undefined_recall_flagged",)),
    Mutant("accuracy-over-parsed-replies-only", "router.py",
           "sum(1 for r in results if r.correct) / len(results)",
           "sum(1 for r in results if r.correct) / max(1, sum(1 for r in results if r.predicted != INVALID))",
           (SCORER_ORACLE,)),
    # --- the run id and the manifest ------------------------------------------------------
    Mutant("run-id-hashes-no-temperature", "router.py",
           '"parse_mode", "temperature")', '"parse_mode")',
           ("test_router.py::test_a_set_temperature_names_the_run",
            "test_cli.py::test_route_a_set_temperature_names_its_own_run")),
    Mutant("run-id-hashes-no-model-name", "router.py",
           '"dataset_filter", "model_name",\n', '"dataset_filter",\n',
           ("test_router.py::test_manifest_run_id_tracks_inputs", f"{MANIFEST_FIELD}[model_name]")),
    Mutant("results-digest-unchecked", "router.py",
           'if digest != manifest["results_sha256"]:', "if False:",
           ("test_cli.py::test_eval_refuses_rows_in_another_order_or_number_than_route_wrote",
            "test_cli.py::test_eval_refuses_an_intent_with_two_rows")),
    Mutant("manifest-any-parse-mode", "router.py",
           '"parse_mode": data.get("parse_mode") in ("strict", "lenient"),', '"parse_mode": True,',
           (f"{MANIFEST_FIELD}[parse_mode]",)),
    Mutant("manifest-digest-in-capitals", "router.py",
           're.fullmatch("[0-9a-f]{64}", digest)', 're.fullmatch("[0-9a-fA-F]{64}", digest)',
           (f"{MANIFEST_FIELD}[digest in capitals]",)),
    # --- the HTTP reader's framing bounds -------------------------------------------------
    Mutant("content-length-of-19-digits", "httpclient.py",
           "len(value) <= 18", "len(value) <= 19",
           (f"{MALFORMED}[19-digit-length]",)),
    Mutant("chunk-size-of-17-hex-digits", "httpclient.py",
           "0 < len(size) <= 16", "0 < len(size) <= 17",
           (f"{MALFORMED}[17-hex-digit-chunk-size]",)),
    Mutant("header-fields-past-the-bound", "httpclient.py",
           'raise BadResponse(f"more than {MAX_FIELDS} header fields")', "pass",
           (f"{MALFORMED}[101-headers]",)),
    Mutant("line-of-65536-bytes", "httpclient.py",
           "if not 0 <= end < MAX_LINE:", "if not 0 <= end <= MAX_LINE:",
           (f"{MALFORMED}[65537-byte-line]",)),
    Mutant("1xx-taken-for-the-response", "httpclient.py",
           "while status < 200:", "while status < 100:",
           ("test_httpclient.py::test_interim_100_continue_is_skipped",)),
    Mutant("bytes-past-the-connect-reply-ignored", "httpclient.py",
           "                if conn.buffer:\n"
           '                    raise BadResponse("the proxy sent bytes past its CONNECT reply")\n',
           "", ("test_httpclient.py::test_tunnel_sends_connect_and_refuses_a_bad_reply",)),
    # --- the prompt -------------------------------------------------------------------------
    Mutant("query-stripped", "prompts.py",
           '"{{QUERY}}": query', '"{{QUERY}}": query.strip()',
           ("test_prompts.py::test_query_trailing_newline_kept",)),
    Mutant("placeholders-filled-one-after-another", "prompts.py",
           r'    return re.sub(r"\{\{[A-Z_]+\}\}", lambda match: values.get(match[0], match[0]), template)',
           "    for key, value in values.items():\n        template = template.replace(key, value)\n"
           "    return template",
           ("test_prompts.py::test_a_placeholder_in_the_menu_is_text_in_the_prompt",)),
    # --- validate_menu, validate_dataset and the generator's counts ----------------------------
    Mutant("menu-unicode-digit", "menu.py",
           "if child.digit not in _DIGITS:", "if not child.digit.isdigit():",
           ("test_cli.py::test_validate_menu_unicode_digit_exit_1",)),
    Mutant("menu-any-action-type", "menu.py",
           'elif node.kind == "action" and node.action_type not in _ACTION_TYPES:', "elif False:",
           (f"{MENU_NODE}[bad-action-type]",)),
    Mutant("menu-c1-control-and-line-separators", "menu.py",
           r'_LINE_BREAKER = re.compile("[\x00-\x1f\x7f-\x9f\u2028\u2029]")',
           r'_LINE_BREAKER = re.compile("[\x00-\x1f]")',
           (f"{MENU_NODE}[separator-in-name]", f"{MENU_NODE}[c1-control-in-label]")),
    Mutant("menu-section-header-in-prompt-text", "menu.py",
           "if _SECTION.fullmatch(line):", "if False:",
           (f"{MENU_NODE}[header-in-prompt-text]",)),
    Mutant("menu-press-digit-in-label", "menu.py",
           "if press := _PRESS.search(text):", "if press := None:",
           (f"{MENU_NODE}[press-in-label]",)),
    Mutant("dataset-lone-surrogate-in-text", "datagen.py",
           'for field in ("id", "text", "origin", "base_id")', 'for field in ("id", "origin", "base_id")',
           ("test_cli.py::test_dataset_field_holding_a_lone_surrogate_exit_1[text]",)),
    Mutant("per-node-below-1", "synthesis.py",
           '    if per_node < 1:\n        raise ValueError("per_node must be at least 1")\n', "",
           ("test_datagen.py::test_base_generation_rejects_bad_args",)),
    Mutant("dedup-key-keeps-case-and-spaces", "synthesis.py",
           'return " ".join(text.split()).lower()', "return text",
           ("test_datagen.py::test_base_generation_drops_duplicates_and_reasks",)),
    Mutant("short-paraphrase-reply-not-asked-again", "synthesis.py",
           "        if len(texts) < variants:\n            texts = parse_listed_lines((yield prompt))\n", "",
           ("test_datagen.py::test_augment_short_reply_gets_second_call",)),
    # --- what an HTTP outcome means, and the keyword double's ties -----------------------------
    Mutant("retry-after-read-on-a-500", "provider.py",
           "RETRY_AFTER_STATUSES = frozenset({429, 503})", "RETRY_AFTER_STATUSES = frozenset({429, 500, 503})",
           ("test_provider.py::test_transport_returns_retry_after_of_429_and_503[500-sleeps_expected2]",)),
    Mutant("502-not-retried", "provider.py",
           "frozenset({429, 500, 502, 503, 504})", "frozenset({429, 500, 503, 504})",
           ("test_provider.py::test_retryable_status_then_success[502]",)),
    Mutant("refused-certificate-retried", "provider.py",
           'ProviderError(f"TLS certificate refused: {exc}")', 'TransportError(f"TLS certificate refused: {exc}")',
           ("test_provider.py::test_refused_certificate_is_one_attempt_not_retried",)),
    Mutant("4xx-retried", "provider.py",
           'ProviderError(f"HTTP {status}: {body[:200]}")', 'TransportError(f"HTTP {status}: {body[:200]}")',
           ("test_provider.py::test_non_retryable_status_fails_immediately",)),
    Mutant("keyword-ties-to-the-last-offer", "provider.py",
           "return max(offers, key=", "return max(reversed(offers), key=",
           ("test_provider.py::test_keyword_tie_breaks_to_earlier_document_order",)),
    # --- the CLI's refusals -----------------------------------------------------------------
    Mutant("config-value-of-type-bool", "provider.py",
           "not (kind is float and type(value) is int)", "not (kind is float and isinstance(value, int))",
           ("test_cli.py::test_route_config_value_of_wrong_type_exit_2",)),
    Mutant("config-seed-of-type-bool", "cli.py",
           'if type(data.get("seed", 0)) is not int:', 'if not isinstance(data.get("seed", 0), int):',
           ("test_cli.py::test_gen_intents_config_seed_of_wrong_type_exit_2[True]",)),
    Mutant("provider-kind-any-string", "cli.py",
           "if kind not in _PROVIDER_KINDS:", "if not isinstance(kind, str):",
           ("test_cli.py::test_config_kind_that_names_no_provider_exit_2",)),
    Mutant("error-budget-above-1", "cli.py",
           "if not 0 <= args.error_budget <= 1:", "if not 0 <= args.error_budget <= 2:",
           ("test_cli.py::test_route_error_budget_out_of_range_exit_2[1.5]",)),
    Mutant("missing-input-file-exit-1", "cli.py",
           'raise CommandFailed(f"no such {what} file: {file}", EXIT_USAGE)',
           'raise CommandFailed(f"no such {what} file: {file}", EXIT_FAILURE)',
           ("test_cli.py::test_route_missing_dataset_exit_2", "test_cli.py::test_eval_missing_file_exit_2")),
    Mutant("eval-menu-hash-unchecked", "cli.py",
           'if menu_hash(tree) != manifest.get("menu_hash"):', "if False:",
           ("test_cli.py::test_eval_refuses_a_menu_of_another_run",)),
    Mutant("run-directory-replaced-without-force", "cli.py",
           "if run_dir.exists() and not args.force:", "if False:",
           ("test_cli.py::test_route_existing_run_dir_refused_before_any_request",)),
    Mutant("interrupted-exit-1", "cli.py",
           "EXIT_INTERRUPTED = 130", "EXIT_INTERRUPTED = 1",
           ("test_cli.py::test_ctrl_c_ends_demo_waiting_on_stdin_with_exit_130",)),
    Mutant("closed-pipe-exit-1", "cli.py",
           "EXIT_BROKEN_PIPE = 141", "EXIT_BROKEN_PIPE = 1",
           ("test_cli.py::test_output_into_a_closed_pipe_ends_quietly_with_exit_141",)),
]


class GateFailure(Exception):
    """The gate cannot pass."""


def check_snippets() -> None:
    for mutant in MUTANTS:
        count = (ROOT / "src" / "ivroute" / mutant.file).read_text(encoding="utf-8").count(mutant.snippet)
        if count != 1:
            raise GateFailure(f"{mutant.name}: its snippet occurs {count} times in src/ivroute/{mutant.file}")


def copy_src(workdir: Path, mutant: Mutant | None = None) -> None:
    """src/ copied to ``workdir``/src, with ``mutant`` applied there."""
    shutil.copytree(ROOT / "src", workdir / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        file = workdir / "src" / "ivroute" / mutant.file
        file.write_text(file.read_text(encoding="utf-8").replace(mutant.snippet, mutant.replacement),
                        encoding="utf-8")


def run_tests(killers, mutant: Mutant | None = None) -> tuple[int, str]:
    """pytest's exit code and output for ``killers`` against a copy of src/ with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="ivroute-mutant-") as workdir:
        copy_src(Path(workdir), mutant)
        env = dict(os.environ, PYTHONPATH=str(Path(workdir) / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                *(str(ROOT / "tests" / killer) for killer in killers)]
        try:
            done = subprocess.run(argv, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise GateFailure(f"{mutant.name if mutant else 'the unmutated copy'}: "
                              f"its tests outlasted {TIMEOUT_S} s")
        return done.returncode, done.stdout


def main() -> int:
    started = time.monotonic()
    try:
        check_snippets()
        killers = list(dict.fromkeys(killer for mutant in MUTANTS for killer in mutant.killers))
        code, output = run_tests(killers)
        if code != 0:
            raise GateFailure(f"the killers do not all pass on an unmutated copy (pytest exit {code}):\n{output}")
        failed = []
        for mutant in MUTANTS:
            code, output = run_tests(mutant.killers, mutant)
            verdict = "killed" if code == KILLED else "SURVIVED" if code == 0 else f"pytest exit {code}"
            print(f"{verdict:>12}  {mutant.name}", flush=True)
            if code != KILLED:
                failed.append(mutant.name)
                if code != 0:
                    print(output, flush=True)
    except GateFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants killed in {time.monotonic() - started:.0f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
