"""Scoring: accuracy, confusion matrix, per-class metrics, report files.

Each scoring case is a row of a table: the results, and the accuracy,
matrix cells and per-class metrics of their report, or its refusal. Each
report file is a row too, pinned whole."""

import json

import pytest

from ivroute.evaluation import build_report, emit_report, format_percent
from ivroute.router import INVALID, RoutingResult

from conftest import Raises, outcome_of, table_tests


def results(*pairs) -> list[RoutingResult]:
    """A result of each (truth, predicted) pair."""
    return [RoutingResult(f"{truth}:b00", predicted, predicted, truth, 0.0) for truth, predicted in pairs]


CLASSES = ["1-1", "1-2", "2-1"]


def report_of(pairs, condition="flattened_paths", dataset_filter="base_only", model_name="test-model"):
    return build_report(results(*pairs), CLASSES, condition, dataset_filter, model_name)


# --- accuracy, the matrix and per-class metrics ------------------------------------------

def check_scores(row):
    """``row``: (truth, predicted) pairs scored over CLASSES, and the report's
    accuracy, nonzero cells and per-class (precision, recall, f1, support,
    precision_defined, recall_defined), each named there, or its refusal."""
    pairs, expected = row
    if isinstance(expected, Raises):
        outcome_of(lambda: report_of(pairs), expected)
        return
    report = report_of(pairs)
    assert report.matrix.true_labels == CLASSES
    assert report.matrix.predicted_labels == [*CLASSES, INVALID, "UNKNOWN_PATH"]
    scores = {"accuracy": round(report.accuracy, 9),
              "cells": {(truth, predicted): count for truth, row in zip(CLASSES, report.matrix.counts)
                        for predicted, count in zip(report.matrix.predicted_labels, row) if count},
              "per_class": {m.label: (round(m.precision, 9), round(m.recall, 9), round(m.f1, 9), *m[4:])
                            for m in report.per_class}}
    assert {key: scores[key] for key in expected} == expected


THIRD = 0.666666667  # 2/3, rounded
SCORES = {
    "test_accuracy_simple": ((("1-1", "1-1"), ("1-2", "1-1"), ("2-1", "2-1")), {"accuracy": THIRD}),
    "test_accuracy_empty_raises": ((), Raises(ValueError, "no results to score")),
    "test_matrix_shape_and_counts": (
        (("1-1", "1-1"), ("1-1", "1-2"), ("1-2", "1-2"), ("2-1", INVALID), ("2-1", "9-9")),  # 9-9: no class
        {"cells": {("1-1", "1-1"): 1, ("1-1", "1-2"): 1, ("1-2", "1-2"): 1, ("2-1", INVALID): 1,
                   ("2-1", "UNKNOWN_PATH"): 1}}),
    "test_matrix_rejects_foreign_truth": ((("5-5", "1-1"),), Raises(
        ValueError, "result 5-5:b00: ground truth 5-5 is outside the class list")),
    "test_matrix_diagonal_for_perfect_run": (tuple((c, c) for c in CLASSES for _ in range(3)), {
        "accuracy": 1.0, "cells": {(c, c): 3 for c in CLASSES}}),
    "test_per_class_hand_computed": (
        (("1-1", "1-1"), ("1-1", "1-1"), ("1-1", "1-2"), ("1-2", "1-1"), ("1-2", "1-2"), ("2-1", INVALID)),
        {"per_class": {"1-1": (THIRD, THIRD, THIRD, 3, True, True), "1-2": (0.5, 0.5, 0.5, 2, True, True),
                       "2-1": (0.0, 0.0, 0.0, 1, False, True)}}),  # an empty predicted column
    # 2-1 is no truth, so its support is zero; its column holds one miss.
    "test_per_class_undefined_recall_flagged": ((("1-1", "2-1"), ("1-2", "1-2")), {"per_class": {
        "1-1": (0.0, 0.0, 0.0, 1, False, True), "1-2": (1.0, 1.0, 1.0, 1, True, True),
        "2-1": (0.0, 0.0, 0.0, 0, True, False)}}),
    "test_f1_zero_when_both_zero": ((("1-1", "1-2"), ("1-2", "1-1")), {"per_class": {
        "1-1": (0.0, 0.0, 0.0, 1, True, True), "1-2": (0.0, 0.0, 0.0, 1, True, True),
        "2-1": (0.0, 0.0, 0.0, 0, False, False)}}),
}
table_tests(globals(), check_scores, SCORES)


@pytest.mark.parametrize(
    "numerator, denominator, expected",
    [(205, 230, "89.13"), (709, 920, "77.07"), (796, 920, "86.52"), (187, 230, "81.30"),
     (230, 230, "100.00"), (0, 230, "0.00")],
)
def test_format_percent_two_decimals(numerator, denominator, expected):
    assert format_percent(numerator / denominator) == expected


# --- report files --------------------------------------------------------------------

def check_report_files(row, tmp_path):
    """``row``: a report_of's arguments, and the whole text of some of the
    files that emit_report writes for it; report.json's as the object it
    holds, written with an indent of 2, its keys in order."""
    arguments, files = row
    written = emit_report(report_of(*arguments), tmp_path / "report")
    assert [path.name for path in written] == ["report.json", "matrix.csv", "matrix_long.csv", "summary.md"]
    assert sorted(path.name for path in (tmp_path / "report").iterdir()) == sorted(path.name for path in written)
    for name, text in files.items():
        text = json.dumps(text, indent=2) + "\n" if name == "report.json" else text
        assert (tmp_path / "report" / name).read_text(encoding="utf-8") == text


SAMPLE = (("1-1", "1-1"), ("1-2", "1-2"), ("2-1", INVALID), ("1-1", "7-7"))
SAMPLE_JSON = {
    "accuracy": 0.5, "n": 4, "condition": "flattened_paths", "dataset_filter": "base_only", "model_name": "test-model",
    "matrix": {"true_labels": CLASSES, "predicted_labels": [*CLASSES, "INVALID", "UNKNOWN_PATH"],
               "counts": [[1, 0, 0, 0, 1], [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]]},
    "per_class": [
        {"class": "1-1", "precision": 1.0, "recall": 0.5, "f1": 2 / 3, "support": 2, "precision_defined": True,
         "recall_defined": True},
        {"class": "1-2", "precision": 1.0, "recall": 1.0, "f1": 1.0, "support": 1, "precision_defined": True,
         "recall_defined": True},
        {"class": "2-1", "precision": 0.0, "recall": 0.0, "f1": 0.0, "support": 1, "precision_defined": False,
         "recall_defined": True}]}
SUMMARY = """# Routing accuracy: {model}

| IVR Context | Dataset | Accuracy (%) | N |
| --- | --- | --- | --- |
| {row} |

## Per-class metrics

| Class | Precision | Recall | F1 | Support |
| --- | --- | --- | --- | --- |
{classes}
"""
REPORT_FILES = {
    "test_report_json_round_trip": ((SAMPLE,), {"report.json": SAMPLE_JSON}),
    "test_report_json_keys_in_file_order": (((("2-1", "2-1"),), "descriptive_menu", "all", "m"), {"report.json": {
        **SAMPLE_JSON, "accuracy": 1.0, "n": 1, "condition": "descriptive_menu", "dataset_filter": "all",
        "model_name": "m", "matrix": {**SAMPLE_JSON["matrix"], "counts": [[0] * 5, [0] * 5, [0, 0, 1, 0, 0]]},
        "per_class": [{"class": label, "precision": hit, "recall": hit, "f1": hit, "support": int(hit),
                       "precision_defined": bool(hit), "recall_defined": bool(hit)}
                      for label, hit in zip(CLASSES, (0.0, 0.0, 1.0))]}}),
    "test_matrix_csv_shape": ((SAMPLE,), {"matrix.csv": "true\\predicted,1-1,1-2,2-1,INVALID,UNKNOWN_PATH\n"
                                                        "1-1,1,0,0,0,1\n1-2,0,1,0,0,0\n2-1,0,0,0,1,0\n"}),
    "test_matrix_long_csv_covers_every_cell": ((SAMPLE,), {"matrix_long.csv": "true,predicted,count\n" + "".join(
        f"{truth},{predicted},{count}\n" for truth, counts in zip(CLASSES, SAMPLE_JSON["matrix"]["counts"])
        for predicted, count in zip(SAMPLE_JSON["matrix"]["predicted_labels"], counts))}),
    "test_summary_markdown_marks_undefined": ((SAMPLE,), {"summary.md": SUMMARY.format(
        model="test-model", row="Flattened Paths | Base Only | 50.00 | 4", classes="| 1-1 | 1.00 | 0.50 | 0.67 | 2 |\n"
        "| 1-2 | 1.00 | 1.00 | 1.00 | 1 |\n| 2-1 | 0.00 (undefined) | 0.00 | 0.00 | 1 |")}),
    "test_summary_markdown_display_names": (((("1-1", "1-1"),), "descriptive_menu", "all", "m"), {
        "summary.md": SUMMARY.format(model="m", row="Descriptive Menu | Augmented | 100.00 | 1", classes=(
            "| 1-1 | 1.00 | 1.00 | 1.00 | 1 |\n| 1-2 | 0.00 (undefined) | 0.00 (undefined) | 0.00 | 0 |\n"
            "| 2-1 | 0.00 (undefined) | 0.00 (undefined) | 0.00 | 0 |"))}),
    "test_emit_report_files": ((SAMPLE,), {}),
}
table_tests(globals(), check_report_files, REPORT_FILES)
