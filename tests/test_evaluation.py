"""Scoring: accuracy, confusion matrix, per-class metrics, report files."""

import csv
import json
import random

import pytest

from ivroute.evaluation import (
    EXTRA_COLUMNS,
    UNKNOWN_PATH,
    accuracy,
    build_report,
    confusion_matrix,
    emit_report,
    format_percent,
    matrix_csv,
    matrix_long_csv,
    per_class_metrics,
    report_to_json,
    summary_markdown,
)
from ivroute.router import INVALID, RoutingResult


def result(truth: str, predicted: str, intent_id: str = "") -> RoutingResult:
    return RoutingResult(
        intent_id=intent_id or f"{truth}:b00",
        raw_response=predicted,
        predicted=predicted,
        ground_truth=truth,
        latency=0.0,
    )


CLASSES = ["1-1", "1-2", "2-1"]


# --- accuracy -----------------------------------------------------------------------

def test_accuracy_simple():
    results = [result("1-1", "1-1"), result("1-2", "1-1"), result("2-1", "2-1")]
    assert accuracy(results) == pytest.approx(2 / 3)


def test_accuracy_empty_raises():
    with pytest.raises(ValueError):
        accuracy([])


@pytest.mark.parametrize(
    "numerator, denominator, expected",
    [(205, 230, "89.13"), (709, 920, "77.07"), (796, 920, "86.52"), (187, 230, "81.30"),
     (230, 230, "100.00"), (0, 230, "0.00")],
)
def test_format_percent_two_decimals(numerator, denominator, expected):
    assert format_percent(numerator / denominator) == expected


# --- confusion matrix ----------------------------------------------------------------

def test_matrix_shape_and_counts():
    results = [
        result("1-1", "1-1"),
        result("1-1", "1-2"),
        result("1-2", "1-2"),
        result("2-1", INVALID),
        result("2-1", "9-9"),  # valid shape, not a class
    ]
    matrix = confusion_matrix(results, CLASSES)
    assert matrix.true_labels == CLASSES
    assert matrix.predicted_labels == CLASSES + list(EXTRA_COLUMNS)
    cells = {
        (truth, predicted): count
        for truth, row in zip(matrix.true_labels, matrix.counts)
        for predicted, count in zip(matrix.predicted_labels, row)
        if count
    }
    assert cells == {("1-1", "1-1"): 1, ("1-1", "1-2"): 1, ("1-2", "1-2"): 1,
                     ("2-1", INVALID): 1, ("2-1", UNKNOWN_PATH): 1}


def test_matrix_rejects_foreign_truth():
    with pytest.raises(ValueError, match="outside the class list"):
        confusion_matrix([result("5-5", "1-1")], CLASSES)


def test_matrix_diagonal_for_perfect_run():
    results = [result(c, c) for c in CLASSES for _ in range(3)]
    matrix = confusion_matrix(results, CLASSES)
    for i, label in enumerate(CLASSES):
        for j, predicted in enumerate(matrix.predicted_labels):
            expected = 3 if predicted == label else 0
            assert matrix.counts[i][j] == expected


# --- per-class metrics -----------------------------------------------------------------

def test_per_class_hand_computed():
    results = [
        result("1-1", "1-1"),
        result("1-1", "1-1"),
        result("1-1", "1-2"),
        result("1-2", "1-1"),
        result("1-2", "1-2"),
        result("2-1", INVALID),
    ]
    matrix = confusion_matrix(results, CLASSES)
    by_label = {m.label: m for m in per_class_metrics(matrix)}

    m11 = by_label["1-1"]
    assert m11.support == 3
    assert m11.recall == pytest.approx(2 / 3)
    assert m11.precision == pytest.approx(2 / 3)
    assert m11.f1 == pytest.approx(2 / 3)

    m12 = by_label["1-2"]
    assert m12.support == 2
    assert m12.recall == pytest.approx(1 / 2)
    assert m12.precision == pytest.approx(1 / 2)

    m21 = by_label["2-1"]
    assert m21.support == 1
    assert m21.recall == 0.0 and m21.recall_defined
    assert m21.precision == 0.0 and not m21.precision_defined  # empty column
    assert m21.f1 == 0.0


def test_per_class_undefined_recall_flagged():
    # "2-1" never appears as a truth, so its support is zero.
    results = [result("1-1", "2-1"), result("1-2", "1-2")]
    matrix = confusion_matrix(results, CLASSES)
    by_label = {m.label: m for m in per_class_metrics(matrix)}
    m21 = by_label["2-1"]
    assert m21.support == 0
    assert m21.recall == 0.0 and not m21.recall_defined
    assert m21.precision == 0.0 and m21.precision_defined  # column has one miss


def test_f1_zero_when_both_zero():
    results = [result("1-1", "1-2"), result("1-2", "1-1")]
    matrix = confusion_matrix(results, CLASSES)
    for m in per_class_metrics(matrix):
        assert m.f1 == 0.0


# --- brute-force cross-check (the big randomized sweep is in the acceptance suite) -----

def brute_force(results, classes):
    """Independent re-count with plain dictionaries."""
    correct = sum(1 for r in results if r.predicted == r.ground_truth)
    acc = correct / len(results)
    counts = {t: {p: 0 for p in classes + [INVALID, UNKNOWN_PATH]} for t in classes}
    for r in results:
        predicted = r.predicted
        if predicted != INVALID and predicted not in classes:
            predicted = UNKNOWN_PATH
        counts[r.ground_truth][predicted] += 1
    metrics = {}
    for c in classes:
        tp = counts[c][c]
        support = sum(counts[c].values())
        column = sum(counts[t][c] for t in classes)
        recall = tp / support if support else 0.0
        precision = tp / column if column else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        metrics[c] = (precision, recall, f1, support)
    return acc, counts, metrics


def test_matches_brute_force_on_random_lists():
    rng = random.Random(99)
    options = CLASSES + [INVALID, "9-9", "8-8-8"]
    for _ in range(200):
        n = rng.randint(1, 30)
        results = [result(rng.choice(CLASSES), rng.choice(options), intent_id=f"r{i}")
                   for i, _ in enumerate(range(n))]
        matrix = confusion_matrix(results, CLASSES)
        acc, counts, metrics = brute_force(results, CLASSES)
        assert accuracy(results) == pytest.approx(acc)
        for i, t in enumerate(CLASSES):
            for j, p in enumerate(matrix.predicted_labels):
                assert matrix.counts[i][j] == counts[t][p]
        for m in per_class_metrics(matrix):
            precision, recall, f1, support = metrics[m.label]
            assert m.precision == pytest.approx(precision)
            assert m.recall == pytest.approx(recall)
            assert m.f1 == pytest.approx(f1)
            assert m.support == support


# --- reports ----------------------------------------------------------------------------

def sample_report():
    results = [
        result("1-1", "1-1"),
        result("1-2", "1-2"),
        result("2-1", INVALID),
        result("1-1", "7-7"),
    ]
    return build_report(results, CLASSES, "flattened_paths", "base_only", "test-model")


def test_report_json_round_trip():
    report = sample_report()
    data = report_to_json(report)
    assert json.loads(json.dumps(data)) == data
    assert data["matrix"]["counts"] == report.matrix.counts
    assert [m["class"] for m in data["per_class"]] == [m.label for m in report.per_class]


def test_emit_report_files(tmp_path):
    report = sample_report()
    written = emit_report(report, tmp_path / "out")
    names = {p.name for p in written}
    assert names == {"report.json", "matrix.csv", "matrix_long.csv", "summary.md"}
    text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    assert json.loads(text) == report_to_json(report)


def test_report_json_keys_in_file_order(tmp_path):
    emit_report(sample_report(), tmp_path)
    data = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert list(data) == ["accuracy", "n", "condition", "dataset_filter", "model_name", "matrix",
                          "per_class"]
    assert list(data["matrix"]) == ["true_labels", "predicted_labels", "counts"]
    assert data["per_class"][0] == {"class": "1-1", "precision": 1.0, "recall": 0.5, "f1": 2 / 3,
                                    "support": 2, "precision_defined": True, "recall_defined": True}
    assert list(data["per_class"][0]) == ["class", "precision", "recall", "f1", "support",
                                          "precision_defined", "recall_defined"]


def test_matrix_csv_shape(tmp_path):
    report = sample_report()
    rows = list(csv.reader(matrix_csv(report.matrix).splitlines()))
    assert len(rows) == 1 + len(CLASSES)
    assert len(rows[0]) == 1 + len(CLASSES) + 2
    assert rows[0][0] == "true\\predicted"
    assert rows[0][-2:] == [INVALID, UNKNOWN_PATH]
    # Row for 1-1: one hit, one unknown.
    row = rows[1]
    assert row[0] == "1-1" and row[1] == "1" and row[-1] == "1"


def test_matrix_long_csv_covers_every_cell():
    report = sample_report()
    rows = list(csv.reader(matrix_long_csv(report.matrix).splitlines()))
    assert rows[0] == ["true", "predicted", "count"]
    assert len(rows) == 1 + len(CLASSES) * (len(CLASSES) + 2)
    total = sum(int(r[2]) for r in rows[1:])
    assert total == report.n


def test_summary_markdown_display_names():
    report = sample_report()
    text = summary_markdown(report)
    assert "| Flattened Paths | Base Only | 50.00 | 4 |" in text

    augmented = build_report(
        [result("1-1", "1-1")], CLASSES, "descriptive_menu", "all", "m"
    )
    text = summary_markdown(augmented)
    assert "| Descriptive Menu | Augmented | 100.00 | 1 |" in text


def test_summary_markdown_marks_undefined():
    report = sample_report()
    text = summary_markdown(report)
    assert "(undefined)" in text  # 2-1 has an empty predicted column
