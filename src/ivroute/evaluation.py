"""Scoring: exact-match accuracy, confusion matrix, per-class metrics, and
report files.

The confusion matrix is square over the menu's terminal paths plus two
predicted-only columns: INVALID (the reply failed the output grammar) and
UNKNOWN_PATH (a well-formed path that is not a terminal of the menu).
Dropping either kind would silently inflate accuracy, so both stay visible;
the plain paths-by-paths view is the submatrix without those columns.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import NamedTuple, Sequence

from .prompts import CONDITIONS
from .router import DATASET_FILTERS, INVALID, RoutingResult, accuracy, format_percent

UNKNOWN_PATH = "UNKNOWN_PATH"

EXTRA_COLUMNS = (INVALID, UNKNOWN_PATH)


class ConfusionMatrix(NamedTuple):
    true_labels: list[str]
    predicted_labels: list[str]  # true_labels + [INVALID, UNKNOWN_PATH]
    counts: list[list[int]]  # indexed [true][predicted]


class ClassMetrics(NamedTuple):
    label: str
    precision: float
    recall: float
    f1: float
    support: int
    precision_defined: bool
    recall_defined: bool


class EvalReport(NamedTuple):
    """The content of report.json, its fields in the file's key order."""

    accuracy: float
    n: int
    condition: str
    dataset_filter: str
    model_name: str
    matrix: ConfusionMatrix
    per_class: list[ClassMetrics]


def confusion_matrix(
    results: Sequence[RoutingResult], classes: Sequence[str]
) -> ConfusionMatrix:
    """counts[t][p] over the given true classes; invalid replies land in the
    INVALID column, well-formed non-terminal paths in UNKNOWN_PATH."""
    true_labels = list(classes)
    predicted_labels = true_labels + list(EXTRA_COLUMNS)
    row_index = {label: i for i, label in enumerate(true_labels)}
    col_index = {label: i for i, label in enumerate(predicted_labels)}
    counts = [[0] * len(predicted_labels) for _ in true_labels]
    for result in results:
        if result.ground_truth not in row_index:
            raise ValueError(
                f"result {result.intent_id}: ground truth {result.ground_truth} "
                "is outside the class list"
            )
        col = col_index.get(result.predicted, col_index[UNKNOWN_PATH])  # INVALID has a column too
        counts[row_index[result.ground_truth]][col] += 1
    return ConfusionMatrix(true_labels, predicted_labels, counts)


def per_class_metrics(matrix: ConfusionMatrix) -> list[ClassMetrics]:
    """Precision, recall, F1, support per true class.

    Undefined ratios (no support, or an empty predicted column) are reported
    as 0.0 with the matching *_defined flag cleared instead of NaN.
    """
    metrics = []
    for i, label in enumerate(matrix.true_labels):
        tp = matrix.counts[i][i]
        support = sum(matrix.counts[i])
        column = sum(row[i] for row in matrix.counts)
        recall_defined = support > 0
        precision_defined = column > 0
        recall = tp / support if recall_defined else 0.0
        precision = tp / column if precision_defined else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        metrics.append(ClassMetrics(label, precision, recall, f1, support, precision_defined, recall_defined))
    return metrics


def build_report(
    results: Sequence[RoutingResult],
    classes: Sequence[str],
    condition: str,
    dataset_filter: str,
    model_name: str,
) -> EvalReport:
    matrix = confusion_matrix(results, classes)
    return EvalReport(
        accuracy=accuracy(results),
        n=len(results),
        matrix=matrix,
        per_class=per_class_metrics(matrix),
        condition=condition,
        dataset_filter=dataset_filter,
        model_name=model_name,
    )


# --- emission ------------------------------------------------------------------

# A per-class entry's keys: "class" is a keyword, so the field is "label".
_CLASS_KEYS = ("class",) + ClassMetrics._fields[1:]


def report_to_json(report: EvalReport) -> dict:
    return {
        **report._asdict(),
        "matrix": report.matrix._asdict(),
        "per_class": [dict(zip(_CLASS_KEYS, m)) for m in report.per_class],
    }


def matrix_csv(matrix: ConfusionMatrix) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["true\\predicted"] + matrix.predicted_labels)
    for label, row in zip(matrix.true_labels, matrix.counts):
        writer.writerow([label] + row)
    return buffer.getvalue()


def matrix_long_csv(matrix: ConfusionMatrix) -> str:
    """Long-form (true, predicted, count) rows, ready for heatmap plotting."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["true", "predicted", "count"])
    for label, row in zip(matrix.true_labels, matrix.counts):
        for predicted, count in zip(matrix.predicted_labels, row):
            writer.writerow([label, predicted, count])
    return buffer.getvalue()


def summary_markdown(report: EvalReport) -> str:
    condition = CONDITIONS[report.condition].label
    dataset = DATASET_FILTERS[report.dataset_filter][0]
    lines = [
        f"# Routing accuracy: {report.model_name}",
        "",
        "| IVR Context | Dataset | Accuracy (%) | N |",
        "| --- | --- | --- | --- |",
        f"| {condition} | {dataset} | {format_percent(report.accuracy)} | {report.n} |",
        "",
        "## Per-class metrics",
        "",
        "| Class | Precision | Recall | F1 | Support |",
        "| --- | --- | --- | --- | --- |",
    ]
    for m in report.per_class:
        precision = f"{m.precision:.2f}" if m.precision_defined else "0.00 (undefined)"
        recall = f"{m.recall:.2f}" if m.recall_defined else "0.00 (undefined)"
        lines.append(
            f"| {m.label} | {precision} | {recall} | {m.f1:.2f} | {m.support} |"
        )
    lines.append("")
    return "\n".join(lines)


def emit_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, matrix.csv, matrix_long.csv and summary.md;
    returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "report.json": json.dumps(report_to_json(report), indent=2, ensure_ascii=False) + "\n",
        "matrix.csv": matrix_csv(report.matrix),
        "matrix_long.csv": matrix_long_csv(report.matrix),
        "summary.md": summary_markdown(report),
    }
    written = []
    for name, text in files.items():
        path = out / name
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written
