"""Labeled intent datasets: the records, their invariants and JSONL files.
Every record is labeled with the terminal path it targets, so routing can
be scored by exact match; ``synthesis`` generates records through a model.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .menu import DtmfPath, TerminalPath


class DatagenError(ValueError):
    """A dataset could not be generated or read."""


class IntentRecord(NamedTuple):
    """One dataset line, its fields in the line's key order."""

    id: str
    text: str
    ground_truth: DtmfPath
    origin: str  # "base" | "augmented"
    base_id: str  # the source record's id; self for base records
    variant_index: int  # 0 for base, 1..variants for paraphrases


class Dataset(NamedTuple):
    menu_name: str
    records: list[IntentRecord]
    per_node_base: int
    variants_per_base: int


def validate_dataset(ds: Dataset, paths: Sequence[TerminalPath]) -> list[str]:
    """Empty iff the dataset invariants hold, every label is a real path
    and no text is labelled with two paths (a text may repeat under one)."""
    violations: list[str] = []
    known = {tp.path.canonical() for tp in paths}

    ids_seen: set[str] = set()
    base_by_id: dict[str, IntentRecord] = {}
    first_with_text: dict[str, IntentRecord] = {}
    for record in ds.records:
        if record.id in ids_seen:
            violations.append(f"record {record.id}: duplicate id")
        ids_seen.add(record.id)
        if record.origin == "base":
            base_by_id[record.id] = record
        first = first_with_text.setdefault(record.text, record)
        if first.ground_truth != record.ground_truth:
            violations.append(
                f"record {record.id}: same text as record {first.id}, "
                f"which is labelled {first.ground_truth.canonical()}"
            )

    base_count = 0
    for record in ds.records:
        truth = record.ground_truth.canonical()
        if truth not in known:
            violations.append(f"record {record.id}: ground truth {truth} is not a terminal path")
        if record.origin == "base":
            base_count += 1
            if record.base_id != record.id:
                violations.append(f"record {record.id}: base record must be its own base_id")
            if record.variant_index != 0:
                violations.append(f"record {record.id}: base record with variant_index != 0")
        elif record.origin == "augmented":
            source = base_by_id.get(record.base_id)
            if source is None:
                violations.append(f"record {record.id}: base_id {record.base_id} not in dataset")
            elif source.ground_truth != record.ground_truth:
                violations.append(
                    f"record {record.id}: ground truth differs from base record {source.id}"
                )
            if not 1 <= record.variant_index <= ds.variants_per_base:
                violations.append(
                    f"record {record.id}: variant_index {record.variant_index} out of range"
                )
        else:
            violations.append(f"record {record.id}: unknown origin {record.origin!r}")

    expected_base = ds.per_node_base * len(paths)
    if base_count != expected_base:
        violations.append(
            f"base record count {base_count} != per_node_base x paths = {expected_base}"
        )
    expected_total = base_count * (1 + ds.variants_per_base)
    if len(ds.records) != expected_total:
        violations.append(
            f"record count {len(ds.records)} != base x (1 + variants) = {expected_total}"
        )
    return violations


def record_to_json(record: IntentRecord) -> dict:
    return {**record._asdict(), "ground_truth": record.ground_truth.canonical()}


def record_from_json(data: dict, paths: dict[str, DtmfPath]) -> IntentRecord:
    """``paths`` holds the ground truths parsed so far by their text, so
    records with one label share one (immutable) DtmfPath."""
    text = data["ground_truth"]
    if not isinstance(text, str) or text not in paths:
        paths[text] = DtmfPath.parse(text)  # raises first on a text that is no path
    return IntentRecord(
        id=data["id"],
        text=data["text"],
        ground_truth=paths[text],
        origin=data["origin"],
        base_id=data["base_id"],
        variant_index=int(data["variant_index"]),
    )


def dataset_to_jsonl(ds: Dataset) -> str:
    return "".join(
        json.dumps(record_to_json(r), ensure_ascii=False) + "\n" for r in ds.records
    )


def save_dataset(ds: Dataset, path: str | Path) -> None:
    Path(path).write_text(dataset_to_jsonl(ds), encoding="utf-8")


def load_dataset(path: str | Path, menu_name: str = "") -> Dataset:
    """Read a JSONL dataset; per-node and variant counts are re-derived from
    the records (validate_dataset flags files where they do not add up)."""
    records = []
    paths: dict[str, DtmfPath] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(record_from_json(json.loads(line), paths))
            # TypeError: the line is no JSON object, or a field has the wrong type
            except (KeyError, TypeError, ValueError) as exc:
                raise DatagenError(f"{path}:{line_no}: bad record: {exc}") from exc
    return dataset_from_records(records, menu_name)


def dataset_from_records(records: Iterable[IntentRecord], menu_name: str = "") -> Dataset:
    records = list(records)
    base = [r for r in records if r.origin == "base"]
    distinct_paths = {r.ground_truth.canonical() for r in base}
    per_node = len(base) // len(distinct_paths) if distinct_paths else 0
    variants = (len(records) - len(base)) // len(base) if base else 0
    return Dataset(
        menu_name=menu_name,
        records=records,
        per_node_base=per_node,
        variants_per_base=variants,
    )
