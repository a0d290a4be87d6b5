"""Labeled intent datasets: the records, their invariants and JSONL files.
Every record is labeled with the terminal path it targets, so routing can
be scored by exact match; ``synthesis`` generates records through a model.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from .menu import DtmfPath, TerminalPath, has_lone_surrogate


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


def validate_dataset(ds: Dataset, paths: Sequence[TerminalPath]) -> list[str]:
    """Empty iff no string holds a lone surrogate, every text holds a
    character other than white space, every label is a real path, no text
    is labelled with two paths (a text may repeat under one), every terminal
    path has the same nonzero number of base records, and every base record
    has the same number k of paraphrases, whose variant_index values are
    1..k, each once. None of it depends on the order of the records."""
    # A lone surrogate is judged first and alone: the other messages print a record's strings as they are.
    violations = [f"record {record.id!r}: {field} holds a lone surrogate" for record in ds.records
                  for field in ("id", "text", "origin", "base_id") if has_lone_surrogate(getattr(record, field))]
    if violations:
        return violations
    base_per_path = dict.fromkeys((tp.path for tp in paths), 0)

    ids_seen: set[str] = set()
    base_by_id: dict[str, IntentRecord] = {}
    first_with_text: dict[str, IntentRecord] = {}
    for record in ds.records:
        if record.id in ids_seen:
            violations.append(f"record {record.id}: duplicate id")
        ids_seen.add(record.id)
        if not record.text.strip():
            violations.append(f"record {record.id}: text is blank")
        if record.ground_truth not in base_per_path:
            violations.append(
                f"record {record.id}: ground truth {record.ground_truth} is not a terminal path"
            )
        first = first_with_text.setdefault(record.text, record)
        if first.ground_truth != record.ground_truth:
            violations.append(
                f"record {record.id}: same text as record {first.id}, "
                f"which is labelled {first.ground_truth}"
            )
        if record.origin == "base":
            base_by_id[record.id] = record
            if record.ground_truth in base_per_path:
                base_per_path[record.ground_truth] += 1
            if record.base_id != record.id:
                violations.append(f"record {record.id}: base record must be its own base_id")
            if record.variant_index != 0:
                violations.append(f"record {record.id}: base record with variant_index != 0")
        elif record.origin != "augmented":
            violations.append(f"record {record.id}: unknown origin {record.origin!r}")

    variant_indexes: dict[str, list[int]] = {base_id: [] for base_id in base_by_id}
    for record in ds.records:
        if record.origin != "augmented":
            continue
        source = base_by_id.get(record.base_id)
        if source is None:
            violations.append(f"record {record.id}: base_id {record.base_id} not in dataset")
            continue
        if source.ground_truth != record.ground_truth:
            violations.append(f"record {record.id}: ground truth differs from base record {source.id}")
        variant_indexes[record.base_id].append(record.variant_index)

    for base_id, indexes in variant_indexes.items():
        if sorted(indexes) != list(range(1, len(indexes) + 1)):
            violations.append(f"record {base_id}: paraphrase variant_index values {sorted(indexes)} "
                              f"out of range or repeated; want 1..{len(indexes)}, each once")

    for path, count in base_per_path.items():
        if not count:
            violations.append(f"terminal path {path} has no base record")
    paraphrase_counts = {base_id: len(indexes) for base_id, indexes in variant_indexes.items()}
    for what, counts in [("base record count per terminal path", base_per_path),
                         ("paraphrase count per base record", paraphrase_counts)]:
        low = min(counts, key=counts.get, default=None)
        high = max(counts, key=counts.get, default=None)
        if low is not None and counts[low] != counts[high]:
            violations.append(f"{what} must be one number, but {low} has {counts[low]} "
                              f"and {high} has {counts[high]}")
    return violations


def record_from_json(data: dict) -> IntentRecord:
    """The record a dataset line holds; a field of the wrong type is refused, not coerced."""
    for name in ("id", "text", "origin", "base_id"):
        if not isinstance(data[name], str):
            raise ValueError(f"{name} must be a string, not {data[name]!r}")
    if type(data["variant_index"]) is not int:  # a bool or a fraction is refused too
        raise ValueError(f"variant_index must be an integer, not {data['variant_index']!r}")
    return IntentRecord(
        id=data["id"],
        text=data["text"],
        ground_truth=DtmfPath(data["ground_truth"]),
        origin=data["origin"],
        base_id=data["base_id"],
        variant_index=data["variant_index"],
    )


def dataset_to_jsonl(ds: Dataset) -> str:
    return "".join(
        json.dumps(r._asdict(), ensure_ascii=False) + "\n" for r in ds.records
    )


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write the dataset whole (``write_whole``). A device or a pipe at
    ``path`` is written to as it is."""
    path, data = Path(path), dataset_to_jsonl(ds).encode("utf-8")
    if path.exists() and not path.is_file():
        path.write_bytes(data)
    else:
        write_whole(path, data)


def write_whole(path: str | Path, content: bytes | dict[str, bytes]) -> None:
    """Write ``content``, a file's bytes or a directory's files by name, beside
    ``path``, then rename it onto ``path``, a directory there moved aside first
    and removed last (a link to one is unlinked, its target left as it is): a
    failure leaves the old file or directory or none."""
    path = Path(path)
    temp, old = (path.with_name(f".{path.name}.{os.getpid()}.{end}") for end in ("tmp", "old"))
    moved = False
    try:
        if isinstance(content, bytes):
            temp.write_bytes(content)
        else:
            temp.mkdir()
            for name, data in content.items():
                (temp / name).write_bytes(data)
        if path.is_dir():
            os.replace(path, old)
            moved = True
        os.replace(temp, path)
    except BaseException:  # a Ctrl-C too
        if moved:
            os.replace(old, path)
        if temp.is_dir():
            shutil.rmtree(temp)
        else:
            temp.unlink(missing_ok=True)
        raise
    if moved and old.is_symlink():
        old.unlink()
    elif moved:
        shutil.rmtree(old)


def read_jsonl(lines: Iterable[str], path: str | Path, parse: Callable[[dict], object], what: str) -> list:
    """What ``parse`` makes of each non-blank line of the JSONL file at
    ``path``, read as ``lines``; a line it refuses raises ValueError
    naming ``<path>:<line>: bad <what>``."""
    items = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            items.append(parse(json.loads(line)))
        # TypeError: no JSON object, or a field of the wrong type; RecursionError: nested too deep
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise ValueError(f"{path}:{line_no}: bad {what}: {exc}") from exc
    return items


def load_dataset(path: str | Path, menu_name: str = "") -> Dataset:
    """Read a JSONL dataset; validate_dataset judges its values."""
    with open(path, encoding="utf-8") as handle:
        return Dataset(menu_name, read_jsonl(handle, path, record_from_json, "record"))
