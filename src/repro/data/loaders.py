"""The one reader from files to a dataset: :func:`load_dataset`.

The original SparkER loads CSV and JSON datasets into ``EntityProfile`` RDDs;
this builds the same profile structure driver-side.  The format of a source
follows its file suffix: ``.json`` is an array of objects, ``.jsonl`` one
object per line, anything else CSV with a header row.  Every read, decode or
parse failure is a :class:`~repro.exceptions.DataError` naming the file.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Callable
from pathlib import Path

from repro.data.dataset import DatasetPair, ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.data.profile import EntityProfile
from repro.exceptions import DataError


def _read(path: Path, encoding: str, parse: Callable):
    """``parse`` applied to ``path`` opened as text; any failure names the file."""
    try:
        with path.open(newline="", encoding=encoding) as handle:
            return parse(handle)
    except FileNotFoundError:
        raise DataError(f"no such file: {path}") from None
    except (OSError, ValueError, RecursionError, csv.Error, DataError) as error:
        raise DataError(f"{path}: {error}") from error


def _records(handle, suffix: str) -> list:
    """The records of an opened source whose file name ends in ``suffix``."""
    if suffix == ".jsonl":
        return [json.loads(line) for line in handle if line.strip()]
    if suffix == ".json":
        data = json.load(handle)
        if not isinstance(data, list):
            raise DataError("a JSON source must be an array of objects")
        return data
    return list(csv.DictReader(handle))


def _profiles(
    records: list, id_field: str | None, source_id: int, start_id: int
) -> list[EntityProfile]:
    profiles: list[EntityProfile] = []
    for profile_id, record in enumerate(records, start_id):
        if not isinstance(record, dict):
            raise DataError(f"record {profile_id - start_id} is not an object")
        original_id = str(record.get(id_field, profile_id)) if id_field else str(profile_id)
        profile = EntityProfile(profile_id, original_id, source_id)
        for attribute, value in record.items():
            if id_field is not None and attribute == id_field:
                continue
            for item in value if isinstance(value, list) else (value,):
                profile.add(attribute, item)
        profiles.append(profile)
    return profiles


def _truth(handle, left: dict[str, int], right: dict[str, int]) -> GroundTruth:
    """Pairs of the first two columns: the first through ``left``, the second
    through ``right``; rows with an unknown id are skipped."""
    rows = csv.reader(handle)
    if len(next(rows, ())) < 2:
        raise DataError("a ground truth needs two id columns in its header")
    truth = GroundTruth()
    for row in rows:
        if len(row) >= 2:
            a, b = left.get(row[0].strip()), right.get(row[1].strip())
            if a is not None and b is not None:
                truth.add(a, b)
    if not len(truth):
        raise DataError("no ground-truth pair maps to the ids of the sources")
    return truth


def load_dataset(
    source0: str | Path,
    source1: str | Path | None = None,
    ground_truth: str | Path | None = None,
    *,
    id_field: str | None = None,
    encoding: str = "utf-8",
    name: str | None = None,
) -> DatasetPair:
    """Read one source (dirty ER) or two (clean-clean ER) and a ground truth.

    Profile ids run from 0 over source 0, then on over source 1.  A record's
    ``id_field`` value is its original id (the profile id when absent), and
    every other field an attribute; a list value gives one pair per item.
    The ground truth is a CSV whose first column holds source-0 ids and whose
    second holds source-1 ids (source-0 ids with one source).  ``encoding``
    applies to every file; ``name`` defaults to the stem of ``source0``.
    """
    collection = ProfileCollection()
    id_maps: list[dict[str, int]] = []
    paths = [Path(path) for path in (source0, source1) if path is not None]
    for source_id, path in enumerate(paths):
        profiles = _read(
            path,
            encoding,
            lambda handle: _profiles(
                _records(handle, path.suffix.lower()), id_field, source_id, len(collection)
            ),
        )
        for profile in profiles:
            collection.add(profile)
        id_maps.append({p.original_id: p.profile_id for p in profiles})
    truth = GroundTruth()
    if ground_truth is not None:
        left, right = id_maps[0], id_maps[-1]
        truth = _read(Path(ground_truth), encoding, lambda handle: _truth(handle, left, right))
    return DatasetPair(collection, truth, name or paths[0].stem)
