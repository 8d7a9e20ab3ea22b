"""The one reader of what earlier versions wrote.

Every class pickles and unpickles only its current shape; earlier shapes
are translated here, once, where a durable file is read.
:func:`unpickle_state` (behind ``PipelineCheckpoint.load``, so behind
``Pipeline.resume`` and ``CollectionStore.load_snapshots`` too) maps each
class whose pickled shape changed to a subclass that converts the old
state and then becomes the current class; :func:`current_state` moves a
retired report's metric rows onto the executions and drops retired keys
from the stored spec's stage params.  :func:`wal_payload` reads a WAL
record written before records were JSON, building plain data only.

Earlier shapes: a ``BlockCollection`` as a ``Block`` list (``_blocks``) or
with 4-field ``BlockColumns``; a ``SimilarityGraph`` as an ``_edges`` dict;
an ``IncrementalBlockIndex`` with ``_TokenState`` member sets (``_tokens``)
and removed engine settings; a ``MetaBlockingResult`` holding a ``set`` and
a ``dict``; checkpoint metrics in a ``report`` and seconds in ``timings``.
"""

from __future__ import annotations

import io
import pickle
import types
from typing import Any

import numpy as np

from repro.blocking.block import BlockCollection, BlockColumns
from repro.blocking.pairs import CandidatePairs
from repro.exceptions import PipelineValidationError
from repro.matching.similarity_graph import SimilarityGraph
from repro.metablocking.backends import RetainedEdges
from repro.metablocking.index import IncrementalBlockIndex
from repro.metablocking.metablocker import MetaBlockingResult
from repro.options import drop_retired_keys

# Modules whose retired record classes (the report, the timings) load as namespaces.
_RETIRED_RECORD_MODULES = {"repro.evaluation.report", "repro.utils.timers"}
# Index slots of removed engine options: kernel backend, buffers, temp root.
_RETIRED_INDEX_SLOTS = ("_backend", "_buffer_backend", "_tmp_dir")


class _BlockColumns(BlockColumns):
    def __new__(cls, keys, entropies, entries, members, cleans=None):
        # ``None``: four fields; the collection's flag goes on every block.
        return BlockColumns(keys, entropies, entries, members, cleans)


class _BlockCollection(BlockCollection):
    def __setstate__(self, state: dict) -> None:
        clean_clean, columns = state["clean_clean"], state.get("columns")
        if columns is None:
            columns = BlockCollection(state["_blocks"], clean_clean=clean_clean).columns
        if columns.cleans is None:
            columns = columns._replace(cleans=np.full(len(columns.keys), clean_clean))
        self.__dict__.update(
            clean_clean=clean_clean, columns=columns, _distinct_count=state.get("_distinct_count")
        )
        self.__class__ = BlockCollection


class _SimilarityGraph(SimilarityGraph):
    def __setstate__(self, state: dict) -> None:
        if "_edges" in state:
            SimilarityGraph.__init__(self, state["_edges"].values())
        else:
            self.__dict__.update(state)
        self.__class__ = SimilarityGraph


class _TokenState:
    __slots__ = ("members0", "members1")

    def __setstate__(self, state) -> None:
        # Pickled as (members0, members1, dirty flag, cached build tuple).
        self.members0, self.members1 = state[:2]


class _IncrementalBlockIndex(IncrementalBlockIndex):
    __slots__ = ()

    def __setstate__(self, state: dict) -> None:
        state = {slot: value for slot, value in state.items() if slot not in _RETIRED_INDEX_SLOTS}
        if "_tokens" in state:
            blocks = state.pop("_tokens")
            held = [
                (token, side, profile_id)
                for token, block in enumerate(blocks.values())
                for side, members in enumerate((block.members0, block.members1))
                for profile_id in members
            ]
            tokens, sides, profiles = np.array(held, dtype=np.int64).reshape(-1, 3).T
            rows = np.searchsorted(state["_profile_ids"], profiles)
            state.update(
                _forms=dict(zip(blocks, range(len(blocks)))),
                _occurrences=np.stack((tokens, sides, rows)),
                _size=len(held),
            )
        IncrementalBlockIndex.__setstate__(self, state)
        self.__class__ = IncrementalBlockIndex


class _MetaBlockingResult(MetaBlockingResult):
    def __setstate__(self, state: dict) -> None:
        pairs, edges = state["candidate_pairs"], state["retained_edges"]
        if not isinstance(pairs, CandidatePairs):
            pairs = CandidatePairs.of(pairs)
        if not isinstance(edges, RetainedEdges):
            retained, ends = RetainedEdges(), np.array(list(edges), dtype=np.int64).reshape(-1, 2)
            retained.a, retained.b = ends[:, 0].copy(), ends[:, 1].copy()
            retained.w = np.array(list(edges.values()), dtype=np.float64)
            edges = retained
        self.__dict__.update(state, candidate_pairs=pairs, retained_edges=edges)
        self.__class__ = MetaBlockingResult


_TRANSLATED = {
    ("repro.blocking.block", "BlockColumns"): _BlockColumns,
    ("repro.blocking.block", "BlockCollection"): _BlockCollection,
    ("repro.matching.similarity_graph", "SimilarityGraph"): _SimilarityGraph,
    ("repro.metablocking.index", "IncrementalBlockIndex"): _IncrementalBlockIndex,
    ("repro.metablocking.index", "_TokenState"): _TokenState,
    ("repro.metablocking.metablocker", "MetaBlockingResult"): _MetaBlockingResult,
}


class _StateUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        if (module, name) in _TRANSLATED:
            return _TRANSLATED[module, name]
        try:
            return super().find_class(module, name)
        except AttributeError:
            if module in _RETIRED_RECORD_MODULES:
                return types.SimpleNamespace
            raise


def unpickle_state(data: bytes) -> Any:
    """Unpickle a checkpoint or snapshot, every object in its current class."""
    return _StateUnpickler(io.BytesIO(data)).load()


def current_state(state: dict[str, Any]) -> dict[str, Any]:
    """``state`` with the report's metric rows on the executions and no
    retired key in a stored stage's params (none left: no ``params``, as a
    resolved spec writes it)."""
    report, _timings = state.pop("report", None), state.pop("timings", None)
    rows = {row.stage: row.metrics for row in getattr(report, "stages", ())}
    for execution in state.get("executions", ()):
        if "metrics" not in vars(execution):
            execution.metrics = dict(rows.get(execution.label, {}))
    for entry in (state.get("spec") or {}).get("stages") or ():
        if isinstance(entry, dict) and "params" in entry:
            entry["params"] = drop_retired_keys(entry["params"] or {}, PipelineValidationError)
            if not entry["params"]:
                del entry["params"]
    return state


class _PlainDataUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> Any:
        raise pickle.UnpicklingError(f"a plain-data record names the global {module}.{name}")


def wal_payload(data: bytes) -> dict:
    """The ingest dict of a WAL record written before records were JSON: a
    pickle spanning the record, of plain data only (every global refused, so
    no record runs code), holding a dict; anything else raises."""
    stream = io.BytesIO(data)
    payload = _PlainDataUnpickler(stream).load()
    if stream.tell() != len(data) or not isinstance(payload, dict):
        raise pickle.UnpicklingError("the record is not one pickled dict")
    return payload
