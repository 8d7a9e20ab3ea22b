"""Per-phase memory of the streamed CBS/WNP meta-blocking at scale.

The diagnosis table of ``docs/BENCHMARKS.md`` ("The CSR index against peak
RSS"): for one size of the scale-proportional generator, the tracemalloc
peak (MiB allocated since tracing began, live at the phase's high-water
mark) and the ``getrusage`` minor page faults of each phase — token
blocking, purge + filter, index build, weighing, retention — the process's
major faults, and the weighing time of CBS beside EJS, whose plan needs a
degree pass first.  Tracing is on only while the phases are measured; the
two timings run untraced afterwards.

    PYTHONPATH=src:benchmarks python benchmarks/scale_phases.py 30000
"""

from __future__ import annotations

import json
import resource
import sys
import time
import tracemalloc

from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.data.synthetic import generate_scalability_products
from repro.metablocking import backends
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.pruning import make_pruning_strategy


def _weigh_s(blocks, scheme: str) -> float:
    """Seconds of plan + weighing on a fresh index (EJS: degree pass included)."""
    index = CSRBlockIndex.from_blocks(blocks)
    start = time.perf_counter()
    index.kernel().weight_arrays(index.weight_plan(scheme, False))
    return round(time.perf_counter() - start, 3)


def phases(num_entities: int) -> dict:
    profiles = generate_scalability_products(num_entities).profiles
    peaks: dict = {}
    faults: dict = {}

    def measured(name, call):
        tracemalloc.reset_peak()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        result = call()
        peaks[f"{name}_mb"] = round(tracemalloc.get_traced_memory()[1] / 2**20, 1)
        faults[f"{name}_minflt"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        return result

    tracemalloc.start()
    raw = measured("token", lambda: TokenBlocking().block(profiles))
    blocks = measured(
        "purge_filter",
        lambda: BlockFiltering().filter(BlockPurging().purge(raw, len(profiles))),
    )
    del raw
    index = measured("index_build", lambda: CSRBlockIndex.from_blocks(blocks))
    table = measured(
        "weigh", lambda: index.kernel().weight_arrays(index.weight_plan("cbs", False))
    )

    def retain():
        positions = backends.retained_positions(make_pruning_strategy("wnp"), table, index)
        return sum(len(chunk) for chunk in backends.iter_retained_chunks(table, positions))

    retained = measured("retain", retain)
    tracemalloc.stop()
    return {
        "num_entities": num_entities,
        "graph_edges": len(table),
        "retained_edges": retained,
        **peaks,
        **faults,
        "major_faults": resource.getrusage(resource.RUSAGE_SELF).ru_majflt,
        "cbs_weigh_s": _weigh_s(blocks, "cbs"),
        "ejs_weigh_s": _weigh_s(blocks, "ejs"),
    }


if __name__ == "__main__":
    print(json.dumps(phases(int(sys.argv[1]) if len(sys.argv) > 1 else 30_000)))
