"""Golden digests: the outputs of fixed-seed runs, pinned to the bit.

``tests/golden.json`` holds SHA-256 digests of

* ``SparkER.run``'s candidate pairs (sorted), similarity graph (``(a, b,
  score.hex())`` in row order), clusters (id and members in iteration
  order), entities (JSON, key order kept) and per-stage metric rows
  (``metric_rows()``: stage metrics, no seconds) on fixed-seed
  ``generate_abt_buy_like`` and ``generate_scalability_products`` inputs,
  under the default (loose-schema) and the schema-agnostic configuration;
* the retained edges of ``MetaBlocker.run`` — endpoints and weights in
  retention order, the float bits included — for every weighting scheme ×
  pruning rule × entropy on/off, on one loose-schema token-blocked
  collection (whose blocks carry entropies, so the entropy axis matters);
* the generated inputs themselves — every profile's id, original id,
  source and attribute list in collection order, and the sorted ground
  truth — of ``generate_abt_buy_like`` over sizes × seeds × match rates and
  of ``generate_scalability_products`` over sizes × seeds.

A refactor that is meant to change no output must leave every digest equal.
Recompute the file at a commit whose outputs are the reference with
``PYTHONPATH=src python tests/test_golden.py``; the file records the
digests only, so a changed digest names the case, not the difference.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.core.blocker import Blocker
from repro.core.config import BlockerConfig, SparkERConfig
from repro.core.sparker import SparkER
from repro.data.synthetic import (
    SyntheticConfig,
    generate_abt_buy_like,
    generate_scalability_products,
)
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.pruning import CardinalityNodePruning

GOLDEN = Path(__file__).with_name("golden.json")

INPUTS = {
    "abt-buy-250": lambda: generate_abt_buy_like(SyntheticConfig(num_entities=250, seed=7)),
    "scalability-4000": lambda: generate_scalability_products(4000, seed=7),
}
CONFIGS = {
    "default": SparkERConfig.unsupervised_default,
    "schema-agnostic": SparkERConfig.schema_agnostic,
}
WEIGHTINGS = ("cbs", "ecbs", "js", "ejs", "arcs")
# The five stock rules, and CNP's reciprocal variant.
PRUNINGS = {
    "wep": lambda: "wep",
    "cep": lambda: "cep",
    "wnp": lambda: "wnp",
    "rwnp": lambda: "rwnp",
    "cnp": lambda: "cnp",
    "rcnp": lambda: CardinalityNodePruning(reciprocal=True),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(dataset: str, config: str) -> "dict[str, str]":
    """Digests of one ``SparkER.run``."""
    result = SparkER(CONFIGS[config]()).run(INPUTS[dataset]().profiles)
    clusters = [(cluster.cluster_id, list(cluster.members)) for cluster in result.clusters]
    graph = result.similarity_graph
    edges = list(zip(graph.a.tolist(), graph.b.tolist(), map(float.hex, graph.score.tolist())))
    return {
        "candidate_pairs": _sha256(repr(sorted(result.candidate_pairs)).encode()),
        "clusters": _sha256(repr(clusters).encode()),
        "entities": _sha256(json.dumps(result.entities).encode()),
        "metric_rows": _sha256(repr(result.pipeline_result.metric_rows()).encode()),
        "similarity_graph": _sha256(repr(edges).encode()),
    }


@lru_cache(maxsize=1)
def grid_blocks():
    """The loose-schema, purged and filtered blocks of abt-buy-250."""
    return Blocker(BlockerConfig()).run(INPUTS["abt-buy-250"]().profiles).filtered_blocks


def edges_digest(weighting: str, pruning: str, use_entropy: bool) -> str:
    """Digest of the retained edges' columns: order and float bits."""
    meta_blocker = MetaBlocker(weighting, PRUNINGS[pruning](), use_entropy=use_entropy)
    edges = meta_blocker.run(grid_blocks()).retained_edges
    digest = hashlib.sha256()
    for column, dtype in ((edges.a, "<i8"), (edges.b, "<i8"), (edges.w, "<f8")):
        digest.update(np.ascontiguousarray(column, dtype=dtype).tobytes())
    return digest.hexdigest()


def generator_digest(dataset) -> str:
    """Digest of a generated dataset: its profiles and its ground truth."""
    profiles = [
        (p.profile_id, p.original_id, p.source_id, [(a.attribute, a.value) for a in p.attributes])
        for p in dataset.profiles
    ]
    truth = sorted(dataset.ground_truth.pairs())
    return _sha256(repr((dataset.name, profiles, truth)).encode())


GENERATORS = {
    "abt-buy": lambda n, seed, rate: generate_abt_buy_like(
        SyntheticConfig(num_entities=n, seed=seed, match_rate=rate)
    ),
    "scalability": lambda n, seed: generate_scalability_products(n, seed=seed),
}
GENERATOR_CASES = [
    ("abt-buy", n, seed, rate)
    for n in (0, 1, 2, 7, 250, 300, 1000)
    for seed in (3, 7, 42)
    for rate in (0.0, 0.8, 1.0)
] + [("scalability", n, seed) for n in (0, 1, 9, 400, 4000) for seed in (7, 11, 42)]


RUN_CASES = [(dataset, config) for dataset in INPUTS for config in CONFIGS]
EDGE_CASES = [
    (weighting, pruning, use_entropy)
    for weighting in WEIGHTINGS
    for pruning in PRUNINGS
    for use_entropy in (False, True)
]


def _run_key(dataset: str, config: str) -> str:
    return f"run/{dataset}/{config}"


def _edge_key(weighting: str, pruning: str, use_entropy: bool) -> str:
    return f"edges/{weighting}/{pruning}/{'entropy' if use_entropy else 'plain'}"


def _generator_key(generator: str, *args) -> str:
    return "/".join(("generate", generator, *map(str, args)))


def compute() -> "dict[str, object]":
    """Every digest of the file, recomputed."""
    golden: "dict[str, object]" = {}
    for case in RUN_CASES:
        golden[_run_key(*case)] = run_digests(*case)
    for case in EDGE_CASES:
        golden[_edge_key(*case)] = edges_digest(*case)
    for generator, *args in GENERATOR_CASES:
        golden[_generator_key(generator, *args)] = generator_digest(GENERATORS[generator](*args))
    return golden


@lru_cache(maxsize=1)
def _golden() -> "dict[str, object]":
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("dataset, config", RUN_CASES, ids=[_run_key(*c) for c in RUN_CASES])
def test_sparker_run_matches_golden(dataset, config):
    assert run_digests(dataset, config) == _golden()[_run_key(dataset, config)]


@pytest.mark.parametrize(
    "weighting, pruning, use_entropy", EDGE_CASES, ids=[_edge_key(*c) for c in EDGE_CASES]
)
def test_retained_edges_match_golden(weighting, pruning, use_entropy):
    case = (weighting, pruning, use_entropy)
    assert edges_digest(*case) == _golden()[_edge_key(*case)]


@pytest.mark.parametrize(
    "case", GENERATOR_CASES, ids=[_generator_key(*c) for c in GENERATOR_CASES]
)
def test_generated_inputs_match_golden(case):
    generator, *args = case
    digest = generator_digest(GENERATORS[generator](*args))
    assert digest == _golden()[_generator_key(generator, *args)]


def test_golden_file_covers_every_case():
    assert set(_golden()) == (
        {_run_key(*c) for c in RUN_CASES}
        | {_edge_key(*c) for c in EDGE_CASES}
        | {_generator_key(*c) for c in GENERATOR_CASES}
    )


if __name__ == "__main__":
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    target.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {target}")
