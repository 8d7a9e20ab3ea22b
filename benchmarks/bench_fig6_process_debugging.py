"""FIG6 — the process-debugging storyline (Figure 6(a)–(e)).

Replays the demo's debugging session on a sample of the Abt-Buy stand-in:

* (a) clustering threshold 1.0 — one blob cluster ≡ schema-agnostic blocking,
* (b) threshold 0.3 — attribute clusters appear; candidate pairs drop,
* (c) manual partitioning that splits every attribute — false negatives rise,
* (d) explanation of the lost pairs,
* (e) meta-blocking with entropy — large decrease in candidate pairs vs (b),

and then applies the tuned configuration to the full dataset (batch mode).
"""

from __future__ import annotations

from conftest import print_rows

from repro.core.config import SparkERConfig
from repro.core.debugging import DebugSession


def _build_session(dataset) -> DebugSession:
    config = SparkERConfig.unsupervised_default()
    config.sampling.num_seeds = 30
    config.sampling.per_seed = 10
    return DebugSession(dataset.profiles, dataset.ground_truth, config, sample=True)


def _run_storyline(dataset) -> list[dict[str, object]]:
    session = _build_session(dataset)

    step_a = session.try_threshold(1.0, label="(a) threshold=1.0 (blob)")
    step_b = session.try_threshold(0.3, label="(b) threshold=0.3")

    manual = session.current_partitioning(0.3)
    next_cluster = max(manual.clusters) + 1
    for source, attribute in sorted(set().union(*manual.clusters.values())):
        manual.move_attribute(attribute, source, next_cluster)
        next_cluster += 1
    step_c = session.try_partitioning(manual, label="(c) manual split")

    step_e = session.try_meta_blocking(
        threshold=0.3, use_entropy=True, label="(e) meta-blocking + entropy"
    )

    return [step.as_dict() for step in (step_a, step_b, step_c, step_e)]


def test_fig6_debugging_storyline(benchmark, abt_buy):
    """The (a) → (b) → (c) → (e) sweep of Figure 6."""
    rows = benchmark(_run_storyline, abt_buy)
    print_rows("FIG6 process-debugging sweep (sampled data)", rows)
    a, b, c, e = rows
    # (b) reduces candidates vs (a) without losing precision.
    assert b["candidate_pairs"] <= a["candidate_pairs"]
    assert b["precision"] >= a["precision"]
    # (c) the manual split loses at least as many ground-truth pairs as (b).
    assert c["lost_pairs"] >= b["lost_pairs"]
    # (e) meta-blocking + entropy shows a large decrease in candidate pairs.
    assert e["candidate_pairs"] < b["candidate_pairs"]


def test_fig6d_lost_pair_explanations(benchmark, abt_buy):
    """Figure 6(d): drill-down into the pairs lost by a bad configuration."""

    def run():
        session = _build_session(abt_buy)
        manual = session.current_partitioning(0.3)
        next_cluster = max(manual.clusters) + 1
        for source, attribute in sorted(set().union(*manual.clusters.values())):
            manual.move_attribute(attribute, source, next_cluster)
            next_cluster += 1
        step = session.try_partitioning(manual, label="manual split")
        return session.explain_lost_pairs(step, limit=5)

    explanations = benchmark(run)
    rows = [
        {
            "pair": str(explanation.pair),
            "shared_keys_before_pruning": len(explanation.shared_keys_before),
        }
        for explanation in explanations
    ]
    print_rows("FIG6(d) lost-pair explanations", rows or [{"pair": "none", "shared_keys_before_pruning": 0}])


def test_fig6_batch_mode_application(benchmark, abt_buy):
    """Batch mode: the tuned configuration applied to the full dataset."""

    def run():
        session = _build_session(abt_buy)
        session.try_threshold(0.3)
        result = session.apply_to_full_dataset(threshold=0.3, use_entropy=True)
        return {
            "candidate_pairs": result.summary()["candidate_pairs"],
            "clusters": result.summary()["clusters"],
            "cluster_f1": result.execution("clustering").metrics["f1"],
        }

    row = benchmark(run)
    print_rows("FIG6 batch-mode application of the tuned configuration", [row])
    assert row["cluster_f1"] > 0.7
