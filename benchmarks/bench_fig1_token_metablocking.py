"""FIG1 — schema-agnostic token blocking + CBS/WEP meta-blocking (Figure 1).

Regenerates, for the toy dataset of Figure 1 and for the synthetic Abt-Buy
stand-in, the quantities the figure illustrates: the blocks produced by token
blocking, the CBS edge weights, and the comparisons retained by average-weight
(WEP) pruning.
"""

from __future__ import annotations

from conftest import print_rows

from repro.blocking.token_blocking import TokenBlocking
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker


def _toy_rows(toy) -> list[dict[str, object]]:
    blocks = TokenBlocking(remove_stopwords=True).block(toy.profiles)
    index = CSRBlockIndex.from_blocks(blocks)
    plan = index.weight_plan("cbs", use_entropy=False)
    weights = index.kernel().weight_arrays(plan).to_mapping()
    result = MetaBlocker("cbs", "wep").run(blocks)
    rows = []
    for pair, weight in sorted(weights.items()):
        rows.append(
            {
                "edge": f"p{pair[0] + 1}-p{pair[1] + 1}",
                "cbs_weight": weight,
                "retained": pair in result.candidate_pairs,
                "true_match": pair in toy.ground_truth,
            }
        )
    return rows


def test_fig1_toy_example(benchmark, toy):
    """The Figure 1(b)/(c) toy run: blocks, weights and pruned comparisons."""
    rows = benchmark(_toy_rows, toy)
    print_rows("FIG1 toy example: CBS weights and WEP pruning", rows)
    retained_true = [r for r in rows if r["true_match"] and r["retained"]]
    assert len(retained_true) == 2, "both true matches must survive the pruning"


def test_fig1_schema_agnostic_blocking_abt_buy(benchmark, abt_buy):
    """Token blocking on the Abt-Buy stand-in: recall ≈ 1, very low precision."""

    def run():
        blocks = TokenBlocking().block(abt_buy.profiles)
        pairs = blocks.distinct_comparisons()
        truth = abt_buy.ground_truth.pairs()
        return {
            "blocks": len(blocks),
            "candidate_pairs": len(pairs),
            "recall": round(len(pairs & truth) / len(truth), 4),
            "precision": round(len(pairs & truth) / len(pairs), 6),
        }

    row = benchmark(run)
    print_rows("FIG1 schema-agnostic token blocking (Abt-Buy stand-in)", [row])
    assert row["recall"] > 0.95
    assert row["precision"] < 0.1


def test_fig1_meta_blocking_prunes_comparisons(benchmark, abt_buy):
    """CBS/WEP meta-blocking removes a large share of the comparisons."""

    def run():
        blocks = TokenBlocking().block(abt_buy.profiles)
        before = len(blocks.distinct_comparisons())
        result = MetaBlocker("cbs", "wep").run(blocks)
        truth = abt_buy.ground_truth.pairs()
        return {
            "edges_before": before,
            "edges_after": result.num_candidates,
            "removed_fraction": round(1 - result.num_candidates / before, 4),
            "recall_after": round(
                len(result.candidate_pairs & truth) / len(truth), 4
            ),
        }

    row = benchmark(run)
    print_rows("FIG1 meta-blocking pruning (Abt-Buy stand-in)", [row])
    assert row["removed_fraction"] > 0.3
    assert row["recall_after"] > 0.9
