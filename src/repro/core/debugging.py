"""Process debugging (Section 3 and Figure 6 of the paper).

The demo's GUI lets a user iterate on the blocking configuration over a small
but representative sample of the input: change the attribute-partitioning
threshold, manually move attributes between clusters, inspect recall /
precision / #blocks / #candidate pairs, drill into the ground-truth pairs lost
by the current configuration ("false positives" in the demo's terminology,
i.e. false *negatives* of the blocking), and finally apply the tuned
configuration to the whole dataset in batch mode.

:class:`DebugSession` provides the same workflow as a library API:

* :meth:`try_threshold` — Figure 6(a)/(b): rerun the blocker with a given
  attribute-partitioning threshold and report the GUI's numbers.
* :meth:`try_partitioning` — Figure 6(c): rerun with a manually edited
  partitioning.
* :meth:`explain_lost_pairs` — Figure 6(d): for each lost ground-truth pair,
  show the profiles and the blocking keys they shared before pruning.
* :meth:`try_meta_blocking` — Figure 6(e): rerun with meta-blocking + entropy
  and report the candidate-pair reduction.
* :meth:`apply_to_full_dataset` — batch mode: run the chosen configuration on
  the full input.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.blocking.stats import pair_stats
from repro.core.blocker import Blocker, BlockerReport
from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER, SparkERResult
from repro.data.dataset import ProfileCollection
from repro.data.ground_truth import GroundTruth
from repro.evaluation.report import format_table
from repro.looseschema.attribute_partitioning import AttributePartitioning
from repro.sampling.debug_sampler import DebugSample, DebugSampler


@dataclass
class DebugStepResult:
    """The numbers the demo GUI shows after one configuration attempt."""

    label: str
    num_blocks: int
    num_candidate_pairs: int
    recall: float
    precision: float
    lost_pairs: set[tuple[int, int]] = field(default_factory=set)
    partitioning: AttributePartitioning | None = None
    cluster_entropies: dict[int, float] = field(default_factory=dict)
    blocker_report: BlockerReport | None = None

    def as_dict(self) -> dict[str, object]:
        """Flat summary row."""
        return {
            "label": self.label,
            "blocks": self.num_blocks,
            "candidate_pairs": self.num_candidate_pairs,
            "recall": round(self.recall, 4),
            "precision": round(self.precision, 6),
            "lost_pairs": len(self.lost_pairs),
        }


@dataclass
class LostPairExplanation:
    """Why a ground-truth pair was lost (Figure 6(d))."""

    pair: tuple[int, int]
    left_attributes: dict[str, list[str]]
    right_attributes: dict[str, list[str]]
    shared_keys_before: list[str]

    def render(self) -> str:
        """Human-readable explanation of one lost pair."""
        lines = [f"lost pair {self.pair}"]
        lines.append(f"  left : {self.left_attributes}")
        lines.append(f"  right: {self.right_attributes}")
        if self.shared_keys_before:
            lines.append(f"  shared blocking keys before pruning: {self.shared_keys_before}")
        else:
            lines.append("  the profiles shared no blocking key at all")
        return "\n".join(lines)


class DebugSession:
    """An interactive (programmatic) tuning session on a data sample.

    Parameters
    ----------
    profiles / ground_truth:
        The full dataset; the session itself works on a sample drawn with the
        configured :class:`~repro.sampling.debug_sampler.DebugSampler`.
    config:
        The starting configuration (defaults to the unsupervised defaults).
    sample:
        When False the session operates on the full dataset (useful for tests
        and tiny datasets).
    """

    def __init__(
        self,
        profiles: ProfileCollection,
        ground_truth: GroundTruth,
        config: SparkERConfig | None = None,
        *,
        sample: bool = True,
    ) -> None:
        self.full_profiles = profiles
        self.full_ground_truth = ground_truth
        self.config = config or SparkERConfig.unsupervised_default()
        self.config.validate()
        if sample:
            sampler = DebugSampler(
                num_seeds=self.config.sampling.num_seeds,
                per_seed=self.config.sampling.per_seed,
                seed=self.config.sampling.seed,
            )
            self.sample: DebugSample = sampler.sample(profiles, ground_truth)
        else:
            self.sample = DebugSample(
                profiles=profiles, ground_truth=ground_truth, seed_ids=[]
            )
        self.history: list[DebugStepResult] = []

    # ------------------------------------------------------------------ public
    def try_threshold(
        self, threshold: float, *, use_meta_blocking: bool = False, label: str | None = None
    ) -> DebugStepResult:
        """Rerun blocking with an attribute-partitioning threshold (Fig. 6(a)/(b)).

        With ``threshold=1.0`` every attribute falls in the blob cluster and
        the blocking is schema-agnostic; lower thresholds produce more
        attribute clusters.
        """
        config = copy.deepcopy(self.config.blocker)
        config.use_loose_schema = True
        config.attribute_threshold = threshold
        config.use_meta_blocking = use_meta_blocking
        label = label or f"threshold={threshold}"
        return self._run_blocker(config, label=label)

    def try_partitioning(
        self,
        partitioning: AttributePartitioning,
        *,
        use_meta_blocking: bool = False,
        label: str = "manual partitioning",
    ) -> DebugStepResult:
        """Rerun blocking with a manually edited partitioning (Fig. 6(c))."""
        config = copy.deepcopy(self.config.blocker)
        config.use_loose_schema = True
        config.use_meta_blocking = use_meta_blocking
        return self._run_blocker(config, label=label, partitioning=partitioning)

    def try_meta_blocking(
        self,
        *,
        threshold: float | None = None,
        partitioning: AttributePartitioning | None = None,
        use_entropy: bool = True,
        label: str | None = None,
    ) -> DebugStepResult:
        """Rerun with meta-blocking (+ entropy) enabled (Fig. 6(e))."""
        config = copy.deepcopy(self.config.blocker)
        config.use_loose_schema = True
        config.use_meta_blocking = True
        config.use_entropy = use_entropy
        if threshold is not None:
            config.attribute_threshold = threshold
        label = label or (
            "meta-blocking + entropy" if use_entropy else "meta-blocking"
        )
        return self._run_blocker(config, label=label, partitioning=partitioning)

    def try_schema_agnostic(self, *, use_meta_blocking: bool = False) -> DebugStepResult:
        """Plain schema-agnostic token blocking (no loose schema at all)."""
        config = copy.deepcopy(self.config.blocker)
        config.use_loose_schema = False
        config.use_entropy = False
        config.use_meta_blocking = use_meta_blocking
        return self._run_blocker(config, label="schema-agnostic")

    def explain_lost_pairs(
        self, step: DebugStepResult, *, limit: int | None = None
    ) -> list[LostPairExplanation]:
        """Explain the ground-truth pairs that ``step`` lost (Fig. 6(d)).

        For each lost pair the explanation lists the two profiles' attributes
        and the blocking keys they shared in the *unpruned* block collection,
        so the user understands which configuration choice lost the pair.
        """
        explanations: list[LostPairExplanation] = []
        raw_blocks = step.blocker_report.raw_blocks if step.blocker_report else None
        for pair in sorted(step.lost_pairs):
            if limit is not None and len(explanations) >= limit:
                break
            left, right = pair
            shared: list[str] = []
            if raw_blocks is not None:  # the blocks holding each endpoint, intersected
                columns = raw_blocks.columns
                holding = [columns.entries[columns.members == end] >> 1 for end in pair]
                shared = [columns.keys[block] for block in np.intersect1d(*holding).tolist()]
            explanations.append(
                LostPairExplanation(
                    pair=pair,
                    left_attributes=self.sample.profiles[left].as_dict(),
                    right_attributes=self.sample.profiles[right].as_dict(),
                    shared_keys_before=sorted(shared),
                )
            )
        return explanations

    def current_partitioning(self, threshold: float) -> AttributePartitioning:
        """Return the automatic partitioning of the sample at ``threshold``.

        The returned object can be edited with
        :meth:`AttributePartitioning.move_attribute` and passed back through
        :meth:`try_partitioning` — the supervised workflow of Figure 6(c).
        """
        from repro.looseschema.attribute_partitioning import AttributePartitioner

        return AttributePartitioner(threshold=threshold).partition(self.sample.profiles)

    def apply_to_full_dataset(
        self,
        *,
        threshold: float | None = None,
        use_entropy: bool | None = None,
        partitioning: AttributePartitioning | None = None,
    ) -> SparkERResult:
        """Apply the tuned configuration to the full dataset (batch mode)."""
        config = copy.deepcopy(self.config)
        if threshold is not None:
            config.blocker.attribute_threshold = threshold
        if use_entropy is not None:
            config.blocker.use_entropy = use_entropy
        pipeline = SparkER(config, partitioning=partitioning)
        return pipeline.run(self.full_profiles, self.full_ground_truth)

    def history_table(self) -> str:
        """The comparison table of every configuration tried so far."""
        return format_table(
            [step.as_dict() for step in self.history], title="debug session history"
        )

    # -------------------------------------------------------------- internals
    def _run_blocker(
        self,
        blocker_config,
        *,
        label: str,
        partitioning: AttributePartitioning | None = None,
    ) -> DebugStepResult:
        blocker = Blocker(blocker_config, partitioning=partitioning)
        report = blocker.run(self.sample.profiles, self.sample.ground_truth)
        stats = pair_stats(report.candidate_pairs, self.sample.ground_truth, None)
        blocks = report.filtered_blocks if report.filtered_blocks is not None else report.raw_blocks
        step = DebugStepResult(
            label=label,
            num_blocks=len(blocks) if blocks is not None else 0,
            num_candidate_pairs=stats.num_candidate_pairs,
            recall=stats.recall,
            precision=stats.precision,
            lost_pairs=stats.lost_pairs,
            partitioning=report.partitioning,
            cluster_entropies=report.cluster_entropies,
            blocker_report=report,
        )
        self.history.append(step)
        return step
