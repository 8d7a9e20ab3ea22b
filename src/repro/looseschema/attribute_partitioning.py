"""Attribute partitioning (BLAST loose-schema generator, step 1).

Per the paper (Section 2.1):

1. Attributes are grouped by the similarity of their values.  BLAST
   proposes similar attribute pairs with LSH over the value tokens; here
   every pair is scored by exact Jaccard instead (cross-source pairs in
   clean-clean ER, all pairs in dirty ER), which costs O(A²) set
   intersections for A attributes and is what LSH approximates.
2. For each attribute only its *most similar* partner is kept, giving pairs of
   similar attributes; on a tie the partner with the smaller
   ``(source, attribute)`` key wins.
3. The transitive closure of those pairs partitions the attributes into
   non-overlapping clusters.
4. Attributes that appear in no cluster go to a catch-all *blob* partition.

The clustering threshold is the knob exposed in the demo (Figure 6): with the
threshold at its maximum (1.0) no attribute pair survives, every attribute
falls in the blob and the blocking degenerates to schema-agnostic token
blocking; lowering it produces increasingly many clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from repro.data.dataset import ProfileCollection
from repro.utils.unionfind import UnionFind
from repro.exceptions import BlockingError
from repro.looseschema.attributes import AttributeTokens
from repro.utils.tokenize import TokenTable, table_for


@dataclass
class AttributePartitioning:
    """The result of attribute partitioning.

    ``clusters`` maps cluster id (1, 2, ...) to the set of (source, attribute)
    members; the blob cluster always has id :attr:`blob_cluster_id` (0) and
    collects every attribute not assigned to a named cluster.
    """

    clusters: dict[int, set[tuple[int, str]]] = field(default_factory=dict)
    blob_cluster_id: int = 0

    def cluster_of(self, attribute: str, source_id: int | None = None) -> int:
        """Return the cluster id of ``attribute`` (blob id when unknown).

        When ``source_id`` is omitted the attribute name is looked up in any
        source, which is convenient because attribute names are unique per
        source in practice.
        """
        for cluster_id, members in self.clusters.items():
            for member_source, member_attribute in members:
                if member_attribute != attribute:
                    continue
                if source_id is None or member_source == source_id:
                    return cluster_id
        return self.blob_cluster_id

    def cluster_by_attribute(self) -> dict[tuple[int, str], int]:
        """Map ``(source_id, attribute)`` to its cluster id.

        The one resolution the entropy extractor and the loose-schema blocker
        share; a pair that is not a key belongs to
        the blob cluster.
        """
        return {
            member: cluster_id
            for cluster_id, members in self.clusters.items()
            for member in members
        }

    def non_blob_clusters(self) -> dict[int, set[tuple[int, str]]]:
        """Clusters other than the blob."""
        return {
            cluster_id: members
            for cluster_id, members in self.clusters.items()
            if cluster_id != self.blob_cluster_id
        }

    def num_clusters(self) -> int:
        """Number of clusters including the blob (if non-empty)."""
        return len([c for c, members in self.clusters.items() if members])

    def describe(self) -> list[str]:
        """Human-readable cluster listing (what the demo GUI displays)."""
        lines = []
        for cluster_id in sorted(self.clusters):
            members = self.clusters[cluster_id]
            names = ", ".join(
                f"{attribute} (source {source})" for source, attribute in sorted(members)
            )
            label = "blob" if cluster_id == self.blob_cluster_id else f"cluster {cluster_id}"
            lines.append(f"{label}: {names}")
        return lines

    def move_attribute(self, attribute: str, source_id: int, target_cluster: int) -> None:
        """Manually move an attribute to another cluster (supervised mode).

        This is the operation behind the demo's "modify the clusters" step
        (Figure 6(c)).  The target cluster is created if it does not exist.
        """
        key = (source_id, attribute)
        for members in self.clusters.values():
            members.discard(key)
        self.clusters.setdefault(target_cluster, set()).add(key)


def attribute_similarities(
    columns: AttributeTokens,
) -> dict[tuple[tuple[int, str], tuple[int, str]], float]:
    """Exact Jaccard of the token sets of every attribute pair ``(a, b)``,
    ``a < b``, in sorted key order: only pairs from different sources when
    the collection has more than one (clean-clean ER), all pairs otherwise."""
    runs = columns.runs()
    single_source = len({key[0] for key in runs}) < 2
    result: dict[tuple[tuple[int, str], tuple[int, str]], float] = {}
    for a, b in combinations(sorted(runs), 2):
        if not single_source and a[0] == b[0]:
            continue
        run_a, run_b = runs[a], runs[b]
        common = int(np.count_nonzero(np.isin(run_a, run_b, assume_unique=True)))
        union = len(run_a) + len(run_b) - common
        result[(a, b)] = common / union if union else 0.0
    return result


class AttributePartitioner:
    """Builds an :class:`AttributePartitioning` from a profile collection.

    Parameters
    ----------
    threshold:
        Similarity threshold in [0, 1].  Attribute pairs with similarity
        strictly below the threshold are discarded *before* the best-match
        selection; with ``threshold >= 1.0`` every attribute ends up in the
        blob (schema-agnostic behaviour, Figure 6(a)).
    """

    def __init__(self, threshold: float = 0.3) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise BlockingError("threshold must be in [0, 1]")
        self.threshold = threshold

    # ------------------------------------------------------------------ public
    def partition(
        self, profiles: ProfileCollection, table: TokenTable | None = None
    ) -> AttributePartitioning:
        """Run similarity → best match → transitive closure → blob assignment.

        ``table`` is a token table of ``profiles`` (one is built when absent).
        """
        return self.partition_columns(AttributeTokens.of(table_for(profiles, table)))

    def partition_columns(self, columns: AttributeTokens) -> AttributePartitioning:
        """Same as :meth:`partition` but starting from prebuilt attribute columns."""
        all_attributes = set(columns.table.attributes)

        # Degenerate threshold: everything in the blob (Figure 6(a)).
        if self.threshold >= 1.0:
            return AttributePartitioning(clusters={0: set(all_attributes)})

        filtered = {
            pair: similarity
            for pair, similarity in attribute_similarities(columns).items()
            if similarity >= self.threshold and similarity > 0.0
        }

        best_pairs = self._best_match_pairs(filtered)
        clusters = self._transitive_closure(best_pairs)

        clustered_attributes = set().union(*clusters) if clusters else set()
        blob = all_attributes - clustered_attributes

        partitioning = AttributePartitioning()
        partitioning.clusters[partitioning.blob_cluster_id] = blob
        for index, members in enumerate(sorted(clusters, key=lambda c: sorted(c)), start=1):
            partitioning.clusters[index] = set(members)
        return partitioning

    # -------------------------------------------------------------- internals
    @staticmethod
    def _best_match_pairs(
        similarities: dict[tuple[tuple[int, str], tuple[int, str]], float]
    ) -> set[tuple[tuple[int, str], tuple[int, str]]]:
        """Keep, for each attribute, only the edge to its most similar partner;
        on equal similarity the smaller partner key wins, whatever order the
        pairs come in."""
        best: dict[tuple[int, str], tuple[float, tuple[int, str]]] = {}
        for (a, b), similarity in similarities.items():
            for attribute, partner in ((a, b), (b, a)):
                rank = (-similarity, partner)
                if attribute not in best or rank < best[attribute]:
                    best[attribute] = rank
        pairs: set[tuple[tuple[int, str], tuple[int, str]]] = set()
        for attribute, (_similarity, partner) in best.items():
            pair = tuple(sorted((attribute, partner)))
            pairs.add(pair)  # type: ignore[arg-type]
        return pairs

    @staticmethod
    def _transitive_closure(
        pairs: set[tuple[tuple[int, str], tuple[int, str]]]
    ) -> list[set[tuple[int, str]]]:
        """Union the best-match pairs into non-overlapping clusters."""
        uf = UnionFind()
        for a, b in pairs:
            uf.union(a, b)
        return [set(members) for members in uf.components().values()]
