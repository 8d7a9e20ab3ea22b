"""Attribute partitioning (BLAST loose-schema generator, step 1).

Per the paper (Section 2.1):

1. LSH is applied to attribute values to group attributes by similarity; the
   groups are overlapping.
2. For each attribute only its *most similar* partner is kept, giving pairs of
   similar attributes.
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

from repro.data.dataset import ProfileCollection
from repro.utils.unionfind import UnionFind
from repro.exceptions import BlockingError
from repro.looseschema.lsh import AttributeLSH, AttributeTokens
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


class AttributePartitioner:
    """Builds an :class:`AttributePartitioning` from a profile collection.

    Parameters
    ----------
    threshold:
        Similarity threshold in [0, 1].  Attribute pairs with similarity
        strictly below the threshold are discarded *before* the best-match
        selection; with ``threshold >= 1.0`` every attribute ends up in the
        blob (schema-agnostic behaviour, Figure 6(a)).
    lsh:
        The LSH configuration used to propose candidate attribute pairs.
    """

    def __init__(self, threshold: float = 0.3, lsh: AttributeLSH | None = None) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise BlockingError("threshold must be in [0, 1]")
        self.threshold = threshold
        self.lsh = lsh or AttributeLSH()

    # ------------------------------------------------------------------ public
    def partition(
        self, profiles: ProfileCollection, table: TokenTable | None = None
    ) -> AttributePartitioning:
        """Run LSH → best match → transitive closure → blob assignment.

        ``table`` is a token table of ``profiles`` (one is built when absent).
        """
        return self.partition_columns(AttributeTokens.of(table_for(profiles, table)))

    def partition_columns(self, columns: AttributeTokens) -> AttributePartitioning:
        """Same as :meth:`partition` but starting from prebuilt attribute columns."""
        all_attributes = set(columns.table.attributes)

        # Degenerate threshold: everything in the blob (Figure 6(a)).
        if self.threshold >= 1.0:
            return AttributePartitioning(clusters={0: set(all_attributes)})

        similarities = self.lsh.similarities(columns)
        filtered = {
            pair: similarity
            for pair, similarity in similarities.items()
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
        """Keep, for each attribute, only the edge to its most similar partner."""
        best: dict[tuple[int, str], tuple[tuple[int, str], float]] = {}
        for (a, b), similarity in similarities.items():
            if a not in best or similarity > best[a][1]:
                best[a] = (b, similarity)
            if b not in best or similarity > best[b][1]:
                best[b] = (a, similarity)
        pairs: set[tuple[tuple[int, str], tuple[int, str]]] = set()
        for attribute, (partner, _similarity) in best.items():
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
