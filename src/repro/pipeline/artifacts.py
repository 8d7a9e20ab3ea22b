"""The keyed artifact store that pipeline stages read from and write to.

Every value a stage produces is an *artifact*: a value stored under a string
*key* and tagged with a *kind* (its logical type).  Stages declare the kinds
they consume and produce (:class:`~repro.pipeline.stage.ArtifactSpec`), which
lets :class:`~repro.pipeline.runner.Pipeline` validate a composition before
anything runs, and lets checkpoint/resume serialise the whole intermediate
state of a run as one object.
"""

from __future__ import annotations

from collections.abc import Iterator

# The artifact kinds known to the built-in stages.  A kind is a contract on
# the stored value, not a Python class check: stages that agree on a kind can
# be freely recombined.
PROFILES = "profiles"
TOKENS = "tokens"
PARTITIONING = "partitioning"
CLUSTER_ENTROPIES = "cluster_entropies"
BLOCKS = "blocks"
CANDIDATE_PAIRS = "candidate_pairs"
META_BLOCKING = "meta_blocking"
SIMILARITY_GRAPH = "similarity_graph"
CLUSTERS = "clusters"
ENTITIES = "entities"
EVALUATION = "evaluation"

KNOWN_KINDS = (
    PROFILES,
    TOKENS,
    PARTITIONING,
    CLUSTER_ENTROPIES,
    BLOCKS,
    CANDIDATE_PAIRS,
    META_BLOCKING,
    SIMILARITY_GRAPH,
    CLUSTERS,
    ENTITIES,
    EVALUATION,
)


class ArtifactStore:
    """A keyed, kind-tagged store of pipeline artifacts.

    Keys default to the kind name (``"blocks"``) but a spec can remap them
    (``"raw_blocks"``, ``"filtered_blocks"``) so several artifacts of the same
    kind coexist in one run.
    """

    def __init__(self) -> None:
        self._values: dict[str, object] = {}
        self._kinds: dict[str, str] = {}

    def put(self, key: str, kind: str, value: object) -> None:
        """Store ``value`` under ``key``, tagged with ``kind``."""
        self._values[key] = value
        self._kinds[key] = kind

    def get(self, key: str, default: object = None) -> object:
        """Return the artifact stored under ``key`` (or ``default``)."""
        return self._values.get(key, default)

    def kind_of(self, key: str) -> str | None:
        """Return the kind tag of ``key`` (or None when absent)."""
        return self._kinds.get(key)

    def __contains__(self, key: str) -> bool:
        return key in self._values

    def __len__(self) -> int:
        return len(self._values)

    def keys(self) -> Iterator[str]:
        return iter(self._values)

    def items(self) -> Iterator[tuple[str, object]]:
        return iter(self._values.items())

    def manifest(self) -> dict[str, str]:
        """Key → kind mapping of everything stored (for reports and specs)."""
        return dict(self._kinds)

    def __repr__(self) -> str:
        entries = ", ".join(f"{key}:{kind}" for key, kind in sorted(self._kinds.items()))
        return f"ArtifactStore({entries})"
