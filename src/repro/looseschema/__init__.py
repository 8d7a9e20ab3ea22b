"""Loose-schema generator (BLAST): attribute partitioning + cluster entropy.

Attribute pairs are scored by exact Jaccard of their value tokens, every
pair; BLAST's LSH step, which proposes the pairs to score on schemas with
thousands of attributes, is described in the paper but not run here.
"""

from repro.looseschema.attributes import AttributeProfile, build_attribute_profiles
from repro.looseschema.attribute_partitioning import (
    AttributePartitioner,
    AttributePartitioning,
)
from repro.looseschema.entropy import EntropyExtractor, shannon_entropy

__all__ = [
    "AttributeProfile",
    "build_attribute_profiles",
    "AttributePartitioner",
    "AttributePartitioning",
    "EntropyExtractor",
    "shannon_entropy",
]
