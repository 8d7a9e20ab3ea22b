"""Edge weighting schemes for meta-blocking.

The standard schemes of Papadakis et al. (EDBT 2016), all supported by the
original SparkER.  For an edge ``(i, j)`` of the blocking graph, with
``CBS`` the number of comparison-inducing blocks the two profiles share,
``B_i`` the number of comparison-inducing blocks containing ``i``, ``B`` the
number of blocks in the collection (those that induce no comparison
included), ``deg_i`` the degree of ``i`` and ``E`` the number of graph edges:

* **CBS** (Common Blocks Scheme): ``CBS``.
* **ECBS** (Enhanced CBS): CBS scaled by the rarity of each profile,
  ``CBS * f(B / B_i) * f(B / B_j)``.
* **JS** (Jaccard Scheme): ``CBS / (B_i + B_j - CBS)``.
* **EJS** (Enhanced JS): JS scaled by the rarity of each node's degree,
  ``JS * f(E / deg_i) * f(E / deg_j)``.
* **ARCS** (Aggregate Reciprocal Comparisons Scheme): sum over shared blocks
  of ``1 / ||b||``, the reciprocal of the block's comparison cardinality.

with the rarity factor ``f(x) = log10(max(x, 1) + 1e-12)``.  With entropy
re-weighting (BLAST) the weight is then multiplied by the mean entropy of
the shared blocks.  :class:`~repro.metablocking.backends.NumpyKernel`
computes all of them as array expressions.
"""

from __future__ import annotations

from enum import Enum

from repro.exceptions import MetaBlockingError


class WeightingScheme(str, Enum):
    """Available edge weighting schemes."""

    CBS = "cbs"
    ECBS = "ecbs"
    JS = "js"
    EJS = "ejs"
    ARCS = "arcs"

    @classmethod
    def parse(cls, value: "str | WeightingScheme") -> "WeightingScheme":
        """Parse a scheme name (case insensitive)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except ValueError as exc:
            valid = ", ".join(s.value for s in cls)
            raise MetaBlockingError(
                f"unknown weighting scheme {value!r}; valid schemes: {valid}"
            ) from exc
