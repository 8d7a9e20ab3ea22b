"""Brute-force reference of the meta-blocking definitions.

The input is a block collection as ``(source0, source1, clean_clean,
entropy)`` tuples in collection order, with disjoint sides.  A clean-clean
block compares each left profile with each right one, a dirty block every
pair of its left side; a block that induces no comparison compares nothing
but still counts in ``B``.  Every pair of profiles is enumerated (O(n²)) and
each weight and pruning rule is transcribed from its definition in the
docstrings of ``repro.metablocking.weights`` and ``repro.metablocking.
pruning``.  This module imports nothing from ``repro``.

Orders.  WEP, WNP and CNP retain in *emission order*: by lower endpoint,
then by the first block in which the pair is compared, then by the upper
endpoint.  CEP retains in ranked order, ``(-weight, pair)``.  :func:`prune`
also returns, per edge, the values that decided its fate (thresholds, or the
k-th kept weight), so a caller can tell borderline edges apart.
"""

import math
from itertools import combinations


def compares(block, a, b):
    """True when the block induces the comparison ``(a, b)``."""
    source0, source1, clean_clean, _entropy = block
    if clean_clean:
        return (a in source0 and b in source1) or (a in source1 and b in source0)
    return a in source0 and b in source0


def cardinality(block):
    """||b||: the number of comparisons the block induces."""
    source0, source1, clean_clean, _entropy = block
    n = len(source0)
    return n * len(source1) if clean_clean else n * (n - 1) // 2


class Graph:
    """The blocking graph: nodes, edges and the statistics the schemes read."""

    def __init__(self, blocks):
        self.blocks = list(blocks)
        valid = [block for block in self.blocks if cardinality(block) > 0]
        self.nodes = sorted({p for block in valid for p in block[0] | block[1]})
        # pair -> positions of the blocks in which the pair is compared
        self.shared = {}
        for a, b in combinations(self.nodes, 2):
            positions = [i for i, block in enumerate(self.blocks) if compares(block, a, b)]
            if positions:
                self.shared[(a, b)] = positions
        self.blocks_of = {p: sum(p in b[0] | b[1] for b in valid) for p in self.nodes}
        self.degree = {p: sum(p in pair for pair in self.shared) for p in self.nodes}

    def emission_order(self):
        return sorted(self.shared, key=lambda pair: (pair[0], self.shared[pair][0], pair[1]))


def rarity(total, count):
    return math.log10(max(total / count, 1.0) + 1e-12)


def weigh(graph, scheme, use_entropy=False):
    """Edge weights ``{(a, b): w}`` under one weighting scheme."""
    weights = {}
    B, E = len(graph.blocks), len(graph.shared)
    for (a, b), positions in graph.shared.items():
        cbs = len(positions)
        if scheme == "cbs":
            weight = float(cbs)
        elif scheme == "arcs":
            weight = sum(1 / cardinality(graph.blocks[i]) for i in positions)
        elif scheme == "ecbs":
            weight = cbs * rarity(B, graph.blocks_of[a]) * rarity(B, graph.blocks_of[b])
        elif scheme in ("js", "ejs"):
            weight = cbs / (graph.blocks_of[a] + graph.blocks_of[b] - cbs)
            if scheme == "ejs":
                weight = weight * rarity(E, graph.degree[a]) * rarity(E, graph.degree[b])
        else:
            raise ValueError(scheme)
        if use_entropy:
            weight = weight * (sum(graph.blocks[i][3] for i in positions) / cbs)
        weights[(a, b)] = weight
    return weights


def ranked(edges, weights):
    return sorted(edges, key=lambda pair: (-weights[pair], pair))


def prune(graph, weights, rule, k=None):
    """``(retained [(pair, w)] in retention order, {pair: deciding values})``.

    ``rule`` is wep, cep, wnp, rwnp, cnp or rcnp; ``k`` overrides the
    default of the cardinality rules.
    """
    order = graph.emission_order()
    if not order:
        return [], {}
    assignments = sum(graph.blocks_of.values())
    incident = {p: [pair for pair in order if p in pair] for p in graph.nodes}
    cuts = {pair: [] for pair in order}
    if rule == "wep":
        threshold = math.fsum(weights.values()) / len(weights)
        kept = [pair for pair in order if weights[pair] >= threshold]
        for pair in order:
            cuts[pair].append(threshold)
    elif rule == "cep":
        k = k or max(1, assignments // 2)
        kept = ranked(order, weights)[:k]
        if len(order) > k:
            for pair in order:
                cuts[pair].append(weights[kept[-1]])
    elif rule in ("wnp", "rwnp"):
        mean = {
            p: math.fsum(weights[pair] for pair in edges) / len(edges)
            for p, edges in incident.items() if edges
        }
        votes = {pair: [weights[pair] >= mean[p] for p in pair] for pair in order}
        kept = [pair for pair in order if (all if rule == "rwnp" else any)(votes[pair])]
        for pair in order:
            cuts[pair].extend(mean[p] for p in pair)
    elif rule in ("cnp", "rcnp"):
        k = k or max(1, math.floor(assignments / len(graph.nodes)) - 1)
        top = {}
        for p, edges in incident.items():
            best = ranked(edges, weights)
            top[p] = set(best[:k])
            if len(best) > k:
                for pair in edges:
                    cuts[pair].append(weights[best[k - 1]])
        votes = {pair: [pair in top[p] for p in pair] for pair in order}
        kept = [pair for pair in order if (all if rule == "rcnp" else any)(votes[pair])]
    else:
        raise ValueError(rule)
    return [(pair, weights[pair]) for pair in kept], cuts
