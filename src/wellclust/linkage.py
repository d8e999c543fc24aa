"""Agglomerative linkage baselines over similarity weights.

Edge weights are similarities; absent pairs count as similarity 0. The
three classical inter-cluster rules are supported:

- single: maximum edge weight between the clusters,
- complete: minimum over all vertex pairs (absent pairs pull this to 0),
- average: total cross weight divided by |A|*|B|.

The maximum-similarity pair is merged at every step; ties go to the
lexicographically smallest pair of cluster representatives (each cluster
represented by its minimum vertex id). Zero-similarity merges are allowed
and naturally occur last, completing the tree on disconnected inputs.

A merge keeps the smaller representative, so each live row of the dense
similarity matrix is indexed by its representative. Each row caches its
maximum right of the diagonal and the first column attaining it; the
first row attaining the largest cached maximum, with its cached column,
is the tie rule's pair. A merge rewrites two columns, so only rows whose
cached column was one of them are rescanned: about O(n^2) in practice.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .tree import HCTree, TreeBuilder

__all__ = ["LINKAGE_KINDS", "linkage"]

LINKAGE_KINDS = ("single", "complete", "average")

# Dense n x n float64: 8·n^2 bytes, 800 MB at the ceiling (average keeps two).
LINKAGE_MAX_N = 10_000


def linkage(G: Graph, kind: str) -> HCTree:
    """Merge dendrogram of ``G`` under the given linkage rule.

    Dense O(n^2) memory with a cached maximum per row (see the module
    docstring); above ``LINKAGE_MAX_N`` vertices it raises ``ValueError``
    before allocating anything.
    """
    if kind not in LINKAGE_KINDS:
        raise ValueError(f"unknown linkage kind {kind!r}; expected one of {LINKAGE_KINDS}")
    n = G.n
    if n == 0:
        raise ValueError("cannot cluster the empty graph")
    if n > LINKAGE_MAX_N:
        raise ValueError(f"linkage is limited to n <= {LINKAGE_MAX_N} (it keeps "
                         f"a dense n x n matrix); got n = {n}")
    builder = TreeBuilder()
    node_of = [builder.leaf(v) for v in range(n)]
    if n == 1:
        return builder.build()

    base = np.zeros((n, n), dtype=np.float64)
    base[G.edges_u, G.edges_v] = G.edges_w
    base[G.edges_v, G.edges_u] = G.edges_w
    average = kind == "average"
    if average:
        totals = base.copy()
    sim = base
    np.fill_diagonal(sim, -np.inf)
    alive = np.ones(n, dtype=bool)
    sizes = np.ones(n, dtype=np.int64)
    # best[i] = max(sim[i, i+1:]) and arg[i] its first column; -inf when dead
    best = np.full(n, -np.inf)
    arg = np.zeros(n, dtype=np.int64)

    def refresh(i: int) -> None:
        j = i + 1 + int(np.argmax(sim[i, i + 1:]))
        arg[i], best[i] = j, sim[i, j]

    for i in range(n - 1):
        refresh(i)

    for _ in range(n - 1):
        a = int(np.argmax(best))
        b = int(arg[a])
        node_of[a] = builder.internal(node_of[a], node_of[b])
        alive[b] = False
        sizes[a] += sizes[b]
        if average:
            totals[a] += totals[b]
            totals[:, a] = totals[a]
            row = np.where(alive, totals[a] / (sizes[a] * sizes), -np.inf)
        elif kind == "single":
            row = np.maximum(sim[a], sim[b])
        else:
            row = np.minimum(sim[a], sim[b])
        row[~alive] = -np.inf
        row[a] = -np.inf
        sim[a] = row
        sim[:, a] = row
        sim[b, :] = -np.inf
        sim[:, b] = -np.inf

        best[b] = -np.inf
        refresh(a)
        # rows above a: column b is gone and column a changed
        lo = np.flatnonzero(alive[:a])
        new, cached = row[lo], arg[lo]
        stale = (cached == a) | (cached == b)
        gain = ~stale & ((new > best[lo]) | ((new == best[lo]) & (a < cached)))
        best[lo[gain]], arg[lo[gain]] = new[gain], a
        # rows between a and b: only column b is gone
        mid = a + 1 + np.flatnonzero(arg[a + 1:b] == b)
        for i in np.concatenate((lo[stale], mid)).tolist():
            refresh(i)

    return builder.build()
