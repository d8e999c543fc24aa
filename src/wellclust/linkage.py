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

Every rule keeps one dense n x n matrix. A merge keeps the smaller
representative, so each live row is indexed by its representative; the
diagonal and merged-away rows and columns hold -inf. Single and complete
linkage store similarities and merge two rows by maximum or minimum;
average linkage stores summed cross weights, merges rows by adding them
and divides by |A|*|B| only where a scan reads them. Each row caches its
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

# One dense n x n float64 for every rule: 8·n^2 bytes, 800 MB at the ceiling.
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

    sim = np.zeros((n, n), dtype=np.float64)
    sim[G.edges_u, G.edges_v] = G.edges_w
    sim[G.edges_v, G.edges_u] = G.edges_w
    np.fill_diagonal(sim, -np.inf)
    average = kind == "average"
    alive = np.ones(n, dtype=bool)
    sizes = np.ones(n)  # exact float64 counts: no int cast per division
    # best[i] = max similarity right of i, arg[i] its first column; dead: -inf
    best = np.full(n, -np.inf)
    arg = np.zeros(n, dtype=np.int64)

    def similarities(i: int, cols) -> np.ndarray:
        # -inf entries stay -inf: sizes are positive
        if average:
            return sim[i, cols] / (sizes[i] * sizes[cols])
        return sim[i, cols]

    def refresh(i: int) -> None:
        row = similarities(i, slice(i + 1, None))
        j = int(np.argmax(row))
        arg[i], best[i] = i + 1 + j, row[j]

    for i in range(n - 1):
        refresh(i)

    for _ in range(n - 1):
        a = int(np.argmax(best))
        b = int(arg[a])
        node_of[a] = builder.internal(node_of[a], node_of[b])
        alive[b] = False
        sizes[a] += sizes[b]
        if average:
            row = sim[a] + sim[b]
        elif kind == "single":
            row = np.maximum(sim[a], sim[b])
        else:
            row = np.minimum(sim[a], sim[b])
        row[a] = -np.inf  # dead columns already hold -inf; b's is set below
        sim[a] = row
        sim[:, a] = row
        sim[b, :] = -np.inf
        sim[:, b] = -np.inf

        best[b] = -np.inf
        refresh(a)
        # rows above a: column b is gone and column a changed
        lo = np.flatnonzero(alive[:a])
        new, cached = similarities(a, lo), arg[lo]
        stale = (cached == a) | (cached == b)
        gain = ~stale & ((new > best[lo]) | ((new == best[lo]) & (a < cached)))
        best[lo[gain]], arg[lo[gain]] = new[gain], a
        # rows between a and b: only column b is gone
        mid = a + 1 + np.flatnonzero(arg[a + 1:b] == b)
        for i in np.concatenate((lo[stale], mid)).tolist():
            refresh(i)

    return builder.build()
