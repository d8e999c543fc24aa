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

Every rule keeps only the pairs i < j, in one float64 vector of
n(n-1)/2 entries in scipy's condensed order: pair (i, j) sits at
``col[i] + j`` with ``col[i] = i*n - i*(i+1)/2 - i - 1``, so row i right of
the diagonal is one slice and column j above it is ``col[:j] + j``. A merge
keeps the smaller representative, so each live row is indexed by its
representative; merged-away pairs hold -inf. Merging a < b combines row a
with row b over three segments (x < a, a < x < b, x > b): single and
complete linkage store similarities and take the maximum or minimum;
average linkage stores summed cross weights, adds them and divides by
|A|*|B| only where a scan reads them. Row a gets the result and every slot
of b gets -inf. Each row caches its maximum right of the diagonal and the
first column attaining it; the first row attaining the largest cached
maximum, with its cached column, is the tie rule's pair. A merge rewrites
rows a and b, so only rows whose cached column was a or b are rescanned:
about O(n^2) in practice.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .tree import HCTree, TreeBuilder

__all__ = ["LINKAGE_KINDS", "linkage"]

LINKAGE_KINDS = ("single", "complete", "average")

# n(n-1)/2 float64 for every rule: 4·n(n-1) bytes, 400 MB at the ceiling.
LINKAGE_MAX_N = 10_000


def linkage(G: Graph, kind: str) -> HCTree:
    """Merge dendrogram of ``G`` under the given linkage rule.

    O(n^2) memory, the condensed upper triangle, with a cached maximum per
    row (see the module docstring); above ``LINKAGE_MAX_N`` vertices it
    raises ``ValueError`` before allocating anything.
    """
    if kind not in LINKAGE_KINDS:
        raise ValueError(f"unknown linkage kind {kind!r}; expected one of {LINKAGE_KINDS}")
    n = G.n
    if n == 0:
        raise ValueError("cannot cluster the empty graph")
    if n > LINKAGE_MAX_N:
        raise ValueError(f"linkage is limited to n <= {LINKAGE_MAX_N} (it keeps "
                         f"all n(n-1)/2 pair similarities); got n = {n}")
    builder = TreeBuilder()
    node_of = [builder.leaf(v) for v in range(n)]
    if n == 1:
        return builder.build()

    ids = np.arange(n)
    col = ids * (n - 1) - ids * (ids + 1) // 2 - 1  # pair (i, j) sits at col[i] + j
    at = col.tolist()  # the same offsets as Python ints, for slice bounds
    sim = np.zeros(n * (n - 1) // 2, dtype=np.float64)
    sim[col[G.edges_u] + G.edges_v] = G.edges_w
    average = kind == "average"
    combine = {"single": np.maximum, "complete": np.minimum, "average": np.add}[kind]
    alive = np.ones(n, dtype=bool)
    sizes = np.ones(n)  # exact float64 counts: no int cast per division
    # best[i] = max similarity right of i, arg[i] its first column; dead: -inf
    best = np.full(n, -np.inf)
    arg = np.zeros(n, dtype=np.int64)

    def similarities(values: np.ndarray, i: int, cols) -> np.ndarray:
        # -inf entries stay -inf: sizes are positive
        if average:
            return values / (sizes[i] * sizes[cols])
        return values

    def refresh(i: int) -> None:
        row = similarities(sim[at[i] + i + 1:at[i] + n], i, slice(i + 1, None))
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
        # row a takes op(row a, row b) on x < a, a < x < b and x > b, where
        # dead columns hold -inf on both sides; then b's slots all go -inf
        up_a, up_b = col[:a] + a, col[:b] + b
        above = combine(sim[up_a], sim[up_b[:a]])
        sim[up_a] = above
        between = slice(at[a] + a + 1, at[a] + b)
        sim[between] = combine(sim[between], sim[up_b[a + 1:]])
        right_a, right_b = slice(at[a] + b + 1, at[a] + n), slice(at[b] + b + 1, at[b] + n)
        combine(sim[right_a], sim[right_b], out=sim[right_a])
        sim[up_b] = -np.inf  # (a, b) included
        sim[right_b] = -np.inf

        best[b] = -np.inf
        refresh(a)
        # rows above a: column b is gone and column a changed
        lo = np.flatnonzero(alive[:a])
        new, cached = similarities(above[lo], a, lo), arg[lo]
        stale = (cached == a) | (cached == b)
        gain = ~stale & ((new > best[lo]) | ((new == best[lo]) & (a < cached)))
        best[lo[gain]], arg[lo[gain]] = new[gain], a
        # rows between a and b: only column b is gone
        mid = a + 1 + np.flatnonzero(arg[a + 1:b] == b)
        for i in np.concatenate((lo[stale], mid)).tolist():
            refresh(i)

    return builder.build()
