"""Degree-ordering hierarchical clustering.

Vertices are sorted once by degree (descending, ties by ascending id); the
tree then splits every block of size s into its top ``2^floor(log2(s-1))``
vertices and the rest, recursively, so its depth is ceil(log2 n). Because
the recursion conceptually operates on degree-preserving subgraphs, the
degree order inside a block never changes, so slicing the top-level order
is exact, no subgraphs are materialized, and the construction runs in
O(m + n log n), one numpy pass per depth level.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph
from .tree import HCTree, _split_tree

__all__ = ["hc_with_degrees", "top_block_size", "verify_degree_tree_shape"]


def top_block_size(s: int | np.ndarray) -> int | np.ndarray:
    """Size of the heavy block when splitting s leaves: 2^floor(log2(s-1)).
    ``s`` is an int or an int64 array of block sizes."""
    if np.any(np.asarray(s) < 2):
        raise ValueError("split needs at least 2 vertices")
    r = 1 << (np.frexp(np.asarray(s) - 1)[1].astype(np.int64) - 1)
    return int(r) if np.ndim(r) == 0 else r


def hc_with_degrees(G: Graph) -> HCTree:
    """Build the degree-ordered HC tree of ``G``."""
    if G.n == 0:
        raise ValueError("cannot cluster the empty graph")
    return _split_tree(np.lexsort((np.arange(G.n), -G.degrees)), top_block_size)


def verify_degree_tree_shape(T: HCTree, n: int) -> bool:
    """True iff every internal split matches the degree-tree size formula.

    Child sizes are compared as a multiset, so mirrored trees also pass.
    """
    if T.n_leaves != n:
        return False
    internal = np.flatnonzero(T.left >= 0)
    s = T.leaf_count[internal]
    r = top_block_size(s)
    a, b = T.leaf_count[T.left[internal]], T.leaf_count[T.right[internal]]
    return bool(np.all(((a == r) & (b == s - r)) | ((a == s - r) & (b == r))))
