"""Binary hierarchical-clustering trees and the Dasgupta cost function.

An :class:`HCTree` is a rooted binary tree whose leaves biject with the
vertices of a graph. Node ids are assigned so that children always have
smaller ids than their parent; every bottom-up computation in this module
is a single ascending pass over the node arrays, which keeps the code
iterative and safe for very deep trees (caterpillars from linkage reach
depth ~n).

Every node's leaves form one contiguous span of the tree's left-to-right
leaf order, which is computed once, on first use; leaf sets and subtrees
are read off it. The module provides the Dasgupta cost in its edge form
(the LCA of two leaves owns the widest gap between consecutive leaves in
their range, so the edge form is a range maximum over the gaps) and its
cut form (each edge's LCA by binary lifting on ``parent``, never the leaf
order, so the two forms check each other), the dense branch / critical
node decomposition of a tree, the caterpillar combination of a forest, the
split builder of degree and random trees, and the exact optimum for small
graphs by a dynamic program over vertex subsets.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .generators import _rng
from .graph import Graph, _int_array, _is_int, _number

__all__ = [
    "HCTree",
    "TreeBuilder",
    "dasgupta_cost",
    "dasgupta_cost_cutform",
    "critical_nodes",
    "caterpillar_merge",
    "brute_force_opt",
    "random_tree",
    "relabel_leaves",
    "save_tree",
    "load_tree",
]


class HCTree:
    """Immutable binary tree over graph vertices.

    Attributes
    ----------
    left, right : ndarray
        Child node ids; -1 for leaves, and ``left < 0`` is the one leaf
        test. Children ids are always smaller than the parent id, so
        ascending id order is a valid bottom-up order.
    parent : ndarray
        Parent node id; -1 for the root.
    leaf_vertex : ndarray
        Vertex id carried by each leaf; -1 for internal nodes.
    leaf_count : ndarray
        Number of leaves under each node.
    root : int
        Root node id (always the largest id).
    """

    __slots__ = ("left", "right", "parent", "leaf_vertex", "leaf_count",
                 "root", "_span")

    def __init__(self, left, right, parent, leaf_vertex, leaf_count, root):
        self.left = left
        self.right = right
        self.parent = parent
        self.leaf_vertex = leaf_vertex
        self.leaf_count = leaf_count
        self.root = root
        self._span = None

    @property
    def n_nodes(self) -> int:
        return len(self.left)

    @property
    def n_leaves(self) -> int:
        return int(self.leaf_count[self.root])

    def _leaf_span(self) -> tuple[np.ndarray, np.ndarray]:
        """``(start, order)``: node N's leaves are the vertices
        ``order[start[N]:start[N] + leaf_count[N]]``, left subtree first."""
        if self._span is None:
            left, right = self.left.tolist(), self.right.tolist()
            count = self.leaf_count.tolist()
            start = [0] * self.n_nodes
            # parents have larger ids, so each start is set before it is read
            for node in range(self.n_nodes - 1, -1, -1):
                l = left[node]
                if l >= 0:
                    start[l] = start[node]
                    start[right[node]] = start[node] + count[l]
            start = np.asarray(start, dtype=np.int64)
            leaves = self.left < 0
            order = np.empty(self.n_leaves, dtype=np.int64)
            order[start[leaves]] = self.leaf_vertex[leaves]
            self._span = (start, order)
        return self._span

    def leaves_under(self, node: int) -> np.ndarray:
        """Sorted vertex ids of the leaves below ``node`` (inclusive)."""
        start, order = self._leaf_span()
        lo = start[node]
        return np.sort(order[lo:lo + self.leaf_count[node]])

    def subtree(self, node: int) -> "HCTree":
        """Extract ``T[node]`` as a standalone tree (ids renumbered)."""
        start, _ = self._leaf_span()
        lo = start[node]
        # descendants are exactly the nodes whose span lies inside node's
        ids = np.flatnonzero((start >= lo) & (start + self.leaf_count
                                              <= lo + self.leaf_count[node]))
        remap = np.full(self.n_nodes, -1, dtype=np.int64)
        remap[ids] = np.arange(ids.size)
        left = np.where(self.left[ids] >= 0, remap[self.left[ids]], -1)
        right = np.where(self.right[ids] >= 0, remap[self.right[ids]], -1)
        return _from_children(left, right, self.leaf_vertex[ids].copy(),
                              self.leaf_count[ids].copy())

    def __repr__(self) -> str:
        return f"HCTree(leaves={self.n_leaves}, nodes={self.n_nodes})"


class TreeBuilder:
    """Incrementally assemble an HCTree bottom-up.

    ``leaf`` and ``internal`` return node ids; the last node added becomes
    the root. Every node except the root must be used exactly once as a
    child.
    """

    def __init__(self):
        self._left: list[int] = []
        self._right: list[int] = []
        self._vertex: list[int] = []
        self._used: list[bool] = []

    def leaf(self, vertex: int) -> int:
        if not _is_int(vertex):
            raise ValueError(f"leaf vertex must be an integer, got {vertex!r}")
        if not 0 <= vertex < 1 << 63:
            raise ValueError(f"leaf vertex {vertex} is "
                             f"{'negative' if vertex < 0 else 'not below 2**63'}")
        self._left.append(-1)
        self._right.append(-1)
        self._vertex.append(vertex)
        self._used.append(False)
        return len(self._left) - 1

    def internal(self, left: int, right: int) -> int:
        node = len(self._left)
        for side, child in (("left", left), ("right", right)):
            if not 0 <= child < node:
                raise ValueError(f"child id {child} out of range")
            if self._used[child]:
                raise ValueError(f"the {side} child already has a parent")
            self._used[child] = True
        self._left.append(left)
        self._right.append(right)
        self._vertex.append(-1)
        self._used.append(False)
        return node

    def build(self) -> HCTree:
        n_nodes = len(self._left)
        if n_nodes == 0:
            raise ValueError("cannot build an empty tree")
        if sum(1 for u in self._used if not u) != 1 or self._used[-1]:
            raise ValueError("tree must have exactly one root, the last node added")
        left = np.asarray(self._left, dtype=np.int64)
        right = np.asarray(self._right, dtype=np.int64)
        leaf_count = np.ones(n_nodes, dtype=np.int64)
        for node in range(n_nodes):
            if left[node] >= 0:
                leaf_count[node] = leaf_count[left[node]] + leaf_count[right[node]]
        return _from_children(left, right,
                              np.asarray(self._vertex, dtype=np.int64), leaf_count)


def _from_children(left: np.ndarray, right: np.ndarray, leaf_vertex: np.ndarray,
                   leaf_count: np.ndarray) -> HCTree:
    """The HCTree with these child arrays; its root is the last node."""
    parent = np.full(left.size, -1, dtype=np.int64)
    internal = np.flatnonzero(left >= 0)
    parent[left[internal]] = internal
    parent[right[internal]] = internal
    return HCTree(left, right, parent, leaf_vertex, leaf_count, left.size - 1)


def _check_leaf_bijection(G: Graph, T: HCTree) -> None:
    verts = np.sort(T.leaf_vertex[T.left < 0])
    if verts.size != G.n or not np.array_equal(verts, np.arange(G.n)):
        raise ValueError("tree leaves do not biject with graph vertices")


def _node_volumes(G: Graph, T: HCTree) -> np.ndarray:
    """Volume of each node's leaf set, computed in ``G``."""
    vols = np.zeros(T.n_nodes, dtype=np.float64)
    leaves = T.left < 0
    vols[leaves] = G.degrees[T.leaf_vertex[leaves]]
    for node in range(T.n_nodes):
        l = T.left[node]
        if l >= 0:
            vols[node] = vols[l] + vols[T.right[node]]
    return vols


# ---------------------------------------------------------------------------
# Dasgupta cost, edge form (LCA as a range maximum over the leaf order)

def dasgupta_cost(G: Graph, T: HCTree) -> float:
    """Edge-form Dasgupta cost: sum over edges of ``w_e * |leaves(lca)|``.

    Each internal node owns the gap between its two children's spans; the
    LCA of the leaves at positions i < j owns the gap in [i, j) with the
    most leaves.
    """
    _check_leaf_bijection(G, T)
    if G.m == 0:
        return 0.0
    start, order = T._leaf_span()
    internal = np.flatnonzero(T.left >= 0)
    gap_count = np.empty(G.n - 1, dtype=np.int64)
    gap_count[start[internal] + T.leaf_count[T.left[internal]] - 1] = \
        T.leaf_count[internal]
    # rows[j][g] = max of gap_count[g : g + 2**j]
    rows = [gap_count]
    while 1 << len(rows) <= gap_count.size:
        prev, half = rows[-1], 1 << (len(rows) - 1)
        rows.append(np.maximum(prev[:-half], prev[half:]))
    pos = np.empty(G.n, dtype=np.int64)
    pos[order] = np.arange(G.n)
    lo = np.minimum(pos[G.edges_u], pos[G.edges_v])
    hi = np.maximum(pos[G.edges_u], pos[G.edges_v])
    level = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo))
    lca_count = np.empty(G.m, dtype=np.int64)
    for j, row in enumerate(rows):
        on = np.flatnonzero(level == j)
        lca_count[on] = np.maximum(row[lo[on]], row[hi[on] - (1 << j)])
    return float((G.edges_w * lca_count).sum())


def dasgupta_cost_cutform(G: Graph, T: HCTree) -> float:
    """Cut-form Dasgupta cost: sum over internal nodes of
    ``|leaves(N)| * w(leaves(N1), leaves(N2))``.

    An edge crosses between the children of exactly its endpoints' LCA, so
    ``w(N1, N2)`` is the weight of the edges whose LCA is N. The LCAs come
    from binary lifting on ``parent`` (depths and 2^j ancestors by pointer
    jumping); only ``parent``, the leaf mask of ``left``, ``leaf_vertex``
    and ``leaf_count`` are read. It shares nothing with the leaf spans and
    the range maximum of the edge form; the two agree exactly on integer
    weights. Raises ``ValueError`` if ``parent`` does not reach the root.
    """
    _check_leaf_bijection(G, T)
    if G.m == 0:
        return 0.0
    up = T.parent.copy()
    up[T.root] = T.root
    if up.min() < 0:
        raise ValueError("parent array has a second root")
    depth = (np.arange(T.n_nodes) != T.root).astype(np.int64)
    jumps = [up]  # jumps[j][x] = the 2**j-th ancestor of x, capped at root
    while (jumps[-1] != T.root).any():
        if len(jumps) > (T.n_nodes - 1).bit_length():
            raise ValueError("parent array does not reach the root")
        depth = depth + depth[jumps[-1]]
        jumps.append(jumps[-1][jumps[-1]])
    leaves = np.flatnonzero(T.left < 0)
    node_of = np.empty(G.n, dtype=np.int64)
    node_of[T.leaf_vertex[leaves]] = leaves
    a, b = node_of[G.edges_u], node_of[G.edges_v]
    deeper = depth[a] >= depth[b]
    a, b = np.where(deeper, a, b), np.where(deeper, b, a)
    gap = depth[a] - depth[b]
    for j, jump in enumerate(jumps):
        a = np.where(gap >> j & 1, jump[a], a)
    for jump in reversed(jumps):
        move = jump[a] != jump[b]
        a, b = np.where(move, jump[a], a), np.where(move, jump[b], b)
    lca = np.where(a == b, a, up[a])
    cross = np.bincount(lca, weights=G.edges_w, minlength=T.n_nodes)
    return float(T.leaf_count @ cross)


# ---------------------------------------------------------------------------
# Dense branch and critical nodes

def _heavier_child(T: HCTree, vols: np.ndarray, node: int) -> int:
    """The child of ``node`` with the larger leaf-set volume; equal volumes
    go to the lower node id."""
    l, r = int(T.left[node]), int(T.right[node])
    return l if vols[l] > vols[r] or (vols[l] == vols[r] and l < r) else r


def _sibling(T: HCTree, node: int) -> int:
    p = T.parent[node]
    return int(T.right[p]) if int(T.left[p]) == node else int(T.left[p])


def critical_nodes(G: Graph, T: HCTree) -> tuple[int, ...]:
    """Partition the leaf set along the dense branch.

    The dense branch is the maximal root path of nodes whose leaf-set
    volume exceeds vol(G)/2, found by following the higher-volume child.
    The leaf sets of the critical nodes partition the tree's leaf set.
    Returns the sibling of each dense-branch node (in branch order)
    followed by the two children of the last branch node, lower-volume
    child first. Leaves are admissible critical nodes. When the branch
    bottoms out at a leaf, that leaf itself closes the partition. This needs
    a vertex of degree above vol(G)/2, which only rounding gives: the float
    sum of a star's degrees can fall below twice its centre's degree.
    """
    if T.n_leaves < 2:
        raise ValueError("critical nodes need a tree with at least 2 leaves")
    vols = _node_volumes(G, T)
    branch = [int(T.root)]
    while T.left[branch[-1]] >= 0:
        child = _heavier_child(T, vols, branch[-1])
        if vols[child] <= G.total_volume / 2.0:
            break
        branch.append(child)
    nodes = [_sibling(T, node) for node in branch[1:]]
    last = branch[-1]
    if T.left[last] < 0:
        nodes.append(last)
    else:
        cont = _heavier_child(T, vols, last)
        nodes += [_sibling(T, cont), cont]
    return tuple(nodes)


# ---------------------------------------------------------------------------
# Combining trees

def caterpillar_merge(trees: Sequence[HCTree]) -> HCTree:
    """Left fold of the forest: repeatedly join the accumulated tree with
    the next one under a fresh root.

    The caller is responsible for ordering (ascending leaf count in the
    pruning pipeline). Leaf sets must be pairwise disjoint. Each tree's
    nodes keep their order, shifted past the nodes before them, and every
    tree after the first is followed by its join node.
    """
    if not trees:
        raise ValueError("caterpillar_merge needs at least one tree")
    if len(trees) == 1:
        return trees[0]
    all_leaves = np.concatenate([t.leaf_vertex[t.left < 0] for t in trees])
    if np.unique(all_leaves).size != all_leaves.size:
        raise ValueError("trees share leaf vertices")
    parts = []
    offset = leaves = 0
    for i, t in enumerate(trees):
        shift = np.where(t.left >= 0, offset, 0)
        parts.append((t.left + shift, t.right + shift, t.leaf_vertex,
                      t.leaf_count))
        root = offset + t.root
        offset += t.n_nodes
        leaves += t.n_leaves
        if i:
            parts.append(([acc], [root], [-1], [leaves]))
            root = offset
            offset += 1
        acc = root
    left, right, leaf_vertex, leaf_count = map(np.concatenate, zip(*parts))
    return _from_children(left, right, leaf_vertex, leaf_count)


def relabel_leaves(T: HCTree, mapping: np.ndarray) -> HCTree:
    """New tree with each leaf vertex ``v`` replaced by ``mapping[v]``."""
    leaf_vertex = T.leaf_vertex.copy()
    leaves = T.left < 0
    leaf_vertex[leaves] = _int_array(mapping, "leaf mapping")[leaf_vertex[leaves]]
    return HCTree(T.left.copy(), T.right.copy(), T.parent.copy(),
                  leaf_vertex, T.leaf_count.copy(), T.root)


# ---------------------------------------------------------------------------
# Brute-force optimum

def _inner_weight_table(G: Graph) -> np.ndarray:
    """inw[mask] = total edge weight inside the vertex subset ``mask``."""
    n = G.n
    W = np.zeros((n, n), dtype=np.float64)
    W[G.edges_u, G.edges_v] = G.edges_w
    W[G.edges_v, G.edges_u] = G.edges_w
    size = 1 << n
    bits = ((np.arange(size, dtype=np.uint64)[:, None]
             >> np.arange(n, dtype=np.uint64)) & 1).astype(np.float64)
    rowsum = bits @ W.T  # rowsum[mask, u] = w(u, mask)
    inw = np.zeros(size, dtype=np.float64)
    for mask in range(1, size):
        low = mask & -mask
        u = low.bit_length() - 1
        rest = mask ^ low
        inw[mask] = inw[rest] + rowsum[rest, u]
    return inw


BRUTE_FORCE_MAX_N = 10


def brute_force_opt(G: Graph) -> tuple[float, HCTree]:
    """Exact minimum Dasgupta cost by dynamic programming over vertex subsets.

    In cut form, a tree over S pays |S| times the weight its root cuts
    plus the costs of its two subtrees, so
    ``OPT(S) = min over A ∋ min(S) of |S|·w(A, S\\A) + OPT(A) + OPT(S\\A)``:
    3^n steps against (2n-3)!! topologies. Among equal costs the first
    minimum over descending A is kept. Returns the minimum cost with a
    witness tree. Refuses graphs larger than :data:`BRUTE_FORCE_MAX_N`
    vertices.
    """
    n = G.n
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, "
                         f"got n = {n}")
    if n == 0:
        raise ValueError("empty graph has no clustering tree")
    inw = _inner_weight_table(G).tolist()
    full = (1 << n) - 1
    opt = [0.0] * (full + 1)
    best_split = [0] * (full + 1)
    for S in range(1, full + 1):
        low = S & -S
        rest = S ^ low
        if not rest:
            continue
        size = S.bit_count()
        best = np.inf
        sub = rest
        while sub:
            sub = (sub - 1) & rest
            A = low | sub
            cost = size * (inw[S] - inw[A] - inw[S ^ A]) + opt[A] + opt[S ^ A]
            if cost < best:
                best, best_split[S] = cost, A
        opt[S] = best
    builder = TreeBuilder()

    def build(S: int) -> int:
        if S & (S - 1) == 0:
            return builder.leaf(S.bit_length() - 1)
        A = best_split[S]
        return builder.internal(build(A), build(S ^ A))

    build(full)
    return opt[full], builder.build()


# ---------------------------------------------------------------------------
# Split builder (degree and random trees)

def _split_tree(leaves: np.ndarray, heavy: Callable) -> HCTree:
    """Tree over ``leaves`` (left to right) that splits every block of
    s >= 2 leaves into its first ``heavy(s)`` leaves and the rest.

    Nodes are numbered in post-order: a block of s leaves starting at id
    b owns ids b..b+2s-2, its root last. ``heavy`` maps an int64 array of
    block sizes to the sizes of their left parts; blocks are split one
    depth level at a time.
    """
    n = leaves.size
    left = np.full(2 * n - 1, -1, dtype=np.int64)
    right = np.full(2 * n - 1, -1, dtype=np.int64)
    leaf_vertex = np.full(2 * n - 1, -1, dtype=np.int64)
    leaf_count = np.ones(2 * n - 1, dtype=np.int64)
    # the blocks of one level: first id b, first leaf position lo, size s
    b = lo = np.zeros(1, dtype=np.int64)
    s = np.full(1, n, dtype=np.int64)
    while True:
        single = s == 1
        leaf_vertex[b[single]] = leaves[lo[single]]
        b, lo, s = b[~single], lo[~single], s[~single]
        if not b.size:
            return _from_children(left, right, leaf_vertex, leaf_count)
        r = heavy(s)
        root = b + 2 * s - 2
        left[root] = b + 2 * r - 2
        right[root] = root - 1
        leaf_count[root] = s
        b = np.concatenate([b, b + 2 * r - 1])
        lo = np.concatenate([lo, lo + r])
        s = np.concatenate([r, s - r])


def random_tree(n: int, seed: int) -> HCTree:
    """Balanced-split tree over a uniformly shuffled leaf order.

    Draws from the generators' Philox4x64-10 stream 0 of ``seed``, a
    64-bit unsigned integer, so the topology is reproducible across
    platforms.
    """
    if not (_is_int(n) and n >= 1):
        raise ValueError(f"random_tree needs an int n >= 1, got {n!r}")
    return _split_tree(_rng(seed).permutation(n), lambda s: (s + 1) // 2)


# ---------------------------------------------------------------------------
# Dendrogram file format

def save_tree(T: HCTree, path) -> None:
    """Write the dendrogram format: ``leaf id vertex`` / ``id left right``."""
    lines = []
    for node in range(T.n_nodes):
        if T.left[node] < 0:
            lines.append(f"leaf {node} {T.leaf_vertex[node]}\n")
        else:
            lines.append(f"{node} {T.left[node]} {T.right[node]}\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def load_tree(path) -> HCTree:
    """Read an ASCII dendrogram file: each line adds one node to a
    :class:`TreeBuilder`, so children come before their parent, the last
    line is the root, and the tree numbers its nodes in file order. Errors
    name ``path:line``."""
    builder = TreeBuilder()
    ids: dict[int, int] = {}  # file id -> tree node id
    with open(path, encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            leaf = parts[0] == "leaf"
            try:
                if len(parts) != 3:
                    raise ValueError
                node, *entry = map(_number, parts[1:] if leaf else parts)
                added = builder.leaf(entry[0]) if leaf else None
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad dendrogram line {line!r}") from None
            try:
                if node in ids:
                    raise ValueError(f"duplicate node id {node}")
                if not leaf:
                    for child in entry:
                        if child not in ids:
                            raise ValueError(f"child {child} is not defined "
                                             "on an earlier line")
                    added = builder.internal(ids[entry[0]], ids[entry[1]])
                ids[node] = added
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    try:
        return builder.build()
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
