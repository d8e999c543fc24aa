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
cut form (via small-to-large leaf-set merging), the dense branch /
critical node decomposition of a tree, the caterpillar combination of a
forest, the split builder of degree and random trees, and two test
oracles: the exact optimum by a dynamic program over vertex subsets, and
the cost of every topology by exhaustive enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .graph import Graph

__all__ = [
    "HCTree",
    "TreeBuilder",
    "DenseBranch",
    "CriticalNodes",
    "node_volumes",
    "dasgupta_cost",
    "dasgupta_cost_cutform",
    "dense_branch",
    "critical_nodes",
    "caterpillar_merge",
    "brute_force_opt",
    "all_tree_costs",
    "double_factorial_trees",
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
        Child node ids; -1 for leaves. Children ids are always smaller than
        the parent id, so ascending id order is a valid bottom-up order.
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

    def is_leaf(self, node: int) -> bool:
        return self.left[node] < 0

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
        self._left.append(-1)
        self._right.append(-1)
        self._vertex.append(int(vertex))
        self._used.append(False)
        return len(self._left) - 1

    def internal(self, left: int, right: int) -> int:
        node = len(self._left)
        for child in (left, right):
            if not 0 <= child < node:
                raise ValueError(f"child id {child} out of range")
            if self._used[child]:
                raise ValueError(f"node {child} already has a parent")
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
    verts = np.sort(T.leaf_vertex[T.leaf_vertex >= 0])
    if verts.size != G.n or not np.array_equal(verts, np.arange(G.n)):
        raise ValueError("tree leaves do not biject with graph vertices")


def node_volumes(G: Graph, T: HCTree) -> np.ndarray:
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
    most leaves. Self-loops never contribute (a loop has no LCA pair).
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

    Computed by small-to-large merging of leaf sets, an independent route
    from the LCA-based edge form; the two agree exactly on integer weights.
    """
    _check_leaf_bijection(G, T)
    if G.m == 0:
        return 0.0
    comp = np.empty(G.n, dtype=np.int64)
    members: dict[int, list[int]] = {}
    for node in np.flatnonzero(T.left < 0):
        v = int(T.leaf_vertex[node])
        comp[v] = node
        members[int(node)] = [v]
    total = 0.0
    indptr, nbr, nbrw = G._indptr, G._nbr, G._nbrw
    for node in range(T.n_nodes):
        l = int(T.left[node])
        if l < 0:
            continue
        r = int(T.right[node])
        if T.leaf_count[l] > T.leaf_count[r]:
            small, large = r, l
        else:
            small, large = l, r
        small_members = members.pop(small)
        large_members = members[large]
        cut = 0.0
        large_label = comp[large_members[0]]
        for u in small_members:
            lo, hi = indptr[u], indptr[u + 1]
            nb = nbr[lo:hi]
            sel = comp[nb] == large_label
            if sel.any():
                cut += nbrw[lo:hi][sel].sum()
        total += float(T.leaf_count[node]) * cut
        for u in small_members:
            comp[u] = large_label
        large_members.extend(small_members)
        members[node] = members.pop(large)
    return float(total)


# ---------------------------------------------------------------------------
# Dense branch and critical nodes

@dataclass(frozen=True)
class DenseBranch:
    """Maximal root path of nodes whose leaf-set volume exceeds vol(G)/2."""
    path: tuple[int, ...]


@dataclass(frozen=True)
class CriticalNodes:
    """Siblings of the dense branch plus the last branch node's children.

    The leaf sets of the critical nodes partition the tree's leaf set.
    """
    nodes: tuple[int, ...]


def _heavier_child(T: HCTree, vols: np.ndarray, node: int) -> int:
    """The child of ``node`` with the larger leaf-set volume; equal volumes
    go to the lower node id."""
    l, r = int(T.left[node]), int(T.right[node])
    return l if vols[l] > vols[r] or (vols[l] == vols[r] and l < r) else r


def _sibling(T: HCTree, node: int) -> int:
    p = T.parent[node]
    return int(T.right[p]) if int(T.left[p]) == node else int(T.left[p])


def _dense_path(T: HCTree, vols: np.ndarray, half: float) -> tuple[int, ...]:
    path = [int(T.root)]
    while T.left[path[-1]] >= 0:
        child = _heavier_child(T, vols, path[-1])
        if vols[child] <= half:
            break
        path.append(child)
    return tuple(path)


def dense_branch(G: Graph, T: HCTree) -> DenseBranch:
    """Follow the higher-volume child from the root while volume > vol(G)/2.

    Ties between equal-volume children go to the lower node id (they can
    only occur when both are already at or below the threshold, where the
    walk stops anyway).
    """
    return DenseBranch(_dense_path(T, node_volumes(G, T), G.total_volume / 2.0))


def critical_nodes(G: Graph, T: HCTree) -> CriticalNodes:
    """Partition the leaf set along the dense branch.

    Returns the sibling of each dense-branch node (in branch order)
    followed by the two children of the last branch node, lower-volume
    child first. Leaves are admissible critical nodes. When the branch
    bottoms out at a leaf (possible only on graphs with self-loops), that
    leaf itself closes the partition.
    """
    if T.n_leaves < 2:
        raise ValueError("critical nodes need a tree with at least 2 leaves")
    vols = node_volumes(G, T)
    branch = _dense_path(T, vols, G.total_volume / 2.0)
    nodes = [_sibling(T, node) for node in branch[1:]]
    last = branch[-1]
    if T.left[last] < 0:
        nodes.append(last)
    else:
        cont = _heavier_child(T, vols, last)
        nodes += [_sibling(T, cont), cont]
    return CriticalNodes(tuple(nodes))


# ---------------------------------------------------------------------------
# Combining trees

def _copy_into(builder: TreeBuilder, T: HCTree) -> int:
    remap = np.empty(T.n_nodes, dtype=np.int64)
    for node in range(T.n_nodes):
        if T.left[node] < 0:
            remap[node] = builder.leaf(int(T.leaf_vertex[node]))
        else:
            remap[node] = builder.internal(int(remap[T.left[node]]),
                                           int(remap[T.right[node]]))
    return int(remap[T.root])


def caterpillar_merge(trees: Sequence[HCTree]) -> HCTree:
    """Left fold of the forest: repeatedly join the accumulated tree with
    the next one under a fresh root.

    The caller is responsible for ordering (ascending leaf count in the
    pruning pipeline). Leaf sets must be pairwise disjoint.
    """
    if not trees:
        raise ValueError("caterpillar_merge needs at least one tree")
    if len(trees) == 1:
        return trees[0]
    all_leaves = np.concatenate([t.leaf_vertex[t.leaf_vertex >= 0]
                                 for t in trees])
    if np.unique(all_leaves).size != all_leaves.size:
        raise ValueError("trees share leaf vertices")
    builder = TreeBuilder()
    acc = _copy_into(builder, trees[0])
    for t in trees[1:]:
        nxt = _copy_into(builder, t)
        acc = builder.internal(acc, nxt)
    return builder.build()


def relabel_leaves(T: HCTree, mapping: np.ndarray) -> HCTree:
    """New tree with each leaf vertex ``v`` replaced by ``mapping[v]``."""
    leaf_vertex = T.leaf_vertex.copy()
    leaves = leaf_vertex >= 0
    leaf_vertex[leaves] = np.asarray(mapping, dtype=np.int64)[leaf_vertex[leaves]]
    return HCTree(T.left.copy(), T.right.copy(), T.parent.copy(),
                  leaf_vertex, T.leaf_count.copy(), T.root)


# ---------------------------------------------------------------------------
# Brute-force optimum

def double_factorial_trees(n: int) -> int:
    """Number of leaf-labeled rooted binary topologies: (2n-3)!!."""
    if n < 2:
        return 1
    out = 1
    for i in range(1, n):
        out *= 2 * i - 1
    return out


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


def _scan_topologies(n: int, flush: Callable, chunk: int = 1 << 15) -> None:
    """Enumerate all (2n-3)!! topologies by iterative leaf insertion.

    Leaf ``i`` is attached above any of the ``2i-1`` nodes of the partial
    tree over leaves ``0..i-1``. For every complete tree, the internal
    nodes' (subtree mask, left-child mask) pairs are appended to chunk
    buffers; ``flush(m_rows, m1_rows)`` is called whenever the buffer
    fills and once at the end.
    """
    if n < 2:
        raise ValueError("need at least two leaves to enumerate topologies")
    total_nodes = 2 * n - 1
    mask = [0] * total_nodes
    parent = [-1] * total_nodes
    chl = [-1] * total_nodes
    chr_ = [-1] * total_nodes
    for i in range(n):
        mask[i] = 1 << i
    buf_m: list[list[int]] = []
    buf_m1: list[list[int]] = []

    def emit():
        buf_m.append([mask[j] for j in range(n, total_nodes)])
        buf_m1.append([mask[chl[j]] for j in range(n, total_nodes)])
        if len(buf_m) >= chunk:
            flush(np.asarray(buf_m, dtype=np.int64),
                  np.asarray(buf_m1, dtype=np.int64))
            buf_m.clear()
            buf_m1.clear()

    def insert(i: int) -> None:
        if i == n:
            emit()
            return
        bit = 1 << i
        newint = n + i - 1
        for t in range(2 * i - 1):
            x = t if t < i else n + (t - i)
            p = parent[x]
            mask[newint] = mask[x] | bit
            chl[newint] = x
            chr_[newint] = i
            parent[x] = newint
            parent[i] = newint
            parent[newint] = p
            if p != -1:
                if chl[p] == x:
                    chl[p] = newint
                else:
                    chr_[p] = newint
                a = p
                while a != -1:
                    mask[a] |= bit
                    a = parent[a]
            insert(i + 1)
            if p != -1:
                if chl[p] == newint:
                    chl[p] = x
                else:
                    chr_[p] = x
                a = p
                while a != -1:
                    mask[a] &= ~bit
                    a = parent[a]
            parent[x] = p

    insert(1)
    if buf_m:
        flush(np.asarray(buf_m, dtype=np.int64),
              np.asarray(buf_m1, dtype=np.int64))


# Topologies are memoised up to n = 8; larger n are streamed.
_STRUCTURE_CACHE_MAX_N = 8


@lru_cache(maxsize=None)
def _cached_structures(n: int) -> tuple[np.ndarray, np.ndarray]:
    parts = []
    _scan_topologies(n, lambda m, m1: parts.append((m, m1)), chunk=1 << 20)
    return tuple(np.concatenate(rows) for rows in zip(*parts))


def brute_force_opt(G: Graph, limit: int = 10) -> tuple[float, HCTree]:
    """Exact minimum Dasgupta cost by dynamic programming over vertex subsets.

    In cut form, a tree over S pays |S| times the weight its root cuts
    plus the costs of its two subtrees, so
    ``OPT(S) = min over A ∋ min(S) of |S|·w(A, S\\A) + OPT(A) + OPT(S\\A)``:
    3^n steps against (2n-3)!! topologies. Among equal costs the first
    minimum over descending A is kept. Returns the minimum cost with a
    witness tree. Refuses graphs larger than ``limit`` vertices.
    """
    n = G.n
    if n > limit:
        raise ValueError(f"brute force limited to n <= {limit}, got n = {n}")
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


def all_tree_costs(G: Graph, limit: int = 10) -> np.ndarray:
    """Dasgupta cost of every leaf-labeled topology, in enumeration order.

    The reference that criterion 4 checks the clique identity against;
    :func:`brute_force_opt` finds the minimum without enumerating.
    """
    n = G.n
    if n > limit:
        raise ValueError(f"brute force limited to n <= {limit}, got n = {n}")
    if n < 2:
        return np.zeros(1, dtype=np.float64)
    inw = _inner_weight_table(G)
    pc = np.asarray([mask.bit_count() for mask in range(1 << n)])
    parts = []

    def evaluate(m, m1):
        parts.append((pc[m] * (inw[m] - inw[m1] - inw[m ^ m1])).sum(axis=1))

    if n <= _STRUCTURE_CACHE_MAX_N:
        evaluate(*_cached_structures(n))
    else:
        _scan_topologies(n, evaluate)
    return np.concatenate(parts)


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

    Uses the Philox4x64-10 counter-based generator keyed by ``seed``, so
    the topology is reproducible across platforms.
    """
    if n < 1:
        raise ValueError("random_tree needs n >= 1")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return _split_tree(rng.permutation(n), lambda s: (s + 1) // 2)


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
    with open(path, "w") as fh:
        fh.writelines(lines)


def load_tree(path) -> HCTree:
    """Read a dendrogram file; node ids are renumbered children-first."""
    leaves: dict[int, int] = {}
    internals: dict[int, tuple[int, int]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                if parts[0] == "leaf":
                    if len(parts) != 3:
                        raise ValueError("bad leaf line")
                    leaves[int(parts[1])] = int(parts[2])
                else:
                    if len(parts) != 3:
                        raise ValueError("bad internal line")
                    internals[int(parts[0])] = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad dendrogram line {line!r}") from None
    ids = set(leaves) | set(internals)
    if len(ids) != len(leaves) + len(internals):
        raise ValueError("duplicate node id in dendrogram file")
    children = [c for pair in internals.values() for c in pair]
    child_set = set(children)
    if len(children) != len(child_set):
        raise ValueError("node referenced as child twice")
    if not child_set <= ids:
        raise ValueError(f"unknown child id(s): {sorted(child_set - ids)}")
    roots = ids - child_set
    if len(roots) != 1:
        raise ValueError(f"dendrogram must have exactly one root, found {len(roots)}")
    root = roots.pop()
    builder = TreeBuilder()
    remap: dict[int, int] = {}
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if node in leaves:
            remap[node] = builder.leaf(leaves[node])
        elif done:
            l, r = internals[node]
            remap[node] = builder.internal(remap[l], remap[r])
        else:
            l, r = internals[node]
            stack.append((node, True))
            stack.append((r, False))
            stack.append((l, False))
    return builder.build()
