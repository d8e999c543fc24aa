"""Test-only ORACLEs: exhaustive enumerations, the earlier, slower forms
of library computations, and pipeline decisions re-derived from public
building blocks. Tests check the library against them; the library never
imports this module, and this module imports no private name of the
library."""

from functools import lru_cache

import numpy as np

from wellclust import (SweepCut, TreeBuilder, hc_with_degrees,
                       induced_subgraph, smallest_eigenvalues)
from wellclust.graph import vertex_set

# Topologies are enumerated and memoised up to this many leaves.
TOPOLOGY_MAX_N = 8
# Exhaustive conductance scans 2^n subsets; 2^20 is the ceiling.
EXACT_CONDUCTANCE_MAX_N = 20
_SUBSET_CHUNK = 1 << 16


def double_factorial_trees(n):
    """Number of leaf-labeled rooted binary topologies: (2n-3)!!."""
    out = 1
    for i in range(1, n):
        out *= 2 * i - 1
    return out


def _attach(tree, leaf):
    """Every tree made by hanging ``leaf`` above one node of ``tree``
    (a leaf is its vertex id, an internal node a pair of subtrees)."""
    yield (tree, leaf)
    if isinstance(tree, tuple):
        yield from ((t, tree[1]) for t in _attach(tree[0], leaf))
        yield from ((tree[0], t) for t in _attach(tree[1], leaf))


def _node_masks(tree, out):
    """Append ``(leaf mask, left child's leaf mask)`` of each internal node
    of ``tree`` to ``out``; return the leaf mask of ``tree``."""
    if not isinstance(tree, tuple):
        return 1 << tree
    left = _node_masks(tree[0], out)
    mask = left | _node_masks(tree[1], out)
    out.append((mask, left))
    return mask


@lru_cache(maxsize=None)
def _topologies(n):
    """``(m, m1)``: row t lists the leaf masks of topology t's internal
    nodes and of their left children."""
    trees = [0]
    for leaf in range(1, n):
        trees = [t for tree in trees for t in _attach(tree, leaf)]
    rows = []
    for tree in trees:
        rows.append([])
        _node_masks(tree, rows[-1])
    return tuple(np.asarray(rows, dtype=np.int64).transpose(2, 0, 1))


def all_tree_costs_ORACLE(G):
    """Dasgupta cost of every leaf-labeled topology over ``G``'s vertices,
    by enumeration; refuses more than ``TOPOLOGY_MAX_N`` vertices."""
    n = G.n
    if n > TOPOLOGY_MAX_N:
        raise ValueError(f"topology enumeration limited to n <= "
                         f"{TOPOLOGY_MAX_N}, got n = {n}")
    if n < 2:
        return np.zeros(1, dtype=np.float64)
    subsets = np.arange(1 << n)[:, None]
    inside = (subsets >> G.edges_u) & (subsets >> G.edges_v) & 1
    inw = inside @ G.edges_w  # inw[mask] = weight inside the subset
    size = np.asarray([mask.bit_count() for mask in range(1 << n)])
    m, m1 = _topologies(n)
    return (size[m] * (inw[m] - inw[m1] - inw[m ^ m1])).sum(axis=1)


def graph_conductance_exact_ORACLE(G):
    """Exhaustive graph conductance: min over nonempty proper subsets with
    ``vol(S) <= vol(V)/2``; refuses more than ``EXACT_CONDUCTANCE_MAX_N``
    vertices."""
    n = G.n
    if n > EXACT_CONDUCTANCE_MAX_N:
        raise ValueError(
            f"exhaustive conductance is limited to n <= {EXACT_CONDUCTANCE_MAX_N}; "
            "use spectral.spectral_partition for larger graphs")
    if n < 2:
        return 1.0
    half_vol = G.total_volume / 2.0
    bit_cols = np.arange(n, dtype=np.uint64)
    best = 1.0
    for start in range(1, (1 << n) - 1, _SUBSET_CHUNK):
        stop = min(start + _SUBSET_CHUNK, (1 << n) - 1)
        masks = np.arange(start, stop, dtype=np.uint64)
        bits = ((masks[:, None] >> bit_cols) & 1).astype(bool)
        vols = bits.astype(np.float64) @ G.degrees
        ok = vols <= half_vol
        if not np.any(ok):
            continue
        bits = bits[ok]
        vols = vols[ok]
        cuts = ((bits[:, G.edges_u] != bits[:, G.edges_v])
                * G.edges_w).sum(axis=1)
        phis = np.where(vols > 0, cuts / np.where(vols > 0, vols, 1.0), 1.0)
        best = min(best, float(phis.min()))
    return best


def _csr(G):
    """``(indptr, nbr, nbrw)``: the symmetric adjacency of ``G`` sorted by
    source vertex, as ``Graph`` once stored it."""
    n = G.n
    src = np.concatenate([G.edges_u, G.edges_v])
    dst = np.concatenate([G.edges_v, G.edges_u])
    wts = np.concatenate([G.edges_w, G.edges_w])
    order = np.argsort(src, kind="stable")
    counts = np.zeros(n, dtype=np.int64)
    np.add.at(counts, src, 1)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst[order], wts[order]


def _sweep_ORACLE(G, eigs=None):
    """The Cheeger sweep vertex by vertex over the adjacency lists, the
    loop ``spectral_partition`` used before its prefix sums."""
    n = G.n
    if n < 2:
        raise ValueError("sweep cut needs at least 2 vertices")
    if eigs is None:
        eigs = smallest_eigenvalues(G, 2)
    if eigs.eigenvectors.shape[1] < 2:
        raise ValueError("need at least 2 eigenvectors for the sweep")
    v = eigs.eigenvectors[:, 1]
    isolated = G.degrees == 0
    scaled = np.zeros(n)
    scaled[~isolated] = v[~isolated] / np.sqrt(G.degrees[~isolated])
    order = np.lexsort((np.arange(n), scaled, isolated))
    total = G.total_volume
    indptr, nbr, nbrw = _csr(G)
    placed = np.zeros(n, dtype=bool)
    best_phi = np.inf
    best_t = -1
    cut = 0.0
    volume = 0.0
    for t in range(n - 1):
        u = int(order[t])
        lo, hi = indptr[u], indptr[u + 1]
        w_in = nbrw[lo:hi][placed[nbr[lo:hi]]].sum()
        cut += G.degrees[u] - 2.0 * w_in
        volume += G.degrees[u]
        placed[u] = True
        side_vol = min(volume, total - volume) if volume > total / 2 else volume
        phi = cut / side_vol if side_vol > 0 else 1.0
        if phi < best_phi:
            best_phi = phi
            best_t = t
    prefix = order[:best_t + 1]
    pre_vol = float(G.degrees[prefix].sum())
    if pre_vol <= total / 2:
        chosen = prefix
    else:
        chosen = order[best_t + 1:]
    return SweepCut(vertex_set(chosen, n), float(best_phi))


def _cutform_ORACLE(G, T):
    """The cut-form Dasgupta cost by small-to-large merging of leaf sets,
    the loop ``dasgupta_cost_cutform`` used before binary lifting. Reads
    ``left``, ``right``, ``leaf_vertex`` and ``leaf_count``; never
    ``parent`` or the leaf spans."""
    if G.m == 0:
        return 0.0
    comp = np.empty(G.n, dtype=np.int64)
    members = {}
    for node in np.flatnonzero(T.left < 0):
        v = int(T.leaf_vertex[node])
        comp[v] = node
        members[int(node)] = [v]
    total = 0.0
    indptr, nbr, nbrw = _csr(G)
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
            sel = comp[nbr[lo:hi]] == large_label
            if sel.any():
                cut += nbrw[lo:hi][sel].sum()
        total += float(T.leaf_count[node]) * cut
        for u in small_members:
            comp[u] = large_label
        large_members.extend(small_members)
        members[node] = members.pop(large)
    return float(total)


def _caterpillar_ORACLE(trees, labels=None):
    """The left fold of ``caterpillar_merge`` node by node through
    ``TreeBuilder``: each tree is copied in node order, and each tree
    after the first is joined to the accumulated tree under a new root.
    ``labels[i]``, when given, renames leaf vertex v of tree i to
    ``labels[i][v]``."""
    builder = TreeBuilder()

    def copy(T, label):
        ids = []
        for node in range(T.n_nodes):
            if T.left[node] < 0:
                v = int(T.leaf_vertex[node])
                ids.append(builder.leaf(v if label is None else label[v]))
            else:
                ids.append(builder.internal(ids[T.left[node]],
                                            ids[T.right[node]]))
        return ids[T.root]

    if labels is None:
        labels = [None] * len(trees)
    acc = copy(trees[0], labels[0])
    for T, label in zip(trees[1:], labels[1:]):
        acc = builder.internal(acc, copy(T, label))
    return builder.build()


def naive_merge_ORACLE(G, partition):
    """The naive variant from scratch: each set's degree tree rebuilt on
    its own induced graph, the trees sorted stably by leaf count and
    left-folded by ``_caterpillar_ORACLE`` onto global vertex ids."""
    sets = sorted(partition.sets, key=len)
    return _caterpillar_ORACLE(
        [hc_with_degrees(induced_subgraph(G, P)) for P in sets], labels=sets)


def cut_weight_ORACLE(G, S, T):
    """Total weight of edges with one endpoint in ``S`` and one in ``T``,
    for disjoint ``S`` and ``T``: each boundary weight measured on its own,
    where the pipeline's ``_boundary`` takes two in one edge pass."""
    S = vertex_set(S, G.n)
    T = vertex_set(T, G.n)
    if np.intersect1d(S, T, assume_unique=True).size:
        raise ValueError("cut_weight_ORACLE requires disjoint vertex sets")
    if not S.size or not T.size or not G.m:
        return 0.0
    in_s = np.zeros(G.n, dtype=bool)
    in_s[S] = True
    in_t = np.zeros(G.n, dtype=bool)
    in_t[T] = True
    crosses = ((in_s[G.edges_u] & in_t[G.edges_v])
               | (in_t[G.edges_u] & in_s[G.edges_v]))
    return float(G.edges_w[crosses].sum())


def relative_conductance_ORACLE(G, S, P):
    """How much of S's boundary stays inside P, volume-adjusted:
    ``w(S -> P\\S) / ((vol(P\\S)/vol(P)) * w(S -> V\\P))``, both weights
    from ``cut_weight_ORACLE``; degenerate denominators (S empty or all of
    P, P without outgoing edges) give 1. ``S`` must be a subset of ``P``."""
    S = vertex_set(S, G.n)
    P = vertex_set(P, G.n)
    if np.setdiff1d(S, P, assume_unique=True).size:
        raise ValueError("S must be a subset of P")
    vol_p = float(G.degrees[P].sum())
    vol_rest = vol_p - float(G.degrees[S].sum())
    w_out = cut_weight_ORACLE(G, S, np.setdiff1d(np.arange(G.n), P))
    if vol_p == 0.0 or vol_rest == 0.0 or w_out == 0.0:
        return 1.0
    w_in = cut_weight_ORACLE(G, S, np.setdiff1d(P, S))
    return w_in / ((vol_rest / vol_p) * w_out)


def prune_condition_ORACLE(G, T, crit, P, k):
    """The prune stage's keep-whole test on the degree tree T of G[P] with
    critical nodes ``crit``:
    ``n * sum_N w(N, V\\P) <= 6(k+1) * sum_N |parent(N)| * vol_{G[P]}(N)``,
    where the root counts as its own parent. Each w(N, V\\P) comes from
    ``cut_weight_ORACLE`` and each volume from its own induced graph; both
    sums run in ``crit`` order, so the comparison matches the pipeline's
    exactly."""
    if not crit:
        raise ValueError("need at least one critical node")
    P = vertex_set(P, G.n)
    induced = induced_subgraph(G, P)
    outside = np.setdiff1d(np.arange(G.n), P)
    lhs = rhs = 0.0
    for node in crit:
        local = T.leaves_under(node)
        lhs += cut_weight_ORACLE(G, P[local], outside)
        parent = node if node == T.root else T.parent[node]
        rhs += int(T.leaf_count[parent]) * float(induced.degrees[local].sum())
    return G.n * lhs <= 6.0 * (k + 1) * rhs


def dense_branch_ORACLE(G, T):
    """The dense branch by a root walk: the maximal root path of nodes
    whose leaf-set volume exceeds vol(G)/2, following the child of larger
    volume (equal volumes: the lower node id). Each volume is the degree
    sum over ``leaves_under``."""
    def vol(node):
        return float(G.degrees[T.leaves_under(node)].sum())

    path = [int(T.root)]
    while T.left[path[-1]] >= 0:
        l, r = int(T.left[path[-1]]), int(T.right[path[-1]])
        child = l if vol(l) > vol(r) or (vol(l) == vol(r) and l < r) else r
        if vol(child) <= G.total_volume / 2.0:
            break
        path.append(child)
    return tuple(path)


def degree_tree_shape_ORACLE(T, n):
    """True iff T has n leaves and every internal node of s leaves splits
    into children of 2^floor(log2(s-1)) and the rest, in either order."""
    if T.n_leaves != n:
        return False
    for node in range(T.n_nodes):
        l = T.left[node]
        if l >= 0:
            s = int(T.leaf_count[node])
            r = 1 << ((s - 1).bit_length() - 1)
            if {int(T.leaf_count[l]), int(T.leaf_count[T.right[node]])} \
                    != {r, s - r}:
                return False
    return True


def laplacian_apply_ORACLE(G, x):
    """The normalized Laplacian applied edge-wise:
    ``y = x - D^-1/2 A D^-1/2 x``; rows of degree-0 vertices act as the
    identity."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (G.n,):
        raise ValueError(f"vector length {x.shape} does not match n={G.n}")
    d = G.degrees
    inv_sqrt = np.zeros_like(d)
    inv_sqrt[d > 0] = 1.0 / np.sqrt(d[d > 0])
    s = x * inv_sqrt
    acc = np.zeros(G.n)
    np.add.at(acc, G.edges_u, G.edges_w * s[G.edges_v])
    np.add.at(acc, G.edges_v, G.edges_w * s[G.edges_u])
    return x - inv_sqrt * acc


def _bernoulli_block_ORACLE(rng, A, B, prob):
    """The whole-array form of ``generators._bernoulli_block``: one uniform
    per pair in a single draw, and ``np.triu_indices`` for intra pairs."""
    intra = B is A
    count = len(A) * (len(A) - 1) // 2 if intra else len(A) * len(B)
    if count == 0 or prob == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        idx = np.arange(count)
    else:
        idx = np.flatnonzero(rng.random(count) < prob)
    if intra:
        iu, iv = np.triu_indices(len(A), 1)
        return A[iu[idx]], A[iv[idx]]
    return A[idx // len(B)], B[idx % len(B)]
