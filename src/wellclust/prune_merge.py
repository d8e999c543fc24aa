"""Cluster-then-prune pipeline assembling a full hierarchy from cores.

Three phases. *Partition* runs the conductance decomposition. *Prune*
builds the degree-ordered tree of each cluster and walks its dense branch
from the top: at every step a boundary test decides whether the remaining
tree is kept intact or the critical subtree hanging off the current root
is detached into a shared pool. Subtrees whose leaves carry a lot of
weight out of their own cluster are exactly the ones the test detaches,
because gluing them deep inside a big tree makes every outgoing edge pay
the big tree's size. *Merge* folds the pooled subtrees together smallest
first, so the caterpillar spine keeps heavy subtrees near the final root.

The naive variant skips the prune phase entirely and is kept as a
comparison point. Whenever no critical subtree is detached the two return
the same tree, array for array. The advantage of pruning is asymptotic;
a detachment need not lower the cost at small sizes either (the
acceptance suite's crafted two-detachment pool costs exactly what the
unpruned fold costs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import (DecompParams, Partition, _require, derive_params,
                            strong_decomposition)
from .degree_hc import hc_with_degrees
from .graph import Graph, cut_weight, induced_subgraph, vertex_set
from .spectral import DEFAULT_TOL, smallest_eigenvalues
from .tree import (CriticalNodes, HCTree, caterpillar_merge, critical_nodes,
                   dasgupta_cost, relabel_leaves)

__all__ = [
    "PruneMergeResult",
    "prune_condition",
    "run_prune_merge",
    "prune_merge",
    "naive_cluster_merge",
    "best_over_k",
]


@dataclass(frozen=True)
class PruneMergeResult:
    """Full record of one pipeline run.

    ``pool_sizes`` is the merge order (ascending leaf counts);
    ``pruned`` holds one record per detached critical subtree with the
    leaf count of its parent in the final tree; ``condition_trace`` is
    the per-cluster sequence of boundary-test outcomes; ``whole`` holds
    each cluster's unpruned degree tree on local ids, and
    :meth:`naive_tree` folds them as :func:`naive_cluster_merge` does.
    """

    tree: HCTree
    partition: Partition
    params: DecompParams
    decomposition_report: dict
    pool_sizes: tuple[int, ...]
    pruned: tuple[dict, ...]
    condition_trace: tuple[tuple[bool, ...], ...]
    whole: tuple[HCTree, ...]

    def naive_tree(self, G: Graph) -> HCTree:
        return _fold_whole(G, self.partition.sets, self.whole)


def prune_condition(G: Graph, T: HCTree, crit: CriticalNodes | tuple[int, ...],
                    P: np.ndarray, k: int) -> bool:
    """Is the current tree cheap enough to keep whole?

    Compares the total weight leaving the cluster from the critical
    leaf sets against their parent-size-weighted internal volumes:
    ``n * sum_N w(N, V\\P) <= 6(k+1) * sum_N |parent(N)| * vol_in(N)``
    with parent sizes in T (a root's parent counts as itself) and
    volumes in the induced subgraph on P.
    """
    nodes = crit.nodes if isinstance(crit, CriticalNodes) else tuple(crit)
    if not nodes:
        raise ValueError("need at least one critical node")
    P = vertex_set(P, G.n)
    live = _measure_critical(G, P, induced_subgraph(G, P), T, nodes)
    return _keeps_whole(G.n, k, T, live, T.root)


@dataclass(frozen=True)
class _Critical:
    node: int
    w_out: float    # w(N, V \ P) in G
    vol_in: float   # vol(N) in G[P]


def _measure_critical(G: Graph, P: np.ndarray, induced: Graph, T: HCTree,
                      nodes: tuple[int, ...]) -> list[_Critical]:
    outside = np.setdiff1d(np.arange(G.n), P, assume_unique=True)
    out = []
    for node in nodes:
        local = T.leaves_under(node)
        out.append(_Critical(int(node), cut_weight(G, P[local], outside),
                             float(induced.degrees[local].sum())))
    return out


def _keeps_whole(n: int, k: int, T: HCTree, live: list[_Critical],
                 root: int) -> bool:
    """The prune inequality over the live critical nodes of T below
    ``root``; a node at ``root`` counts as its own parent."""
    lhs = sum(c.w_out for c in live)
    rhs = 0.0
    for c in live:
        parent = c.node if c.node == root else int(T.parent[c.node])
        rhs += int(T.leaf_count[parent]) * c.vol_in
    return n * lhs <= 6.0 * (k + 1) * rhs


@dataclass
class _PoolEntry:
    leaves: np.ndarray      # global vertex ids, sorted
    tree: HCTree            # leaf labels already global
    cluster: int
    pruned_record: dict | None  # set for detached critical subtrees only


def _prune_cluster(G: Graph, P: np.ndarray, k: int, cluster: int,
                   ) -> tuple[list[_PoolEntry], list[bool], HCTree]:
    """Prune one cluster's tree; returns pool entries in detach order (the
    kept remainder last), the condition-test outcomes, and the unpruned tree."""
    induced = induced_subgraph(G, P)
    tree = hc_with_degrees(induced)
    if induced.n < 2:
        return [_PoolEntry(P.copy(), relabel_leaves(tree, P), cluster, None)], \
            [], tree
    live = _measure_critical(G, P, induced, tree,
                             critical_nodes(induced, tree).nodes)

    def pooled(node: int, record: dict | None) -> _PoolEntry:
        glob = P[tree.leaves_under(node)]
        return _PoolEntry(glob, relabel_leaves(tree.subtree(node), P),
                          cluster, record)

    root = tree.root
    entries: list[_PoolEntry] = []
    outcomes: list[bool] = []
    while True:
        keep = not live or _keeps_whole(G.n, k, tree, live, root)
        outcomes.append(keep)
        if keep:
            entries.append(pooled(root, None))
            break
        children = [c for c in live if int(tree.parent[c.node]) == root]
        if not children:
            # the descent bottomed out on a critical root; keep it whole
            entries.append(pooled(root, None))
            break
        victim = min(children,
                     key=lambda c: (int(tree.leaf_count[c.node]), c.node))
        live.remove(victim)
        node = victim.node
        record = {"cluster": cluster, "node": node,
                  "leaf_count": int(tree.leaf_count[node])}
        entries.append(pooled(node, record))
        left, right = int(tree.left[root]), int(tree.right[root])
        root = right if left == node else left
    return entries, outcomes, tree


def run_prune_merge(G: Graph, k: int, params: DecompParams | None = None,
                    c0: float = 1.0, phi_in_mode: str = "practical",
                    ) -> PruneMergeResult:
    """Run the full pipeline and keep every intermediate the tests audit."""
    if params is None:
        params = derive_params(G, k, c0=c0, phi_in_mode=phi_in_mode)
    partition, report = strong_decomposition(G, k, params)
    clusters = [_prune_cluster(G, P, k, i)
                for i, P in enumerate(partition.sets)]
    pool = [entry for entries, _, _ in clusters for entry in entries]
    tree = _merge_pool(G, pool)
    return PruneMergeResult(
        tree=tree, partition=partition, params=params,
        decomposition_report=report,
        pool_sizes=tuple(int(e.leaves.size) for e in pool),
        pruned=tuple(e.pruned_record for e in pool
                     if e.pruned_record is not None),
        condition_trace=tuple(tuple(out) for _, out, _ in clusters),
        whole=tuple(unpruned for _, _, unpruned in clusters))


def _merge_pool(G: Graph, pool: list[_PoolEntry]) -> HCTree:
    """Sort ascending by leaf count (stable) and left-fold; fills each
    pruned record's parent size in the final tree from the prefix sums."""
    pool.sort(key=lambda e: e.leaves.size)
    covered = np.concatenate([e.leaves for e in pool])
    _require(np.array_equal(np.sort(covered), np.arange(G.n)),
             "pooled subtrees stopped partitioning the vertex set")
    sizes = np.array([e.leaves.size for e in pool], dtype=np.int64)
    prefix = np.cumsum(sizes)
    for j, e in enumerate(pool):
        if e.pruned_record is None:
            continue
        if len(pool) == 1:
            parent = int(sizes[0])
        else:
            parent = int(prefix[1] if j == 0 else prefix[j])
        e.pruned_record["parent_final_leaves"] = parent
        e.pruned_record["pool_index"] = j
    if len(pool) == 1:
        return pool[0].tree
    return caterpillar_merge([e.tree for e in pool])


def prune_merge(G: Graph, k: int, params: DecompParams | None = None,
                c0: float = 1.0, phi_in_mode: str = "practical") -> HCTree:
    """Hierarchy over all of G: decompose, prune each cluster tree, fold."""
    return run_prune_merge(G, k, params, c0=c0, phi_in_mode=phi_in_mode).tree


def naive_cluster_merge(G: Graph, k: int, params: DecompParams | None = None,
                        c0: float = 1.0, phi_in_mode: str = "practical",
                        ) -> HCTree:
    """Same partition and per-cluster trees, no pruning: whole cluster
    trees folded ascending by size. Identical to the prune_merge tree
    whenever that run detaches no critical subtree."""
    if params is None:
        params = derive_params(G, k, c0=c0, phi_in_mode=phi_in_mode)
    partition, _ = strong_decomposition(G, k, params)
    return _fold_whole(G, partition.sets, [
        hc_with_degrees(induced_subgraph(G, P)) for P in partition.sets])


def _fold_whole(G: Graph, sets: tuple, trees: list[HCTree]) -> HCTree:
    """The naive merge: whole cluster trees, on local ids, folded ascending
    by size."""
    return _merge_pool(G, [_PoolEntry(P, relabel_leaves(T, P), i, None)
                           for i, (P, T) in enumerate(zip(sets, trees))])


def best_over_k(G: Graph, k_max: int, c0: float = 1.0,
                phi_in_mode: str = "practical", tol: float = DEFAULT_TOL,
                ) -> tuple[int, HCTree]:
    """Try every k in 2..k_max and keep the cheapest tree (ties: smallest k).

    k values whose (k+1)-th eigenvalue sits at numerical zero are skipped:
    the decomposition's thresholds degenerate there. The spectrum is
    computed once up front.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    top = min(k_max + 1, G.n)
    eigs = smallest_eigenvalues(G, top)
    best: tuple[float, int, HCTree] | None = None
    tried = 0
    for k in range(2, k_max + 1):
        if k + 1 > G.n or float(eigs.eigenvalues[k]) <= tol:
            continue
        tried += 1
        params = derive_params(G, k, c0=c0, phi_in_mode=phi_in_mode, eigs=eigs)
        tree = prune_merge(G, k, params)
        cost = dasgupta_cost(G, tree)
        if best is None or cost < best[0]:
            best = (cost, k, tree)
    if best is None:
        raise ValueError(f"no feasible k in 2..{k_max} "
                         f"(checked {tried}, all eigenvalue-degenerate)")
    return best[1], best[2]
