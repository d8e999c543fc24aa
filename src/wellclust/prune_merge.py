"""Cluster-then-prune pipeline assembling a full hierarchy from cores.

Three phases. *Partition* runs the conductance decomposition, which also
builds the degree-ordered tree of each final cluster and measures its
critical nodes. *Prune* takes each such tree and walks its dense branch
from the top: at every step a boundary test decides whether the remaining
tree is kept intact or the critical subtree hanging off the current root
is detached into a shared pool. Subtrees whose leaves carry a lot of
weight out of their own cluster are exactly the ones the test detaches,
because gluing them deep inside a big tree makes every outgoing edge pay
the big tree's size. *Merge* folds the pooled subtrees together smallest
first, so the caterpillar spine keeps heavy subtrees near the final root.

The naive variant skips the prune phase entirely and is kept as a
comparison point. Whenever no critical subtree is detached the two return
the same tree object. The advantage of pruning is asymptotic; a detachment
need not lower the cost at small sizes either (the acceptance suite's
crafted two-detachment pool costs exactly what the unpruned fold costs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decomposition import (DecompParams, Partition, _ClusterInfo, _Critical,
                            _require, derive_params, strong_decomposition)
from .graph import Graph
from .spectral import DEFAULT_TOL, smallest_eigenvalues
from .tree import HCTree, caterpillar_merge, dasgupta_cost, relabel_leaves

__all__ = [
    "PruneMergeResult",
    "run_prune_merge",
    "best_over_k",
]


@dataclass(frozen=True)
class PruneMergeResult:
    """Full record of one pipeline run.

    ``pool_sizes`` is the merge order (ascending leaf counts);
    ``pruned`` holds one record per detached critical subtree with the
    leaf count of its parent in the final tree; ``condition_trace`` is
    the per-cluster sequence of boundary-test outcomes; ``whole`` holds
    each cluster's unpruned degree tree on local ids, as the decomposition
    built it; :meth:`naive_tree` folds them unpruned, or returns the same
    tree object as ``tree`` when nothing was detached. The run's thresholds
    are its caller's ``params`` to :func:`run_prune_merge`, not kept here.
    """

    tree: HCTree
    partition: Partition
    decomposition_report: dict
    pool_sizes: tuple[int, ...]
    pruned: tuple[dict, ...]
    condition_trace: tuple[tuple[bool, ...], ...]
    whole: tuple[HCTree, ...]

    def naive_tree(self) -> HCTree:
        """The naive variant: the whole cluster trees folded ascending by
        size; the same tree object as ``tree`` if the run detached nothing."""
        if not self.pruned:
            return self.tree
        return _fold(self.partition.n,
                     [(relabel_leaves(T, P), None)
                      for P, T in zip(self.partition.sets, self.whole)])[0]


def _keeps_whole(n: int, k: int, T: HCTree, live: tuple[_Critical, ...],
                 root: int) -> bool:
    """Is the tree below ``root`` cheap enough to keep whole?

    Compares the total weight leaving the cluster from the live critical
    leaf sets against their parent-size-weighted internal volumes:
    ``n * sum_N w(N, V\\P) <= 6(k+1) * sum_N |parent(N)| * vol_in(N)``
    with parent sizes in T (a node at ``root`` counts as its own parent)
    and volumes in the induced subgraph on P.
    """
    lhs = sum(c.w_out for c in live)
    rhs = 0.0
    for c in live:
        parent = c.node if c.node == root else int(T.parent[c.node])
        rhs += int(T.leaf_count[parent]) * c.vol_in
    return n * lhs <= 6.0 * (k + 1) * rhs


_Piece = tuple[HCTree, dict | None]   # a subtree on global ids, its record


def _prune_cluster(G: Graph, view: _ClusterInfo, k: int, cluster: int,
                   ) -> tuple[list[_Piece], list[bool]]:
    """Prune one cluster's tree, with the critical nodes the decomposition
    measured on it; returns the pieces in detach order (the kept remainder
    last), each a subtree on global ids with its detach record, None for
    the remainder, and the condition-test outcomes."""
    P, tree, live = view.P, view.tree, view.critical
    root = tree.root
    pieces: list[_Piece] = []
    outcomes: list[bool] = []
    while live:  # a one-vertex cluster has no critical node and no test
        keep = _keeps_whole(G.n, k, tree, live, root)
        outcomes.append(keep)
        children = [c for c in live if int(tree.parent[c.node]) == root]
        if keep or not children:
            # kept, or the descent bottomed out on a critical root
            break
        victim = min(children,
                     key=lambda c: (int(tree.leaf_count[c.node]), c.node))
        live = tuple(c for c in live if c is not victim)
        node = victim.node
        pieces.append((relabel_leaves(tree.subtree(node), P),
                       {"cluster": cluster, "node": node,
                        "leaf_count": int(tree.leaf_count[node])}))
        left, right = int(tree.left[root]), int(tree.right[root])
        root = right if left == node else left
    pieces.append((relabel_leaves(tree.subtree(root), P), None))
    return pieces, outcomes


def run_prune_merge(G: Graph, params: DecompParams) -> PruneMergeResult:
    """Hierarchy over all of G: decompose with the thresholds ``params``
    (from :func:`derive_params`), prune each cluster tree, fold. Keeps
    every intermediate the tests audit; the tree is ``.tree``."""
    partition, report = decomposition = strong_decomposition(G, params)
    views = decomposition.views
    clusters = [_prune_cluster(G, view, params.k, i)
                for i, view in enumerate(views)]
    tree, pool_sizes, pruned = _fold(
        G.n, [piece for pieces, _ in clusters for piece in pieces])
    return PruneMergeResult(
        tree=tree, partition=partition, decomposition_report=report,
        pool_sizes=pool_sizes, pruned=pruned,
        condition_trace=tuple(tuple(out) for _, out in clusters),
        whole=tuple(view.tree for view in views))


def _fold(n: int, pieces: list[_Piece],
          ) -> tuple[HCTree, tuple[int, ...], tuple[dict, ...]]:
    """Left-fold the pieces, ascending by leaf count (stable), into one
    caterpillar over 0..n-1. Returns it, the leaf counts in fold order and
    each detach record completed with ``parent_final_leaves``, its
    subtree's parent size in the fold; the pieces are left as they are."""
    order = sorted(pieces, key=lambda p: p[0].n_leaves)
    trees = [T for T, _ in order]
    covered = np.concatenate([T.leaf_vertex[T.left < 0] for T in trees])
    _require(np.array_equal(np.sort(covered), np.arange(n)),
             "pooled subtrees stopped partitioning the vertex set")
    sizes = tuple(T.n_leaves for T in trees)
    prefix = np.cumsum(sizes)
    # piece j's parent in the fold spans pieces 0..max(j, 1), or j if alone
    pruned = tuple(
        {**record, "parent_final_leaves":
         int(prefix[min(max(j, 1), len(order) - 1)])}
        for j, (_, record) in enumerate(order) if record is not None)
    return caterpillar_merge(trees), sizes, pruned


def best_over_k(G: Graph, k_max: int, phi_in_mode: str = "practical",
                ) -> tuple[int, PruneMergeResult]:
    """Try every k in 2..k_max and keep the run whose tree is cheapest
    (ties: smallest k); returns that k and its full record.

    k values whose (k+1)-th eigenvalue sits at numerical zero are skipped:
    the decomposition's thresholds degenerate there. The spectrum is
    computed once up front; each run reads its thresholds and its first
    sweep from it, so the whole graph is solved once in total.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    eigs = smallest_eigenvalues(G, min(k_max + 1, G.n))
    best: tuple[float, int, PruneMergeResult] | None = None
    for k in range(2, k_max + 1):
        if k + 1 > G.n or float(eigs.eigenvalues[k]) <= DEFAULT_TOL:
            continue
        params = derive_params(G, k, phi_in_mode=phi_in_mode, eigs=eigs)
        result = run_prune_merge(G, params)
        cost = dasgupta_cost(G, result.tree)
        if best is None or cost < best[0]:
            best = (cost, k, result)
    if best is None:
        raise ValueError(f"no feasible k in 2..{k_max}: every lambda_(k+1) "
                         f"is numerically zero or k + 1 > n = {G.n}")
    return best[1], best[2]
