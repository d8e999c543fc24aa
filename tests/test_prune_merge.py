"""Cluster-prune-merge pipeline tests."""

import math

import numpy as np
import pytest

from wellclust import (
    best_over_k,
    brute_force_opt,
    dasgupta_cost,
    derive_params,
    hc_with_degrees,
    naive_cluster_merge,
    prune_condition,
    prune_merge,
    run_prune_merge,
    strong_decomposition,
    termination_report,
)
from wellclust.degree_hc import hc_with_degrees as build_degree_tree
from wellclust.graph import induced_subgraph
from wellclust.prune_merge import _merge_pool, _PoolEntry, _prune_cluster
from wellclust.tree import critical_nodes, relabel_leaves
from wellclust.generators import gen_sbm

from conftest import (
    complete_graph,
    random_connected_graph,
    unit_graph,
    weighted_graph,
)


def five_triangles():
    edges = []
    for b in range(5):
        base = 3 * b
        edges += [(base, base + 1), (base, base + 2), (base + 1, base + 2)]
    return unit_graph(15, edges)


def test_condition_isolated_cluster_true(two_triangles):
    P = np.array([0, 1, 2])
    induced = induced_subgraph(two_triangles, P)
    T = build_degree_tree(induced)
    crit = critical_nodes(induced, T)
    assert prune_condition(two_triangles, T, crit, P, 2)


def test_condition_whole_graph_true(k4):
    T = build_degree_tree(k4)
    crit = critical_nodes(k4, T)
    assert prune_condition(k4, T, crit, np.arange(4), 1)


def test_condition_needs_nodes(k4):
    T = build_degree_tree(k4)
    with pytest.raises(ValueError):
        prune_condition(k4, T, (), np.arange(4), 1)


def test_two_components_cost_is_additive(two_triangles):
    res = run_prune_merge(two_triangles, 2)
    assert dasgupta_cost(two_triangles, res.tree) == 16.0
    naive = naive_cluster_merge(two_triangles, 2)
    assert dasgupta_cost(two_triangles, naive) == 16.0
    root_sides = sorted(
        sorted(int(v) for v in res.tree.leaves_under(int(c)))
        for c in (res.tree.left[res.tree.root], res.tree.right[res.tree.root]))
    assert root_sides == [[0, 1, 2], [3, 4, 5]]


def test_single_cluster_collapses_to_degree_tree():
    G = complete_graph(6)
    res = run_prune_merge(G, 1)
    reference = hc_with_degrees(G)
    assert res.partition.r == 1
    assert dasgupta_cost(G, res.tree) == dasgupta_cost(G, reference)
    assert res.condition_trace == ((True,),)
    assert res.pruned == ()
    naive = naive_cluster_merge(G, 1)
    assert dasgupta_cost(G, naive) == dasgupta_cost(G, reference)


def test_pipeline_audit_fields():
    G, _ = gen_sbm([50, 50, 50], 0.3, 0.002, 2)
    res = run_prune_merge(G, 3)
    assert res.partition.r <= 3
    assert list(res.pool_sizes) == sorted(res.pool_sizes)
    assert sum(res.pool_sizes) == G.n
    assert len(res.condition_trace) == res.partition.r
    cost = dasgupta_cost(G, res.tree)
    assert cost <= G.n * G.total_volume / 2
    limit = 2 * (math.floor(math.log2(G.n)) + 3)
    for trace in res.condition_trace:
        assert len(trace) <= limit


def test_merge_spine_ascending():
    G, _ = gen_sbm([40, 60, 80], 0.3, 0.002, 8)
    res = run_prune_merge(G, 3)
    T = res.tree
    sizes = list(res.pool_sizes)
    node = int(T.root)
    spine = []
    while len(spine) < len(sizes) - 1:
        spine.append(int(T.leaf_count[T.right[node]]))
        node = int(T.left[node])
    spine.append(int(T.leaf_count[node]))
    assert spine == sizes[::-1]


def test_determinism():
    G, _ = gen_sbm([40, 40], 0.25, 0.01, 3)
    a = run_prune_merge(G, 2)
    b = run_prune_merge(G, 2)
    assert np.array_equal(a.tree.left, b.tree.left)
    assert np.array_equal(a.tree.leaf_vertex, b.tree.leaf_vertex)
    assert a.pool_sizes == b.pool_sizes


def test_sandwiched_by_optimum_small():
    for seed in range(40, 46):
        G = random_connected_graph(7, seed)
        res = run_prune_merge(G, 2)
        cost = dasgupta_cost(G, res.tree)
        opt, _ = brute_force_opt(G)
        assert opt <= cost <= G.n * G.total_volume / 2


def forced_prune_graph():
    """Two bridged unit K4s as cluster {0..7}; vertex 0 pours weight 50
    onto each of 20 outside vertices, so keeping its subtree deep inside
    a big tree is exactly what the boundary test must reject."""
    edges = []
    for a in range(4):
        for b in range(a + 1, 4):
            edges.append((a, b, 1.0))
            edges.append((4 + a, 4 + b, 1.0))
    edges.append((3, 4, 1.0))
    for x in range(8, 28):
        edges.append((0, x, 50.0))
    for x in range(8, 27):
        edges.append((x, x + 1, 1.0))
    return weighted_graph(28, edges)


def test_forced_prune_detaches_and_records():
    G = forced_prune_graph()
    P = np.arange(8)
    entries, outcomes, tree = _prune_cluster(G, P, 2, 0)
    assert outcomes[0] is False
    # two detachments, then the current root is itself a live critical
    # node with no live child left: the third test keeps it whole
    assert outcomes == [False, False, False]
    crit = critical_nodes(induced_subgraph(G, P), tree)
    assert outcomes[0] == prune_condition(G, tree, crit, P, 2)
    records = [e.pruned_record for e in entries if e.pruned_record]
    assert len(records) == 2
    assert sorted(r["leaf_count"] for r in records) == [2, 4]
    covered = np.sort(np.concatenate([e.leaves for e in entries]))
    assert np.array_equal(covered, P)
    assert len(outcomes) <= 2 * (math.floor(math.log2(G.n)) + 3)


def test_forced_prune_parent_sizes_in_final_tree():
    G = forced_prune_graph()
    P = np.arange(8)
    entries, _, _ = _prune_cluster(G, P, 2, 0)
    ext = np.arange(8, 28)
    ind = induced_subgraph(G, ext)
    pool = entries + [_PoolEntry(ext, relabel_leaves(build_degree_tree(ind),
                                                     ext), 1, None)]
    T = _merge_pool(G, pool)
    assert T.n_leaves == 28
    records = [e.pruned_record for e in pool if e.pruned_record]
    by_size = {r["leaf_count"]: r for r in records}
    # pool sizes sort to (2, 2, 4, 20); the detached pair joins the other
    # two-leaf tree (parent 4), the detached quad sits under prefix 8
    assert by_size[2]["parent_final_leaves"] == 4
    assert by_size[4]["parent_final_leaves"] == 8
    for r in records:
        assert r["parent_final_leaves"] <= 12 * 2 * r["leaf_count"]


def test_best_over_k_two_components(two_triangles):
    k, T = best_over_k(two_triangles, 4)
    assert k == 2
    assert dasgupta_cost(two_triangles, T) == 16.0


def test_best_over_k_prefers_true_cluster_count():
    good = 0
    for seed in range(1, 11):
        G, _ = gen_sbm([60, 60, 60], 0.3, 0.002, seed)
        costs = {}
        for k in (2, 3, 5):
            try:
                costs[k] = dasgupta_cost(G, prune_merge(G, k))
            except ValueError:
                costs[k] = None
        ok = (costs[3] is not None
              and (costs[2] is None or costs[3] <= costs[2])
              and (costs[5] is None or costs[3] <= costs[5]))
        good += ok
    assert good >= 8


def test_best_over_k_validation(two_triangles):
    with pytest.raises(ValueError):
        best_over_k(two_triangles, 1)
    with pytest.raises(ValueError):
        best_over_k(five_triangles(), 4)


def test_k_must_match_params_k():
    G, _ = gen_sbm([50, 50, 50], 0.3, 0.002, seed=1)
    params2 = derive_params(G, 2)
    partition, _ = strong_decomposition(G, 2, params2)
    for call in (lambda: run_prune_merge(G, 3, params=params2),
                 lambda: prune_merge(G, 3, params=params2),
                 lambda: naive_cluster_merge(G, 3, params=params2),
                 lambda: strong_decomposition(G, 3, params2),
                 lambda: termination_report(G, partition, params2, 3)):
        with pytest.raises(ValueError, match="disagrees with params.k = 2"):
            call()
    assert run_prune_merge(G, 3, params=derive_params(G, 3)).partition.r == 3
