"""Cluster-prune-merge pipeline tests."""

import collections
import importlib
import inspect
import math

import numpy as np
import pytest

from wellclust import (
    best_over_k,
    brute_force_opt,
    dasgupta_cost,
    derive_params,
    hc_with_degrees,
    run_prune_merge,
    strong_decomposition,
    termination_report,
)
from wellclust.decomposition import Partition, _Decomposition, _State
from wellclust.degree_hc import hc_with_degrees as build_degree_tree
from wellclust.graph import induced_subgraph
from wellclust.prune_merge import _fold, _prune_cluster
from wellclust.spectral import DENSE_LIMIT, DEFAULT_TOL, smallest_eigenvalues
from wellclust.tree import critical_nodes, relabel_leaves
from wellclust.generators import (GenSpec, gen_bridged_two_cluster, gen_sbm,
                                  generate)
from oracles import naive_merge_ORACLE, prune_condition_ORACLE

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
    assert prune_condition_ORACLE(two_triangles, T, crit, P, 2)


def test_condition_whole_graph_true(k4):
    T = build_degree_tree(k4)
    crit = critical_nodes(k4, T)
    assert prune_condition_ORACLE(k4, T, crit, np.arange(4), 1)


def test_condition_needs_nodes(k4):
    T = build_degree_tree(k4)
    with pytest.raises(ValueError):
        prune_condition_ORACLE(k4, T, (), np.arange(4), 1)


def test_two_components_cost_is_additive(two_triangles):
    res = run_prune_merge(two_triangles, derive_params(two_triangles, 2))
    assert dasgupta_cost(two_triangles, res.tree) == 16.0
    naive = res.naive_tree()
    assert dasgupta_cost(two_triangles, naive) == 16.0
    root_sides = sorted(
        sorted(int(v) for v in res.tree.leaves_under(int(c)))
        for c in (res.tree.left[res.tree.root], res.tree.right[res.tree.root]))
    assert root_sides == [[0, 1, 2], [3, 4, 5]]


def test_single_cluster_collapses_to_degree_tree():
    G = complete_graph(6)
    res = run_prune_merge(G, derive_params(G, 1))
    reference = hc_with_degrees(G)
    assert res.partition.r == 1
    assert dasgupta_cost(G, res.tree) == dasgupta_cost(G, reference)
    assert res.condition_trace == ((True,),)
    assert res.pruned == ()
    naive = res.naive_tree()
    assert dasgupta_cost(G, naive) == dasgupta_cost(G, reference)


def test_pipeline_audit_fields():
    G, _ = gen_sbm([50, 50, 50], 0.3, 0.002, 2)
    res = run_prune_merge(G, derive_params(G, 3))
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
    res = run_prune_merge(G, derive_params(G, 3))
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
    a = run_prune_merge(G, derive_params(G, 2))
    b = run_prune_merge(G, derive_params(G, 2))
    assert np.array_equal(a.tree.left, b.tree.left)
    assert np.array_equal(a.tree.leaf_vertex, b.tree.leaf_vertex)
    assert a.pool_sizes == b.pool_sizes


def test_sandwiched_by_optimum_small():
    for seed in range(40, 46):
        G = random_connected_graph(7, seed)
        res = run_prune_merge(G, derive_params(G, 2))
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


FORCED_SETS = (np.arange(8), np.arange(8, 28))


def forced_decomposition(G, params):
    """strong_decomposition's return had it settled on the crafted
    partition FORCED_SETS: the pair, plus each cluster's view."""
    state = _State(G, params, sets=list(FORCED_SETS),
                   cores=list(FORCED_SETS))
    out = _Decomposition((Partition(FORCED_SETS, FORCED_SETS),
                          {"stalled": False}))
    out.views = tuple(state.info(i) for i in range(state.r))
    return out


def test_forced_prune_detaches_and_records():
    G = forced_prune_graph()
    P = np.arange(8)
    view = forced_decomposition(G, derive_params(G, 2)).views[0]
    pieces, outcomes = _prune_cluster(G, view, 2, 0)
    tree = view.tree
    assert outcomes[0] is False
    # two detachments, then the current root is itself a live critical
    # node with no live child left: the third test keeps it whole
    assert outcomes == [False, False, False]
    crit = critical_nodes(induced_subgraph(G, P), tree)
    assert outcomes[0] == prune_condition_ORACLE(G, tree, crit, P, 2)
    records = [rec for _, rec in pieces if rec]
    assert len(records) == 2
    assert sorted(r["leaf_count"] for r in records) == [2, 4]
    covered = np.sort(np.concatenate([T.leaves_under(T.root)
                                      for T, _ in pieces]))
    assert np.array_equal(covered, P)
    assert len(outcomes) <= 2 * (math.floor(math.log2(G.n)) + 3)


def test_forced_prune_parent_sizes_in_final_tree():
    G = forced_prune_graph()
    view = forced_decomposition(G, derive_params(G, 2)).views[0]
    pieces, _ = _prune_cluster(G, view, 2, 0)
    ext = np.arange(8, 28)
    ind = induced_subgraph(G, ext)
    pool = pieces + [(relabel_leaves(build_degree_tree(ind), ext), None)]
    T, _, records = _fold(G.n, pool)
    assert T.n_leaves == 28
    by_size = {r["leaf_count"]: r for r in records}
    # pool sizes sort to (2, 2, 4, 20); the detached pair joins the other
    # two-leaf tree (parent 4), the detached quad sits under prefix 8
    assert by_size[2]["parent_final_leaves"] == 4
    assert by_size[4]["parent_final_leaves"] == 8
    for r in records:
        assert r["parent_final_leaves"] <= 12 * 2 * r["leaf_count"]


def test_fold_leaves_its_pieces_as_they_are():
    G = forced_prune_graph()
    view = forced_decomposition(G, derive_params(G, 2)).views[0]
    pieces, _ = _prune_cluster(G, view, 2, 0)
    ext = np.arange(8, 28)
    ext_tree = relabel_leaves(build_degree_tree(induced_subgraph(G, ext)), ext)
    pool = [(ext_tree, None)] + pieces     # the largest piece first
    before = [(T, rec, None if rec is None else dict(rec)) for T, rec in pool]
    _, sizes, records = _fold(G.n, pool)
    assert list(sizes) == [2, 2, 4, 20] and len(records) == 2
    assert len(pool) == len(before) and all(
        T is T0 and rec is rec0 and rec == copy
        for (T, rec), (T0, rec0, copy) in zip(pool, before))


def _same_tree(a, b):
    return a.root == b.root and all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("left", "right", "parent", "leaf_vertex", "leaf_count"))


@pytest.mark.parametrize("make", [
    lambda: gen_sbm([50, 50, 50], 0.3, 0.002, 1)[0],
    lambda: gen_sbm([300] * 3, 0.04, 0.002, 1)[0],     # stalls with r = 1
    lambda: random_connected_graph(20, 7),
    lambda: gen_sbm([10, 10, 10], 0.6, 0.05, 2)[0],
])
def test_naive_tree_is_the_naive_fold(make):
    G = make()
    res = run_prune_merge(G, derive_params(G, 3))
    assert not res.pruned
    assert _same_tree(res.naive_tree(), naive_merge_ORACLE(
        G, strong_decomposition(G, derive_params(G, 3))[0]))
    # nothing detached: the unpruned fold is the run's own tree, not a copy
    assert res.naive_tree() is res.tree


def test_naive_tree_keeps_detached_subtrees_in_place(monkeypatch):
    # the decomposition never isolates the crafted cluster by itself, so
    # the run, and the oracle after it, get the partition the prune test
    # rejects
    G = forced_prune_graph()
    # (the package's prune_merge attribute is the function of that name)
    module = importlib.import_module("wellclust.prune_merge")
    monkeypatch.setattr(module, "strong_decomposition", forced_decomposition)
    res = run_prune_merge(G, derive_params(G, 2))
    assert len(res.pruned) == 4   # two subtrees detached from each cluster
    assert all(list(rec) == ["cluster", "node", "leaf_count",
                             "parent_final_leaves"] for rec in res.pruned)
    assert list(res.pool_sizes) == sorted(res.pool_sizes)
    assert sum(res.pool_sizes) == G.n
    assert _same_tree(res.naive_tree(), naive_merge_ORACLE(G, res.partition))
    assert not _same_tree(res.naive_tree(), res.tree)
    assert dasgupta_cost(G, res.naive_tree()) != dasgupta_cost(G, res.tree)


def test_pipeline_builds_no_cluster_view_twice(monkeypatch):
    """Prune and the naive fold take each final cluster's induced graph,
    degree tree and critical nodes from the decomposition, so a whole run
    builds exactly what the decomposition alone builds."""
    G, _ = gen_sbm([30, 30, 30], 0.5, 0.01, 1)
    calls = collections.Counter()
    for module in (importlib.import_module("wellclust.decomposition"),
                   importlib.import_module("wellclust.prune_merge")):
        for name in ("hc_with_degrees", "critical_nodes", "induced_subgraph"):
            if hasattr(module, name):
                real = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _f=real,
                                    _n=name, **kw: calls.update([_n])
                                    or _f(*a, **kw))

    def counted(run):
        calls.clear()
        run()
        return dict(calls)

    params = derive_params(G, 3)
    alone = counted(lambda: strong_decomposition(G, params))
    assert sorted(alone) == ["critical_nodes", "hc_with_degrees",
                             "induced_subgraph"]
    assert counted(lambda: run_prune_merge(G, params)) == alone
    assert counted(lambda: run_prune_merge(G, params).naive_tree()) == alone


def _whole_graph_solves(monkeypatch, G) -> list[int]:
    """Count the eigensolves of all of G where the pipeline looks the solver
    up; the returned list gets each such solve's pair count."""
    calls = []
    for module in (importlib.import_module("wellclust.decomposition"),
                   importlib.import_module("wellclust.prune_merge")):
        def counted(H, k, *args, **kwargs):
            if H.n == G.n:
                calls.append(k)
            return smallest_eigenvalues(H, k, *args, **kwargs)
        monkeypatch.setattr(module, "smallest_eigenvalues", counted)
    return calls


@pytest.mark.parametrize("make, k", [
    (lambda: gen_sbm([50, 50, 50], 0.3, 0.002, 1)[0], 3),
    (lambda: gen_bridged_two_cluster(256, 0)[0], 2),   # stalls with r = 1
], ids=["sbm", "bridged"])
def test_pipeline_solves_the_whole_graph_once(monkeypatch, make, k):
    """The first sweep reads lambda_2's vector from the spectrum
    derive_params solved, on the Lanczos path too."""
    G = make()
    assert G.n > DENSE_LIMIT
    calls = _whole_graph_solves(monkeypatch, G)
    run_prune_merge(G, derive_params(G, k))
    assert calls == [k + 1]


def test_best_over_k_solves_the_whole_graph_once(monkeypatch):
    G, _ = gen_sbm([50, 50, 50], 0.3, 0.002, 1)
    calls = _whole_graph_solves(monkeypatch, G)
    best_over_k(G, 4)
    assert calls == [5]


def test_components_keep_their_own_first_sweep(monkeypatch, two_triangles):
    """With lambda_2 at zero the first view solves G for 2 pairs itself."""
    calls = _whole_graph_solves(monkeypatch, two_triangles)
    run_prune_merge(two_triangles, derive_params(two_triangles, 2))
    assert calls == [3, 2]
    # components of 297, 2 and 1 vertices; its cost is a benchmark reference
    G, _ = generate(GenSpec("sbm_planted_cliques", {
        "sizes": [100, 100, 100], "p": 0.06, "q": 0.002, "c_p": 0.4}, 28))
    calls = _whole_graph_solves(monkeypatch, G)
    result = run_prune_merge(G, derive_params(G, 3))
    assert calls == [4, 2]
    assert dasgupta_cost(G, result.tree) == 364046


def test_best_over_k_two_components(two_triangles):
    k, result = best_over_k(two_triangles, 4)
    assert k == 2
    assert dasgupta_cost(two_triangles, result.tree) == 16.0
    assert result.partition.r == 2


@pytest.mark.parametrize("make, k_max", [
    (lambda: unit_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
     4),
    (lambda: gen_sbm([60, 60, 60], 0.3, 0.002, 1)[0], 5),
    (lambda: gen_sbm([20, 20], 0.5, 0.05, 1)[0], 4),
])
def test_best_over_k_returns_its_cheapest_run(make, k_max):
    """The winner is the full record of the cheapest run over the k tried,
    each run sharing one spectrum, with no more clusters than its k."""
    G = make()
    eigs = smallest_eigenvalues(G, k_max + 1)
    costs = {}
    for k in range(2, k_max + 1):
        if float(eigs.eigenvalues[k]) > DEFAULT_TOL:
            costs[k] = dasgupta_cost(G, run_prune_merge(
                G, derive_params(G, k, eigs=eigs)).tree)
    k, result = best_over_k(G, k_max)
    assert dasgupta_cost(G, result.tree) == min(costs.values()) == costs[k]
    assert k == min(j for j, c in costs.items() if c == costs[k])
    assert result.partition.r <= k
    assert result.partition.n == G.n


def test_best_over_k_prefers_true_cluster_count():
    good = 0
    for seed in range(1, 11):
        G, _ = gen_sbm([60, 60, 60], 0.3, 0.002, seed)
        costs = {}
        for k in (2, 3, 5):
            try:
                costs[k] = dasgupta_cost(
                    G, run_prune_merge(G, derive_params(G, k)).tree)
            except ValueError:
                costs[k] = None
        ok = (costs[3] is not None
              and (costs[2] is None or costs[3] <= costs[2])
              and (costs[5] is None or costs[3] <= costs[5]))
        good += ok
    assert good >= 8


def test_best_over_k_validation(two_triangles):
    with pytest.raises(ValueError, match="k_max must be at least 2"):
        best_over_k(two_triangles, 1)
    with pytest.raises(ValueError, match=r"no feasible k in 2\.\.4: .* "
                       r"numerically zero"):
        best_over_k(five_triangles(), 4)
    with pytest.raises(ValueError, match=r"k \+ 1 > n = 2$"):
        best_over_k(unit_graph(2, [(0, 1)]), 3)


def test_pipeline_takes_params_alone():
    """A run's k and inner-conductance mode reach the pipeline only inside
    its DecompParams, so no call can pass a k or mode that disagrees."""
    for fn in (strong_decomposition, run_prune_merge, termination_report):
        names = set(inspect.signature(fn).parameters)
        assert not names & {"k", "phi_in_mode"}, (fn.__name__, names)
    G, _ = gen_sbm([50, 50, 50], 0.3, 0.002, seed=1)
    params = derive_params(G, 3, phi_in_mode="paper")
    assert params.phi_in != derive_params(G, 3).phi_in
    report = run_prune_merge(G, params).decomposition_report
    assert report["k"] == 3
    assert report["phi_in_mode"] == "paper"
    assert report["phi_in"] == params.phi_in
