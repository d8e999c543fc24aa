"""Hierarchy trees: cost forms, dense branch, critical nodes, merging,
exact optimum against the enumeration oracle, serialization."""

import re
import time

import numpy as np
import pytest

from wellclust import (HCTree, TreeBuilder, brute_force_opt, build_graph,
                       caterpillar_merge, critical_nodes, dasgupta_cost,
                       dasgupta_cost_cutform, hc_with_degrees, linkage,
                       load_tree, random_tree, save_tree)
from wellclust.experiment import checked_cost
from wellclust.generators import GenSpec, gen_sbm, generate
from wellclust.linkage import LINKAGE_KINDS
from wellclust.tree import relabel_leaves
from conftest import (complete_graph, path_graph, random_connected_graph,
                      star_graph, unit_graph, weighted_graph)
from oracles import (_caterpillar_ORACLE, _cutform_ORACLE,
                     all_tree_costs_ORACLE, dense_branch_ORACLE,
                     double_factorial_trees)


def chain_tree(leaf_vertices):
    """Left-fold caterpillar over the given leaves, in order."""
    b = TreeBuilder()
    acc = b.leaf(leaf_vertices[0])
    for v in leaf_vertices[1:]:
        acc = b.internal(acc, b.leaf(v))
    return b.build()


def test_builder_rejects_garbage():
    b = TreeBuilder()
    l0 = b.leaf(0)
    with pytest.raises(ValueError):
        b.internal(l0, l0)
    b2 = TreeBuilder()
    b2.leaf(0)
    b2.leaf(0)
    with pytest.raises(ValueError):
        b2.build()
    with pytest.raises(ValueError, match="leaf vertex -1 is negative"):
        TreeBuilder().leaf(-1)
    with pytest.raises(ValueError, match=r"leaf vertex 9223372036854775808 "
                       r"is not below 2\*\*63"):
        TreeBuilder().leaf(2**63)
    for vertex in (2.9, True, "2"):
        with pytest.raises(ValueError, match="leaf vertex must be an integer"):
            TreeBuilder().leaf(vertex)


def test_a_leaf_is_a_node_without_children():
    # built around the checks, a leaf carrying vertex -1 is still a leaf:
    # the bijection check and the fold's overlap check both see it
    T = HCTree(np.array([-1, -1, -1, 0, 3]), np.array([-1, -1, -1, 1, 2]),
               np.array([3, 3, 4, 4, -1]), np.array([0, 1, -1, -1, -1]),
               np.array([1, 1, 1, 2, 3]), 4)
    G = unit_graph(2, [(0, 1)])
    for cost in (dasgupta_cost, dasgupta_cost_cutform):
        with pytest.raises(ValueError, match="do not biject"):
            cost(G, T)
    lone = HCTree(*(np.array([-1]),) * 4, np.array([1]), 0)
    with pytest.raises(ValueError, match="share leaf vertices"):
        caterpillar_merge([T, lone])


def test_leaf_counts_and_leaves_under(path3):
    T = chain_tree([0, 1, 2])
    assert T.leaf_count[T.root] == 3
    assert list(T.leaves_under(T.root)) == [0, 1, 2]
    left = int(T.left[T.root])
    right = int(T.right[T.root])
    sizes = sorted([int(T.leaf_count[left]), int(T.leaf_count[right])])
    assert sizes == [1, 2]


def test_single_edge_cost():
    G = weighted_graph(2, [(0, 1, 3.0)])
    T = chain_tree([0, 1])
    assert dasgupta_cost(G, T) == 6.0
    assert dasgupta_cost_cutform(G, T) == 6.0


def test_triangle_cost_symmetry(triangle):
    for order in ([0, 1, 2], [1, 2, 0], [2, 0, 1]):
        assert dasgupta_cost(triangle, chain_tree(order)) == 8.0


def test_path_tree_costs(path3):
    assert dasgupta_cost(path3, chain_tree([0, 1, 2])) == 5.0
    assert dasgupta_cost(path3, chain_tree([0, 2, 1])) == 6.0
    assert dasgupta_cost_cutform(path3, chain_tree([0, 1, 2])) == 5.0


def test_cost_rejects_mismatch(triangle):
    T = chain_tree([0, 1])
    with pytest.raises(ValueError):
        dasgupta_cost(triangle, T)


def test_cost_forms_agree_on_random_pairs():
    for seed in range(40):
        n = 3 + seed % 12
        G = random_connected_graph(n, 1000 + seed)
        T = random_tree(n, 2000 + seed)
        assert dasgupta_cost(G, T) == dasgupta_cost_cutform(G, T)


def _every_tree_kind(G):
    return [random_tree(G.n, G.n), hc_with_degrees(G),
            *(linkage(G, kind) for kind in LINKAGE_KINDS)]


def test_cutform_matches_oracle_on_every_tree_kind():
    for n in range(1, 41):
        G = random_connected_graph(n, 3000 + n, max_weight=5)
        for T in _every_tree_kind(G):
            assert dasgupta_cost_cutform(G, T) == _cutform_ORACLE(G, T), n


def test_cutform_without_edges():
    assert dasgupta_cost_cutform(build_graph(1, []), random_tree(1, 0)) == 0.0
    G = build_graph(5, [])
    assert dasgupta_cost_cutform(G, random_tree(5, 0)) == 0.0
    assert _cutform_ORACLE(G, random_tree(5, 0)) == 0.0


def _with_parent(T, parent):
    return HCTree(T.left, T.right, np.asarray(parent, dtype=np.int64),
                  T.leaf_vertex, T.leaf_count, T.root)


def test_cutform_rejects_parent_that_misses_root(path3):
    T = chain_tree([0, 1, 2])  # parent = [2, 2, 4, 4, -1]
    for parent in ([2, 2, 0, 4, -1],   # 0 -> 2 -> 0
                   [2, 2, 2, 4, -1],   # 2 is its own parent
                   [2, 2, -1, 4, -1]):  # 2 is a second root
        with pytest.raises(ValueError, match="parent array"):
            dasgupta_cost_cutform(path3, _with_parent(T, parent))


def test_checked_cost_catches_parent_disagreeing_with_children():
    G = path_graph(4)
    T = chain_tree([0, 1, 2, 3])  # parent = [2, 2, 4, 4, 6, 6, -1]
    assert checked_cost(G, T) == 9.0
    swapped = _with_parent(T, [6, 2, 4, 4, 6, 2, -1])  # leaves 0, 3 swap
    assert dasgupta_cost(G, swapped) == 9.0
    assert dasgupta_cost_cutform(G, swapped) == 10.0
    with pytest.raises(AssertionError, match="cost mismatch"):
        checked_cost(G, swapped)


def test_cutform_speed_guard():
    # on a 2-vCPU host the small-to-large loop took 0.3-0.4 s here and
    # binary lifting 0.014-0.02 s
    G, _ = gen_sbm([3000] * 3, 0.0067, 0.00017, 2)
    T = hc_with_degrees(G)
    best = np.inf
    for _ in range(3):
        start = time.perf_counter()
        dasgupta_cost_cutform(G, T)
        best = min(best, time.perf_counter() - start)
    assert best < 0.15


def test_dense_branch_star_trace():
    G = star_graph(3)
    b = TreeBuilder()
    t = b.internal(b.internal(b.internal(b.leaf(0), b.leaf(1)), b.leaf(2)),
                   b.leaf(3))
    T = b.build()
    branch = dense_branch_ORACLE(G, T)
    vols = [6.0, 5.0, 4.0]
    assert len(branch) == 3
    for node, vol in zip(branch, vols):
        leaves = T.leaves_under(node)
        assert float(G.degrees[leaves].sum()) == vol


def test_dense_branch_balanced_k4(k4):
    b = TreeBuilder()
    b.internal(b.internal(b.leaf(0), b.leaf(1)),
               b.internal(b.leaf(2), b.leaf(3)))
    T = b.build()
    assert dense_branch_ORACLE(k4, T) == (T.root,)


def test_dense_branch_two_leaves():
    G = unit_graph(2, [(0, 1)])
    T = chain_tree([0, 1])
    assert dense_branch_ORACLE(G, T) == (T.root,)


def test_critical_nodes_star_trace():
    G = star_graph(3)
    b = TreeBuilder()
    b.internal(b.internal(b.internal(b.leaf(0), b.leaf(1)), b.leaf(2)),
               b.leaf(3))
    T = b.build()
    crit = critical_nodes(G, T)
    leaf_sets = sorted(tuple(T.leaves_under(nd)) for nd in crit)
    assert leaf_sets == [(0,), (1,), (2,), (3,)]


def test_critical_nodes_partition_leaves(k4):
    for seed in range(12):
        n = 4 + seed % 6
        G = random_connected_graph(n, 300 + seed)
        T = random_tree(n, 400 + seed)
        crit = critical_nodes(G, T)
        got = sorted(v for nd in crit for v in T.leaves_under(nd))
        assert got == list(range(n))


def test_critical_nodes_balanced_root_children(k4):
    b = TreeBuilder()
    b.internal(b.internal(b.leaf(0), b.leaf(1)),
               b.internal(b.leaf(2), b.leaf(3)))
    T = b.build()
    crit = critical_nodes(k4, T)
    assert sorted(crit) == sorted([int(T.left[T.root]),
                                   int(T.right[T.root])])


def test_critical_nodes_branch_ends_at_a_rounded_heavy_leaf():
    # a star: d(0) = vol/2 exactly, but the float sum of the degrees
    # rounds below 2 d(0), so the dense branch reaches vertex 0's leaf
    G = build_graph(5, [(0, 1, 90260610422.05968),
                        (0, 2, 2.217109120347548e-09),
                        (0, 3, 81540775069.77058),
                        (0, 4, 2.652458053833036e-05)])
    assert G.degrees[0] > G.total_volume / 2
    T = hc_with_degrees(G)
    assert dense_branch_ORACLE(G, T) == (8, 6, 2, 0)
    assert T.left[0] < 0 and T.leaf_vertex[0] == 0
    crit = critical_nodes(G, T)
    assert crit == (7, 5, 1, 0)
    got = sorted(v for nd in crit for v in T.leaves_under(nd))
    assert got == list(range(5))


def test_critical_nodes_two_leaf_tree():
    G = unit_graph(2, [(0, 1)])
    T = chain_tree([0, 1])
    crit = critical_nodes(G, T)
    assert len(crit) == 2


def test_caterpillar_merge_identity_and_fold():
    b = TreeBuilder()
    b.leaf(7)
    t_one = b.build()
    assert caterpillar_merge([t_one]) is t_one

    parts = []
    for v in (0, 1):
        bb = TreeBuilder()
        bb.leaf(v)
        parts.append(bb.build())
    bb = TreeBuilder()
    bb.internal(bb.leaf(2), bb.leaf(3))
    parts.append(bb.build())
    T = caterpillar_merge(parts)
    assert T.leaf_count[T.root] == 4
    left = int(T.left[T.root])
    assert sorted(T.leaves_under(left)) == [0, 1]
    assert sorted(T.leaves_under(int(T.right[T.root]))) == [2, 3]


def test_caterpillar_merge_rejects_overlap():
    a = chain_tree([0, 1])
    b_ = chain_tree([1, 2])
    with pytest.raises(ValueError):
        caterpillar_merge([a, b_])


def test_caterpillar_merge_matches_builder_oracle():
    rng = np.random.default_rng(17)
    for seed in range(300):
        n = 1 + seed % 39
        cuts = np.sort(rng.choice(np.arange(1, n), replace=False,
                                  size=rng.integers(0, min(n, 8))))
        groups = np.split(rng.permutation(n), cuts)
        trees = [relabel_leaves(random_tree(g.size, seed + i), g) if i % 2
                 else chain_tree(g.tolist()) for i, g in enumerate(groups)]
        T, R = caterpillar_merge(trees), _caterpillar_ORACLE(trees)
        assert T.root == R.root
        for field in ("left", "right", "parent", "leaf_vertex", "leaf_count"):
            assert np.array_equal(getattr(T, field), getattr(R, field)), field


def test_relabel_leaves():
    T = chain_tree([0, 1, 2])
    R = relabel_leaves(T, np.array([10, 20, 30]))
    assert sorted(R.leaves_under(R.root)) == [10, 20, 30]
    R = relabel_leaves(T, np.array([10.0, 20.0, 30.0]))
    assert sorted(R.leaves_under(R.root)) == [10, 20, 30]
    with pytest.raises(ValueError, match="^leaf mapping must be integers"):
        relabel_leaves(T, np.array([10, 20.5, 30]))


def test_topology_count_formula():
    assert double_factorial_trees(2) == 1
    assert double_factorial_trees(3) == 3
    assert double_factorial_trees(4) == 15
    assert double_factorial_trees(7) == 10395


def test_all_tree_costs_counts(path3):
    costs = all_tree_costs_ORACLE(path3)
    assert len(costs) == 3
    assert sorted(costs) == [5.0, 5.0, 6.0]


def test_brute_force_path(path3):
    cost, T = brute_force_opt(path3)
    assert cost == 5.0
    assert dasgupta_cost(path3, T) == 5.0
    root_sizes = sorted([int(T.leaf_count[T.left[T.root]]),
                         int(T.leaf_count[T.right[T.root]])])
    assert root_sizes == [1, 2]
    lone = (T.left[T.root] if T.leaf_count[T.left[T.root]] == 1
            else T.right[T.root])
    assert list(T.leaves_under(int(lone))) == [2]


def test_brute_force_k4(k4):
    cost, _ = brute_force_opt(k4)
    assert cost == 20.0
    assert np.all(all_tree_costs_ORACLE(k4) == 20.0)


def test_brute_force_star():
    G = star_graph(3)
    cost, T = brute_force_opt(G)
    assert cost == 9.0
    sibling_of_center = None
    for node in range(T.n_nodes):
        if T.left[node] >= 0:
            kids = [int(T.left[node]), int(T.right[node])]
            for a, b_ in (kids, kids[::-1]):
                if T.left[a] < 0 and T.leaf_vertex[a] == 0:
                    sibling_of_center = b_
    assert sibling_of_center is not None


def test_brute_force_matches_enumeration():
    for seed in (1, 2, 3):
        G = random_connected_graph(6, 50 + seed)
        cost, T = brute_force_opt(G)
        costs = all_tree_costs_ORACLE(G)
        assert cost == costs.min()
        assert dasgupta_cost(G, T) == cost


def test_brute_force_oracle_on_corpus(small_corpus):
    """The subset dynamic program's optimum is the minimum over every
    topology, and its witness tree costs exactly that."""
    for G in small_corpus:
        cost, T = brute_force_opt(G)
        assert cost == all_tree_costs_ORACLE(G).min()
        assert dasgupta_cost(G, T) == cost


def test_brute_force_n10_within_seconds():
    G = random_connected_graph(10, 7)
    start = time.perf_counter()
    cost, T = brute_force_opt(G)
    assert time.perf_counter() - start < 10.0
    assert dasgupta_cost(G, T) == cost
    assert cost <= min(dasgupta_cost(G, random_tree(10, s)) for s in range(50))


def test_brute_force_limit():
    with pytest.raises(ValueError):
        brute_force_opt(path_graph(11))


def test_topology_oracle_limit():
    assert len(all_tree_costs_ORACLE(path_graph(1))) == 1
    with pytest.raises(ValueError, match="n <= 8"):
        all_tree_costs_ORACLE(path_graph(9))


def test_random_tree_seeded():
    a = random_tree(9, 7)
    b_ = random_tree(9, 7)
    assert np.array_equal(a.left, b_.left)
    assert np.array_equal(a.leaf_vertex, b_.leaf_vertex)
    c = random_tree(9, 8)
    same = (np.array_equal(a.left, c.left)
            and np.array_equal(a.leaf_vertex, c.leaf_vertex))
    assert not same
    assert sorted(a.leaves_under(a.root)) == list(range(9))
    assert random_tree(1, 0).leaf_count[random_tree(1, 0).root] == 1
    assert random_tree(2, 0).leaf_count.max() == 2


SEED_RULE = "^seed must be a 64-bit unsigned integer$"


@pytest.mark.parametrize("n, seed, message", [
    *[(5, seed, SEED_RULE) for seed in (-1, 2**64, True, 1.7, "3")],
    (True, 1, "^random_tree needs an int n >= 1, got True$"),
    (6.5, 1, r"^random_tree needs an int n >= 1, got 6\.5$"),
], ids=["-1", "18446744073709551616", "True", "1.7", "3", "n-True", "n-6.5"])
def test_random_tree_takes_the_generators_seed_rule(n, seed, message):
    """One seed rule for every Philox stream: the generators' message, not
    numpy's key check, which would accept seeds up to 2**128. The leaf
    count takes the integer rule too: n = True drew a 1-leaf tree and
    n = 6.5 raised numpy's AxisError."""
    draws = [lambda: random_tree(n, seed)]
    if message == SEED_RULE:
        draws.append(lambda: generate(GenSpec(
            "sbm", {"sizes": [3, 3], "p": 1.0, "q": 0.0}, seed)))
    for draw in draws:
        with pytest.raises(ValueError, match=message):
            draw()


def test_save_load_roundtrip(tmp_path):
    """A loaded tree numbers its nodes in file order, so it is the saved
    tree array for array."""
    G = random_connected_graph(8, 7, max_weight=5)
    forest = [random_tree(3, 1), relabel_leaves(random_tree(5, 2),
                                                np.arange(3, 8))]
    p = tmp_path / "t.txt"
    for T in (*_every_tree_kind(G), caterpillar_merge(forest),
              brute_force_opt(G)[1]):
        save_tree(T, p)
        R = load_tree(p)
        for field in ("left", "right", "parent", "leaf_vertex", "leaf_count"):
            assert np.array_equal(getattr(R, field), getattr(T, field)), field
        assert R.root == T.root


def test_load_rejects_malformed(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("leaf 0 0\nleaf 1 x\n")
    with pytest.raises(ValueError, match=r":2:"):
        load_tree(p)
    p.write_text("leaf 0 0\nleaf 1 1\n")
    with pytest.raises(ValueError, match="root"):
        load_tree(p)
    p.write_text("leaf 0 0\nleaf 1 1\nleaf 2 -1\n3 0 1\n4 3 2\n")
    with pytest.raises(ValueError, match=r":3: bad dendrogram line "
                       r"'leaf 2 -1\\n'"):
        load_tree(p)
    p.write_text("leaf 0 0\nleaf 1 1\n2 0 1\n2 1 0\n")
    with pytest.raises(ValueError, match=r":4: duplicate node id 2"):
        load_tree(p)
    for text, message in (
            ("leaf 0 0\nleaf 1 1\n2 0 1\n3 0 1\n",
             ":4: the left child already has a parent$"),
            ("leaf 0 0\n1 0 7\n", ":2: child 7 is not defined on an earlier "
             "line$"),
            ("leaf 0 0\nleaf 1 1\n2 3 0\n3 2 1\n",
             ":3: child 3 is not defined on an earlier line$"),
            ("leaf 0 0\nleaf 1 1_1\n2 0 1\n",
             r":2: bad dendrogram line 'leaf 1 1_1\\n'$"),
            ("leaf 0 0\nleaf 1\n", r":2: bad dendrogram line 'leaf 1\\n'$")):
        p.write_text(text)
        prefix = re.escape(str(p))
        with pytest.raises(ValueError, match=f"^{prefix}{message}"):
            load_tree(p)


def test_load_skips_blank_lines(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("leaf 0 0\nleaf 1 1\n2 0 1\n")
    want = load_tree(p)
    p.write_text("leaf 0 0\n\nleaf 1 1\n  \n2 0 1\n")
    got = load_tree(p)
    for field in ("left", "right", "parent", "leaf_vertex", "leaf_count"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert got.root == want.root


def _two_leaf_builder():
    b = TreeBuilder()
    b.internal(b.leaf(0), b.leaf(1))
    return b


def _one_leaf_tree():
    b = TreeBuilder()
    b.leaf(0)
    return b.build()


@pytest.mark.parametrize("call, message", [
    (lambda: _two_leaf_builder().internal(0, 2),
     "the left child already has a parent"),
    (lambda: _two_leaf_builder().internal(2, 3), "child id 3 out of range"),
    (lambda: TreeBuilder().build(), "cannot build an empty tree"),
    (lambda: critical_nodes(build_graph(1, []), _one_leaf_tree()),
     "critical nodes need a tree with at least 2 leaves"),
    (lambda: caterpillar_merge([]), "caterpillar_merge needs at least one tree"),
    (lambda: brute_force_opt(build_graph(0, [])),
     "empty graph has no clustering tree"),
], ids=["reused-child", "child-range", "empty-build", "one-leaf-critical",
        "empty-merge", "empty-brute-force"])
def test_degenerate_calls_raise(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
