"""Leaf-order spans and the level-by-level split builder, checked against
the recursive builder and the stack walks they replaced (kept here as
oracles)."""

import numpy as np
import pytest

from wellclust import (TreeBuilder, build_graph, dasgupta_cost,
                       dasgupta_cost_cutform, hc_with_degrees, linkage,
                       load_tree, random_tree, save_tree)

from conftest import random_connected_graph
from oracles import _cutform_ORACLE, degree_tree_shape_ORACLE
from test_tree import chain_tree


# -- oracles ---------------------------------------------------------------

def oracle_split_tree(leaves, heavy):
    """ORACLE: the recursive builder, numbering nodes in post-order."""
    builder = TreeBuilder()

    def build(lo, hi):
        if hi - lo == 1:
            return builder.leaf(int(leaves[lo]))
        mid = lo + heavy(hi - lo)
        left = build(lo, mid)
        return builder.internal(left, build(mid, hi))

    build(0, len(leaves))
    return builder.build()


def oracle_degree_tree(G):
    order = np.lexsort((np.arange(G.n), -G.degrees))
    return oracle_split_tree(order, lambda s: 1 << ((s - 1).bit_length() - 1))


def oracle_random_tree(n, seed):
    perm = np.random.Generator(np.random.Philox(key=seed)).permutation(n)
    return oracle_split_tree(perm, lambda s: (s + 1) // 2)


def oracle_leaves_under(T, node):
    """ORACLE: stack walk collecting the leaf vertices below ``node``."""
    out, stack = [], [int(node)]
    while stack:
        cur = stack.pop()
        if T.left[cur] < 0:
            out.append(int(T.leaf_vertex[cur]))
        else:
            stack += [int(T.left[cur]), int(T.right[cur])]
    return np.asarray(sorted(out), dtype=np.int64)


def oracle_subtree_arrays(T, node):
    """ORACLE: stack walk for the node ids, per-node loop for parents."""
    ids, stack = [], [int(node)]
    while stack:
        cur = stack.pop()
        ids.append(cur)
        if T.left[cur] >= 0:
            stack += [int(T.left[cur]), int(T.right[cur])]
    ids = np.asarray(sorted(ids), dtype=np.int64)
    remap = np.full(T.n_nodes, -1, dtype=np.int64)
    remap[ids] = np.arange(ids.size)
    left = np.where(T.left[ids] >= 0, remap[T.left[ids]], -1)
    right = np.where(T.right[ids] >= 0, remap[T.right[ids]], -1)
    parent = np.full(ids.size, -1, dtype=np.int64)
    for new_id in range(ids.size):
        if left[new_id] >= 0:
            parent[left[new_id]] = parent[right[new_id]] = new_id
    return (left, right, parent, T.leaf_vertex[ids], T.leaf_count[ids],
            ids.size - 1)


def tree_arrays(T):
    return (T.left, T.right, T.parent, T.leaf_vertex, T.leaf_count, T.root)


def assert_same_arrays(got, want, label=""):
    for a, b in zip(got[:-1], want[:-1]):
        assert a.dtype == b.dtype and np.array_equal(a, b), label
    assert got[-1] == want[-1], label


# -- the split builder -------------------------------------------------------

def skewed_graph(n, seed):
    """Random graph whose degrees spread widely and tie often."""
    rng = np.random.Generator(np.random.Philox(seed))
    u = rng.integers(0, n, size=2 * n)
    v = (rng.integers(0, n, size=2 * n) * rng.random(2 * n)).astype(np.int64)
    keep = u != v
    pairs = {(int(min(a, b)), int(max(a, b))) for a, b in zip(u[keep], v[keep])}
    return build_graph(n, [(a, b, 1.0) for a, b in sorted(pairs)])


def test_split_builder_matches_recursive_oracle():
    for n in list(range(1, 301)) + [4097, 9000]:
        G = skewed_graph(n, n)
        T = hc_with_degrees(G)
        assert_same_arrays(tree_arrays(T), tree_arrays(oracle_degree_tree(G)),
                           f"degree n={n}")
        assert degree_tree_shape_ORACLE(T, n)
        for seed in (n, 10_000 + n, 2**40 + n):
            T = random_tree(n, seed)
            assert_same_arrays(tree_arrays(T),
                               tree_arrays(oracle_random_tree(n, seed)),
                               f"random n={n} seed={seed}")


def test_random_tree_keeps_philox_keyed_by_seed_up_to_2_64():
    """Routing the seed through the generators' stream 0 leaves every
    in-range tree as ``Philox(key=seed)`` built it."""
    for seed in (0, 2**63, 2**64 - 1):
        assert_same_arrays(tree_arrays(random_tree(50, seed)),
                           tree_arrays(oracle_random_tree(50, seed)))


# -- spans: leaves_under and subtree -----------------------------------------

def check_every_node(T, nodes=None):
    for node in range(T.n_nodes) if nodes is None else nodes:
        got = T.leaves_under(node)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle_leaves_under(T, node)), node
        assert_same_arrays(tree_arrays(T.subtree(node)),
                           oracle_subtree_arrays(T, node), node)


@pytest.mark.parametrize("kind", ["single", "complete", "average"])
def test_spans_match_stack_walks_on_linkage_trees(kind, tmp_path):
    for n, seed in ((2, 1), (9, 2), (23, 3), (40, 4)):
        T = linkage(random_connected_graph(n, seed), kind)
        check_every_node(T)
        save_tree(T, tmp_path / "t.txt")
        check_every_node(load_tree(tmp_path / "t.txt"))


def test_spans_and_edge_cost_on_deep_caterpillar():
    n = 20_000
    rng = np.random.Generator(np.random.Philox(5))
    T = chain_tree(rng.permutation(n))
    # an O(n) oracle walk per node would take minutes at every node
    nodes = sorted({0, n - 1, n, 2 * n - 2, *rng.integers(0, 2 * n - 1, 20)})
    check_every_node(T, nodes)
    u, v = rng.integers(0, n, size=(2, 3 * n))
    pairs = {(int(min(a, b)), int(max(a, b))) for a, b in zip(u, v) if a != b}
    pairs |= {(0, n - 1), (n - 2, n - 1)}
    G = build_graph(n, [(a, b, float(rng.integers(1, 10)))
                        for a, b in sorted(pairs)])
    assert dasgupta_cost(G, T) == dasgupta_cost_cutform(G, T) \
        == _cutform_ORACLE(G, T)
