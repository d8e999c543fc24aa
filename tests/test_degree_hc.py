"""Degree-ordering tree construction tests."""

import numpy as np
import pytest

from wellclust import dasgupta_cost, hc_with_degrees
from wellclust.degree_hc import _top_block_size
from wellclust.tree import TreeBuilder

from conftest import random_connected_graph, star_graph, unit_graph
from oracles import degree_tree_shape_ORACLE


def leaf_sets(T):
    """Frozensets of the leaves below each internal node."""
    out = []
    for node in range(T.n_nodes):
        if T.left[node] >= 0:
            out.append(frozenset(int(v) for v in T.leaves_under(node)))
    return out


def test_block_size_formula():
    assert [_top_block_size(s) for s in (2, 3, 4, 5, 6, 8, 9, 17)] == \
        [1, 2, 2, 4, 4, 4, 8, 16]
    with pytest.raises(ValueError):
        _top_block_size(1)


def test_single_vertex():
    T = hc_with_degrees(unit_graph(1, []))
    assert T.n_leaves == 1


def test_two_vertices():
    T = hc_with_degrees(unit_graph(2, [(0, 1)]))
    assert T.leaf_count[T.root] == 2


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        hc_with_degrees(unit_graph(0, []))


def test_star_trace():
    # center 0 has degree 4, leaves tie at 1 and split by id:
    # top block {0, 1}, then {2, 3}, leaf 4 alone at the root's right
    T = hc_with_degrees(star_graph(4))
    sets = leaf_sets(T)
    assert frozenset({0, 1}) in sets
    assert frozenset({2, 3}) in sets
    assert frozenset({0, 1, 2, 3}) in sets
    right = int(T.right[T.root])
    assert T.left[right] < 0 and int(T.leaf_vertex[right]) == 4


def test_split_sizes_nine():
    G = random_connected_graph(9, 5)
    T = hc_with_degrees(G)
    root_sizes = sorted([int(T.leaf_count[T.left[T.root]]),
                         int(T.leaf_count[T.right[T.root]])])
    assert root_sizes == [1, 8]
    big = (T.left[T.root] if T.leaf_count[T.left[T.root]] == 8
           else T.right[T.root])
    next_sizes = sorted([int(T.leaf_count[T.left[big]]),
                         int(T.leaf_count[T.right[big]])])
    assert next_sizes == [4, 4]


def test_triangle_cost():
    T = hc_with_degrees(unit_graph(3, [(0, 1), (0, 2), (1, 2)]))
    assert dasgupta_cost(unit_graph(3, [(0, 1), (0, 2), (1, 2)]), T) == 8.0


def test_shape_checker_accepts_outputs():
    for n, seed in ((2, 0), (6, 1), (31, 2), (64, 3), (200, 4)):
        G = random_connected_graph(n, 600 + seed)
        assert degree_tree_shape_ORACLE(hc_with_degrees(G), n)


def test_shape_checker_rejects_balanced_six():
    b = TreeBuilder()
    left = b.internal(b.leaf(0), b.internal(b.leaf(1), b.leaf(2)))
    right = b.internal(b.leaf(3), b.internal(b.leaf(4), b.leaf(5)))
    b.internal(left, right)
    assert not degree_tree_shape_ORACLE(b.build(), 6)


def test_shape_checker_rejects_wrong_leaf_count():
    T = hc_with_degrees(random_connected_graph(5, 9))
    assert not degree_tree_shape_ORACLE(T, 6)


def test_determinism():
    G = random_connected_graph(40, 77)
    a, b = hc_with_degrees(G), hc_with_degrees(G)
    assert np.array_equal(a.left, b.left)
    assert np.array_equal(a.leaf_vertex, b.leaf_vertex)


def test_degree_monotone_split():
    for seed in (1, 2, 3, 4):
        G = random_connected_graph(20, 300 + seed)
        T = hc_with_degrees(G)
        stack = [int(T.root)]
        while stack:
            node = stack.pop()
            l, r = int(T.left[node]), int(T.right[node])
            if l < 0:
                continue
            heavy, light = (l, r) if T.leaf_count[l] >= T.leaf_count[r] \
                else (r, l)
            d_heavy = G.degrees[list(T.leaves_under(heavy))]
            d_light = G.degrees[list(T.leaves_under(light))]
            assert d_heavy.min() >= d_light.max() - 1e-12
            stack.extend((l, r))
