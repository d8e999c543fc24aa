"""Graph primitives: construction, volume/cut/conductance arithmetic,
induced subgraphs, file round-trips."""

import logging

import numpy as np
import pytest

from wellclust import (build_graph, cut_weight, degree_stats,
                       directed_boundary, induced_subgraph,
                       induced_with_selfloops, load_graph, save_graph,
                       set_conductance, volume)
from wellclust.graph import vertex_set
from conftest import (complete_graph, path_graph, random_connected_graph,
                      star_graph, unit_graph)
from oracles import graph_conductance_exact_ORACLE


def test_single_edge_degrees():
    G = build_graph(2, [(0, 1, 3.0)])
    assert G.degrees[0] == 3.0 and G.degrees[1] == 3.0
    assert G.total_volume == 6.0


def test_triangle_degrees(triangle):
    assert list(triangle.degrees) == [2.0, 2.0, 2.0]
    assert triangle.total_volume == 6.0


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, 0.0)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 2, 1.0)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])


def _vertex_set_ORACLE(vertices, n):
    """Test-only ORACLE: ``vertex_set`` before its sorted-array fast path."""
    arr = np.unique(np.asarray(list(vertices), dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise ValueError(f"vertex ids must lie in [0, {n}), got range "
                         f"[{arr[0]}, {arr[-1]}]")
    return arr


def _outcome(fn, vertices, n):
    try:
        return fn(vertices, n)
    except ValueError as exc:
        return str(exc)


def test_vertex_set_fast_path_matches_oracle():
    rng = np.random.Generator(np.random.Philox(11))
    n = 50
    corpus = [np.arange(0), np.arange(n), np.array([7]), np.array([-1, 3]),
              np.array([3, n]), np.array([n + 5, 2, 2]),
              np.array([2**63 - 1], dtype=np.uint64)]
    for _ in range(200):
        size = int(rng.integers(0, 40))
        draw = rng.integers(-2, n + 2, size)
        corpus += [np.sort(draw), np.unique(draw), draw,
                   np.clip(draw, 0, n - 1)]
    for arr in list(corpus):
        for dtype in (np.int8, np.int32, np.uint8, np.uint16, np.uint32,
                      np.uint64):
            if arr.size == 0 or (np.iinfo(dtype).min <= arr.min()
                                 and arr.max() <= np.iinfo(dtype).max):
                corpus.append(arr.astype(dtype))
    for arr in corpus:
        want = _outcome(_vertex_set_ORACLE, arr, n)
        got = _outcome(vertex_set, arr, n)
        if isinstance(want, str):
            assert got == want, arr
        else:
            assert got.dtype == np.int64 and np.array_equal(got, want), arr
            assert not np.shares_memory(got, arr)


def test_volume(triangle, dumbbell):
    assert volume(triangle, [0]) == 2.0
    assert volume(triangle, [0, 1, 2]) == 6.0
    assert volume(dumbbell, [0, 1, 2]) == 7.0
    assert volume(dumbbell, []) == 0.0


def test_cut_weight(triangle, dumbbell):
    assert cut_weight(dumbbell, [0, 1, 2], [3, 4, 5]) == 1.0
    assert cut_weight(triangle, [0], [1, 2]) == 2.0
    assert cut_weight(triangle, [], [0, 1]) == 0.0
    with pytest.raises(ValueError):
        cut_weight(triangle, [0, 1], [1, 2])


def test_cut_weight_symmetry(dumbbell):
    S, T = [0, 2, 4], [1, 3]
    assert cut_weight(dumbbell, S, T) == cut_weight(dumbbell, T, S)


def test_directed_boundary(triangle, dumbbell):
    assert directed_boundary(triangle, [0, 1], [1, 2]) == 2.0
    assert directed_boundary(triangle, [0, 1], [0, 1]) == 0.0
    assert directed_boundary(dumbbell, [2], range(6)) == 3.0


def test_set_conductance(k4, dumbbell):
    assert set_conductance(k4, [0]) == 1.0
    assert set_conductance(dumbbell, [0, 1, 2]) == pytest.approx(1 / 7)
    assert set_conductance(k4, []) == 1.0
    assert set_conductance(k4, range(4)) == 0.0


def test_volume_zero_set_conductance_is_silent(caplog):
    # vertices 3 and 4 are isolated: their set has volume 0
    G = build_graph(5, [(0, 1, 1.0), (1, 2, 1.0)])
    with caplog.at_level(logging.DEBUG):
        assert set_conductance(G, [3, 4]) == 1.0
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]


def test_conductance_volume_identity(dumbbell):
    S = [0, 1, 2]
    lhs = set_conductance(dumbbell, S) * volume(dumbbell, S)
    assert lhs == pytest.approx(cut_weight(dumbbell, S, [3, 4, 5]))


def test_exact_conductance(dumbbell, k4):
    assert graph_conductance_exact_ORACLE(dumbbell) == pytest.approx(1 / 7)
    assert graph_conductance_exact_ORACLE(k4) == pytest.approx(2 / 3)
    disconnected = unit_graph(4, [(0, 1), (2, 3)])
    assert graph_conductance_exact_ORACLE(disconnected) == 0.0


def test_exact_conductance_limit():
    with pytest.raises(ValueError, match="spectral"):
        graph_conductance_exact_ORACLE(path_graph(21))


def test_induced_subgraph(dumbbell, path3):
    H = induced_subgraph(path3, [0, 1])
    assert H.n == 2 and list(H.degrees) == [1.0, 1.0]
    tri = induced_subgraph(dumbbell, [0, 1, 2])
    assert tri.n == 3 and tri.total_volume == 6.0
    single = induced_subgraph(dumbbell, [4])
    assert single.n == 1 and single.total_volume == 0.0
    with pytest.raises(ValueError):
        induced_subgraph(dumbbell, [])


def test_induced_with_selfloops(path3, dumbbell):
    H = induced_with_selfloops(path3, [0, 1])
    assert list(H.degrees) == [1.0, 2.0]
    full = induced_with_selfloops(dumbbell, range(6))
    assert np.array_equal(full.degrees, dumbbell.degrees)
    star = star_graph(4)
    H = induced_with_selfloops(star, [0, 1, 2, 3])
    assert H.degrees[0] == 4.0
    assert H.self_loops[0] == 1.0


def test_degree_stats(k4, dumbbell):
    assert degree_stats(k4) == (3.0, 3.0, 3.0, 12.0)
    assert degree_stats(star_graph(3)) == (1.0, 3.0, 1.5, 6.0)
    d_min, d_max, d_avg, vol = degree_stats(dumbbell)
    assert (d_min, d_max, vol) == (2.0, 3.0, 14.0)
    assert d_avg == pytest.approx(7 / 3)


def test_save_load_roundtrip(tmp_path, dumbbell):
    p = tmp_path / "g.txt"
    save_graph(dumbbell, p)
    H = load_graph(p)
    assert H.n == dumbbell.n
    assert np.array_equal(H.edges_u, dumbbell.edges_u)
    assert np.array_equal(H.edges_v, dumbbell.edges_v)
    assert np.array_equal(H.edges_w, dumbbell.edges_w)


def test_load_errors_carry_line_numbers(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 1\n0 x 1\n")
    with pytest.raises(ValueError, match=r":2:"):
        load_graph(p)
    p.write_text("2 2\n0 1 1\n")
    with pytest.raises(ValueError, match="claims"):
        load_graph(p)


def test_volume_complement_identity():
    G = complete_graph(5)
    S = [0, 3]
    rest = [1, 2, 4]
    assert volume(G, S) + volume(G, rest) == G.total_volume


def test_random_connected_graph_single_vertex():
    for seed in range(20):
        G = random_connected_graph(1, seed)
        assert (G.n, G.m) == (1, 0)
