"""Normalized-Laplacian operator, eigensolver, and sweep-cut tests."""

import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from wellclust import (
    Graph,
    SpectralConvergenceError,
    build_graph,
    induced_subgraph,
    set_conductance,
    smallest_eigenvalues,
    spectral_partition,
)
from wellclust.generators import gaussian_kernel_graph

from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    unit_graph,
)
from wellclust.generators import (GenSpec, gen_bridged_two_cluster, gen_sbm,
                                  generate)
from wellclust.spectral import DEFAULT_TOL, _normalized_adjacency
from oracles import (_sweep_ORACLE, graph_conductance_exact_ORACLE,
                     laplacian_apply_ORACLE)


def dense_laplacian(G):
    A = np.zeros((G.n, G.n))
    for u, v, w in zip(G.edges_u, G.edges_v, G.edges_w):
        A[u, v] += w
        A[v, u] += w
    d = G.degrees.copy()
    inv = np.zeros_like(d)
    inv[d > 0] = 1.0 / np.sqrt(d[d > 0])
    L = np.eye(G.n) - inv[:, None] * A * inv[None, :]
    L[d == 0, :] = 0.0
    L[:, d == 0] = 0.0
    L[np.flatnonzero(d == 0), np.flatnonzero(d == 0)] = 0.0
    return L


def test_operator_constant_direction_is_kernel():
    G = unit_graph(2, [(0, 1)])
    x = np.sqrt(G.degrees)
    assert np.allclose(laplacian_apply_ORACLE(G, x), 0.0, atol=1e-12)


def test_operator_edge_top_eigenvector():
    G = unit_graph(2, [(0, 1)])
    y = laplacian_apply_ORACLE(G, np.array([1.0, -1.0]))
    assert np.allclose(y, [2.0, -2.0])


def test_operator_triangle_vector(triangle):
    y = laplacian_apply_ORACLE(triangle, np.array([1.0, -1.0, 0.0]))
    assert np.allclose(y, [1.5, -1.5, 0.0])


def test_operator_matches_dense_matrix():
    for seed in (0, 1, 2, 3):
        G = random_connected_graph(12, 700 + seed)
        L = dense_laplacian(G)
        rng = np.random.Generator(np.random.Philox(key=seed))
        for _ in range(3):
            x = rng.normal(size=G.n)
            assert np.allclose(laplacian_apply_ORACLE(G, x), L @ x, atol=1e-10)


def test_operator_isolated_row_is_identity():
    G = unit_graph(3, [(0, 1)])
    y = laplacian_apply_ORACLE(G, np.array([0.0, 0.0, 5.0]))
    assert y[2] == 5.0


def test_operator_rejects_wrong_length(triangle):
    with pytest.raises(ValueError):
        laplacian_apply_ORACLE(triangle, np.ones(4))


def test_eigenvalues_complete_graph():
    res = smallest_eigenvalues(complete_graph(4), 2)
    assert abs(res.eigenvalues[0]) <= 1e-8
    assert abs(res.eigenvalues[1] - 4.0 / 3.0) <= 1e-8


def test_eigenvalues_cycle_closed_form():
    res = smallest_eigenvalues(cycle_graph(4), 4)
    assert np.allclose(res.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=1e-8)


def test_eigenvalues_disconnected_zero_multiplicity():
    G = unit_graph(4, [(0, 1), (2, 3)])
    res = smallest_eigenvalues(G, 2)
    assert abs(res.eigenvalues[1]) <= 1e-8


@pytest.mark.xfail(strict=True, reason="Lanczos skips the second zero "
                   "eigenvalue of this 3-component graph")
def test_iterative_finds_repeated_zero_eigenvalue():
    # components of 297, 2 and 1 vertices; the two with edges give
    # lambda_1 = lambda_2 = 0, which k = 4 and the dense path both find
    G, _ = generate(GenSpec("sbm_planted_cliques", {
        "sizes": [100, 100, 100], "p": 0.06, "q": 0.002, "c_p": 0.4}, 28))
    assert (G.n, G.m) == (300, 3155)
    res = smallest_eigenvalues(G, 2, method="iterative")
    assert res.eigenvalues[1] <= DEFAULT_TOL


def test_eigenvalue_invariants_and_rayleigh():
    for seed in (10, 11, 12):
        G = random_connected_graph(14, seed)
        res = smallest_eigenvalues(G, 5)
        vals = res.eigenvalues
        assert np.all(np.diff(vals) >= 0)
        assert vals[0] <= 1e-8
        assert np.all(vals <= 2 + 1e-8)
        assert np.all(res.residuals <= 1e-8)
        for j in range(5):
            x = res.eigenvectors[:, j]
            rayleigh = x @ laplacian_apply_ORACLE(G, x) / (x @ x)
            assert abs(rayleigh - vals[j]) <= 10 * 1e-8


def test_eigenvalues_argument_validation(triangle):
    with pytest.raises(ValueError):
        smallest_eigenvalues(triangle, 0)
    with pytest.raises(ValueError):
        smallest_eigenvalues(triangle, 4)
    with pytest.raises(ValueError):
        smallest_eigenvalues(triangle, 2, method="cg")


def test_iterative_matches_dense():
    for n, seed in ((40, 900), (64, 901)):
        G = random_connected_graph(n, seed)
        dense = smallest_eigenvalues(G, 5, method="dense")
        iterative = smallest_eigenvalues(G, 5, method="iterative")
        assert np.allclose(dense.eigenvalues, iterative.eigenvalues,
                           atol=1e-6)


def test_iterative_nonconvergence_reports_residuals(monkeypatch):
    # real ARPACK, held to one restart at an unreachable tolerance
    real_eigsh = spla.eigsh
    maxiters = []

    def starved_eigsh(*args, **kwargs):
        maxiters.append(kwargs["maxiter"])
        return real_eigsh(*args, **dict(kwargs, tol=1e-14, maxiter=1))

    monkeypatch.setattr(spla, "eigsh", starved_eigsh)
    G = random_connected_graph(400, 902)
    with pytest.raises(SpectralConvergenceError) as exc:
        smallest_eigenvalues(G, 3, method="iterative")
    # the fixed caps: 10 * n * k, then four times that
    assert maxiters == [12_000, 48_000]
    assert exc.value.eigenvalues is not None


def test_all_pairs_take_the_dense_path_above_its_size_limit():
    G = path_graph(70)
    auto = smallest_eigenvalues(G, 70)
    dense = smallest_eigenvalues(G, 70, method="dense")
    assert np.array_equal(auto.eigenvalues, dense.eigenvalues)
    assert np.array_equal(auto.eigenvectors, dense.eigenvectors)
    with pytest.raises(ValueError, match="iterative path needs k < n"):
        smallest_eigenvalues(G, 70, method="iterative")


def test_sweep_two_components(two_triangles):
    cut = spectral_partition(two_triangles)
    assert cut.conductance == 0.0
    assert sorted(cut.set) in ([0, 1, 2], [3, 4, 5])


def test_sweep_dumbbell(dumbbell):
    cut = spectral_partition(dumbbell)
    assert sorted(cut.set) in ([0, 1, 2], [3, 4, 5])
    assert abs(cut.conductance - 1.0 / 7.0) <= 1e-12


def test_sweep_complete_graph_volume_constraint():
    G = complete_graph(4)
    cut = spectral_partition(G)
    assert G.degrees[cut.set].sum() <= G.total_volume / 2
    assert cut.conductance <= 1.0


def test_sweep_needs_two_vertices():
    G = unit_graph(1, [])
    with pytest.raises(ValueError):
        spectral_partition(G)


def test_sweep_rejects_single_eigenvector(triangle):
    eigs = smallest_eigenvalues(triangle, 1)
    with pytest.raises(ValueError):
        spectral_partition(triangle, eigs)


def test_sweep_accepts_precomputed_result(dumbbell):
    eigs = smallest_eigenvalues(dumbbell, 3)
    cut = spectral_partition(dumbbell, eigs)
    assert abs(cut.conductance - 1.0 / 7.0) <= 1e-12


def test_sweep_guarantee_small_graphs():
    for seed in (20, 21, 22, 23, 24, 25):
        G = random_connected_graph(10, seed)
        cut = spectral_partition(G)
        assert G.degrees[cut.set].sum() <= G.total_volume / 2 + 1e-9
        assert cut.conductance == pytest.approx(
            set_conductance(G, cut.set), abs=1e-12)
        phi = graph_conductance_exact_ORACLE(G)
        assert cut.conductance <= 2.0 * np.sqrt(phi) + 1e-9


def test_cheeger_sandwich_small_graphs():
    for seed in (30, 31, 32, 33):
        G = random_connected_graph(11, seed)
        lam2 = smallest_eigenvalues(G, 2).eigenvalues[1]
        phi = graph_conductance_exact_ORACLE(G)
        assert lam2 / 2 <= phi + 1e-6
        assert phi <= np.sqrt(2 * lam2) + 1e-6


def _reweighted(G, w):
    return Graph(G.n, G.edges_u, G.edges_v, w)


def _sweep_corpus():
    """Unit, integer and non-integer weighted graphs, induced subgraphs,
    isolated vertices and edgeless graphs, dense (n <= 64) and Lanczos
    sizes."""
    rng = np.random.Generator(np.random.Philox(0xC0DE))
    graphs = []
    for seed in range(1, 11):
        graphs.append(gen_sbm([10, 10], 0.5, 0.1, seed)[0])
        graphs.append(gen_sbm([40, 40, 40], 0.3, 0.02, seed)[0])
        graphs.append(random_connected_graph(30, 1100 + seed))
    for seed in (1, 2, 3):
        graphs.append(gen_bridged_two_cluster(64, seed)[0])
    for G in list(graphs):
        graphs.append(_reweighted(G, np.exp(rng.uniform(-14, 14, G.m))))
        graphs.append(_reweighted(G, 0.1 * rng.integers(1, 30, G.m)))
    for seed in range(4):
        centers = rng.normal(0.0, 4.0, size=(3, 2))
        pts = centers[rng.integers(0, 3, 50)] + rng.normal(size=(50, 2))
        graphs.append(gaussian_kernel_graph(pts, 0.5 + 0.5 * seed))
    for G in list(graphs):
        if G.n >= 20 and rng.random() < 0.3:
            S = rng.choice(G.n, size=G.n // 2, replace=False)
            graphs.append(induced_subgraph(G, S))
    for seed in (40, 41, 42):
        G = random_connected_graph(12, seed)
        edges = list(zip(G.edges_u.tolist(), G.edges_v.tolist(),
                         G.edges_w.tolist()))
        graphs.append(build_graph(G.n + 3, edges))
    graphs += [build_graph(2, []), build_graph(5, []),
               unit_graph(6, [(1, 2), (2, 4)])]
    return graphs


def test_sweep_matches_oracle():
    graphs = _sweep_corpus()
    assert len(graphs) >= 130
    for G in graphs:
        eigs = smallest_eigenvalues(G, 2)
        cut = spectral_partition(G, eigs)
        ref = _sweep_ORACLE(G, eigs)
        assert np.array_equal(cut.set, ref.set), G
        # measured on the chosen set, not taken from the prefix sums
        assert cut.conductance == set_conductance(G, cut.set), G
        if np.array_equal(G.edges_w, np.round(G.edges_w)):
            assert cut.conductance == ref.conductance, G
        else:
            # a prefix cut is a difference of volumes, so both forms round
            # to within eps * vol(V) of each other, not to eps * cut
            gap = abs(cut.conductance - ref.conductance)
            assert (gap <= 1e-12 * ref.conductance
                    or gap * G.degrees[cut.set].sum()
                    <= 1e-12 * G.total_volume), G


def _sorted_normalized_adjacency(G):
    """The normalized adjacency built with the (u, v) half first, its
    entries put in row-major order by ``sum_duplicates`` before the CSR
    conversion."""
    inv_sqrt = np.zeros_like(G.degrees)
    inv_sqrt[G.degrees > 0] = 1.0 / np.sqrt(G.degrees[G.degrees > 0])
    rows = np.concatenate([G.edges_u, G.edges_v])
    cols = np.concatenate([G.edges_v, G.edges_u])
    vals = np.concatenate([G.edges_w, G.edges_w])
    vals = vals * inv_sqrt[rows] * inv_sqrt[cols]
    coo = sp.coo_array((vals, (rows, cols)), shape=(G.n, G.n))
    coo.sum_duplicates()
    return coo.tocsr()


def test_normalized_adjacency_is_built_canonical():
    # the (v, u) half comes first so the conversion needs no sort; the
    # arrays must match, byte for byte, the build that sorts them
    for G in _sweep_corpus() + [build_graph(1, [])]:
        got = _normalized_adjacency(G)
        want = _sorted_normalized_adjacency(G)
        assert got.has_canonical_format, G
        for field in ("indptr", "indices", "data"):
            a, b = getattr(got, field), getattr(want, field)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (G, field)


def test_sweep_speed_guard():
    # on a 2-vCPU host the per-vertex loop took 56 ms and the prefix sums
    # 1.9 ms on this graph
    G, _ = gen_sbm([3000, 3000, 3000], 0.0067, 0.00017, 1)
    eigs = smallest_eigenvalues(G, 2)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        spectral_partition(G, eigs)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.020, times
