"""Property tests over generated weighted graphs (hypothesis)."""

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np

from wellclust.decomposition import (_boundary, _relative_conductance,
                                     derive_params)
from wellclust.experiment import ALGORITHMS, run_algorithm
from wellclust.graph import build_graph
from wellclust.spectral import (DEFAULT_TOL, SpectralConvergenceError,
                                SpectralResult)
from wellclust.tree import brute_force_opt
from oracles import cut_weight_ORACLE, relative_conductance_ORACLE
from test_decomposition import WIDE_RANGE_EDGES

# Ties come from a few shared values; the rest spread over 24 decades.
WEIGHTS = st.one_of(st.sampled_from([1e-12, 1.0, 2.5, 1e12]),
                    st.floats(-12.0, 12.0).map(lambda e: 10.0 ** e))


@st.composite
def graph_and_sets(draw):
    """A weighted graph on 1..40 vertices (isolated vertices allowed) and
    sets S ⊆ P, including S empty, S = P and P = V."""
    n = draw(st.integers(1, 40))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=min(len(pairs), 120))) if pairs else []
    G = build_graph(n, [(u, v, draw(WEIGHTS)) for u, v in chosen])
    in_p = np.ones(n, dtype=bool) if draw(st.booleans()) else \
        np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    s_kind = draw(st.sampled_from(["empty", "all", "subset"]))
    if s_kind == "subset":
        in_s = in_p & np.array(draw(st.lists(st.booleans(), min_size=n,
                                             max_size=n)))
    else:
        in_s = in_p & (s_kind == "all")
    return G, in_s, in_p


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph_and_sets())
def test_boundary_equals_cut_weight(case):
    """One edge pass over the vertex masks gives exactly, not
    approximately, the two cut weights an independent cut_weight_ORACLE
    pair measures, and the loop's relative conductance is exactly
    relative_conductance_ORACLE."""
    G, in_s, in_p = case
    S, P = np.flatnonzero(in_s), np.flatnonzero(in_p)
    outside = np.setdiff1d(np.arange(G.n), P)
    assert _boundary(G, in_s, in_p) == (
        cut_weight_ORACLE(G, S, np.setdiff1d(P, S)),
        cut_weight_ORACLE(G, S, outside))
    assert _relative_conductance(G, in_s, in_p) == \
        relative_conductance_ORACLE(G, S, P)


@st.composite
def k_and_spectrum(draw):
    """k in 2..8 and k + 1 ascending eigenvalues with
    DEFAULT_TOL < lambda_k <= lambda_{k+1} <= 2."""
    k = draw(st.integers(2, 8))
    lambda_k = draw(st.floats(DEFAULT_TOL, 2.0, exclude_min=True))
    lambda_k1 = draw(st.floats(lambda_k, 2.0))
    below = sorted(draw(st.lists(st.floats(0.0, lambda_k), min_size=k - 1,
                                 max_size=k - 1)))
    return k, np.array(below + [lambda_k, lambda_k1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(k_and_spectrum(), st.sampled_from(["paper", "practical"]))
def test_rho_star_is_lambda_k1_over_10(case, mode):
    """With the analysis constant c_0 = 1, the second term of
    rho* = min(lambda_{k+1}/10, 30 c_0 (k+1)^5 sqrt(lambda_k)) is at least
    0.73 once lambda_k clears DEFAULT_TOL, so it never decides rho*."""
    k, values = case
    G = build_graph(9, [(u, u + 1, 1.0) for u in range(8)])
    eigs = SpectralResult(values, np.zeros((G.n, values.size)),
                          np.zeros(values.size))
    params = derive_params(G, k, phi_in_mode=mode, eigs=eigs)
    assert params.rho_star == values[k] / 10.0


@st.composite
def small_weighted_graphs(draw):
    """1..40 vertices split into up to three components, at most 160 of the
    pairs inside a component edges (so isolated vertices occur), with
    weights from WEIGHTS."""
    n = draw(st.integers(1, 40))
    comp = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if comp[u] == comp[v]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=min(len(pairs), 160))) if pairs else []
    return build_graph(n, [(u, v, draw(WEIGHTS)) for u, v in chosen])


def _outcome(G, algo, k):
    try:
        out = run_algorithm(G, algo, k=k, seed=3)
    except (ValueError, SpectralConvergenceError) as exc:
        return type(exc), str(exc)
    T = out.tree
    r = out.result.partition.r if out.result else None
    return out.cost, T.left.tolist(), T.right.tolist(), T.leaf_vertex.tolist(), r


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(small_weighted_graphs())
@example(build_graph(11, WIDE_RANGE_EDGES))
def test_every_algorithm_returns_a_tree_or_rejects_the_input(G):
    """Every algorithm at k = 2 and 3 either returns a tree over the
    vertices whose cost lies in [OPT, n·vol/2] (up to rounding of the sum;
    OPT by brute force where n <= 8, else 0) and which a rerun repeats, or
    rejects the input with ValueError or SpectralConvergenceError; a
    DecompositionError or any other error is a bug. A pipeline run keeps
    at most k clusters."""
    floor = brute_force_opt(G)[0] * (1 - 1e-9) if G.n <= 8 else 0.0
    for algo in ALGORITHMS:
        for k in (2, 3):
            first = _outcome(G, algo, k)
            assert _outcome(G, algo, k) == first
            if isinstance(first[0], type):
                continue
            cost, _, _, leaf_vertex, r = first
            assert sorted(v for v in leaf_vertex if v >= 0) == list(range(G.n))
            assert floor <= cost <= G.n * G.total_volume / 2 * (1 + 1e-12)
            assert (r is None) == (algo not in ("prunemerge", "naive"))
            assert r is None or 1 <= r <= k
