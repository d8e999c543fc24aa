"""Property tests over generated weighted graphs (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from wellclust.decomposition import _boundary
from wellclust.graph import build_graph, cut_weight

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
    return G, np.flatnonzero(in_s), np.flatnonzero(in_p)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(graph_and_sets())
def test_boundary_equals_cut_weight(case):
    """One edge pass gives exactly, not approximately, the two cut weights
    an independent cut_weight pair measures."""
    G, S, P = case
    outside = np.setdiff1d(np.arange(G.n), P)
    assert _boundary(G, S, P) == (
        cut_weight(G, S, np.setdiff1d(P, S)), cut_weight(G, S, outside))
