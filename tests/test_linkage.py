"""Agglomerative linkage baseline tests."""

import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from wellclust import TreeBuilder, build_graph, dasgupta_cost, linkage
from wellclust.cli import main
from wellclust.generators import gen_sbm
from wellclust.linkage import LINKAGE_KINDS, LINKAGE_MAX_N

from conftest import random_connected_graph, unit_graph, weighted_graph


def merge_order(T):
    """Leaf sets of internal nodes in creation (= merge) order."""
    out = []
    for node in range(T.n_nodes):
        if T.left[node] >= 0:
            out.append(frozenset(int(v) for v in T.leaves_under(node)))
    return out


def test_triangle_all_kinds(triangle):
    for kind in LINKAGE_KINDS:
        T = linkage(triangle, kind)
        assert dasgupta_cost(triangle, T) == 8.0
        first = merge_order(T)[0]
        assert first == frozenset({0, 1})


def test_path_single_trace(path3):
    T = linkage(path3, "single")
    order = merge_order(T)
    assert order[0] == frozenset({0, 1})
    assert dasgupta_cost(path3, T) == 5.0


def test_two_components_merge_inside_first(two_triangles):
    for kind in LINKAGE_KINDS:
        T = linkage(two_triangles, kind)
        order = merge_order(T)
        cross = [s for s in order if s & {0, 1, 2} and s & {3, 4, 5}]
        intra = [s for s in order if not (s & {0, 1, 2} and s & {3, 4, 5})]
        assert len(cross) == 1 and len(intra) == 4
        last = max(order, key=len)
        assert cross == [last]


def test_single_leaf_and_empty():
    T = linkage(unit_graph(1, []), "average")
    assert T.n_leaves == 1
    with pytest.raises(ValueError):
        linkage(unit_graph(0, []), "single")
    with pytest.raises(ValueError):
        linkage(unit_graph(2, [(0, 1)]), "ward")


def test_weighted_single_picks_heaviest():
    G = weighted_graph(3, [(0, 1, 1.0), (1, 2, 5.0), (0, 2, 2.0)])
    T = linkage(G, "single")
    assert merge_order(T)[0] == frozenset({1, 2})


def test_complete_absent_pairs_count_zero():
    # on the 4-cycle, {0,1} vs {2} scores min(0, w(1,2)) = 0 because the
    # absent pair (0,2) counts as zero, so the second merge is (2,3)
    G = unit_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    T = linkage(G, "complete")
    order = merge_order(T)
    assert order[0] == frozenset({0, 1})
    assert order[1] == frozenset({2, 3})


def test_valid_tree_every_kind():
    for seed, kind in ((1, "single"), (2, "complete"), (3, "average")):
        G = random_connected_graph(17, 400 + seed)
        T = linkage(G, kind)
        assert sorted(T.leaves_under(T.root)) == list(range(17))
        assert T.leaf_count[T.root] == 17


def test_average_beats_single_on_planted_blocks():
    # behavioral regression: pinned from a 10-seed pilot where average
    # linkage came in cheaper on every instance (about 2x)
    wins = 0
    for seed in range(1, 11):
        G, _ = gen_sbm((30, 30), 0.3, 0.02, seed)
        cost_avg = dasgupta_cost(G, linkage(G, "average"))
        cost_single = dasgupta_cost(G, linkage(G, "single"))
        wins += cost_avg <= cost_single
    assert wins >= 8


def _scan_linkage_ORACLE(G, kind):
    """Test-only ORACLE: the full-matrix scan ``linkage`` used before its
    per-row cache. Every merge takes the global maximum, collects all tied
    pairs and picks the lexicographically smallest (min rep, max rep); the
    merge update is the same as in ``linkage``. O(n^3)."""
    n = G.n
    builder = TreeBuilder()
    node_of = [builder.leaf(v) for v in range(n)]
    if n == 1:
        return builder.build()

    base = np.zeros((n, n), dtype=np.float64)
    base[G.edges_u, G.edges_v] = G.edges_w
    base[G.edges_v, G.edges_u] = G.edges_w
    average = kind == "average"
    if average:
        totals = base.copy()
    sim = base
    np.fill_diagonal(sim, -np.inf)
    alive = np.ones(n, dtype=bool)
    rep = np.arange(n, dtype=np.int64)
    sizes = np.ones(n, dtype=np.int64)

    for _ in range(n - 1):
        flat = int(np.argmax(sim))
        maxval = sim.flat[flat]
        ti, tj = np.nonzero(sim == maxval)
        upper = ti < tj
        ti, tj = ti[upper], tj[upper]
        keys = np.stack([np.minimum(rep[ti], rep[tj]),
                         np.maximum(rep[ti], rep[tj])], axis=1)
        pick = int(np.lexsort((keys[:, 1], keys[:, 0]))[0])
        a, b = int(ti[pick]), int(tj[pick])
        if rep[b] < rep[a]:
            a, b = b, a
        node_of[a] = builder.internal(node_of[a], node_of[b])
        alive[b] = False
        rep[a] = min(rep[a], rep[b])
        sizes[a] += sizes[b]
        if average:
            totals[a] += totals[b]
            totals[:, a] = totals[a]
            row = np.where(alive, totals[a] / (sizes[a] * sizes), -np.inf)
        elif kind == "single":
            row = np.maximum(sim[a], sim[b])
        else:
            row = np.minimum(sim[a], sim[b])
        row[~alive] = -np.inf
        row[a] = -np.inf
        sim[a] = row
        sim[:, a] = row
        sim[b, :] = -np.inf
        sim[:, b] = -np.inf

    return builder.build()


def _tie_heavy_weights(rng, style, m):
    if style == 0:
        return np.ones(m)
    if style == 1:
        return rng.integers(1, 4, m).astype(np.float64)
    if style == 2:
        return rng.integers(1, 4, m) * 0.1
    return np.exp(rng.uniform(np.log(1e-6), np.log(1e6), m))


def _random_weighted_graph(rng, n, density, style):
    iu, iv = np.triu_indices(n, 1)
    keep = rng.random(len(iu)) < density
    w = _tie_heavy_weights(rng, style, int(keep.sum()))
    return build_graph(n, list(zip(iu[keep].tolist(), iv[keep].tolist(),
                                   w.tolist())))


def _components_graph(rng, style):
    """Three random blocks and a few isolated vertices, ids shuffled so the
    blocks interleave and zero-similarity joins happen between them."""
    sizes = [int(s) for s in rng.integers(2, 9, 3)] + [1, 1, 1]
    n = sum(sizes)
    ids = rng.permutation(n)
    edges, start = [], 0
    for s in sizes:
        block = _random_weighted_graph(rng, s, 0.6, style)
        for u, v, w in zip(block.edges_u, block.edges_v, block.edges_w):
            edges.append((int(ids[start + u]), int(ids[start + v]), float(w)))
        start += s
    return build_graph(n, edges)


def _identity_corpus():
    rng = np.random.Generator(np.random.Philox(2024))
    for i in range(160):
        n = 1 + i % 40
        yield _random_weighted_graph(rng, n, (0.15, 0.4, 0.8)[i % 3], i % 4)
    for i in range(24):
        yield _components_graph(rng, i % 4)
    n = 200
    yield unit_graph(n, zip(*np.triu_indices(n, 1)))
    yield unit_graph(n, [(0, v) for v in range(1, n)])


TREE_FIELDS = ("left", "right", "parent", "leaf_vertex")


def _pinned_sbm():
    return gen_sbm([300, 300, 300], 0.12, 0.002, 1)[0]


def _tree_digest(T):
    return hashlib.sha256(b"".join(getattr(T, field).tobytes()
                                   for field in TREE_FIELDS)).hexdigest()


# _scan_linkage_ORACLE's trees on _pinned_sbm(), whose O(n^3) scan takes
# about 15 s on a 2-vCPU host; made by, from the repository root,
#   PYTHONPATH=src:tests python -c "import test_linkage as t; G = t._pinned_sbm();
#   print({k: t._tree_digest(t._scan_linkage_ORACLE(G, k)) for k in t.LINKAGE_KINDS})"
_PINNED_SBM_ORACLE_DIGESTS = {
    "single": "9dee1104e953fb639e077400ffb02a05beaad639ac07244bcc8319c93d162136",
    "complete": "3b22ad6a2f706e27d221f1358cfc3c247545b928e26d1ac0959727c1c4769f28",
    "average": "b9db2db738aee4c995f71bd63c777a0ad1374071e577610b0a9e4160e69a1c6f",
}


def test_cached_linkage_matches_scan_oracle():
    # fails if a tie in the update above a keeps the later column, if rows
    # above a whose cached column was a (or b) or rows between a and b whose
    # cached column was b are not rescanned, or if b's cache is not cleared
    for G in _identity_corpus():
        for kind in LINKAGE_KINDS:
            want = _scan_linkage_ORACLE(G, kind)
            got = linkage(G, kind)
            for field in TREE_FIELDS:
                assert np.array_equal(getattr(got, field),
                                      getattr(want, field)), (G.n, kind, field)
    G = _pinned_sbm()
    for kind in LINKAGE_KINDS:
        assert _tree_digest(linkage(G, kind)) == \
            _PINNED_SBM_ORACLE_DIGESTS[kind], kind


def test_linkage_ceiling_raises_before_allocating(tmp_path, capsys):
    G = build_graph(LINKAGE_MAX_N + 1, [])
    tracemalloc.start()
    try:
        for kind in LINKAGE_KINDS:
            with pytest.raises(ValueError, match="n <= 10000"):
                linkage(G, kind)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one dense matrix would be 800 MB
    g = tmp_path / "g.txt"
    g.write_text(f"{LINKAGE_MAX_N + 1} 0\n")
    assert main(["run", "--graph", str(g), "--algo", "single"]) == 1
    assert "linkage is limited to n <= 10000" in capsys.readouterr().err


def test_every_rule_keeps_one_dense_matrix():
    # every rule peaked at 1.11 x 8n^2 bytes; average linkage peaked at
    # 2.11 x when it kept its summed cross weights in a second matrix
    G = gen_sbm([100] * 3, 0.12, 0.002, 1)[0]
    for kind in LINKAGE_KINDS:
        tracemalloc.start()
        try:
            linkage(G, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * G.n ** 2, (kind, peak)


def test_linkage_speed_guard():
    # on a 2-vCPU host the full-matrix scan took 4-7 s per call and the row
    # cache 0.04-0.18 s
    G, _ = gen_sbm([300, 300, 300], 0.12, 0.002, 1)
    for kind in LINKAGE_KINDS:
        start = time.perf_counter()
        linkage(G, kind)
        assert time.perf_counter() - start < 2.0, kind
