"""Shared fixtures: small named graphs, seeded random graphs, and an
isomorphism-deduplicated corpus of small connected graphs."""

import itertools

import numpy as np
import pytest

from wellclust import Graph, build_graph

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def unit_graph(n, pairs):
    return build_graph(n, [(u, v, 1.0) for u, v in pairs])


def weighted_graph(n, triples):
    return build_graph(n, triples)


def complete_graph(n):
    return unit_graph(n, itertools.combinations(range(n), 2))


def path_graph(n):
    return unit_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return unit_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n_leaves):
    return unit_graph(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


DUMBBELL_EDGES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]


@pytest.fixture(scope="session")
def dumbbell():
    """Two unit triangles {0,1,2} and {3,4,5} joined by the bridge 2-3."""
    return unit_graph(6, DUMBBELL_EDGES)


@pytest.fixture(scope="session")
def triangle():
    return complete_graph(3)


@pytest.fixture(scope="session")
def two_triangles():
    return unit_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


@pytest.fixture(scope="session")
def k4():
    return complete_graph(4)


@pytest.fixture(scope="session")
def path3():
    return path_graph(3)


def random_connected_graph(n, seed, max_weight=9):
    """Random connected graph with integer weights in 1..max_weight: a
    random spanning tree plus a random sprinkle of extra edges."""
    rng = np.random.Generator(np.random.Philox(seed))
    edges = {}
    order = rng.permutation(n)
    for i in range(1, n):
        u = int(order[rng.integers(0, i)])
        v = int(order[i])
        edges[(min(u, v), max(u, v))] = int(rng.integers(1, max_weight + 1))
    extra = rng.integers(0, n + 1)
    for _ in range(int(extra) if n >= 2 else 0):
        u, v = rng.choice(n, size=2, replace=False)
        key = (int(min(u, v)), int(max(u, v)))
        if key not in edges:
            edges[key] = int(rng.integers(1, max_weight + 1))
    return build_graph(n, [(u, v, float(w)) for (u, v), w in edges.items()])


# -- isomorphism-deduplicated corpus of connected graphs, n <= 7 ------------

def _perm_tables(n):
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def _canonical_key(n, adj, perms):
    """Lexicographically smallest upper-triangle bit pattern over all
    vertex relabelings."""
    per = adj[perms[:, :, None], perms[:, None, :]]
    iu, iv = np.triu_indices(n, 1)
    bits = per[:, iu, iv].astype(np.uint64)
    weights = np.uint64(1) << np.arange(len(iu), dtype=np.uint64)
    return n, int((bits * weights).sum(axis=1).min())


def _connected(n, adj):
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in np.flatnonzero(adj[v]):
            if not seen[u]:
                seen[u] = True
                frontier.append(int(u))
    return bool(seen.all())


def _all_connected_upto(n_max=5):
    """Every connected graph on 3..n_max vertices, one per isomorphism
    class (full enumeration is cheap at these sizes)."""
    out = []
    for n in range(3, n_max + 1):
        perms = _perm_tables(n)
        iu, iv = np.triu_indices(n, 1)
        seen = set()
        for mask in range(1, 1 << len(iu)):
            adj = np.zeros((n, n), dtype=bool)
            sel = (mask >> np.arange(len(iu))) & 1
            adj[iu[sel == 1], iv[sel == 1]] = True
            adj |= adj.T
            if not _connected(n, adj):
                continue
            key = _canonical_key(n, adj, perms)
            if key in seen:
                continue
            seen.add(key)
            out.append((n, adj))
    return out


def _sampled_connected(n, count, seed, seen):
    """Random connected graphs on n vertices, new isomorphism classes only."""
    rng = np.random.Generator(np.random.Philox(seed))
    perms = _perm_tables(n)
    iu, iv = np.triu_indices(n, 1)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 60:
        attempts += 1
        sel = rng.random(len(iu)) < rng.uniform(0.25, 0.85)
        adj = np.zeros((n, n), dtype=bool)
        adj[iu[sel], iv[sel]] = True
        adj |= adj.T
        if not _connected(n, adj):
            continue
        key = _canonical_key(n, adj, perms)
        if key in seen:
            continue
        seen.add(key)
        out.append((n, adj))
    return out


def adj_to_graph(n, adj):
    iu, iv = np.triu_indices(n, 1)
    sel = adj[iu, iv]
    return unit_graph(n, list(zip(iu[sel].tolist(), iv[sel].tolist())))


@pytest.fixture(scope="session")
def small_corpus():
    """>= 500 connected unweighted graphs on 3..7 vertices, no two
    isomorphic: full enumeration through n=5, sampled classes for n=6,7."""
    seen = set()
    graphs = []
    for n, adj in _all_connected_upto(5):
        seen.add(_canonical_key(n, adj, _perm_tables(n)))
        graphs.append(adj_to_graph(n, adj))
    graphs += [adj_to_graph(n, adj)
               for n, adj in _sampled_connected(6, 110, 61, seen)]
    graphs += [adj_to_graph(n, adj)
               for n, adj in _sampled_connected(7, 400, 71, seen)]
    assert len(graphs) >= 500, f"corpus only reached {len(graphs)} graphs"
    return graphs
