"""Weighted undirected graphs and conductance/volume/cut primitives.

Vertices are integers ``0..n-1``. Edges carry strictly positive weights and
are stored canonically with ``u < v``. Self-loops never appear in the public
edge list; they come only from a caller's :func:`induced_with_selfloops`,
which keeps vertex degrees stable under subgraph extraction (no pipeline
path creates them), and they contribute to degrees and volumes but never to
any cut or cost sum.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "vertex_set",
    "build_graph",
    "volume",
    "cut_weight",
    "directed_boundary",
    "set_conductance",
    "induced_subgraph",
    "induced_with_selfloops",
    "degree_stats",
    "save_graph",
    "load_graph",
]


def vertex_set(vertices: Iterable[int], n: int) -> np.ndarray:
    """Canonicalize ``vertices`` to a sorted duplicate-free int64 array.

    Raises ``ValueError`` if any id falls outside ``0..n-1``. An integer
    array that is already strictly increasing is copied, not sorted.
    """
    if (isinstance(vertices, np.ndarray) and vertices.ndim == 1
            and vertices.dtype.kind in "iu"
            and np.can_cast(vertices.dtype, np.int64)):
        arr = np.array(vertices, dtype=np.int64)
        if not (arr[1:] > arr[:-1]).all():
            arr = np.unique(arr)
    else:
        arr = np.unique(np.asarray(list(vertices), dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise ValueError(f"vertex ids must lie in [0, {n}), got range "
                         f"[{arr[0]}, {arr[-1]}]")
    return arr


class Graph:
    """Immutable weighted undirected graph.

    Instances are built through :func:`build_graph` or the induced-subgraph
    helpers; all fields are set once and never mutated afterwards, so a Graph
    is safe to share across threads.

    Attributes
    ----------
    n : int
        Vertex count.
    edges_u, edges_v, edges_w : ndarray
        Canonical edge arrays with ``edges_u < edges_v``, sorted
        lexicographically.
    self_loops : ndarray
        Per-vertex self-loop weight (all zeros unless the graph came from
        :func:`induced_with_selfloops`).
    degrees : ndarray
        ``degree(u) = sum of incident edge weights + self_loops[u]``.
    source_ids : ndarray or None
        When the graph was induced from another graph, ``source_ids[i]`` is
        the id vertex ``i`` had in the outermost original graph.
    """

    __slots__ = ("n", "edges_u", "edges_v", "edges_w", "self_loops",
                 "degrees", "source_ids")

    def __init__(self, n: int, edges_u: np.ndarray, edges_v: np.ndarray,
                 edges_w: np.ndarray, self_loops: np.ndarray,
                 source_ids: np.ndarray | None = None):
        self.n = int(n)
        self.edges_u = edges_u
        self.edges_v = edges_v
        self.edges_w = edges_w
        self.self_loops = self_loops
        self.source_ids = source_ids
        deg = np.zeros(n, dtype=np.float64)
        np.add.at(deg, edges_u, edges_w)
        np.add.at(deg, edges_v, edges_w)
        deg += self_loops
        self.degrees = deg

    @property
    def m(self) -> int:
        return len(self.edges_w)

    @property
    def total_volume(self) -> float:
        return float(self.degrees.sum())

    @property
    def w_min(self) -> float | None:
        return float(self.edges_w.min()) if self.m else None

    @property
    def has_self_loops(self) -> bool:
        return bool(np.any(self.self_loops > 0))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, vol={self.total_volume:g})"


def build_graph(n: int, edge_list: Sequence[tuple[int, int, float]]) -> Graph:
    """Build a validated Graph from ``(u, v, w)`` triples.

    Endpoints must be distinct ids in ``0..n-1`` and weights strictly
    positive. Edges are canonicalized to ``u < v``; a pair appearing twice
    (in either orientation) is rejected rather than merged.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if len(edge_list) == 0:
        eu = np.empty(0, dtype=np.int64)
        ev = np.empty(0, dtype=np.int64)
        ew = np.empty(0, dtype=np.float64)
        return Graph(n, eu, ev, ew, np.zeros(n, dtype=np.float64))
    arr = np.asarray([(u, v, w) for u, v, w in edge_list], dtype=np.float64)
    eu = arr[:, 0].astype(np.int64)
    ev = arr[:, 1].astype(np.int64)
    ew = arr[:, 2]
    if np.any((arr[:, 0] != eu) | (arr[:, 1] != ev)):
        raise ValueError("vertex ids must be integers")
    if np.any((eu < 0) | (eu >= n) | (ev < 0) | (ev >= n)):
        raise ValueError("edge endpoint out of range")
    if np.any(eu == ev):
        raise ValueError("self-loops are not allowed in the public edge list")
    if np.any(ew <= 0) or not np.all(np.isfinite(ew)):
        raise ValueError("edge weights must be strictly positive and finite")
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    order = np.lexsort((hi, lo))
    lo, hi, ew = lo[order], hi[order], ew[order]
    key = lo * n + hi
    if np.any(np.diff(key) == 0):
        dup = np.flatnonzero(np.diff(key) == 0)[0]
        raise ValueError(f"duplicate edge ({lo[dup]}, {hi[dup]})")
    return Graph(n, lo, hi, ew, np.zeros(n, dtype=np.float64))


def _member_mask(G: Graph, S: np.ndarray) -> np.ndarray:
    mask = np.zeros(G.n, dtype=bool)
    mask[S] = True
    return mask


def volume(G: Graph, S: Iterable[int]) -> float:
    """Sum of degrees over ``S`` (degrees include self-loop weight)."""
    S = vertex_set(S, G.n)
    return float(G.degrees[S].sum())


def cut_weight(G: Graph, S: Iterable[int], T: Iterable[int]) -> float:
    """Total weight of edges with one endpoint in ``S`` and one in ``T``.

    ``S`` and ``T`` must be disjoint.
    """
    S = vertex_set(S, G.n)
    T = vertex_set(T, G.n)
    if np.intersect1d(S, T, assume_unique=True).size:
        raise ValueError("cut_weight requires disjoint vertex sets")
    if not S.size or not T.size or not G.m:
        return 0.0
    in_s = _member_mask(G, S)
    in_t = _member_mask(G, T)
    crosses = ((in_s[G.edges_u] & in_t[G.edges_v])
               | (in_t[G.edges_u] & in_s[G.edges_v]))
    return float(G.edges_w[crosses].sum())


def directed_boundary(G: Graph, S: Iterable[int], T: Iterable[int]) -> float:
    """Weight leaving ``S`` into ``T``: ``cut_weight(S, T \\ S)``.

    Unlike :func:`cut_weight`, overlap between the two sets is allowed.
    """
    S = vertex_set(S, G.n)
    T = vertex_set(T, G.n)
    T_minus_S = np.setdiff1d(T, S, assume_unique=True)
    return cut_weight(G, S, T_minus_S)


def set_conductance(G: Graph, S: Iterable[int]) -> float:
    """Conductance ``w(S, V\\S) / vol(S)``.

    Conventions keeping the value total: the empty set has conductance 1,
    the full vertex set has conductance 0, and a nonempty set of volume 0
    (isolated vertices) returns 1.
    """
    S = vertex_set(S, G.n)
    if S.size == 0:
        return 1.0
    if S.size == G.n:
        return 0.0
    vol_s = float(G.degrees[S].sum())
    if vol_s == 0.0:
        return 1.0
    in_s = _member_mask(G, S)
    crosses = in_s[G.edges_u] != in_s[G.edges_v]
    return float(G.edges_w[crosses].sum()) / vol_s


def _induce_edges(G: Graph, S: np.ndarray):
    in_s = _member_mask(G, S)
    keep = in_s[G.edges_u] & in_s[G.edges_v]
    relabel = np.full(G.n, -1, dtype=np.int64)
    relabel[S] = np.arange(S.size)
    eu = relabel[G.edges_u[keep]]
    ev = relabel[G.edges_v[keep]]
    ew = G.edges_w[keep].copy()
    src = G.source_ids[S] if G.source_ids is not None else S.copy()
    return eu, ev, ew, src


def induced_subgraph(G: Graph, S: Iterable[int]) -> Graph:
    """``G[S]``: edges inside ``S`` only, vertices relabeled to ``0..|S|-1``.

    Degrees are recomputed within ``S`` and no self-loops are added. The
    returned graph's ``source_ids`` maps local ids back to the ids of the
    outermost original graph.
    """
    S = vertex_set(S, G.n)
    if S.size == 0:
        raise ValueError("cannot induce a subgraph on the empty set")
    eu, ev, ew, src = _induce_edges(G, S)
    return Graph(S.size, eu, ev, ew, np.zeros(S.size, dtype=np.float64),
                 source_ids=src)


def induced_with_selfloops(G: Graph, S: Iterable[int]) -> Graph:
    """``G{S}``: induced subgraph with degree-preserving self-loops.

    Every ``v`` in ``S`` receives a self-loop of weight
    ``degree_G(v) - degree_{G[S]}(v)`` so its degree matches the original
    graph exactly.
    """
    S = vertex_set(S, G.n)
    if S.size == 0:
        raise ValueError("cannot induce a subgraph on the empty set")
    eu, ev, ew, src = _induce_edges(G, S)
    inner = np.zeros(S.size, dtype=np.float64)
    np.add.at(inner, eu, ew)
    np.add.at(inner, ev, ew)
    loops = G.degrees[S] - inner
    # Degree preservation can leave float dust; clamp it away.
    loops[np.abs(loops) < 1e-12 * np.maximum(G.degrees[S], 1.0)] = 0.0
    if np.any(loops < 0):
        raise AssertionError("negative self-loop weight; degree bookkeeping broke")
    return Graph(S.size, eu, ev, ew, loops, source_ids=src)


def degree_stats(G: Graph) -> tuple[float, float, float, float]:
    """``(d_min, d_max, d_avg, vol)`` over all vertices."""
    if G.n == 0:
        raise ValueError("degree_stats of an empty graph")
    d = G.degrees
    return float(d.min()), float(d.max()), float(d.mean()), float(d.sum())


def save_graph(G: Graph, path) -> None:
    """Write the edge-list format: header ``n m``, then ``u v w`` lines.

    Graphs holding internal self-loops are not representable and are
    rejected.
    """
    if G.has_self_loops:
        raise ValueError("graphs with self-loops cannot be serialized")
    lines = [f"{G.n} {G.m}\n"]
    for u, v, w in zip(G.edges_u, G.edges_v, G.edges_w):
        lines.append(f"{u} {v} {float(w)!r}\n")
    with open(path, "w") as fh:
        fh.writelines(lines)


def load_graph(path) -> Graph:
    """Read the edge-list format written by :func:`save_graph`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: expected header 'n m'")
        n, m = int(header[0]), int(header[1])
        edges = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: bad edge line {line!r}")
            try:
                edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad edge line {line!r}") from None
    if len(edges) != m:
        raise ValueError(f"{path}: header claims {m} edges, found {len(edges)}")
    return build_graph(n, edges)
