"""Weighted undirected graphs and conductance/volume/cut primitives.

Vertices are integers ``0..n-1``. Edges carry strictly positive weights and
are stored canonically with ``u < v``. A graph has no self-loops, so a
vertex's degree is the total weight of its incident edges.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Graph",
    "vertex_set",
    "build_graph",
    "volume",
    "set_conductance",
    "induced_subgraph",
    "save_graph",
    "load_graph",
]


def _is_int(value) -> bool:
    """The integer rule for one value: integral and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _int_array(values, what: str) -> np.ndarray:
    """The integer rule for many values, read as int64; a bool, fraction,
    NaN, string or object value raises ``ValueError`` naming ``what``."""
    arr = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if arr.dtype == np.int64:
        return arr
    with np.errstate(invalid="ignore"):  # NaN, inf, overflow fail below
        ints = arr.astype(np.int64) if arr.dtype.kind in "iuf" else None
    if ints is None or not np.array_equal(ints, arr):
        raise ValueError(f"{what} must be integers, got {arr.dtype} {arr}")
    return ints


def _number(tok: str, kind: type = int):
    """``kind(tok)`` for a file token, refusing Python's ``_`` separator."""
    if "_" in tok:
        raise ValueError(f"bad number {tok!r}")
    return kind(tok)


def vertex_set(vertices: Iterable[int], n: int) -> np.ndarray:
    """Canonicalize ``vertices`` to a sorted duplicate-free int64 array.

    Raises ``ValueError`` if an id breaks the integer rule or falls outside
    ``0..n-1``. Ids already strictly increasing are copied, not sorted.
    """
    arr = _int_array(vertices, "vertex ids")
    arr = arr.copy() if (arr[1:] > arr[:-1]).all() else np.unique(arr)
    if arr.size and (arr[0] < 0 or arr[-1] >= n):
        raise ValueError(f"vertex ids must lie in [0, {n}), got range "
                         f"[{arr[0]}, {arr[-1]}]")
    return arr


class Graph:
    """Immutable weighted undirected graph.

    Instances are built through :func:`build_graph` or
    :func:`induced_subgraph`; all fields are set once and never mutated
    afterwards, so a Graph is safe to share across threads.

    Attributes
    ----------
    n : int
        Vertex count.
    edges_u, edges_v, edges_w : ndarray
        Canonical edge arrays with ``edges_u < edges_v``, sorted
        lexicographically.
    degrees : ndarray
        ``degree(u) = sum of incident edge weights``.
    """

    __slots__ = ("n", "edges_u", "edges_v", "edges_w", "degrees")

    def __init__(self, n: int, edges_u: np.ndarray, edges_v: np.ndarray,
                 edges_w: np.ndarray):
        self.n = int(n)
        self.edges_u = edges_u
        self.edges_v = edges_v
        self.edges_w = edges_w
        deg = np.zeros(n, dtype=np.float64)
        np.add.at(deg, edges_u, edges_w)
        np.add.at(deg, edges_v, edges_w)
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

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, vol={self.total_volume:g})"


class _EdgeError(ValueError):
    """A :func:`build_graph` error about entries of its edge list;
    ``positions`` holds their list indices, ascending."""

    def __init__(self, message: str, positions: tuple[int, ...]):
        super().__init__(message)
        self.positions = positions


def build_graph(n: int, edge_list: Sequence[tuple[int, int, float]]) -> Graph:
    """Build a validated Graph from ``(u, v, w)`` triples.

    Endpoints must be distinct ids in ``0..n-1`` and weights strictly
    positive. Edges are canonicalized to ``u < v``; a pair appearing twice
    (in either orientation) is rejected rather than merged. A bad edge
    raises ``ValueError`` naming the first entry to break a rule, checked
    in that order; a duplicate's is the first entry repeating an earlier one.
    So does a graph whose volume, or cost bound ``n * vol / 2``, is not
    finite.
    """
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    if len(edge_list) == 0:
        eu = np.empty(0, dtype=np.int64)
        ev = np.empty(0, dtype=np.int64)
        ew = np.empty(0, dtype=np.float64)
        return Graph(n, eu, ev, ew)
    arr = np.asarray([(u, v, w) for u, v, w in edge_list], dtype=np.float64)
    eu = arr[:, 0].astype(np.int64)
    ev = arr[:, 1].astype(np.int64)
    ew = arr[:, 2]
    for bad, problem in (
            ((arr[:, 0] != eu) | (arr[:, 1] != ev),
             "has a non-integer endpoint"),
            ((eu < 0) | (eu >= n) | (ev < 0) | (ev >= n),
             f"has an endpoint outside 0..{n - 1}"),
            (eu == ev, "is a self-loop"),
            (~((ew > 0) & np.isfinite(ew)),
             "has a weight that is not strictly positive and finite")):
        if bad.any():
            j = int(np.argmax(bad))
            u, v, _ = edge_list[j]
            raise _EdgeError(f"edge ({u}, {v}) {problem}", (j,))
    lo = np.minimum(eu, ev)
    hi = np.maximum(eu, ev)
    order = np.lexsort((hi, lo))
    lo, hi, ew = lo[order], hi[order], ew[order]
    repeats = np.flatnonzero(np.diff(lo * n + hi) == 0)
    if repeats.size:    # a stable sort: entry order[d] came first
        d = repeats[np.argmin(order[repeats + 1])]
        raise _EdgeError(f"duplicate edge ({lo[d]}, {hi[d]})",
                         (int(order[d]), int(order[d + 1])))
    with np.errstate(over="ignore"):    # an overflowing volume fails below
        G = Graph(n, lo, hi, ew)
        vol = G.total_volume
    if not np.isfinite(n * (vol / 2)):
        raise ValueError(f"edge weights too large: the volume {vol:g} and "
                         f"the cost bound n * vol / 2 must be finite")
    return G


def _member_mask(G: Graph, S: np.ndarray) -> np.ndarray:
    mask = np.zeros(G.n, dtype=bool)
    mask[S] = True
    return mask


def _volume(G: Graph, in_s: np.ndarray) -> float:
    """:func:`volume` of a vertex mask, summed in vertex order."""
    return float(G.degrees[in_s].sum())


def _conductance(G: Graph, in_s: np.ndarray) -> float:
    """:func:`set_conductance` of a vertex mask, in one edge pass."""
    size = np.count_nonzero(in_s)
    if size == 0:
        return 1.0
    if size == G.n:
        return 0.0
    vol_s = _volume(G, in_s)
    if vol_s == 0.0:
        return 1.0
    crosses = in_s[G.edges_u] != in_s[G.edges_v]
    return float(G.edges_w[crosses].sum()) / vol_s


def volume(G: Graph, S: Iterable[int]) -> float:
    """Sum of degrees over ``S``."""
    return _volume(G, _member_mask(G, vertex_set(S, G.n)))


def set_conductance(G: Graph, S: Iterable[int]) -> float:
    """Conductance ``w(S, V\\S) / vol(S)``.

    Conventions keeping the value total: the empty set has conductance 1,
    the full vertex set has conductance 0, and a nonempty set of volume 0
    (isolated vertices) returns 1.
    """
    return _conductance(G, _member_mask(G, vertex_set(S, G.n)))


def induced_subgraph(G: Graph, S: Iterable[int]) -> Graph:
    """``G[S]``: edges inside ``S`` only, vertices relabeled to ``0..|S|-1``.

    Degrees are recomputed within ``S``.
    """
    S = vertex_set(S, G.n)
    if S.size == 0:
        raise ValueError("cannot induce a subgraph on the empty set")
    in_s = _member_mask(G, S)
    keep = in_s[G.edges_u] & in_s[G.edges_v]
    relabel = np.full(G.n, -1, dtype=np.int64)
    relabel[S] = np.arange(S.size)
    return Graph(S.size, relabel[G.edges_u[keep]], relabel[G.edges_v[keep]],
                 G.edges_w[keep])


def save_graph(G: Graph, path) -> None:
    """Write the edge-list format: header ``n m``, then ``u v w`` lines."""
    lines = [f"{G.n} {G.m}\n"]
    for u, v, w in zip(G.edges_u, G.edges_v, G.edges_w):
        lines.append(f"{u} {v} {float(w)!r}\n")
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def load_graph(path) -> Graph:
    """Read the ASCII edge-list format written by :func:`save_graph`."""
    with open(path, encoding="ascii", errors="replace") as fh:
        header = fh.readline()
        try:
            n, m = map(_number, header.split())
        except ValueError:
            raise ValueError(
                f"{path}:1: expected header 'n m', got {header!r}") from None
        edges, linenos = [], []
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: bad edge line {line!r}")
            try:
                edges.append((_number(parts[0]), _number(parts[1]),
                              _number(parts[2], float)))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad edge line {line!r}") from None
            linenos.append(lineno)
    if len(edges) != m:
        raise ValueError(f"{path}: header claims {m} edges, found {len(edges)}")
    try:
        return build_graph(n, edges)
    except _EdgeError as exc:
        where = [str(linenos[j]) for j in exc.positions]
        also = f" on lines {' and '.join(where)}" if len(where) > 1 else ""
        raise ValueError(f"{path}:{where[0]}: {exc}{also}") from None
    except ValueError as exc:   # the header's vertex count, or the volume
        raise ValueError(f"{path}:{'1:' if n < 0 else ''} {exc}") from None
