"""Seeded random-graph families used by the experiment suite.

Every generator is a pure function of its parameters and a 64-bit seed.
Randomness comes from Philox4x64-10 (via numpy's ``Philox`` bit generator),
chosen because its counter-based keying gives reproducible, splittable
streams whose identity can be stated precisely: stream ``t`` of seed ``s``
is ``Philox(key = s + (t << 64))``. Identical parameters and seed yield a
byte-identical edge list.

All families except the Gaussian kernel produce unit-weight graphs; where
several edge sources overlap (block-model edges, planted cliques, hub
joins) the duplicates collapse to a single unit edge.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .graph import Graph, _int_array, _is_int
from .spectral import smallest_eigenvalues

__all__ = [
    "GenSpec",
    "PlantedLabels",
    "GENERATOR_FAMILIES",
    "generate",
    "gen_sbm",
    "gen_hsbm",
    "gen_planted_clique_expander",
    "gen_bridged_two_cluster",
    "gen_sbm_planted_cliques",
    "gen_sbm_unequal",
    "gaussian_kernel_graph",
    "save_labels",
    "load_labels",
]

REGULAR_BASE_DEGREE = 8
EXPANDER_MIN_LAMBDA2 = 0.1
KERNEL_WEIGHT_FLOOR = 1e-12
# Uniforms drawn per call in a block-model pair set.
_DRAW_CHUNK = 1 << 20

# What each family's ``GenSpec.params`` holds: the names it requires, then
# the names it may take, each with the value a spec that omits it gets.
FAMILY_PARAMS = {
    "sbm": (("sizes", "p", "q"), {}),
    "hsbm": (("p",), {"q_min": 0.0005, "size": 600}),
    "planted_clique_expander": (("n",), {}),
    "bridged_two_cluster": (("n",), {}),
    "sbm_planted_cliques": (("sizes", "p", "q", "c_p"), {}),
    "sbm_unequal": (("c_p",), {"scale": 1.0}),
    "gaussian_kernel": (("points", "sigma"), {}),
}

GENERATOR_FAMILIES = tuple(FAMILY_PARAMS)


def _sequence(value) -> bool:
    if isinstance(value, np.ndarray):
        return value.ndim > 0
    return isinstance(value, Sequence) and not isinstance(value, (str, bytes))


def _float(value) -> float:
    """A real as a Python float; an int too large for one reads as NaN."""
    try:
        return float(value)
    except OverflowError:
        return math.nan


_REAL = ("a real number", lambda value: isinstance(value, numbers.Real)
         and not isinstance(value, bool), _float)

# Each parameter's one rule: its type, how a value of that type is read
# (ints as Python ints, reals as Python floats), then the range the read
# value must lie in, each range test false on NaN and the infinities.
_RULES = {
    "sizes": ("a nonempty list of ints",
              lambda value: _sequence(value) and len(value) > 0
              and all(map(_is_int, value)),
              lambda value: [int(size) for size in value],
              "a list of positive ints", lambda sizes: min(sizes) >= 1),
    "n": ("an int", _is_int, int, "at least 27", lambda n: n >= 27),
    "size": ("an int", _is_int, int, "positive", lambda size: size >= 1),
    **dict.fromkeys(("p", "q"), (*_REAL, "in [0, 1]", lambda x: 0 <= x <= 1)),
    "q_min": (*_REAL, "in [0, 1/3]", lambda x: 0 <= 3 * x <= 1),
    "c_p": (*_REAL, "in (0, 1]", lambda x: 0 < x <= 1),
    **dict.fromkeys(("scale", "sigma"), (*_REAL, "positive and finite",
                                         lambda x: 0 < x < math.inf)),
    "points": ("a sequence", _sequence, lambda points: points,
               "a sequence", lambda points: True),
}


def _read(family: str, /, **params) -> list:
    """Each value of ``params``, in order, read by its rule; a wrong type
    or range raises ``ValueError`` naming the family and the parameter."""
    values = []
    for name, value in params.items():
        kind, is_kind, read, where, in_range = _RULES[name]
        typed = is_kind(value)
        if typed:
            values.append(read(value))
        if not typed or not in_range(values[-1]):
            raise ValueError(f"family {family!r} parameter {name!r} must be "
                             f"{where if typed else kind}, got {value!r}")
    return values


def _seed(seed: int) -> int:
    if _is_int(seed) and 0 <= seed < 2**64:
        return int(seed)
    raise ValueError("seed must be a 64-bit unsigned integer")


def _rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=_seed(seed) + (stream << 64)))


@dataclass(frozen=True)
class PlantedLabels:
    """Ground-truth bookkeeping emitted alongside a generated graph.

    ``clusters[v]`` is the planted cluster id of vertex ``v``; ``cliques``
    maps a cluster id to the sorted vertex array of the clique planted
    inside that cluster (absent when nothing was planted there).
    """

    clusters: np.ndarray
    cliques: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        clusters = _int_array(self.clusters, "cluster labels")
        object.__setattr__(self, "clusters", clusters)
        if clusters.ndim != 1 or clusters.size == 0:
            raise ValueError("cluster labels must be a nonempty 1-d array")
        if clusters.min() < 0:
            raise ValueError("cluster ids must be nonnegative")
        cliques = {cid: _int_array(members, f"clique {cid} members")
                   for cid, members in self.cliques.items()}
        object.__setattr__(self, "cliques", cliques)
        for cid, members in cliques.items():
            if np.any(clusters[members] != cid):
                raise ValueError(f"clique of cluster {cid} leaves its cluster")

    @property
    def n(self) -> int:
        return len(self.clusters)


@dataclass(frozen=True)
class GenSpec:
    """A generator family plus its parameters and seed; each name, each
    value's type and range, and the seed are checked when it is built."""

    family: str
    params: Mapping[str, Any]
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILY_PARAMS:
            raise ValueError(f"unknown family {self.family!r}; expected one "
                             f"of {GENERATOR_FAMILIES}")
        required, optional = FAMILY_PARAMS[self.family]
        for name in self.params:
            if name not in required and name not in optional:
                raise ValueError(f"family {self.family!r} does not take "
                                 f"parameter {name!r}")
        for name in required:
            if name not in self.params:
                raise ValueError(f"family {self.family!r} requires "
                                 f"parameter {name!r}")
        _read(self.family, **self.params)
        _seed(self.seed)


def generate(spec: GenSpec) -> tuple[Graph, PlantedLabels | None]:
    """Dispatch a :class:`GenSpec` to its family's generator, filling in
    the defaults of :data:`FAMILY_PARAMS`.

    Every family but ``gaussian_kernel`` is drawn by ``gen_<family>``,
    looked up in the module namespace at call time, so a wrapper set on
    that module attribute sees the call.
    """
    params = {**FAMILY_PARAMS[spec.family][1], **spec.params}
    if spec.family == "gaussian_kernel":
        return gaussian_kernel_graph(**params), None
    return globals()[f"gen_{spec.family}"](seed=spec.seed, **params)


def _unit_graph(n: int, us: np.ndarray, vs: np.ndarray) -> Graph:
    """Unit-weight graph from endpoint arrays; duplicate pairs collapse."""
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    lo = np.minimum(us, vs)
    hi = np.maximum(us, vs)
    key = np.unique(lo * n + hi)
    return Graph(n, key // n, key % n, np.ones(len(key), dtype=np.float64))


def _bernoulli_block(rng: np.random.Generator, A: np.ndarray, B: np.ndarray,
                     prob: float) -> tuple[np.ndarray, np.ndarray]:
    """Bernoulli(prob) over A x B (or the i<j pairs of A when B is A).

    Uniforms come ``_DRAW_CHUNK`` at a time, consuming the stream exactly as
    one whole draw would, so memory follows the edges, not the pairs."""
    intra = B is A
    count = len(A) * (len(A) - 1) // 2 if intra else len(A) * len(B)
    if count == 0 or prob == 0.0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if prob >= 1.0:
        idx = np.arange(count)
    else:
        idx = np.concatenate([
            np.flatnonzero(rng.random(min(_DRAW_CHUNK, count - lo)) < prob) + lo
            for lo in range(0, count, _DRAW_CHUNK)])
    if intra:
        # intra pairs are numbered row by row, as np.triu_indices does
        rows = np.arange(len(A) - 1)
        first = rows * (2 * len(A) - rows - 1) // 2
        i = np.searchsorted(first, idx, "right") - 1
        return A[i], A[idx - first[i] + i + 1]
    return A[idx // len(B)], B[idx % len(B)]


def _block_model(blocks: list[np.ndarray], qmat: np.ndarray,
                 rng: np.random.Generator) -> tuple[list[np.ndarray], list[np.ndarray]]:
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for a in range(len(blocks)):
        for b in range(a, len(blocks)):
            other = blocks[a] if a == b else blocks[b]
            eu, ev = _bernoulli_block(rng, blocks[a], other, qmat[a, b])
            us.append(eu)
            vs.append(ev)
    return us, vs


def _block_graph(sizes: Sequence[int], qmat: np.ndarray, seed: int,
                 c_p: float | None = None) -> tuple[Graph, PlantedLabels]:
    """Unit-weight block model over blocks of ``sizes`` with edge
    probabilities ``qmat``, plus a planted clique of fraction ``c_p`` per
    block (drawn on the same stream, after the block edges) when given."""
    bounds = np.cumsum([0, *sizes])
    blocks = [np.arange(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    rng = _rng(seed)
    us, vs = _block_model(blocks, qmat, rng)
    cliques: dict[int, np.ndarray] = {}
    if c_p is not None:
        cliques, cu, cv = _plant_cliques(blocks, c_p, rng)
        us, vs = us + cu, vs + cv
    n = sum(len(b) for b in blocks)
    G = _unit_graph(n, np.concatenate(us), np.concatenate(vs))
    clusters = np.concatenate([np.full(len(b), i) for i, b in enumerate(blocks)])
    return G, PlantedLabels(clusters, cliques)


def _sbm_qmat(sizes: Sequence[int], p: float, q: float) -> np.ndarray:
    """Probabilities ``p`` inside each block and ``q`` across blocks."""
    qmat = np.full((len(sizes), len(sizes)), q)
    np.fill_diagonal(qmat, p)
    return qmat


def gen_sbm(sizes: Sequence[int], p: float, q: float,
            seed: int) -> tuple[Graph, PlantedLabels]:
    """Stochastic block model: Bernoulli(p) inside blocks, Bernoulli(q) across."""
    sizes, p, q = _read("sbm", sizes=sizes, p=p, q=q)
    return _block_graph(sizes, _sbm_qmat(sizes, p, q), seed)


def gen_hsbm(p: float, q_min: float, seed: int,
             size: int) -> tuple[Graph, PlantedLabels]:
    """Five-cluster hierarchical block model with a fixed nested q-pattern.

    Cross-block probabilities step q_min / 2*q_min / 3*q_min according to
    how early the two blocks split in the planted hierarchy
    ``((0, 1), 2) | (3, 4)``.
    """
    p, q_min, size = _read("hsbm", p=p, q_min=q_min, size=size)
    # Two coarse groups {0,1,2} and {3,4}; similarity doubles per level of
    # shared ancestry and triples for the closest pair (0,1).
    q = np.full((5, 5), q_min)
    for i in (0, 1):
        q[i, 2] = q[2, i] = 2.0 * q_min
    q[3, 4] = q[4, 3] = 2.0 * q_min
    q[0, 1] = q[1, 0] = 3.0 * q_min
    np.fill_diagonal(q, p)
    return _block_graph([size] * 5, q, seed)


def _floor_power(n: int, p: int, q: int) -> int:
    """Exact floor(n^(p/q)); the float guess misrounds near exact powers."""
    target = n**p
    t = max(1, int(round(n ** (p / q))))
    while t**q > target:
        t -= 1
    while (t + 1) ** q <= target:
        t += 1
    return t


def _pair_repair(us: np.ndarray, vs: np.ndarray, n: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray] | None:
    """Degree-preserving endpoint swaps until no self-loop or duplicate remains.

    Returns None when the attempt budget runs out (caller redraws stubs).
    """
    us = us.astype(np.int64).copy()
    vs = vs.astype(np.int64).copy()
    m = len(us)

    def key_of(a: int, b: int) -> int:
        return a * n + b if a <= b else b * n + a

    slots: dict[int, set[int]] = {}
    for i in range(m):
        slots.setdefault(key_of(us[i], vs[i]), set()).add(i)

    def is_bad(i: int) -> bool:
        return us[i] == vs[i] or len(slots[key_of(us[i], vs[i])]) > 1

    bad = {i for i in range(m) if is_bad(i)}
    budget = 200 * (len(bad) + 10)
    while bad:
        if budget <= 0:
            return None
        budget -= 1
        i = min(bad)
        j = int(rng.integers(m))
        a, b = int(us[i]), int(vs[i])
        c, d = int(us[j]), int(vs[j])
        if j == i or a == c or b == d or a == d or c == b:
            continue
        k_new1, k_new2 = key_of(a, d), key_of(c, b)
        if slots.get(k_new1) or slots.get(k_new2):
            continue
        k_old1, k_old2 = key_of(a, b), key_of(c, d)
        slots[k_old1].discard(i)
        slots[k_old2].discard(j)
        slots.setdefault(k_new1, set()).add(i)
        slots.setdefault(k_new2, set()).add(j)
        vs[i] = d
        vs[j] = b
        touched = {i, j} | set(slots.get(k_old1, ())) | set(slots.get(k_old2, ()))
        for idx in touched:
            if is_bad(idx):
                bad.add(idx)
            else:
                bad.discard(idx)
    return us, vs


def _random_regular(n: int, d: int, rng: np.random.Generator,
                    min_lambda2: float) -> Graph:
    """Random simple d-regular graph with second eigenvalue at least min_lambda2.

    Stub pairing plus swap repair; a draw whose normalized-Laplacian gap is
    below the threshold (in particular, a disconnected one) is redrawn.
    """
    for _ in range(20):
        stubs = rng.permutation(np.repeat(np.arange(n), d))
        repaired = _pair_repair(stubs[0::2], stubs[1::2], n, rng)
        if repaired is None:
            continue
        G = _unit_graph(n, *repaired)
        lam2 = float(smallest_eigenvalues(G, 2).eigenvalues[1])
        if lam2 >= min_lambda2:
            return G
    raise ValueError(f"failed to sample a {d}-regular graph with spectral "
                     f"gap >= {min_lambda2} on {n} vertices after 20 draws")


def _planted_clique_expander(n: int, rng: np.random.Generator) -> tuple[Graph, np.ndarray]:
    # n >= 27 by its rule, so the 8-regular base exists (8 < n, 8n even).
    base = _random_regular(n, REGULAR_BASE_DEGREE, rng, EXPANDER_MIN_LAMBDA2)
    s = _floor_power(n, 2, 3)
    # Vertex ids of the regular base are exchangeable; the clique takes 0..s-1.
    clique = np.arange(s)
    iu, iv = np.triu_indices(s, 1)
    groups = np.array_split(np.arange(s, n), s)
    hub_u = np.concatenate([np.full(len(g), i) for i, g in enumerate(groups)])
    hub_v = np.concatenate(groups)
    us = np.concatenate([base.edges_u, iu, hub_u])
    vs = np.concatenate([base.edges_v, iv, hub_v])
    return _unit_graph(n, us, vs), clique


def gen_planted_clique_expander(n: int, seed: int) -> tuple[Graph, PlantedLabels]:
    """Near-regular expander with a floor(n^(2/3))-clique and hub joins.

    An 8-regular random base supplies the expansion; clique vertices double
    as hubs, each fully joined to one of floor(n^(2/3)) near-equal groups
    of the remaining vertices. All weights are unit; overlapping sources
    collapse.
    """
    [n] = _read("planted_clique_expander", n=n)
    G, clique = _planted_clique_expander(n, _rng(seed))
    labels = PlantedLabels(np.zeros(G.n, dtype=np.int64), {0: clique})
    return G, labels


def gen_bridged_two_cluster(n: int, seed: int) -> tuple[Graph, PlantedLabels]:
    """Two independent planted-clique expanders bridged clique-to-clique.

    floor(n^1.1) distinct cross pairs between the two cliques get unit
    edges, so each side keeps low but nonvanishing outer conductance.
    """
    [n] = _read("bridged_two_cluster", n=n)
    G1, clique1 = _planted_clique_expander(n, _rng(seed, 1))
    G2, clique2 = _planted_clique_expander(n, _rng(seed, 2))
    s = len(clique1)
    bridges = _floor_power(n, 11, 10)
    pick = _rng(seed, 3).choice(s * s, size=bridges, replace=False)
    cross_u = clique1[pick // s]
    cross_v = n + clique2[pick % s]
    us = np.concatenate([G1.edges_u, n + G2.edges_u, cross_u])
    vs = np.concatenate([G1.edges_v, n + G2.edges_v, cross_v])
    G = _unit_graph(2 * n, us, vs)
    clusters = np.repeat(np.arange(2), n)
    return G, PlantedLabels(clusters, {0: clique1, 1: n + clique2})


def _plant_cliques(blocks: list[np.ndarray], c_p: float,
                   rng: np.random.Generator) -> tuple[dict[int, np.ndarray],
                                                      list[np.ndarray],
                                                      list[np.ndarray]]:
    cliques: dict[int, np.ndarray] = {}
    us: list[np.ndarray] = []
    vs: list[np.ndarray] = []
    for i, block in enumerate(blocks):
        size = int(round(c_p * len(block)))
        if size < 2:
            continue
        members = np.sort(rng.choice(block, size=size, replace=False))
        cliques[i] = members
        iu, iv = np.triu_indices(size, 1)
        us.append(members[iu])
        vs.append(members[iv])
    return cliques, us, vs


def gen_sbm_planted_cliques(sizes: Sequence[int], p: float, q: float, c_p: float,
                            seed: int) -> tuple[Graph, PlantedLabels]:
    """Block model plus a planted clique on a random c_p-fraction per block."""
    sizes, p, q, c_p = _read("sbm_planted_cliques", sizes=sizes, p=p, q=q,
                             c_p=c_p)
    return _block_graph(sizes, _sbm_qmat(sizes, p, q), seed, c_p)


def gen_sbm_unequal(seed: int, c_p: float,
                    scale: float) -> tuple[Graph, PlantedLabels]:
    """Three blocks of very different sizes, the smallest much denser.

    Full scale is sizes (1900, 900, 200) with intra probabilities
    (0.06, 0.06, 0.3) and cross probability 0.002; the dense small block
    compensates its size so its outer conductance stays low. ``scale``
    shrinks all sizes proportionally for quick runs. Planted cliques of
    fraction ``c_p`` are added per block as in
    :func:`gen_sbm_planted_cliques`.
    """
    c_p, scale = _read("sbm_unequal", c_p=c_p, scale=scale)
    sizes = [int(round(base * scale)) for base in (1900, 900, 200)]
    if any(s < 1 for s in sizes):
        raise ValueError(f"scale {scale} shrinks a block below one vertex")
    qmat = np.full((3, 3), 0.002)
    np.fill_diagonal(qmat, (0.06, 0.06, 0.3))
    return _block_graph(sizes, qmat, seed, c_p)


def _squared_distances(pts: np.ndarray) -> np.ndarray:
    n = len(pts)
    out = np.empty((n, n), dtype=np.float64)
    step = max(1, (1 << 22) // max(1, n * pts.shape[1]))
    for lo in range(0, n, step):
        diff = pts[lo:lo + step, None, :] - pts[None, :, :]
        out[lo:lo + step] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


def gaussian_kernel_graph(points: Sequence[Sequence[float]] | np.ndarray,
                          sigma: float) -> Graph:
    """Complete similarity graph w_uv = exp(-|x_u - x_v|^2 / (2 sigma^2)).

    Weights below 1e-12 are dropped, so far-apart points simply lack an
    edge; duplicate points get weight exactly 1.
    """
    points, sigma = _read("gaussian_kernel", points=points, sigma=sigma)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or len(pts) < 2:
        raise ValueError("need at least two points, as rows of a 2-d array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    n = len(pts)
    d2 = _squared_distances(pts)
    iu, iv = np.triu_indices(n, 1)
    w = np.exp(-d2[iu, iv] / (2.0 * sigma * sigma))
    keep = w >= KERNEL_WEIGHT_FLOOR
    return Graph(n, iu[keep].astype(np.int64), iv[keep].astype(np.int64),
                 w[keep])


def save_labels(path: str, labels: PlantedLabels) -> None:
    """Write ``vertex cluster [clique_flag]`` lines; the flag column appears
    only when some clique was planted."""
    flags = np.zeros(labels.n, dtype=np.int64)
    for members in labels.cliques.values():
        flags[members] = 1
    with open(path, "w", encoding="ascii") as fh:
        if labels.cliques:
            for v in range(labels.n):
                fh.write(f"{v} {labels.clusters[v]} {flags[v]}\n")
        else:
            for v in range(labels.n):
                fh.write(f"{v} {labels.clusters[v]}\n")


def load_labels(path: str) -> PlantedLabels:
    rows = []
    with open(path, encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            width = len(rows[0]) if rows else len(parts)
            try:
                if len(parts) != width or width not in (2, 3):
                    raise ValueError
                rows.append([int(x) for x in parts])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad label line {line!r}") from None
    if not rows:
        raise ValueError(f"{path}: empty label file")
    arr = np.asarray(rows, dtype=np.int64)
    order = np.argsort(arr[:, 0])
    arr = arr[order]
    if not np.array_equal(arr[:, 0], np.arange(len(arr))):
        raise ValueError(
            f"{path}: label file must cover vertices 0..n-1 exactly once")
    clusters = arr[:, 1]
    cliques: dict[int, np.ndarray] = {}
    if width == 3:
        for cid in np.unique(clusters[arr[:, 2] == 1]):
            cliques[int(cid)] = np.flatnonzero((clusters == cid) & (arr[:, 2] == 1))
    return PlantedLabels(clusters, cliques)
