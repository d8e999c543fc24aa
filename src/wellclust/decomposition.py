"""Conductance-driven decomposition into at most k clusters with core sets.

The refinement loop maintains a partition of the vertex set in which every
cluster carries a nonempty *core*, a certified low-conductance kernel. Each
iteration either splits off a new cluster, shrinks a core, or moves mass
between clusters, guided by spectral sweep cuts of the induced subgraphs
and by relative conductance against the cores. At termination no predicate
fires, which is exactly the certificate audited by
:func:`termination_report`.

Volumes and conductances written without qualification refer to the whole
graph; only quantities computed inside an induced subgraph (the sweep cuts
and the inner-conductance certificates) use the cluster's own edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .degree_hc import hc_with_degrees
from .graph import (Graph, cut_weight, induced_subgraph, set_conductance,
                    vertex_set, volume)
from .spectral import (DEFAULT_TOL, SpectralResult, smallest_eigenvalues,
                       spectral_partition)
from .tree import CriticalNodes, HCTree, critical_nodes

__all__ = [
    "DecompositionError",
    "Partition",
    "DecompParams",
    "SplitView",
    "split_view",
    "relative_conductance",
    "derive_params",
    "strong_decomposition",
    "termination_report",
]

DEFAULT_ITERATION_CAP = 10**6
PHI_IN_MODES = ("paper", "practical")
# Slack for comparing measured conductances against analytic bounds.
_BOUND_RTOL = 1e-9


class DecompositionError(RuntimeError):
    """Refinement failed to settle; carries the tail of the loop trace."""

    def __init__(self, message: str, trace: list[dict] | None = None):
        super().__init__(message)
        self.trace = trace or []


def _require(ok: bool, message: str, *args) -> None:
    """Invariant check that, unlike ``assert``, survives ``python -O``."""
    if not ok:
        raise DecompositionError(message % args)


def _cluster_labels(sets: Iterable[np.ndarray], n: int) -> np.ndarray:
    lab = np.empty(n, dtype=np.int64)
    for i, P in enumerate(sets):
        lab[P] = i
    return lab


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of the vertex set; every set holds a nonempty core."""

    sets: tuple[np.ndarray, ...]
    cores: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.sets) != len(self.cores) or not self.sets:
            raise ValueError("need matching nonempty sets and cores")
        sets = tuple(np.asarray(P, dtype=np.int64) for P in self.sets)
        cores = tuple(np.asarray(C, dtype=np.int64) for C in self.cores)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "cores", cores)
        allv = np.concatenate(sets)
        n = allv.size
        if not np.array_equal(np.sort(allv), np.arange(n)):
            raise ValueError("sets must partition the vertex range 0..n-1")
        for P, C in zip(sets, cores):
            if C.size == 0:
                raise ValueError("cores must be nonempty")
            if np.setdiff1d(C, P, assume_unique=True).size:
                raise ValueError("each core must be contained in its set")

    @property
    def r(self) -> int:
        return len(self.sets)

    @property
    def n(self) -> int:
        return sum(len(P) for P in self.sets)

    @property
    def labels(self) -> np.ndarray:
        return _cluster_labels(self.sets, self.n)


@dataclass(frozen=True)
class DecompParams:
    """Derived thresholds steering the refinement loop."""

    k: int
    lambda_k: float
    lambda_k1: float
    c0: float
    rho_star: float
    phi_in: float
    phi_out: float
    max_iterations: int
    phi_in_mode: str


@dataclass(frozen=True)
class SplitView:
    """The four-way split of a cluster P by a candidate set S and the core C:
    ``s_plus = S∩C``, ``s_minus = S\\C``, ``s_plus_bar = C\\S``,
    ``s_minus_bar = P\\(S∪C)``."""

    s_plus: np.ndarray
    s_minus: np.ndarray
    s_plus_bar: np.ndarray
    s_minus_bar: np.ndarray


def split_view(S: np.ndarray, P: np.ndarray, core: np.ndarray) -> SplitView:
    S = np.asarray(S, dtype=np.int64)
    return SplitView(
        s_plus=np.intersect1d(S, core, assume_unique=True),
        s_minus=np.setdiff1d(S, core, assume_unique=True),
        s_plus_bar=np.setdiff1d(core, S, assume_unique=True),
        s_minus_bar=np.setdiff1d(np.setdiff1d(P, core, assume_unique=True),
                                 S, assume_unique=True),
    )


def relative_conductance(G: Graph, S: Iterable[int], P: Iterable[int]) -> float:
    """How much of S's boundary stays inside P, volume-adjusted.

    ``w(S -> P) / ((vol(P\\S)/vol(P)) * w(S -> V\\P))``; degenerate
    denominators (S empty or all of P, P without outgoing edges) give 1.
    """
    S = vertex_set(S, G.n)
    P = vertex_set(P, G.n)
    if np.setdiff1d(S, P, assume_unique=True).size:
        raise ValueError("S must be a subset of P")
    vol_p = float(G.degrees[P].sum())
    vol_rest = vol_p - float(G.degrees[S].sum())
    outside = np.setdiff1d(np.arange(G.n), P, assume_unique=True)
    w_out = cut_weight(G, S, outside)
    if vol_p == 0.0 or vol_rest == 0.0 or w_out == 0.0:
        return 1.0
    w_in = cut_weight(G, S, np.setdiff1d(P, S, assume_unique=True))
    return w_in / ((vol_rest / vol_p) * w_out)


def derive_params(G: Graph, k: int, c0: float = 1.0,
                  phi_in_mode: str = "practical", tol: float = DEFAULT_TOL,
                  iteration_cap: int = DEFAULT_ITERATION_CAP,
                  eigs: SpectralResult | None = None) -> DecompParams:
    """Compute the threshold set for a k-cluster run.

    ``phi_in_mode='paper'`` uses the analysis value lambda_{k+1}/(140(k+1)^2);
    'practical' raises it to at least 2*lambda_k, which is what makes the
    sweep-driven refinement act at experiment scale.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if phi_in_mode not in PHI_IN_MODES:
        raise ValueError(f"phi_in_mode must be one of {PHI_IN_MODES}")
    if k + 1 > G.n:
        raise ValueError(f"k+1 = {k + 1} eigenvalues need at least that many "
                         f"vertices, graph has {G.n}")
    if eigs is None or len(eigs.eigenvalues) < k + 1:
        eigs = smallest_eigenvalues(G, k + 1)
    lambda_k = max(0.0, float(eigs.eigenvalues[k - 1]))
    if lambda_k <= tol:
        lambda_k = 0.0
    lambda_k1 = float(eigs.eigenvalues[k])
    if lambda_k1 <= tol:
        raise ValueError(f"graph has at least {k + 1} near-disconnected "
                         f"parts (lambda_{k + 1} = {lambda_k1:.3g} <= {tol:g})")
    rho_star = min(lambda_k1 / 10.0, 30.0 * c0 * (k + 1) ** 5 * math.sqrt(lambda_k))
    phi_in = lambda_k1 / (140.0 * (k + 1) ** 2)
    if phi_in_mode == "practical":
        phi_in = max(phi_in, 2.0 * lambda_k)
    phi_out = 90.0 * c0 * (k + 1) ** 6 * math.sqrt(lambda_k)
    w_min = G.w_min
    formula_cap = iteration_cap if w_min is None else \
        math.ceil(k * G.n * G.total_volume / w_min)
    return DecompParams(k=k, lambda_k=lambda_k, lambda_k1=lambda_k1, c0=c0,
                        rho_star=rho_star, phi_in=phi_in, phi_out=phi_out,
                        max_iterations=min(iteration_cap, formula_cap),
                        phi_in_mode=phi_in_mode)


@dataclass
class _ClusterInfo:
    """Cached spectral view of one cluster's induced subgraph."""

    P: np.ndarray
    induced: Graph
    lambda2: float
    sweep_local: np.ndarray | None
    phi_max: float | None
    tree: HCTree | None = None
    crit: CriticalNodes | None = None


class _State:
    """Mutable working partition plus caches and progress checks."""

    def __init__(self, G: Graph, k: int, params: DecompParams,
                 sets: list[np.ndarray] | None = None,
                 cores: list[np.ndarray] | None = None):
        if params.k != k:
            raise ValueError(f"k = {k} disagrees with params.k = {params.k}")
        self.G = G
        self.k = k
        self.params = params
        allv = np.arange(G.n, dtype=np.int64)
        self.sets: list[np.ndarray] = sets if sets is not None else [allv]
        self.cores: list[np.ndarray] = cores if cores is not None else [allv.copy()]
        self._cache: dict[bytes, _ClusterInfo] = {}
        self._labels: np.ndarray | None = None
        self.trace: list[dict] = []
        self.iterations = 0

    # -- cached per-cluster views ------------------------------------------

    def info(self, i: int) -> _ClusterInfo:
        P = self.sets[i]
        key = P.tobytes()
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        induced = induced_subgraph(self.G, P)
        if induced.n < 2:
            info = _ClusterInfo(P, induced, math.inf, None, None)
        else:
            eigs = smallest_eigenvalues(induced, 2)
            sweep = spectral_partition(induced, eigs=eigs)
            local = np.sort(np.asarray(sweep.set, dtype=np.int64))
            comp = np.setdiff1d(np.arange(induced.n), local, assume_unique=True)
            phi_max = max(set_conductance(induced, local),
                          set_conductance(induced, comp))
            info = _ClusterInfo(P, induced, float(eigs.eigenvalues[1]),
                                local, phi_max)
        if len(self._cache) >= 256:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = info
        return info

    def tree_of(self, i: int) -> _ClusterInfo:
        info = self.info(i)
        if info.tree is None and info.induced.n >= 1:
            info.tree = hc_with_degrees(info.induced)
            if info.induced.n >= 2:
                info.crit = critical_nodes(info.induced, info.tree)
        return info

    # -- bookkeeping --------------------------------------------------------

    @property
    def r(self) -> int:
        return len(self.sets)

    def labels(self) -> np.ndarray:
        if self._labels is None:
            self._labels = _cluster_labels(self.sets, self.G.n)
        return self._labels

    def _dirty(self) -> None:
        self._labels = None

    def total_cross(self) -> float:
        lab = self.labels()
        differs = lab[self.G.edges_u] != lab[self.G.edges_v]
        return float(self.G.edges_w[differs].sum())

    def cross_weights(self, D: np.ndarray) -> np.ndarray:
        """Weight from D to each cluster; edges inside D are excluded, so
        entry i is w(D -> P_i) for D's own cluster too."""
        mask = np.zeros(self.G.n, dtype=bool)
        mask[D] = True
        lab = self.labels()
        u, v, w = self.G.edges_u, self.G.edges_v, self.G.edges_w
        only_u = mask[u] & ~mask[v]
        only_v = mask[v] & ~mask[u]
        out = np.zeros(self.r, dtype=np.float64)
        np.add.at(out, lab[v[only_u]], w[only_u])
        np.add.at(out, lab[u[only_v]], w[only_v])
        return out

    def split_threshold(self) -> float:
        return self.params.rho_star * (1.0 + 1.0 / (self.k + 1)) ** (self.r + 1)

    def rel_threshold(self) -> float:
        """Relative-conductance level below which a core half is shed."""
        return 1.0 / (3.0 * (self.k + 1))

    def lambda2_order(self) -> list[int]:
        lams = np.asarray([self.info(i).lambda2 for i in range(self.r)])
        return [int(i) for i in np.lexsort((np.arange(self.r), lams))]

    def cond1_cross(self, i: int) -> np.ndarray | None:
        """Cross weights of P_i \\ core_i, or None when the set is empty."""
        D = np.setdiff1d(self.sets[i], self.cores[i], assume_unique=True)
        if D.size == 0:
            return None
        return self.cross_weights(D)

    def cond1_fires(self, cross: np.ndarray | None, i: int) -> bool:
        if cross is None:
            return False
        others = np.delete(cross, i)
        return bool(others.size and others.max() > cross[i])

    def cond2_candidates(self) -> list[tuple[int, np.ndarray]]:
        """Clusters passing the inner sweep test, in ascending-lambda2 order,
        paired with the candidate set (swapped so vol(S∩core) stays small)."""
        out = []
        for i in self.lambda2_order():
            info = self.info(i)
            if info.phi_max is None or not info.phi_max < self.params.phi_in:
                continue
            S = info.P[info.sweep_local]
            core = self.cores[i]
            s_plus = np.intersect1d(S, core, assume_unique=True)
            if volume(self.G, s_plus) > volume(self.G, core) / 2.0:
                S = np.setdiff1d(self.sets[i], S, assume_unique=True)
            out.append((i, S))
        return out

    # -- update application -------------------------------------------------

    def _check_invariants(self) -> None:
        allv = np.concatenate(self.sets)
        _require(np.array_equal(np.sort(allv), np.arange(self.G.n)),
                 "cluster sets stopped partitioning the vertex set")
        bound = self.params.rho_star * \
            (1.0 + 1.0 / (self.k + 1)) ** self.r * (1.0 + _BOUND_RTOL) + 1e-12
        for P, C in zip(self.sets, self.cores):
            _require(C.size > 0, "a core emptied out")
            _require(not np.setdiff1d(C, P, assume_unique=True).size,
                     "a core escaped its cluster")
            phi = set_conductance(self.G, C)
            _require(phi <= bound, "core conductance %.6g exceeds its "
                     "invariant bound %.6g", phi, bound)

    def _record(self, tag: str, i: int, **extra) -> None:
        entry = {"iteration": self.iterations, "branch": tag, "cluster": i,
                 "r": self.r}
        entry.update(extra)
        self.trace.append(entry)
        if len(self.trace) > 200:
            del self.trace[:100]

    def apply_split(self, i: int, removed: np.ndarray,
                    new_core: np.ndarray | None, tag: str) -> str:
        _require(removed.size > 0, "split removes nothing")
        old_r = self.r
        P_new = np.setdiff1d(self.sets[i], removed, assume_unique=True)
        _require(P_new.size > 0, "split removes the whole cluster")
        self.sets[i] = P_new
        if new_core is not None:
            self.cores[i] = new_core
        self.sets.append(removed.copy())
        self.cores.append(removed.copy())
        self._dirty()
        _require(self.r == old_r + 1, "split did not add a cluster")
        self._record(tag, i, split_size=int(removed.size))
        self._check_invariants()
        return tag

    def apply_core_shrink(self, i: int, new_core: np.ndarray, tag: str) -> str:
        _require(0 < new_core.size < self.cores[i].size,
                 "core shrink must strictly reduce a nonempty core")
        self.cores[i] = new_core
        self._record(tag, i, core_size=int(new_core.size))
        self._check_invariants()
        return tag

    def apply_move(self, i: int, moved: np.ndarray, j: int, tag: str) -> str:
        _require(moved.size > 0 and i != j, "move needs mass and a target")
        before = self.total_cross()
        self.sets[i] = np.setdiff1d(self.sets[i], moved, assume_unique=True)
        self.sets[j] = np.union1d(self.sets[j], moved)
        self._dirty()
        after = self.total_cross()
        _require(after < before, "mass move failed to reduce cross weight "
                 "(%.6g -> %.6g)", before, after)
        self._record(tag, i, moved=int(moved.size), to=j)
        self._check_invariants()
        return tag

    def move_target(self, cross: np.ndarray, i: int) -> int:
        """Receiving cluster: argmax of cross weight over j != i, ties to the
        smallest index."""
        masked = cross.copy()
        masked[i] = -math.inf
        return int(np.argmax(masked))


class _Candidate:
    """Cluster i split by a candidate set S (a sweep cut or the leaves of a
    critical node) and its core. Every measurement the refinement
    predicates read is computed on first use and at most once."""

    def __init__(self, state: _State, i: int, S: np.ndarray):
        self.state, self.G, self.i = state, state.G, i
        self.P, self.core = state.sets[i], state.cores[i]
        self.view = split_view(S, self.P, self.core)

    @cached_property
    def phi_plus(self) -> float:
        return set_conductance(self.G, self.view.s_plus)

    @cached_property
    def phi_plus_bar(self) -> float:
        return set_conductance(self.G, self.view.s_plus_bar)

    @cached_property
    def rel_plus(self) -> float:
        return relative_conductance(self.G, self.view.s_plus, self.core)

    @cached_property
    def plus_is_small(self) -> bool:
        """vol(S∩C) <= vol(C)/2, where the late core shrink applies."""
        return volume(self.G, self.view.s_plus) <= volume(self.G, self.core) / 2.0

    @cached_property
    def minus_is_small(self) -> bool:
        """vol(S\\C) <= vol(P)/2, where the late move applies."""
        return volume(self.G, self.view.s_minus) <= volume(self.G, self.P) / 2.0

    @cached_property
    def cross_minus(self) -> np.ndarray:
        return self.state.cross_weights(self.view.s_minus)

    @cached_property
    def splits_core(self) -> bool:
        """Split-core-half test (if_6): both core halves are sparse cuts."""
        return max(self.phi_plus, self.phi_plus_bar) <= \
            self.state.split_threshold()

    @cached_property
    def shrinks_core_late(self) -> bool:
        """Late core-shrink test (if_7)."""
        return self.plus_is_small and self.rel_plus <= self.state.rel_threshold()

    @cached_property
    def moves_rest(self) -> bool:
        """S\\C sends more weight to another cluster than to its own."""
        return self.state.cond1_fires(self.cross_minus, self.i)

    @cached_property
    def moves_late(self) -> bool:
        """Late move test (if_8)."""
        return bool(self.view.s_minus.size) and self.minus_is_small and \
            self.moves_rest

    def split_core(self, tag: str) -> str:
        return self.state.apply_split(self.i, removed=self.view.s_plus_bar,
                                      new_core=self.view.s_plus, tag=tag)

    def shrink_core(self, tag: str) -> str:
        """Keep the lower-conductance core half; ties go to the larger
        volume, then the lower minimum vertex id."""
        a, b = self.view.s_plus, self.view.s_plus_bar
        if self.phi_plus != self.phi_plus_bar:
            keep = a if self.phi_plus < self.phi_plus_bar else b
        else:
            va, vb = volume(self.G, a), volume(self.G, b)
            if va != vb:
                keep = a if va > vb else b
            else:
                keep = a if a.min() <= b.min() else b
        return self.state.apply_core_shrink(self.i, keep, tag=tag)

    def move_rest(self, tag: str) -> str:
        target = self.state.move_target(self.cross_minus, self.i)
        return self.state.apply_move(self.i, self.view.s_minus, target, tag=tag)


def _critical_candidates(state: _State, i: int,
                         ) -> list[tuple[np.ndarray, _Candidate]]:
    """One candidate per critical node of cluster i's degree tree, in their
    canonical order, each with the node's leaves as local ids."""
    info = state.tree_of(i)
    if info.crit is None:
        return []
    locals_ = [info.tree.leaves_under(node) for node in info.crit.nodes]
    return [(local, _Candidate(state, i, info.P[local])) for local in locals_]


def _move_noncore(state: _State, i: int) -> str | None:
    cross = state.cond1_cross(i)
    if not state.cond1_fires(cross, i):
        return None
    D = np.setdiff1d(state.sets[i], state.cores[i], assume_unique=True)
    return state.apply_move(i, D, state.move_target(cross, i),
                            tag="move-noncore")


def _try_refine(state: _State, i: int, S: np.ndarray) -> str | None:
    """Run the five refinement cases for cluster i and sweep set S; apply the
    first that fires and name it, or return None."""
    G = state.G
    cand = _Candidate(state, i, S)
    view = cand.view
    if cand.splits_core:
        return cand.split_core("split-core-half")
    rel_plus_bar = relative_conductance(G, view.s_plus_bar, state.cores[i])
    if min(cand.rel_plus, rel_plus_bar) <= state.rel_threshold():
        return cand.shrink_core("core-shrink")
    if set_conductance(G, view.s_minus) <= state.split_threshold():
        return state.apply_split(i, removed=view.s_minus, new_core=None,
                                 tag="split-outside-core")
    fired = _move_noncore(state, i)
    if fired:
        return fired
    if view.s_minus.size and cand.moves_rest:
        return cand.move_rest("move-sweep-rest")
    return None


def _scan_late_refinements(state: _State) -> str | None:
    """The three critical-node refinements run when the sweep loop is quiet.

    Clusters are scanned in index order; within a cluster, critical nodes in
    their canonical order. The first firing predicate is applied.
    """
    cands = [cand for i in range(state.r) if state.sets[i].size >= 2
             for _, cand in _critical_candidates(state, i)]
    for cand in cands:
        if cand.splits_core:
            return cand.split_core("late-split-core-half")
    for cand in cands:
        if cand.shrinks_core_late:
            return cand.shrink_core("late-core-shrink")
    for cand in cands:
        if cand.moves_late:
            return cand.move_rest("late-move")
    return None


def strong_decomposition(G: Graph, k: int, params: DecompParams | None = None,
                         c0: float = 1.0, phi_in_mode: str = "practical",
                         ) -> tuple[Partition, dict]:
    """Partition G into at most k clusters with certified cores.

    Deterministic for a given graph and parameter set (the eigensolver uses
    a fixed starting vector). Returns the partition and an audit report; the
    report carries the final predicate evaluations, per-cluster conductance
    measurements, and run metadata including whether the loop stalled
    (possible only in practical mode, where phi_in is inflated beyond what
    the refinement analysis assumes).
    """
    if params is None:
        params = derive_params(G, k, c0=c0, phi_in_mode=phi_in_mode)
    state = _State(G, k, params)
    state._check_invariants()
    stalled = False
    while True:
        if state.iterations >= params.max_iterations:
            raise DecompositionError(
                f"no fixed point after {state.iterations} refinement steps "
                f"(cap {params.max_iterations}); trace tail: {state.trace[-8:]}",
                state.trace)
        fired = None
        candidates = state.cond2_candidates()
        for i, S in candidates:
            fired = _try_refine(state, i, S)
            if fired:
                break
        if fired is None:
            for i in state.lambda2_order():
                fired = _move_noncore(state, i)
                if fired:
                    break
        if fired is None:
            fired = _scan_late_refinements(state)
        if fired is None:
            stalled = bool(candidates)
            break
        state.iterations += 1

    _require(state.r <= k, "refinement produced %d > k = %d clusters",
             state.r, k)
    partition = Partition(tuple(state.sets), tuple(state.cores))
    report = termination_report(G, partition, params, k, _state=state)
    report["iterations"] = state.iterations
    report["stalled"] = stalled
    report["trace_tail"] = state.trace[-20:]
    return partition, report


def termination_report(G: Graph, partition: Partition, params: DecompParams,
                       k: int, _state: _State | None = None) -> dict:
    """Audit a partition against every termination predicate and bound.

    Pure measurement: evaluates the two loop conditions, the three late
    refinement predicates, and per cluster the outer/inner conductance
    bounds plus, for every critical node N of the cluster tree, the
    boundary inequality w(N, V\\P_i) <= 6(k+1) * vol_{G[P_i]}(N) and the
    two stability predicates that the loop's exit guarantees.
    """
    state = _state
    if state is None:
        state = _State(G, k, params, sets=list(partition.sets),
                       cores=list(partition.cores))
    r = state.r
    while_1 = False
    while_2 = bool(state.cond2_candidates())
    if_6 = if_7 = if_8 = False
    clusters = []
    for i in range(r):
        P, core = state.sets[i], state.cores[i]
        cross = state.cond1_cross(i)
        while_1 = while_1 or state.cond1_fires(cross, i)
        info = state.tree_of(i)
        entry = {
            "size": int(P.size),
            "core_size": int(core.size),
            "phi_core": set_conductance(G, core),
            "phi_core_bound": params.phi_out / (k + 1),
            "phi_set": set_conductance(G, P),
            "phi_set_bound": params.phi_out,
            "lambda2_induced": None if math.isinf(info.lambda2) else info.lambda2,
            "inner_certificate": None if math.isinf(info.lambda2)
            else info.lambda2 / 2.0,
            "inner_target": params.phi_in ** 2 / 4.0,
            "critical_nodes": [],
        }
        outside = np.setdiff1d(np.arange(G.n), P, assume_unique=True)
        for local, cand in _critical_candidates(state, i):
            s_minus = cand.view.s_minus
            a3_lhs = cut_weight(G, P[local], outside)
            a3_rhs = 6.0 * (k + 1) * float(info.induced.degrees[local].sum())
            w_minus_in = cut_weight(
                G, s_minus, np.setdiff1d(P, s_minus, assume_unique=True))
            w_minus_out = cut_weight(G, s_minus, outside)
            # node first, so every node's predicate is evaluated
            if_6 = cand.splits_core or if_6
            if_7 = cand.shrinks_core_late or if_7
            if_8 = cand.moves_late or if_8
            entry["critical_nodes"].append({
                "leaves": int(local.size),
                "a3_lhs": a3_lhs,
                "a3_rhs": a3_rhs,
                "a3_ok": a3_lhs <= a3_rhs * (1.0 + _BOUND_RTOL),
                "a4_applicable": cand.plus_is_small,
                "a4_value": cand.rel_plus,
                "a4_ok": (not cand.plus_is_small)
                         or cand.rel_plus >= state.rel_threshold(),
                "a5_applicable": cand.minus_is_small,
                "a5_lhs": w_minus_in,
                "a5_rhs": w_minus_out / (k + 1),
                "a5_ok": (not cand.minus_is_small) or
                         w_minus_in >= w_minus_out / (k + 1) - 1e-12,
            })
        clusters.append(entry)
    return {
        "r": r,
        "k": k,
        "phi_in": params.phi_in,
        "phi_out": params.phi_out,
        "rho_star": params.rho_star,
        "phi_in_mode": params.phi_in_mode,
        "clusters": clusters,
        "predicates": {
            "while_1": while_1,
            "while_2": while_2,
            "if_6": if_6,
            "if_7": if_7,
            "if_8": if_8,
        },
    }
