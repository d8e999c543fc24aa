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
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .degree_hc import hc_with_degrees
from .graph import (Graph, _conductance, _int_array, _member_mask, _volume,
                    induced_subgraph)
from .spectral import (DEFAULT_TOL, SpectralResult, smallest_eigenvalues,
                       spectral_partition)
from .tree import HCTree, critical_nodes

__all__ = [
    "DecompositionError",
    "Partition",
    "DecompParams",
    "derive_params",
    "strong_decomposition",
    "termination_report",
]

DEFAULT_ITERATION_CAP = 10**6
PHI_IN_MODES = ("paper", "practical")
# The analysis constant c_0 of rho* and phi_out (Oveis Gharan & Trevisan).
C0 = 1.0
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
        sets = tuple(_int_array(P, "partition set") for P in self.sets)
        cores = tuple(_int_array(C, "partition core") for C in self.cores)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "cores", cores)
        allv = np.concatenate(sets)
        n = allv.size
        if not np.array_equal(np.sort(allv), np.arange(n)):
            raise ValueError("sets must partition the vertex range 0..n-1")
        labels = self.labels
        for i, C in enumerate(cores):
            if C.size == 0:
                raise ValueError("cores must be nonempty")
            if C.min() < 0 or C.max() >= n or (labels[C] != i).any():
                raise ValueError("each core must be contained in its set")
            if np.unique(C).size < C.size:
                raise ValueError("core ids must be distinct")

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
    """Derived thresholds steering the refinement loop, and the whole
    graph's spectrum they were read from.

    ``spectrum`` holds at least k+1 pairs; unless its lambda_2 is zero,
    the loop's view of the whole vertex set sweeps its second vector
    instead of solving the graph again. It takes no part in ``==`` or
    ``repr``.
    """

    k: int
    lambda_k: float
    lambda_k1: float
    rho_star: float
    phi_in: float
    phi_out: float
    max_iterations: int
    phi_in_mode: str
    spectrum: SpectralResult = field(compare=False, repr=False)


def _boundary(G: Graph, S: np.ndarray, P: np.ndarray) -> tuple[float, float]:
    """``(w(S, P\\S), w(S, V\\P))`` for vertex masks ``S ⊆ P``, in one pass.

    The first sums the edges with one end in S and the other in P\\S, the
    second those with one end in S and the other outside P, each in edge
    order.
    """
    u, v = G.edges_u, G.edges_v
    crosses = S[u] != S[v]
    inside = P[u] & P[v]
    return (float(G.edges_w[crosses & inside].sum()),
            float(G.edges_w[crosses & ~inside].sum()))


def _relative_conductance(G: Graph, S: np.ndarray, P: np.ndarray) -> float:
    """How much of S's boundary stays inside P, volume-adjusted, for vertex
    masks ``S ⊆ P``.

    ``w(S -> P) / ((vol(P\\S)/vol(P)) * w(S -> V\\P))``; degenerate
    denominators (S empty or all of P, P without outgoing edges) give 1.
    Both weights come from :func:`_boundary`: w(S -> P) sums the edges
    from S into P\\S and w(S -> V\\P) those leaving P, in edge order.
    """
    vol_p = _volume(G, P)
    vol_rest = vol_p - _volume(G, S)
    w_in, w_out = _boundary(G, S, P)
    if vol_p == 0.0 or vol_rest == 0.0 or w_out == 0.0:
        return 1.0
    return w_in / ((vol_rest / vol_p) * w_out)


def derive_params(G: Graph, k: int, phi_in_mode: str = "practical",
                  eigs: SpectralResult | None = None) -> DecompParams:
    """Compute the threshold set for a k-cluster run.

    ``phi_in_mode='paper'`` uses the analysis value lambda_{k+1}/(140(k+1)^2);
    'practical' raises it to at least 2*lambda_k, which is what makes the
    sweep-driven refinement act at experiment scale.

    ``eigs``, when it holds at least k+1 pairs, replaces the solve. It must
    be G's own pairs: it becomes ``spectrum``, whose second vector is the
    decomposition's first sweep.
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
    if lambda_k <= DEFAULT_TOL:
        lambda_k = 0.0
    lambda_k1 = float(eigs.eigenvalues[k])
    if lambda_k1 <= DEFAULT_TOL:
        raise ValueError(f"graph has at least {k + 1} near-disconnected "
                         f"parts (lambda_{k + 1} = {lambda_k1:.3g} <= "
                         f"{DEFAULT_TOL:g})")
    rho_star = min(lambda_k1 / 10.0, 30.0 * C0 * (k + 1) ** 5 * math.sqrt(lambda_k))
    phi_in = lambda_k1 / (140.0 * (k + 1) ** 2)
    if phi_in_mode == "practical":
        phi_in = max(phi_in, 2.0 * lambda_k)
    phi_out = 90.0 * C0 * (k + 1) ** 6 * math.sqrt(lambda_k)
    max_iterations = DEFAULT_ITERATION_CAP
    if G.w_min is not None:
        max_iterations = min(max_iterations,
                             math.ceil(k * G.n * G.total_volume / G.w_min))
    return DecompParams(k=k, lambda_k=lambda_k, lambda_k1=lambda_k1,
                        rho_star=rho_star, phi_in=phi_in, phi_out=phi_out,
                        max_iterations=max_iterations,
                        phi_in_mode=phi_in_mode, spectrum=eigs)


def _per_state(method):
    """Memoise ``method(state, *args)`` until the state's next ``apply_*``."""
    def memoized(state, *args):
        key = (method.__name__, *args)
        if key not in state._memo:
            state._memo[key] = method(state, *args)
        return state._memo[key]
    return memoized


class _Critical(NamedTuple):
    """One critical node N of a cluster tree on P, measured."""

    node: int
    mask: np.ndarray    # N's leaves as a vertex mask of G
    w_out: float        # w(N, V \ P) in G
    vol_in: float       # vol(N) in G[P]


@dataclass
class _ClusterInfo:
    """Cached view of one cluster; tree and critical nodes on first use."""

    G: Graph
    P: np.ndarray       # ascending vertex ids
    induced: Graph
    lambda2: float
    sweep_local: np.ndarray | None
    phi_max: float | None

    @cached_property
    def tree(self) -> HCTree:
        return hc_with_degrees(self.induced)

    @cached_property
    def critical(self) -> tuple[_Critical, ...]:
        """The critical nodes of ``tree``, in canonical order; none for a
        single vertex."""
        if self.induced.n < 2:
            return ()
        in_p = _member_mask(self.G, self.P)
        out = []
        for node in critical_nodes(self.induced, self.tree):
            local = self.tree.leaves_under(node)
            in_n = _member_mask(self.G, self.P[local])
            out.append(_Critical(int(node), in_n,
                                 _boundary(self.G, in_n, in_p)[1],
                                 float(self.induced.degrees[local].sum())))
        return tuple(out)


class _State:
    """Mutable working partition plus caches and progress checks: cluster i
    is ``label == i``, its core ``(label == i) & in_core`` and its view,
    once built, ``views[i]``; an ``apply_*`` drops the views of the
    clusters whose vertices it moves."""

    def __init__(self, G: Graph, params: DecompParams,
                 sets: Sequence[np.ndarray] | None = None,
                 cores: Sequence[np.ndarray] | None = None):
        self.G = G
        self.params = params
        if sets is None:
            sets = cores = [np.arange(G.n)]
        self.r = len(sets)
        self.label = _cluster_labels(sets, G.n)
        self.in_core = _member_mask(G, np.concatenate(cores))
        self.views: list[_ClusterInfo | None] = [None] * self.r
        self._memo: dict[tuple, object] = {}
        self.trace: list[dict] = []
        self.iterations = 0

    # -- cached per-cluster views ------------------------------------------

    @_per_state
    def member(self, i: int) -> np.ndarray:
        return self.label == i

    @_per_state
    def core(self, i: int) -> np.ndarray:
        return self.member(i) & self.in_core

    @property
    def sets(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.member(i)) for i in range(self.r)]

    @property
    def cores(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.core(i)) for i in range(self.r)]

    def info(self, i: int) -> _ClusterInfo:
        if self.views[i] is not None:
            return self.views[i]
        P = np.flatnonzero(self.member(i))
        eigs = self.params.spectrum
        # The whole vertex set is G, already solved by derive_params. With
        # two or more nontrivial components (lambda_2 at zero) the solved
        # pairs are not unique, so that view keeps its own 2-pair solve.
        if P.size == self.G.n and eigs.eigenvalues[1] > DEFAULT_TOL:
            induced = self.G
        else:
            induced = induced_subgraph(self.G, P)
            eigs = smallest_eigenvalues(induced, 2) if induced.n > 1 else None
        if eigs is None:
            info = _ClusterInfo(self.G, P, induced, math.inf, None, None)
        else:
            sweep = spectral_partition(induced, eigs=eigs)
            rest = ~_member_mask(induced, sweep.set)
            phi_max = max(sweep.conductance, _conductance(induced, rest))
            info = _ClusterInfo(self.G, P, induced,
                                float(eigs.eigenvalues[1]), sweep.set, phi_max)
        self.views[i] = info
        return info

    # -- bookkeeping --------------------------------------------------------

    def crossing(self) -> np.ndarray:
        """Mask of the edges whose ends lie in different clusters."""
        return self.label[self.G.edges_u] != self.label[self.G.edges_v]

    def cross_weights(self, D: np.ndarray) -> np.ndarray:
        """Weight from the vertex mask D to each cluster; edges inside D are
        excluded, so entry i is w(D -> P_i) for D's own cluster too."""
        u, v, w = self.G.edges_u, self.G.edges_v, self.G.edges_w
        only_u = D[u] & ~D[v]
        only_v = D[v] & ~D[u]
        out = np.zeros(self.r, dtype=np.float64)
        np.add.at(out, self.label[v[only_u]], w[only_u])
        np.add.at(out, self.label[u[only_v]], w[only_v])
        return out

    def split_threshold(self) -> float:
        p = self.params
        return p.rho_star * (1.0 + 1.0 / (p.k + 1)) ** (self.r + 1)

    def rel_threshold(self) -> float:
        """Relative-conductance level below which a core half is shed."""
        return 1.0 / (3.0 * (self.params.k + 1))

    def lambda2_order(self) -> list[int]:
        lams = np.asarray([self.info(i).lambda2 for i in range(self.r)])
        return [int(i) for i in np.lexsort((np.arange(self.r), lams))]

    @_per_state
    def cond2_candidates(self) -> list[tuple[int, np.ndarray]]:
        """Clusters passing the inner sweep test, in ascending-lambda2 order,
        paired with the candidate mask (swapped so vol(S∩core) stays small)."""
        out = []
        for i in self.lambda2_order():
            info = self.info(i)
            if info.phi_max is None or not info.phi_max < self.params.phi_in:
                continue
            S = _member_mask(self.G, info.P[info.sweep_local])
            core = self.core(i)
            if _volume(self.G, S & core) > _volume(self.G, core) / 2.0:
                S = self.member(i) & ~S
            out.append((i, S))
        return out

    # -- update application -------------------------------------------------

    def _check_invariants(self) -> None:
        p = self.params
        bound = p.rho_star * \
            (1.0 + 1.0 / (p.k + 1)) ** self.r * (1.0 + _BOUND_RTOL) + 1e-12
        for i in range(self.r):
            C = self.core(i)
            _require(C.any(), "a core emptied out")
            phi = _conductance(self.G, C)
            _require(phi <= bound, "core conductance %.6g exceeds its "
                     "invariant bound %.6g", phi, bound)

    def _commit(self, tag: str, i: int, **extra) -> str:
        """Close an ``apply_*`` step on cluster i: drop the memo, trace the
        step and check every core against its bound; returns ``tag``."""
        self._memo.clear()
        self.trace.append({"iteration": self.iterations, "branch": tag,
                           "cluster": i, "r": self.r, **extra})
        if len(self.trace) > 200:
            del self.trace[:100]
        self._check_invariants()
        return tag

    def apply_split(self, i: int, removed: np.ndarray, tag: str) -> str:
        """Make the mask ``removed`` ⊆ P_i a new cluster, all of it core."""
        size = int(np.count_nonzero(removed))
        _require(size > 0, "split removes nothing")
        _require((self.member(i) & ~removed).any(),
                 "split removes the whole cluster")
        self.label[removed] = self.r
        self.in_core[removed] = True
        self.r += 1
        self.views[i] = None
        self.views.append(None)
        return self._commit(tag, i, split_size=size)

    def apply_core_shrink(self, i: int, keep: np.ndarray, tag: str) -> str:
        """Shrink core_i to its part in the mask ``keep``."""
        core = self.core(i)
        kept = int(np.count_nonzero(core & keep))
        _require(0 < kept < np.count_nonzero(core),
                 "core shrink must strictly reduce a nonempty core")
        self.in_core[core & ~keep] = False
        return self._commit(tag, i, core_size=kept)

    def apply_move(self, i: int, moved: np.ndarray, j: int, tag: str) -> str:
        """Move the non-core mask ``moved`` ⊆ P_i to cluster j."""
        size = int(np.count_nonzero(moved))
        _require(size > 0 and i != j, "move needs mass and a target")
        before = self.crossing()
        self.label[moved] = j
        self.views[i] = self.views[j] = None
        after = self.crossing()
        # Decided on the edges whose status changed: a drop below half an
        # ulp of the whole cut would not show in two totals.
        w = self.G.edges_w
        uncut = float(w[before & ~after].sum())
        newly_cut = float(w[after & ~before].sum())
        _require(newly_cut < uncut, "mass move failed to reduce cross weight "
                 "(%.6g uncut, %.6g newly cut)", uncut, newly_cut)
        return self._commit(tag, i, moved=size, to=j)



class _Candidate:
    """Cluster i split by a candidate vertex mask S (a sweep cut, the leaves
    of a critical node, or the whole cluster) and its core C:
    ``s_plus = S∩C``, ``s_minus = S\\C``, ``s_plus_bar = C\\S``, each a
    vertex mask. Every measurement the refinement predicates read is
    computed on first use and at most once."""

    def __init__(self, state: _State, i: int, S: np.ndarray):
        self.state, self.G, self.i = state, state.G, i
        self.P, self.core = state.member(i), state.core(i)
        self.s_plus = S & self.core
        self.s_minus = S & ~self.core
        self.s_plus_bar = self.core & ~S

    @cached_property
    def phi_plus(self) -> float:
        return _conductance(self.G, self.s_plus)

    @cached_property
    def phi_plus_bar(self) -> float:
        return _conductance(self.G, self.s_plus_bar)

    @cached_property
    def rel_plus(self) -> float:
        return _relative_conductance(self.G, self.s_plus, self.core)

    @cached_property
    def plus_is_small(self) -> bool:
        """vol(S∩C) <= vol(C)/2, where the late core shrink applies."""
        return _volume(self.G, self.s_plus) <= _volume(self.G, self.core) / 2.0

    @cached_property
    def minus_is_small(self) -> bool:
        """vol(S\\C) <= vol(P)/2, where the late move applies."""
        return _volume(self.G, self.s_minus) <= _volume(self.G, self.P) / 2.0

    @cached_property
    def cross_minus(self) -> np.ndarray:
        return self.state.cross_weights(self.s_minus)

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
        """S\\C is nonempty and sends more weight to another cluster than to
        its own."""
        if not self.s_minus.any():
            return False
        others = np.delete(self.cross_minus, self.i)
        return bool(others.size and others.max() > self.cross_minus[self.i])

    @cached_property
    def moves_late(self) -> bool:
        """Late move test (if_8)."""
        return self.minus_is_small and self.moves_rest

    def split_core(self, tag: str) -> str:
        """Split C\\S off; S∩C stays as cluster i's core."""
        return self.state.apply_split(self.i, self.s_plus_bar, tag=tag)

    def shrink_core(self, tag: str) -> str:
        """Keep the lower-conductance core half; ties go to the larger
        volume, then the lower minimum vertex id."""
        a, b = self.s_plus, self.s_plus_bar
        if self.phi_plus != self.phi_plus_bar:
            keep = a if self.phi_plus < self.phi_plus_bar else b
        else:
            va, vb = _volume(self.G, a), _volume(self.G, b)
            if va != vb:
                keep = a if va > vb else b
            else:
                keep = a if np.argmax(a) <= np.argmax(b) else b
        return self.state.apply_core_shrink(self.i, keep, tag=tag)

    def move_rest(self, tag: str) -> str:
        """Move S\\C to the other cluster receiving the most of its weight,
        ties to the smallest index."""
        cross = self.cross_minus.copy()
        cross[self.i] = -math.inf
        return self.state.apply_move(self.i, self.s_minus,
                                     int(np.argmax(cross)), tag=tag)


@_per_state
def _critical_candidates(state: _State, i: int) -> list[_Candidate]:
    """One candidate per critical node of cluster i's degree tree, in their
    canonical order."""
    owner = weakref.proxy(state)  # the state's memo keeps them: no cycle
    return [_Candidate(owner, i, c.mask) for c in state.info(i).critical]


@_per_state
def _whole_cluster(state: _State, i: int) -> _Candidate:
    """Cluster i as its own candidate, so S\\C is P_i \\ core_i."""
    return _Candidate(weakref.proxy(state), i, state.member(i))


def _move_noncore(state: _State, i: int) -> str | None:
    cand = _whole_cluster(state, i)
    return cand.move_rest("move-noncore") if cand.moves_rest else None


def _try_refine(state: _State, i: int, S: np.ndarray) -> str | None:
    """Run the five refinement cases for cluster i and sweep mask S; apply
    the first that fires and name it, or return None."""
    G = state.G
    cand = _Candidate(state, i, S)
    if cand.splits_core:
        return cand.split_core("split-core-half")
    rel_plus_bar = _relative_conductance(G, cand.s_plus_bar, cand.core)
    if min(cand.rel_plus, rel_plus_bar) <= state.rel_threshold():
        return cand.shrink_core("core-shrink")
    if _conductance(G, cand.s_minus) <= state.split_threshold():
        return state.apply_split(i, cand.s_minus, tag="split-outside-core")
    fired = _move_noncore(state, i)
    if fired:
        return fired
    if cand.moves_rest:
        return cand.move_rest("move-sweep-rest")
    return None


def _scan_late_refinements(state: _State) -> str | None:
    """The three critical-node refinements run when the sweep loop is quiet.

    Clusters are scanned in index order; within a cluster, critical nodes in
    their canonical order (a one-vertex cluster has none). The first firing
    predicate is applied.
    """
    cands = [cand for i in range(state.r)
             for cand in _critical_candidates(state, i)]
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


class _Decomposition(tuple):
    """The ``(partition, report)`` pair every caller unpacks, carrying the
    final clusters' views (partition order) for the prune stage."""

    views: tuple[_ClusterInfo, ...]


def strong_decomposition(G: Graph, params: DecompParams,
                         ) -> tuple[Partition, dict]:
    """Partition G into at most ``params.k`` clusters with certified cores.

    ``params`` comes from :func:`derive_params`. Deterministic for a given
    graph and parameter set (the eigensolver uses a fixed starting
    vector). Returns the partition and an audit report; the report carries
    the final predicate evaluations, per-cluster conductance measurements,
    and run metadata including whether the loop stalled (possible only in
    practical mode, where phi_in is inflated beyond what the refinement
    analysis assumes).
    """
    state = _State(G, params)
    state._check_invariants()
    while True:
        if state.iterations >= params.max_iterations:
            raise DecompositionError(
                f"no fixed point after {state.iterations} refinement steps "
                f"(cap {params.max_iterations}); trace tail: {state.trace[-8:]}",
                state.trace)
        fired = None
        for i, S in state.cond2_candidates():
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
            break
        state.iterations += 1

    _require(state.r <= params.k, "refinement produced %d > k = %d clusters",
             state.r, params.k)
    partition = Partition(tuple(state.sets), tuple(state.cores))
    report = termination_report(G, partition, params, _state=state)
    report["iterations"] = state.iterations
    # nothing fired, so the audit's while_2 read the exit state's memoised
    # candidates: the loop stalled exactly when some sweep test still passed
    report["stalled"] = report["predicates"]["while_2"]
    report["trace_tail"] = state.trace[-20:]
    out = _Decomposition((partition, report))
    out.views = tuple(state.views)
    return out


def termination_report(G: Graph, partition: Partition, params: DecompParams,
                       _state: _State | None = None) -> dict:
    """Audit a partition against every termination predicate and bound.

    Pure measurement: evaluates the two loop conditions, the three late
    refinement predicates, and per cluster the outer/inner conductance
    bounds plus, for every critical node N of the cluster tree, the
    boundary inequality w(N, V\\P_i) <= 6(k+1) * vol_{G[P_i]}(N) and the
    two stability predicates that the loop's exit guarantees, with
    k = ``params.k``.
    """
    k = params.k
    if partition.n != G.n:
        raise ValueError(f"partition covers {partition.n} vertices, graph "
                         f"has {G.n}")
    state = _state
    if state is None:
        state = _State(G, params, partition.sets, partition.cores)
    r = state.r
    while_1 = False
    while_2 = bool(state.cond2_candidates())
    if_6 = if_7 = if_8 = False
    clusters = []
    for i in range(r):
        while_1 = while_1 or _whole_cluster(state, i).moves_rest
        info, in_p, core = state.info(i), state.member(i), state.core(i)
        entry = {
            "size": int(info.P.size),
            "core_size": int(np.count_nonzero(core)),
            "phi_core": _conductance(G, core),
            "phi_core_bound": params.phi_out / (k + 1),
            "phi_set": _conductance(G, in_p),
            "phi_set_bound": params.phi_out,
            "lambda2_induced": None if math.isinf(info.lambda2) else info.lambda2,
            "inner_certificate": None if math.isinf(info.lambda2)
            else info.lambda2 / 2.0,
            "inner_target": params.phi_in ** 2 / 4.0,
            "critical_nodes": [],
        }
        for crit, cand in zip(info.critical, _critical_candidates(state, i)):
            a3_lhs, a3_rhs = crit.w_out, 6.0 * (k + 1) * crit.vol_in
            w_minus_in, w_minus_out = _boundary(G, cand.s_minus, in_p)
            # node first, so every node's predicate is evaluated
            if_6 = cand.splits_core or if_6
            if_7 = cand.shrinks_core_late or if_7
            if_8 = cand.moves_late or if_8
            entry["critical_nodes"].append({
                "leaves": int(info.tree.leaf_count[crit.node]),
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
