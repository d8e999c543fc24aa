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
from collections import deque
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
    """Refinement failed to settle, or broke one of its invariants."""


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
    """Mutable working partition plus what outlives a refinement step:
    cluster i is ``label == i``, its core ``(label == i) & in_core`` and its
    view, once built, ``views[i]``; an ``apply_*`` drops the views of the
    clusters whose vertices it moves and traces the step (the last 20)."""

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
        self.trace: deque[dict] = deque(maxlen=20)
        self.iterations = 0

    # -- per-cluster reads ----------------------------------------------------

    def core(self, i: int) -> np.ndarray:
        return (self.label == i) & self.in_core

    @property
    def sets(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.label == i) for i in range(self.r)]

    @property
    def cores(self) -> list[np.ndarray]:
        return [np.flatnonzero(self.core(i)) for i in range(self.r)]

    def info(self, i: int) -> _ClusterInfo:
        if self.views[i] is not None:
            return self.views[i]
        P = np.flatnonzero(self.label == i)
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
        """Close an ``apply_*`` step on cluster i: trace the step and check
        every core against its bound; returns ``tag``."""
        self.trace.append({"iteration": self.iterations, "branch": tag,
                           "cluster": i, "r": self.r, **extra})
        self._check_invariants()
        return tag

    def apply_split(self, i: int, removed: np.ndarray, tag: str) -> str:
        """Make the mask ``removed`` ⊆ P_i a new cluster, all of it core."""
        size = int(np.count_nonzero(removed))
        _require(size > 0, "split removes nothing")
        _require(((self.label == i) & ~removed).any(),
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


class _Step:
    """One refinement step's reads of the state, each built at most once:
    member and core masks, the lambda_2 order, the sweep candidates, and
    the whole-cluster and critical-node candidates. An ``apply_*`` ends the
    step; the next one reads the changed state afresh."""

    def __init__(self, state: _State):
        self.state = state

    @cached_property
    def members(self) -> list[np.ndarray]:
        return [self.state.label == i for i in range(self.state.r)]

    @cached_property
    def cores(self) -> list[np.ndarray]:
        return [P & self.state.in_core for P in self.members]

    @cached_property
    def by_lambda2(self) -> list[int]:
        lams = [self.state.info(i).lambda2 for i in range(self.state.r)]
        return [int(i) for i in np.lexsort((np.arange(len(lams)), lams))]

    @cached_property
    def cond2(self) -> list[tuple[int, np.ndarray]]:
        """Clusters passing the inner sweep test, in ascending-lambda2 order,
        paired with the candidate mask (swapped so vol(S∩core) stays small)."""
        state, out = self.state, []
        for i in self.by_lambda2:
            info = state.info(i)
            if info.phi_max is None or not info.phi_max < state.params.phi_in:
                continue
            S = _member_mask(state.G, info.P[info.sweep_local])
            core = self.cores[i]
            if _volume(state.G, S & core) > _volume(state.G, core) / 2.0:
                S = self.members[i] & ~S
            out.append((i, S))
        return out

    @cached_property
    def whole(self) -> list[_Candidate]:
        """Each cluster as its own candidate, so S\\C is P_i \\ core_i."""
        return [_Candidate(self, i, P) for i, P in enumerate(self.members)]

    @cached_property
    def critical(self) -> list[list[_Candidate]]:
        """Per cluster, one candidate per critical node of its degree tree,
        in their canonical order."""
        return [[_Candidate(self, i, crit.mask) for crit in
                 self.state.info(i).critical] for i in range(self.state.r)]


class _Candidate:
    """Cluster i split by a candidate vertex mask S (a sweep cut, the leaves
    of a critical node, or the whole cluster) and its core C:
    ``s_plus = S∩C``, ``s_minus = S\\C``, ``s_plus_bar = C\\S``, each a
    vertex mask. Every measurement the refinement predicates read is
    computed on first use and at most once. It keeps the step's state, not
    the step, whose cached candidates would otherwise form a cycle."""

    def __init__(self, step: _Step, i: int, S: np.ndarray):
        self.state, self.G, self.i = step.state, step.state.G, i
        self.P, self.core = step.members[i], step.cores[i]
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
    def target(self) -> int:
        """The other cluster receiving the most of S\\C's weight, ties to the
        lowest index; i itself when there is no other cluster."""
        cross = self.cross_minus.copy()
        cross[self.i] = -math.inf
        return int(np.argmax(cross))

    @cached_property
    def moves_rest(self) -> bool:
        """S\\C is nonempty and sends more weight to ``target`` than to its
        own cluster."""
        if not self.s_minus.any():
            return False
        return bool(self.cross_minus[self.target] > self.cross_minus[self.i])

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
        """Move S\\C to ``target``."""
        return self.state.apply_move(self.i, self.s_minus, self.target,
                                     tag=tag)


def _move_noncore(step: _Step, i: int) -> str | None:
    cand = step.whole[i]
    return cand.move_rest("move-noncore") if cand.moves_rest else None


def _try_refine(step: _Step, i: int, S: np.ndarray) -> str | None:
    """Run the five refinement cases for cluster i and sweep mask S; apply
    the first that fires and name it, or return None."""
    state, G = step.state, step.state.G
    cand = _Candidate(step, i, S)
    if cand.splits_core:
        return cand.split_core("split-core-half")
    rel_plus_bar = _relative_conductance(G, cand.s_plus_bar, cand.core)
    if min(cand.rel_plus, rel_plus_bar) <= state.rel_threshold():
        return cand.shrink_core("core-shrink")
    if _conductance(G, cand.s_minus) <= state.split_threshold():
        return state.apply_split(i, cand.s_minus, tag="split-outside-core")
    fired = _move_noncore(step, i)
    if fired:
        return fired
    if cand.moves_rest:
        return cand.move_rest("move-sweep-rest")
    return None


def _scan_late_refinements(step: _Step) -> str | None:
    """The three critical-node refinements run when the sweep loop is quiet.

    Clusters are scanned in index order; within a cluster, critical nodes in
    their canonical order (a one-vertex cluster has none). The first firing
    predicate is applied.
    """
    cands = [cand for per_cluster in step.critical for cand in per_cluster]
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


def _refine(step: _Step) -> str | None:
    """Apply the first refinement that fires on this step and name it, or
    return None: the sweep cases per cluster in ascending-lambda2 order,
    then the non-core moves in that order, then the critical-node cases."""
    for i, S in step.cond2:
        fired = _try_refine(step, i, S)
        if fired:
            return fired
    for i in step.by_lambda2:
        fired = _move_noncore(step, i)
        if fired:
            return fired
    return _scan_late_refinements(step)


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
                f"(cap {params.max_iterations}); trace tail: "
                f"{list(state.trace)[-8:]}")
        step = _Step(state)
        if _refine(step) is None:
            break
        state.iterations += 1

    _require(state.r <= params.k, "refinement produced %d > k = %d clusters",
             state.r, params.k)
    partition = Partition(tuple(state.sets), tuple(state.cores))
    report = termination_report(G, partition, params, _step=step)
    report["iterations"] = state.iterations
    # nothing fired, so the audit's while_2 read the exit step's sweep
    # candidates: the loop stalled exactly when some sweep test still passed
    report["stalled"] = report["predicates"]["while_2"]
    report["trace_tail"] = list(state.trace)
    out = _Decomposition((partition, report))
    out.views = tuple(state.views)
    return out


def termination_report(G: Graph, partition: Partition, params: DecompParams,
                       _step: _Step | None = None) -> dict:
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
    step = _step or _Step(_State(G, params, partition.sets, partition.cores))
    state, r = step.state, step.state.r
    while_1 = False
    while_2 = bool(step.cond2)
    if_6 = if_7 = if_8 = False
    clusters = []
    for i in range(r):
        while_1 = while_1 or step.whole[i].moves_rest
        info, in_p, core = state.info(i), step.members[i], step.cores[i]
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
        for crit, cand in zip(info.critical, step.critical[i]):
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
