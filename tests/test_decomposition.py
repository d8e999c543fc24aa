"""Conductance-driven partition refinement tests."""

import dataclasses
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import wellclust

from wellclust import decomposition
from wellclust import (
    DecompositionError,
    Partition,
    derive_params,
    run_prune_merge,
    strong_decomposition,
    termination_report,
)
from wellclust.decomposition import (PHI_IN_MODES, _Candidate,
                                     _move_noncore, _scan_late_refinements,
                                     _State, _Step, _try_refine)
from wellclust.degree_hc import hc_with_degrees
from wellclust.generators import (GenSpec, gen_bridged_two_cluster,
                                  gen_planted_clique_expander, gen_sbm,
                                  gen_sbm_planted_cliques, generate)
from wellclust.graph import induced_subgraph, set_conductance
from wellclust.metrics import adjusted_rand_index
from wellclust.prune_merge import _prune_cluster
from wellclust.spectral import (SpectralResult, smallest_eigenvalues,
                                spectral_partition)
from wellclust.tree import critical_nodes

from conftest import DUMBBELL_EDGES, cycle_graph, unit_graph, weighted_graph
from oracles import (cut_weight_ORACLE, graph_conductance_exact_ORACLE,
                     prune_condition_ORACLE, relative_conductance_ORACLE)


def set_lists(partition):
    return sorted(sorted(int(v) for v in P) for P in partition.sets)


def test_relative_conductance_worked_example():
    # unit triangle {0,1,2} with one external unit edge at vertex 0:
    # w(S->P)=2, vol(P)=7, vol(P\S)=4, w(S->outside)=1
    G = unit_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert relative_conductance_ORACLE(G, [0], [0, 1, 2]) == \
        pytest.approx(3.5)


def test_relative_conductance_conventions(two_triangles):
    G = two_triangles
    assert relative_conductance_ORACLE(G, [0], [0, 1, 2]) == 1.0
    assert relative_conductance_ORACLE(G, [0, 1, 2], [0, 1, 2]) == 1.0
    with pytest.raises(ValueError):
        relative_conductance_ORACLE(G, [0, 3], [0, 1, 2])


def mask(n, vertices):
    out = np.zeros(n, dtype=bool)
    out[list(vertices)] = True
    return out


def test_candidate_partitions_cluster():
    G = cycle_graph(8)
    P = np.arange(8)
    core = np.array([0, 1, 2, 3])
    state = _State(G, derive_params(G, 2), sets=[P], cores=[core])
    cand = _Candidate(_Step(state), 0, mask(8, [2, 3, 4]))
    assert not (cand.s_plus & cand.s_plus_bar).any()
    assert np.array_equal(cand.s_plus | cand.s_plus_bar, mask(8, core))
    assert np.flatnonzero(cand.s_plus).tolist() == [2, 3]
    assert np.flatnonzero(cand.s_plus_bar).tolist() == [0, 1]
    assert np.flatnonzero(cand.s_minus).tolist() == [4]


def fixed_eigs(n, values):
    values = np.asarray(values, dtype=np.float64)
    return SpectralResult(values, np.zeros((n, len(values))),
                          np.zeros(len(values)))


def test_derive_params_worked_example():
    G = unit_graph(4, [(0, 1), (1, 2), (2, 3)])
    eigs = fixed_eigs(4, [0.0, 0.01, 0.9])
    params = derive_params(G, 2, eigs=eigs, phi_in_mode="paper")
    assert params.rho_star == pytest.approx(0.09)
    assert params.phi_in == pytest.approx(0.9 / 1260.0)
    assert params.phi_out == pytest.approx(90.0 * 3 ** 6 * np.sqrt(0.01))
    practical = derive_params(G, 2, eigs=eigs, phi_in_mode="practical")
    assert practical.phi_in == pytest.approx(0.02)


def test_params_compare_without_their_spectrum(two_triangles):
    own = derive_params(two_triangles, 2)
    shared = derive_params(two_triangles, 2,
                           eigs=smallest_eigenvalues(two_triangles, 5))
    assert own.spectrum.eigenvalues.size == 3
    assert shared.spectrum.eigenvalues.size == 5
    assert own == shared and repr(own) == repr(shared)
    assert "spectrum" not in repr(own)


# the small_sweep benchmark's four families at their benchmark sizes
SWEEP_FAMILIES = [
    ("sbm", {"sizes": [50, 50, 50], "p": 0.3, "q": 0.002}),
    ("sbm_planted_cliques",
     {"sizes": [100, 100, 100], "p": 0.06, "q": 0.002, "c_p": 0.4}),
    ("planted_clique_expander", {"n": 256}),
    ("bridged_two_cluster", {"n": 256}),
]


@pytest.mark.parametrize("family, gen_params", SWEEP_FAMILIES,
                         ids=[f for f, _ in SWEEP_FAMILIES])
def test_first_view_reads_the_derived_spectrum(family, gen_params):
    """The whole-graph view taken from derive_params' k+1 pairs equals a
    fresh 2-pair view: same sweep set and phi_max, lambda_2 to 1e-12."""
    for seed in (20, 21, 22, 23):
        G, _ = generate(GenSpec(family, gen_params, seed))
        info = _State(G, derive_params(G, 3)).info(0)
        eigs = smallest_eigenvalues(G, 2)
        sweep = spectral_partition(G, eigs=eigs)
        rest = np.setdiff1d(np.arange(G.n), sweep.set)
        assert info.induced is G
        assert np.array_equal(info.sweep_local, sweep.set)
        assert info.phi_max == max(sweep.conductance,
                                   set_conductance(G, rest))
        assert abs(info.lambda2 - eigs.eigenvalues[1]) <= 1e-12


def test_derive_params_disconnected_rho_zero(two_triangles):
    params = derive_params(two_triangles, 2)
    assert params.rho_star == 0.0
    assert params.lambda_k <= 1e-8


def test_derive_params_near_disconnected_rejected(two_triangles):
    # only two components, so k = 1 demands a positive lambda_2
    with pytest.raises(ValueError, match="near-disconnected"):
        derive_params(two_triangles, 1)


def test_derive_params_validation(triangle):
    with pytest.raises(ValueError):
        derive_params(triangle, 0)
    with pytest.raises(ValueError):
        derive_params(triangle, 3)
    with pytest.raises(ValueError):
        derive_params(triangle, 1, phi_in_mode="tuned")


def test_derive_params_iteration_budget(triangle):
    params = derive_params(triangle, 1)
    # ceil(k * n * vol / w_min) = 1 * 3 * 6 / 1
    assert params.max_iterations == 18


@pytest.mark.parametrize("edges", [
    [(0, 1, 1e-300), (1, 2, 1e300)],
    [(0, 1, 1e-320), (1, 2, 1.0)],
], ids=["wide", "subnormal"])
def test_derive_params_iteration_budget_past_the_float_range(edges):
    """ceil(k * n * vol / w_min) raised OverflowError once the ratio
    overflowed; the cap stands whenever the bound is not below it."""
    G = weighted_graph(3, edges)
    assert derive_params(G, 1).max_iterations == \
        decomposition.DEFAULT_ITERATION_CAP
    result = run_prune_merge(G, derive_params(G, 2))
    assert result.partition.r == 1
    assert result.decomposition_report["stalled"]
    assert wellclust.best_over_k(G, 2)[1].partition.r == 1


def test_two_components_split_exactly(two_triangles):
    partition, report = strong_decomposition(
        two_triangles, derive_params(two_triangles, 2))
    assert set_lists(partition) == [[0, 1, 2], [3, 4, 5]]
    assert all(v is False for v in report["predicates"].values())
    assert report["stalled"] is False
    for entry in report["clusters"]:
        assert entry["phi_set"] == 0.0


def test_dumbbell_splits_at_the_bridge(dumbbell):
    partition, report = strong_decomposition(dumbbell,
                                             derive_params(dumbbell, 2))
    assert set_lists(partition) == [[0, 1, 2], [3, 4, 5]]
    for entry in report["clusters"]:
        assert entry["phi_set"] == pytest.approx(1.0 / 7.0)
    assert graph_conductance_exact_ORACLE(dumbbell) == pytest.approx(1.0 / 7.0)


def test_planted_blocks_recovered():
    G, labels = gen_sbm([100, 100, 100], 0.3, 0.002, 1)
    partition, report = strong_decomposition(G, derive_params(G, 3))
    assert partition.r == 3
    assert adjusted_rand_index(labels.clusters, partition.labels) >= 0.9
    assert all(v is False for v in report["predicates"].values())


def test_single_cluster_path(triangle):
    partition, report = strong_decomposition(triangle,
                                             derive_params(triangle, 1))
    assert partition.r == 1
    assert sorted(partition.sets[0].tolist()) == [0, 1, 2]
    assert report["r"] == 1


def test_paper_mode_keeps_one_cluster_at_desk_scale():
    G, _ = gen_sbm([100, 100, 100], 0.3, 0.002, 1)
    partition, report = strong_decomposition(
        G, derive_params(G, 3, phi_in_mode="paper"))
    assert partition.r == 1
    assert report["iterations"] == 0
    assert report["stalled"] is False


def test_determinism():
    G, _ = gen_sbm([60, 60], 0.3, 0.01, 9)
    a, _ = strong_decomposition(G, derive_params(G, 2))
    b, _ = strong_decomposition(G, derive_params(G, 2))
    assert len(a.sets) == len(b.sets)
    for Pa, Pb in zip(a.sets, b.sets):
        assert np.array_equal(Pa, Pb)
    for Ca, Cb in zip(a.cores, b.cores):
        assert np.array_equal(Ca, Cb)


def test_partition_structure_invariants():
    G, _ = gen_sbm([80, 80], 0.25, 0.005, 4)
    partition, report = strong_decomposition(G, derive_params(G, 2))
    assert partition.r <= 2
    covered = np.sort(np.concatenate(partition.sets))
    assert np.array_equal(covered, np.arange(G.n))
    for P, C in zip(partition.sets, partition.cores):
        assert C.size > 0
        assert np.isin(C, P).all()
    for entry in report["clusters"]:
        for node in entry["critical_nodes"]:
            assert node["a3_ok"]
            assert node["a4_ok"]
            assert node["a5_ok"]


def test_iteration_cap_raises(dumbbell):
    params = derive_params(dumbbell, 2)
    starved = dataclasses.replace(params, max_iterations=0)
    with pytest.raises(DecompositionError):
        strong_decomposition(dumbbell, starved)


def test_report_is_a_pure_audit(dumbbell):
    partition = Partition(
        (np.array([0, 1, 2]), np.array([3, 4, 5])),
        (np.array([0, 1, 2]), np.array([3, 4, 5])))
    params = derive_params(dumbbell, 2)
    report = termination_report(dumbbell, partition, params)
    assert report["r"] == 2
    for entry in report["clusters"]:
        assert entry["phi_set"] == pytest.approx(1.0 / 7.0)
        for node in entry["critical_nodes"]:
            assert node["a3_ok"]


def test_report_rejects_a_partition_of_another_graph(dumbbell):
    params = derive_params(dumbbell, 2)
    for sets in ((np.arange(3), np.arange(3, 5)),
                 (np.arange(3), np.arange(3, 7))):
        with pytest.raises(ValueError, match="partition covers"):
            termination_report(dumbbell, Partition(sets, sets), params)


def test_partition_type_validation():
    with pytest.raises(ValueError):
        Partition((np.array([0, 1]),), (np.array([], dtype=np.int64),))
    with pytest.raises(ValueError):
        Partition((np.array([0, 1]), np.array([3])), (np.array([0]),
                                                      np.array([3]),))
    with pytest.raises(ValueError):
        Partition((np.array([0, 1]),), (np.array([2]),))
    with pytest.raises(ValueError, match="distinct"):
        Partition((np.array([0, 1, 2]),), (np.array([0, 0, 1]),))
    with pytest.raises(ValueError, match="^partition set must be integers"):
        Partition(([0.0, 1.9], [2, 3, 4]), ([0], [2]))
    with pytest.raises(ValueError, match="^partition core must be integers"):
        Partition(([0, 1], [2, 3, 4]), ([True], [2]))
    whole = Partition(([0.0, 1.0], [2, 3, 4]), ([0], [2.0]))
    assert [P.tolist() for P in whole.sets] == [[0, 1], [2, 3, 4]]
    assert whole.cores[1].dtype == np.int64


@pytest.fixture(scope="module")
def audit_corpus():
    """Stalled, certified and single-cluster runs: SBM 3x300 at p = 0.04
    and 0.12 (seeds 1-2), the bridged pair, the planted-clique expander and
    two blocks with planted cliques."""
    runs = [(gen_sbm([300, 300, 300], p, 0.002, seed)[0], 3)
            for p in (0.04, 0.12) for seed in (1, 2)]
    runs.append((gen_bridged_two_cluster(256, 1)[0], 2))
    runs.append((gen_planted_clique_expander(200, 1)[0], 2))
    runs.append((gen_sbm_planted_cliques([150, 150], 0.06, 0.002, 0.4, 1)[0],
                 2))
    return runs


@pytest.mark.parametrize("mode", PHI_IN_MODES)
def test_loop_report_matches_independent_audit(audit_corpus, mode):
    """The report strong_decomposition builds from its own loop state, less
    the run metadata, serializes exactly like a fresh termination_report of
    the partition (what ``decompose`` prints); the loop stalled exactly
    when its exit state still passes the sweep test (``while_2``)."""
    stalled = set()
    for G, k in audit_corpus:
        params = derive_params(G, k, phi_in_mode=mode)
        partition, report = strong_decomposition(G, params)
        assert report["stalled"] is report["predicates"]["while_2"]
        stalled.add(report["stalled"])
        for key in ("iterations", "stalled", "trace_tail"):
            del report[key]
        audit = termination_report(G, partition, params)
        assert json.dumps(report) == json.dumps(audit)
    # paper mode's small phi_in leaves no sweep test passing at the exit
    assert stalled == ({False} if mode == "paper" else {False, True})


def test_report_measures_critical_nodes_like_the_oracles(audit_corpus):
    """The report's boundary inequality and the prune stage read one
    measurement of each critical node; it must equal an independent cut
    and volume, and the first prune outcome must equal
    prune_condition_ORACLE on a freshly built tree."""
    for G, k in audit_corpus:
        result = run_prune_merge(G, derive_params(G, k))
        for P, entry, outcomes in zip(result.partition.sets,
                                      result.decomposition_report["clusters"],
                                      result.condition_trace):
            induced = induced_subgraph(G, P)
            T = hc_with_degrees(induced)
            if P.size < 2:
                assert entry["critical_nodes"] == [] and outcomes == ()
                continue
            crit = critical_nodes(induced, T)
            outside = np.setdiff1d(np.arange(G.n), P)
            assert len(entry["critical_nodes"]) == len(crit)
            for node, measured in zip(crit, entry["critical_nodes"]):
                local = T.leaves_under(node)
                assert measured["leaves"] == local.size
                assert measured["a3_lhs"] == \
                    cut_weight_ORACLE(G, P[local], outside)
                assert measured["a3_rhs"] == \
                    6.0 * (k + 1) * induced.degrees[local].sum()
            assert outcomes[0] == prune_condition_ORACLE(G, T, crit, P, k)


@pytest.mark.parametrize("sets, cores, apply", [
    ([[0, 1, 2, 3, 4, 5]], [[0, 1, 2, 3, 4, 5]],
     lambda st: st.apply_split(0, mask(6, [3, 4, 5]), "split")),
    ([[0, 1, 2], [3, 4, 5]], [[0, 1, 2], [3, 4, 5]],
     lambda st: st.apply_core_shrink(0, mask(6, [0, 1]), "shrink")),
    ([[0, 1, 2, 3], [4, 5]], [[0, 1, 2], [4, 5]],
     lambda st: st.apply_move(0, mask(6, [3]), 1, "move")),
])
def test_a_step_reads_once_and_the_next_reads_the_apply(dumbbell, sets,
                                                        cores, apply):
    """A step measures its candidates once, so the report can reuse the
    loop's last step; the step made after any change of sets or cores
    reads the new ones."""
    # a loose rho_star keeps the core-conductance invariant out of the way,
    # and phi_in = 10 passes every sweep test
    params = dataclasses.replace(derive_params(dumbbell, 2), rho_star=10.0,
                                 phi_in=10.0)
    state = _State(dumbbell, params, sets=[np.array(P) for P in sets],
                   cores=[np.array(C) for C in cores])
    step = _Step(state)
    reads = (step.critical, step.whole, step.cond2)
    assert step.critical[0] and step.cond2
    assert all(again is first for again, first in
               zip((step.critical, step.whole, step.cond2), reads))
    apply(state)
    fresh = _Step(state)
    assert len(fresh.whole) == state.r == len(fresh.critical)
    for cand in [c for per_cluster in fresh.critical for c in per_cluster] \
            + fresh.whole:
        assert np.array_equal(cand.P, mask(6, state.sets[cand.i]))
        assert np.array_equal(cand.core, mask(6, state.cores[cand.i]))
    for i, S in fresh.cond2:
        assert not (S & ~mask(6, state.sets[i])).any()
    assert np.array_equal(state.label, Partition(
        tuple(state.sets), tuple(state.cores)).labels)


# three unit triangles in a chain: {0,1,2} - {3,4,5} - {6,7,8}
TRIANGLE_CHAIN = [(a, b) for t in (0, 3, 6)
                  for a, b in itertools.combinations(range(t, t + 3), 2)] \
    + [(2, 3), (5, 6)]


@pytest.mark.parametrize("sets, cores, apply, rebuilt", [
    ([range(6), range(6, 9)], [range(6), range(6, 9)],
     lambda st: st.apply_split(0, mask(9, [3, 4, 5]), "split"), {0, 2}),
    ([range(6), range(6, 9)], [range(6), range(6, 9)],
     lambda st: st.apply_core_shrink(0, mask(9, [0, 1, 2]), "shrink"),
     set()),
    ([[0, 1, 2, 3], [4, 5], range(6, 9)], [[0, 1, 2], [4, 5], range(6, 9)],
     lambda st: st.apply_move(0, mask(9, [3]), 1, "move"), {0, 1}),
], ids=["split", "core-shrink", "move"])
def test_views_live_until_their_cluster_changes(sets, cores, apply, rebuilt):
    """A cluster's view (induced graph, sweep, tree, critical nodes) holds
    while its vertex set does: a core shrink keeps every view, a split
    or a move rebuilds only the clusters whose vertices it changed."""
    state = _shrink_state(unit_graph(9, TRIANGLE_CHAIN), sets, cores)
    before = [state.info(i) for i in range(state.r)]
    assert state.views == before
    apply(state)
    assert {i for i, view in enumerate(state.views) if view is None} \
        == rebuilt
    for i, view in enumerate(state.views):
        assert view is None or view is before[i]
    for i in rebuilt:
        assert np.array_equal(state.info(i).P, state.sets[i])


def test_one_vertex_cluster_has_no_solve_no_critical_node_and_no_test(
        monkeypatch):
    G = unit_graph(7, DUMBBELL_EDGES + [(0, 6)])
    params = derive_params(G, 2)
    solved = []
    real = decomposition.smallest_eigenvalues
    monkeypatch.setattr(decomposition, "smallest_eigenvalues",
                        lambda H, k: solved.append(H.n) or real(H, k))
    sets = (np.arange(6), np.array([6]))
    view = _State(G, params, sets, sets).info(1)
    assert solved == []
    assert (view.lambda2, view.sweep_local, view.phi_max) == \
        (math.inf, None, None)
    assert view.critical == () and view.tree.n_leaves == 1
    report = termination_report(G, Partition(sets, sets), params)
    assert solved == [6]    # cluster 0's view, in the audit's own state
    entry = report["clusters"][1]
    assert entry["size"] == 1 and entry["critical_nodes"] == []
    assert entry["lambda2_induced"] is None
    assert entry["inner_certificate"] is None
    pieces, outcomes = _prune_cluster(G, view, 2, 1)
    assert outcomes == []
    assert [(T.leaf_vertex.tolist(), rec)
            for T, rec in pieces] == [([6], None)]


def test_loop_report_reuses_the_last_cross_weights(monkeypatch):
    """The loop's last ``_move_noncore`` pass measured every cluster's cross
    weights on the exit state, so its report measures none; an outside
    audit of the same partition measures them on a fresh state. The loop
    starts at a fixed point where pendant 6 is outside its cluster's core."""
    G = unit_graph(7, DUMBBELL_EDGES + [(0, 6)])
    start = ([np.array([0, 1, 2, 6]), np.array([3, 4, 5])],
             [np.array([0, 1, 2]), np.array([3, 4, 5])])

    class FixedPoint(_State):
        def __init__(self, G, params, sets=None, cores=None):
            super().__init__(G, params,
                             *(start if sets is None else (sets, cores)))

    calls = []
    real_cross = _State.cross_weights
    monkeypatch.setattr(_State, "cross_weights",
                        lambda state, D: calls.append(D) or real_cross(state, D))
    monkeypatch.setattr(decomposition, "_State", FixedPoint)
    real_report = decomposition.termination_report
    in_report = []

    def counted_report(*args, **kwargs):
        before = len(calls)
        out = real_report(*args, **kwargs)
        in_report.append(len(calls) - before)
        return out

    monkeypatch.setattr(decomposition, "termination_report", counted_report)
    # no cond2 candidates, and core halves too dense to split
    params = dataclasses.replace(derive_params(G, 2), phi_in=0.0, rho_star=0.2)
    partition, report = strong_decomposition(G, params)
    assert report["iterations"] == 0
    assert set_lists(partition) == [[0, 1, 2, 6], [3, 4, 5]]
    assert calls and in_report == [0]
    audit = decomposition.termination_report(G, partition, params)
    assert in_report[1] > 0
    for key in ("iterations", "stalled", "trace_tail"):
        del report[key]
    assert json.dumps(report) == json.dumps(audit)


def _shrink_state(G, sets, cores):
    # a loose rho_star keeps the core-conductance invariant out of the way
    params = dataclasses.replace(derive_params(G, 2), rho_star=10.0)
    return _State(G, params, sets=[np.array(P) for P in sets],
                  cores=[np.array(C) for C in cores])


@pytest.mark.parametrize("edges, n, P, core, S, kept", [
    # K4 {0..3} with three edges to non-core 7 (phi 1/4, vol 16) against
    # the triangle {4,5,6} (phi 1/7, vol 7): lower conductance wins.
    ([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5),
      (4, 6), (5, 6), (0, 7), (1, 7), (2, 7)], 8,
     range(8), range(7), [0, 1, 2, 3], [4, 5, 6]),
    # triangle {0,1,2} (1/7, vol 7) against K4 {3..6} with one edge to
    # non-core 7 (2/14, vol 14): equal conductance, larger volume wins.
    ([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6), (4, 5),
      (4, 6), (5, 6), (6, 7)], 8,
     range(8), range(7), [0, 1, 2], [3, 4, 5, 6]),
    # the dumbbell's triangles: equal conductance and volume, so the lower
    # minimum vertex id wins whichever half S names.
    ([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)], 6,
     range(6), range(6), [3, 4, 5], [0, 1, 2]),
    ([(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)], 6,
     range(6), range(6), [0, 1, 2], [0, 1, 2]),
])
def test_shrink_core_tie_rules(edges, n, P, core, S, kept):
    state = _shrink_state(unit_graph(n, edges), [list(P)], [list(core)])
    cand = _Candidate(_Step(state), 0, mask(n, S))
    assert cand.shrink_core("core-shrink") == "core-shrink"
    assert state.cores[0].tolist() == kept
    assert state.trace[-1]["branch"] == "core-shrink"


def test_core_shrink_must_shrink(dumbbell):
    state = _shrink_state(dumbbell, [range(6)], [range(6)])
    for core in (mask(6, range(6)), mask(6, [])):
        with pytest.raises(DecompositionError, match="strictly reduce"):
            state.apply_core_shrink(0, core, "core-shrink")
    assert state.cores[0].tolist() == list(range(6)) and not state.trace


@pytest.mark.parametrize("vertex", [3, 4], ids=["cut-grows", "cut-stays"])
def test_move_must_reduce_cross_weight(dumbbell, vertex):
    """Moving non-core 3 or 4 of {0..4} to {5} cuts 3 or 2 unit edges
    where 2 were cut: a move that does not lower the cut is rejected."""
    state = _shrink_state(dumbbell, [range(5), [5]], [range(3), [5]])
    with pytest.raises(DecompositionError, match="failed to reduce"):
        state.apply_move(0, mask(6, [vertex]), 1, "move")
    assert not state.trace


def test_move_below_an_ulp_of_the_cut_counts():
    """Moving non-core 1 uncuts 2e-9 and cuts 1e-9 while the 1e8 edge
    stays cut: the drop is below half an ulp of the total cut, yet the
    move lowers it and is accepted."""
    G = weighted_graph(4, [(0, 2, 1e8), (0, 1, 1e-9), (1, 3, 2e-9),
                           (2, 3, 1.0)])
    state = _shrink_state(G, [[0, 1], [2, 3]], [[0], [2, 3]])
    state.apply_move(0, mask(4, [1]), 1, "move")
    assert [P.tolist() for P in state.sets] == [[0], [1, 2, 3]]


# Weights over 21 decades: the move-noncore step of this run lowers a
# 7.17e7 cut by about 3.8e-9, below half an ulp (7.5e-9) of the total.
WIDE_RANGE_EDGES = [
    (0, 3, 3.8782440680446135e-09), (0, 5, 1773001017.381962),
    (1, 2, 4.5217795953036595e-11), (1, 5, 71743885.59259473),
    (1, 6, 110084.7982964406), (1, 7, 16655602331.526817),
    (4, 8, 2.0953113946543278e-10), (5, 7, 8.036398898492988e-11),
    (6, 7, 1151873.8953975022), (6, 9, 201.43104004653162),
    (7, 9, 0.0005850784823014175), (7, 10, 3.333429506244352e-11),
    (9, 10, 2.0312616994959482e-11)]


def test_wide_weight_range_decomposes():
    G = weighted_graph(11, WIDE_RANGE_EDGES)
    partition, report = strong_decomposition(G, derive_params(G, 3))
    assert [P.tolist() for P in partition.sets] == \
        [[4, 8], [1, 6, 7, 9, 10], [0, 2, 3, 5]]
    assert "move-noncore" in [e["branch"] for e in report["trace_tail"]]
    assert not report["stalled"]


def clique(vertices, w=1.0):
    return [(a, b, w) for a, b in itertools.combinations(vertices, 2)]


def sweep_refine(step):
    """Cluster 0's sweep candidate through the five sweep-loop cases."""
    return _try_refine(step, 0, dict(step.cond2)[0])


# One crafted state per refinement branch that the benchmark families and
# the rest of the suite never fire, each reached through the predicate
# that selects it. Every state has k = 2, phi_in = 10 (every cluster
# passes the sweep test) and a rho_star under which its cores keep the
# invariant bound while no earlier case fires.
BRANCHES = [
    # light K4 {0..3} pulled by non-core 8, 9 (weight 20) against the heavy
    # K4 {4..7}: the sweep takes {0..3, 8, 9}, whose core half has
    # relative conductance 0.053 <= 1/9; the lower-conductance half stays
    pytest.param(
        10,
        clique(range(4)) + clique(range(4, 8), 50.0)
        + [(3, 4, 1.0), (8, 0, 5.0), (8, 1, 5.0), (9, 2, 5.0), (9, 3, 5.0)],
        [range(10)], [range(8)], 0.1, sweep_refine,
        [list(range(10))], [[4, 5, 6, 7]], {"core_size": 4},
        id="core-shrink"),
    # core K4 {0..3} bridged to the non-core K4 {4..7}: the sweep set has
    # no core vertex, and its non-core part is a sparse cut (phi 1/13)
    pytest.param(
        8, clique(range(4)) + clique(range(4, 8)) + [(3, 4, 1.0)],
        [range(8)], [range(4)], 0.1, sweep_refine,
        [[0, 1, 2, 3], [4, 5, 6, 7]], [[0, 1, 2, 3], [4, 5, 6, 7]],
        {"split_size": 4}, id="split-outside-core"),
    # the dumbbell with non-core 6 in cluster 0, pulled 2 : 1 to cluster 1
    pytest.param(
        7, clique([0, 1, 2]) + clique([3, 4, 5])
        + [(2, 3, 1.0), (6, 3, 1.0), (6, 4, 1.0), (6, 0, 1.0)],
        [[0, 1, 2, 6], [3, 4, 5]], [[0, 1, 2], [3, 4, 5]], 0.2,
        lambda step: _move_noncore(step, 0),
        [[0, 1, 2], [3, 4, 5, 6]], [[0, 1, 2], [3, 4, 5]],
        {"moved": 1, "to": 1}, id="move-noncore"),
    # cluster 0's non-core part {8..11} leans to its own cluster (5 : 2),
    # but the sweep cuts off {8, 9}, which leans to cluster 1 (1 : 2)
    pytest.param(
        12, clique(range(4)) + clique(range(4, 8))
        + [(3, 4, 1.0), (8, 9, 1.0), (8, 0, 1.0), (8, 4, 1.0), (9, 5, 1.0),
           (10, 11, 1.0), (10, 0, 1.0), (10, 1, 1.0), (11, 2, 1.0),
           (11, 3, 1.0)],
        [[0, 1, 2, 3, 8, 9, 10, 11], [4, 5, 6, 7]], [range(4), range(4, 8)],
        0.2, sweep_refine,
        [[0, 1, 2, 3, 10, 11], [4, 5, 6, 7, 8, 9]],
        [[0, 1, 2, 3], [4, 5, 6, 7]], {"moved": 2, "to": 1}, id="move-sweep-rest"),
    # heavy K4 {0..3} bridged to a unit K4 {4..7}, all core: the degree
    # order makes {4..7} a critical node, and both core halves are sparse
    pytest.param(
        8, clique(range(4), 10.0) + clique(range(4, 8)) + [(3, 4, 1.0)],
        [range(8)], [range(8)], 0.1, _scan_late_refinements,
        [[4, 5, 6, 7], [0, 1, 2, 3]], [[4, 5, 6, 7], [0, 1, 2, 3]],
        {"split_size": 4}, id="late-split-core-half"),
    # core path 0 - 1 = 2 with non-core 3 hanging off 0 by weight 20: the
    # critical node {0, 3} holds core vertex 0, tied to the core by 1
    pytest.param(
        4, [(0, 1, 1.0), (1, 2, 30.0), (0, 3, 20.0)],
        [range(4)], [range(3)], 0.25, _scan_late_refinements,
        [[0, 1, 2, 3]], [[1, 2]], {"core_size": 2}, id="late-core-shrink"),
    # triangle {0,1,2} with non-core 3 pulled 2 : 1 to triangle {4,5,6}:
    # the critical node {2, 3} carries 3 over
    pytest.param(
        7, clique([0, 1, 2]) + clique([4, 5, 6])
        + [(3, 0, 1.0), (3, 4, 1.0), (3, 5, 1.0)],
        [[0, 1, 2, 3], [4, 5, 6]], [[0, 1, 2], [4, 5, 6]], 0.2,
        _scan_late_refinements,
        [[0, 1, 2], [3, 4, 5, 6]], [[0, 1, 2], [4, 5, 6]],
        {"moved": 1, "to": 1}, id="late-move"),
]


def _fire_branch(tag, n, triples, sets, cores, rho_star, fire, sets_after,
                 cores_after, extra):
    G = weighted_graph(n, triples)
    params = dataclasses.replace(derive_params(G, 2), rho_star=rho_star,
                                 phi_in=10.0)
    state = _State(G, params, sets=[np.array(P) for P in sets],
                   cores=[np.array(C) for C in cores])
    state._check_invariants()
    assert fire(_Step(state)) == tag
    assert [P.tolist() for P in state.sets] == sets_after
    assert [C.tolist() for C in state.cores] == cores_after
    assert list(state.trace) == [{"iteration": 0, "branch": tag, "cluster": 0,
                            "r": len(sets_after), **extra}]


@pytest.mark.parametrize("n, triples, sets, cores, rho_star, fire, "
                         "sets_after, cores_after, extra", BRANCHES)
def test_refinement_branch(request, n, triples, sets, cores, rho_star, fire,
                           sets_after, cores_after, extra):
    _fire_branch(request.node.callspec.id, n, triples, sets, cores, rho_star,
                 fire, sets_after, cores_after, extra)


def test_sweep_case_moves_the_whole_noncore_part():
    """The move-noncore state through the sweep loop: its cut {0, 6} has
    no sparse core half, sheds no core half and no sparse S\\C, so the
    sweep's fourth case moves all of P\\C before the cut's own rest."""
    (branch,) = [p for p in BRANCHES if p.id == "move-noncore"]
    n, triples, sets, cores, rho_star, _, *after = branch.values

    def fire(step):
        cut = dict(step.cond2)[0]
        assert np.flatnonzero(cut).tolist() == [0, 6]
        return sweep_refine(step)

    _fire_branch("move-noncore", n, triples, sets, cores, rho_star, fire,
                 *after)


def test_report_ignores_the_order_inside_partition_sets():
    """The audit measures each critical node on sorted vertex ids, so a
    partition listing its sets and cores in any order reports the same."""
    G, _ = gen_sbm([40, 40, 40], 0.3, 0.02, 3)
    params = derive_params(G, 3)
    partition, _ = strong_decomposition(G, params)
    rng = np.random.default_rng(0)
    shuffled = Partition(tuple(rng.permutation(P) for P in partition.sets),
                         tuple(rng.permutation(C) for C in partition.cores))
    assert json.dumps(termination_report(G, shuffled, params)) == \
        json.dumps(termination_report(G, partition, params))


def test_runs_free_their_state_by_reference_counting(monkeypatch):
    """Memoised candidates are kept by their state; they must not keep it
    alive in turn, or every state waits for the cycle collector."""
    made = []

    class Watched(_State):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(decomposition, "_State", Watched)
    G = gen_sbm([30, 30, 30], 0.5, 0.01, 1)[0]
    params = derive_params(G, 3)
    gc.disable()
    try:
        partition, report = strong_decomposition(G, params)
        assert report["iterations"] >= 2
        termination_report(G, partition, params)
        # the prune stage keeps the final cluster views, not their state
        assert run_prune_merge(G, params).partition.r == partition.r
        with pytest.raises(DecompositionError, match="no fixed point"):
            strong_decomposition(
                G, dataclasses.replace(params, max_iterations=1))
        assert len(made) == 4 and all(ref() is None for ref in made)
    finally:
        gc.enable()


BROKEN_BOUND_SCRIPT = """
import sys
from wellclust import decomposition
from wellclust.cli import main
from wellclust.generators import gen_sbm
from wellclust.graph import save_graph

assert sys.flags.optimize, "run me under python -O"
decomposition._BOUND_RTOL = -2.0  # every core bound turns negative
G, _ = gen_sbm([20, 20], 0.5, 0.02, 1)
try:
    decomposition.strong_decomposition(G, decomposition.derive_params(G, 2))
except decomposition.DecompositionError as exc:
    print("raised", exc)
save_graph(G, sys.argv[1])
print("exit", main(["decompose", "--graph", sys.argv[1], "--k", "2"]))
"""


def test_invariant_checks_survive_optimize(tmp_path):
    src = str(Path(wellclust.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", BROKEN_BOUND_SCRIPT,
         str(tmp_path / "g.txt")], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("raised core conductance 0 exceeds")
    assert lines[-1] == "exit 2"
    assert "numerical failure: core conductance" in proc.stderr
