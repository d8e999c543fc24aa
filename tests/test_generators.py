"""Seeded graph generator tests: extremes, statistics, determinism."""

import hashlib
import math
import re
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from wellclust import (GenSpec, Graph, PlantedLabels, SweepPoint,
                       compare_sweep, generate, generators, load_labels,
                       save_labels)
from wellclust.generators import (
    FAMILY_PARAMS,
    GENERATOR_FAMILIES,
    gaussian_kernel_graph,
    gen_bridged_two_cluster,
    gen_hsbm,
    gen_planted_clique_expander,
    gen_sbm,
    gen_sbm_planted_cliques,
    gen_sbm_unequal,
)
from oracles import _bernoulli_block_ORACLE, _pair_repair_ORACLE


def adjacency_set(G):
    return {(int(u), int(v)) for u, v in zip(G.edges_u, G.edges_v)}


def all_pairs_present(G, members):
    adj = adjacency_set(G)
    members = sorted(int(v) for v in members)
    return all((members[i], members[j]) in adj
               for i in range(len(members))
               for j in range(i + 1, len(members)))


def block_edge_counts(G, clusters):
    k = int(clusters.max()) + 1
    counts = np.zeros((k, k), dtype=np.int64)
    cu = clusters[G.edges_u]
    cv = clusters[G.edges_v]
    np.add.at(counts, (np.minimum(cu, cv), np.maximum(cu, cv)), 1)
    return counts


def test_sbm_extreme_two_triangles():
    G, labels = gen_sbm([3, 3], 1.0, 0.0, 0)
    assert G.n == 6 and G.m == 6
    assert all_pairs_present(G, [0, 1, 2])
    assert all_pairs_present(G, [3, 4, 5])
    assert block_edge_counts(G, labels.clusters)[0, 1] == 0


def test_sbm_edgeless_and_validation():
    G, _ = gen_sbm([2], 0.0, 0.0, 0)
    assert G.m == 0
    with pytest.raises(ValueError):
        gen_sbm([], 0.5, 0.1, 0)
    with pytest.raises(ValueError):
        gen_sbm([3], 1.5, 0.0, 0)
    with pytest.raises(ValueError):
        gen_sbm([3, 0], 0.5, 0.1, 0)


def test_sbm_intra_count_within_three_sigma():
    G, labels = gen_sbm([100, 100], 0.1, 0.0, 42)
    counts = block_edge_counts(G, labels.clusters)
    mean = 4950 * 0.1
    sigma = np.sqrt(4950 * 0.1 * 0.9)
    for i in (0, 1):
        assert abs(counts[i, i] - mean) <= 3 * sigma
    assert counts[0, 1] == 0


def test_sbm_three_sigma_over_ten_seeds():
    pairs_intra = 60 * 59 // 2
    pairs_cross = 60 * 60
    for seed in range(10):
        G, labels = gen_sbm([60, 60], 0.2, 0.05, seed)
        counts = block_edge_counts(G, labels.clusters)
        for i in (0, 1):
            mean = pairs_intra * 0.2
            sigma = np.sqrt(pairs_intra * 0.2 * 0.8)
            assert abs(counts[i, i] - mean) <= 3 * sigma
        mean = pairs_cross * 0.05
        sigma = np.sqrt(pairs_cross * 0.05 * 0.95)
        assert abs(counts[0, 1] - mean) <= 3 * sigma


def test_hsbm_extreme_disjoint_cliques():
    G, labels = gen_hsbm(1.0, 0.0, 0, size=4)
    assert G.n == 20
    counts = block_edge_counts(G, labels.clusters)
    assert np.all(np.diag(counts) == 6)
    assert counts.sum() == 30


def test_hsbm_q_pattern_statistics():
    size, q_min = 200, 0.01
    G, labels = gen_hsbm(0.5, q_min, 3, size=size)
    counts = block_edge_counts(G, labels.clusters)
    pairs = size * size

    def within(i, j, prob):
        sigma = np.sqrt(pairs * prob * (1 - prob))
        return abs(counts[i, j] - pairs * prob) <= 3 * sigma

    # nested pattern: (0,1) closest, then (0,2),(1,2) and (3,4), the
    # {0,1,2} x {3,4} blocks farthest
    assert within(0, 1, 3 * q_min)
    assert within(0, 2, 2 * q_min) and within(1, 2, 2 * q_min)
    assert within(3, 4, 2 * q_min)
    for i in (0, 1, 2):
        for j in (3, 4):
            assert within(i, j, q_min)


def test_hsbm_rejects_large_qmin():
    with pytest.raises(ValueError):
        gen_hsbm(0.5, 0.4, 0, size=600)


def test_planted_clique_expander_structure():
    G, labels = gen_planted_clique_expander(64, 0)
    assert G.n == 64
    clique = labels.cliques[0]
    assert len(clique) == 16
    assert all_pairs_present(G, clique)
    assert G.degrees.min() >= 8
    assert G.degrees[clique].min() >= 15
    # connectivity: eigenvalue gap of the base graph is asserted at draw
    from wellclust import smallest_eigenvalues
    assert smallest_eigenvalues(G, 2).eigenvalues[1] > 1e-8


def test_planted_clique_expander_degree_spread_grows():
    ratios = []
    for n in (64, 512):
        G, _ = gen_planted_clique_expander(n, 1)
        ratios.append(G.degrees.max() / G.degrees.min())
    assert ratios[1] > ratios[0]


def test_planted_clique_expander_minimum_size():
    with pytest.raises(ValueError):
        gen_planted_clique_expander(20, 0)


def test_bridged_two_cluster_cross_edges():
    G, labels = gen_bridged_two_cluster(64, 0)
    assert G.n == 128
    cu = labels.clusters[G.edges_u]
    cv = labels.clusters[G.edges_v]
    cross = int((cu != cv).sum())
    assert cross == 97
    for cid in (0, 1):
        assert len(labels.cliques[cid]) == 16
        assert np.all(labels.clusters[labels.cliques[cid]] == cid)


def test_bridged_two_cluster_outer_conductance_shrinks():
    phis = []
    for n in (64, 256):
        G, labels = gen_bridged_two_cluster(n, 2)
        side = np.flatnonzero(labels.clusters == 0)
        cu = labels.clusters[G.edges_u]
        cv = labels.clusters[G.edges_v]
        cut = float(G.edges_w[cu != cv].sum())
        phis.append(cut / G.degrees[side].sum())
    assert phis[1] < phis[0]


def test_sbm_planted_cliques_extreme():
    G, labels = gen_sbm_planted_cliques([4, 5], 0.0, 0.0, 1.0, 0)
    assert G.m == 6 + 10
    for cid, members in labels.cliques.items():
        assert len(members) == [4, 5][cid]
        assert all_pairs_present(G, members)
    counts = block_edge_counts(G, labels.clusters)
    assert counts[0, 1] == 0


def test_sbm_planted_cliques_sizes_and_validation():
    _, labels = gen_sbm_planted_cliques([40, 40, 40], 0.2, 0.01, 0.2, 5)
    for cid in (0, 1, 2):
        assert len(labels.cliques[cid]) == 8
    with pytest.raises(ValueError):
        gen_sbm_planted_cliques([10], 0.5, 0.1, 0.0, 0)
    with pytest.raises(ValueError):
        gen_sbm_planted_cliques([10], 0.5, 0.1, 1.5, 0)


def test_sbm_unequal_scaled_sizes():
    G, labels = gen_sbm_unequal(0, c_p=0.005, scale=0.1)
    assert G.n == 300
    assert list(np.bincount(labels.clusters)) == [190, 90, 20]
    assert not labels.cliques


def test_sbm_unequal_block_densities():
    G, labels = gen_sbm_unequal(7, c_p=0.005, scale=0.1)
    counts = block_edge_counts(G, labels.clusters)
    sizes = (190, 90, 20)
    probs = (0.06, 0.06, 0.3)
    for i, (s, p) in enumerate(zip(sizes, probs)):
        pairs = s * (s - 1) // 2
        sigma = np.sqrt(pairs * p * (1 - p))
        assert abs(counts[i, i] - pairs * p) <= 3 * sigma
    for i in range(3):
        for j in range(i + 1, 3):
            pairs = sizes[i] * sizes[j]
            sigma = np.sqrt(pairs * 0.002 * 0.998)
            assert abs(counts[i, j] - pairs * 0.002) <= 3 * sigma


def test_sbm_unequal_scale_validation():
    with pytest.raises(ValueError):
        gen_sbm_unequal(0, c_p=0.1, scale=0.0)
    with pytest.raises(ValueError):
        gen_sbm_unequal(0, c_p=0.1, scale=0.001)


@pytest.mark.filterwarnings("error")
def test_gaussian_kernel_values():
    G = gaussian_kernel_graph([[0.0], [0.0]], 1.0)
    assert G.m == 1 and G.edges_w[0] == 1.0
    G = gaussian_kernel_graph([[0.0], [np.sqrt(2.0)]], 1.0)
    assert G.edges_w[0] == pytest.approx(np.exp(-1.0))
    # 2 sigma^2 underflows to 0, and every squared distance with it
    G = gaussian_kernel_graph([[0.0], [0.0], [1e-300]], 1e-200)
    assert G.m == 3 and (G.edges_w == 1.0).all()
    # 1 / (2 sigma^2) overflows, or only 2 sigma^2 underflows: the
    # duplicates keep weight 1
    for sigma in (1e-160, 1e-170):
        G = gaussian_kernel_graph([[0.0], [0.0], [1.0]], sigma)
        assert list(zip(G.edges_u, G.edges_v, G.edges_w)) == [(0, 1, 1.0)]


@pytest.mark.filterwarnings("error")
def test_gaussian_kernel_measures_far_pairs_in_units_of_sigma():
    """A squared distance past the float range is measured in units of
    sigma. Points 2e154 apart under sigma = 1e160 keep their edge, of
    weight exp(-2e-12), while the finite squared distances keep weight
    exactly 1, as 2 sigma^2 overflows. Points 2e308 apart under
    sigma = 1e300 lie 2e8 sigmas apart: no edge, and no warning."""
    G = gaussian_kernel_graph([[0.0], [1e154], [2e154]], 1e160)
    assert list(zip(G.edges_u.tolist(), G.edges_v.tolist())) == \
        [(0, 1), (0, 2), (1, 2)]
    assert G.edges_w[0] == G.edges_w[2] == 1.0
    assert G.edges_w[1] == pytest.approx(math.exp(-2e-12), rel=1e-15)
    assert gaussian_kernel_graph([[-1e308], [1e308]], 1e300).m == 0


def test_gaussian_kernel_collinear_power():
    G = gaussian_kernel_graph([[0.0], [1.0], [2.0]], 0.7)
    w = {(int(u), int(v)): float(x)
         for u, v, x in zip(G.edges_u, G.edges_v, G.edges_w)}
    assert w[(0, 2)] == pytest.approx(w[(0, 1)] ** 4)


def test_gaussian_kernel_drops_tiny_weights():
    G = gaussian_kernel_graph([[0.0], [8.0]], 1.0)
    assert G.m == 0


def test_gaussian_kernel_validation():
    with pytest.raises(ValueError):
        gaussian_kernel_graph([[0.0], [1.0]], 0.0)
    with pytest.raises(ValueError):
        gaussian_kernel_graph([[0.0]], 1.0)
    with pytest.raises(ValueError):
        gaussian_kernel_graph([[np.inf], [0.0]], 1.0)


def test_generate_dispatch_and_determinism():
    specs = [
        GenSpec("sbm", {"sizes": [10, 10], "p": 0.5, "q": 0.1}, seed=4),
        GenSpec("hsbm", {"p": 0.6, "q_min": 0.02, "size": 8}, seed=4),
        GenSpec("planted_clique_expander", {"n": 30}, seed=4),
        GenSpec("bridged_two_cluster", {"n": 30}, seed=4),
        GenSpec("sbm_planted_cliques",
                {"sizes": [12, 12], "p": 0.4, "q": 0.05, "c_p": 0.5}, seed=4),
        GenSpec("sbm_unequal", {"c_p": 0.1, "scale": 0.02}, seed=4),
        GenSpec("gaussian_kernel",
                {"points": [[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]],
                 "sigma": 1.5}, seed=4),
    ]
    for spec in specs:
        Ga, la = generate(spec)
        Gb, lb = generate(spec)
        assert np.array_equal(Ga.edges_u, Gb.edges_u)
        assert np.array_equal(Ga.edges_v, Gb.edges_v)
        assert np.array_equal(Ga.edges_w, Gb.edges_w)
        if la is not None:
            assert np.array_equal(la.clusters, lb.clusters)
            assert la.n == Ga.n


# A value of the right type for every parameter name in FAMILY_PARAMS, and
# values of the wrong type for each name.
WELL_TYPED = {"sizes": [5, 5], "p": 0.5, "q": 0.1, "q_min": 0.01, "size": 8,
              "n": 30, "c_p": 0.4, "scale": 0.02, "sigma": 1.0,
              "points": [[0.0, 0.0], [1.0, 0.0]]}
_NOT_INT = ["64", 64.0, True, np.bool_(True), None, [64]]
_NOT_REAL = ["0.3", True, np.bool_(False), None, 1j, [0.3]]
WRONG_TYPES = {
    "sizes": [5, "55", [], [5.5, 5], [True, 5], [5, "5"], np.array(5),
              np.array([5.0, 5.0]), {5: 5}],
    "n": _NOT_INT, "size": _NOT_INT,
    **dict.fromkeys(("p", "q", "q_min", "c_p", "scale", "sigma"), _NOT_REAL),
    "points": [5, "0 0", b"00", True, None, np.array(1.0)],
}


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_genspec_checks_each_value_type(family):
    required, optional = FAMILY_PARAMS[family]
    full = {name: WELL_TYPED[name] for name in (*required, *optional)}
    for name in full:
        for bad in WRONG_TYPES[name]:
            with pytest.raises(ValueError, match=f"family '{family}' "
                               f"parameter '{name}' must be "):
                GenSpec(family, {**full, name: bad})
    # numpy scalars and arrays, tuples and an int probability are right
    for name, good in [("sizes", (5, 5)), ("sizes", np.array([5, 5])),
                       ("n", np.int64(30)), ("size", np.int32(8)),
                       ("p", 1), ("q", np.float64(0.1)),
                       ("points", ((0.0,), (1.0,))),
                       ("points", np.zeros((2, 2)))]:
        if name in full:
            GenSpec(family, {**full, name: good})


@pytest.mark.parametrize("family, params, message", [
    ("sbm", {"sizes": 5, "p": 0.3, "q": 0.01},
     "'sizes' must be a nonempty list of ints, got 5"),
    ("sbm", {"sizes": [5.5, 5], "p": 0.3, "q": 0.01},
     "'sizes' must be a nonempty list of ints, got [5.5, 5]"),
    ("sbm", {"sizes": [5, 5], "p": "0.3", "q": 0.01},
     "'p' must be a real number, got '0.3'"),
    ("hsbm", {"p": 0.3, "q_min": "0.01"},
     "'q_min' must be a real number, got '0.01'"),
    ("planted_clique_expander", {"n": "64"}, "'n' must be an int, got '64'"),
    ("sbm", {"sizes": [5, 0], "p": 0.3, "q": 0.01},
     "'sizes' must be a list of positive ints, got [5, 0]"),
    ("hsbm", {"p": 0.3, "q_min": 0.4}, "'q_min' must be in [0, 1/3], got 0.4"),
    ("planted_clique_expander", {"n": 20}, "'n' must be at least 27, got 20"),
    ("sbm_unequal", {"c_p": 0.1, "scale": math.inf},
     "'scale' must be positive and finite, got inf"),
    ("gaussian_kernel", {"points": [[0.0], [1.0]], "sigma": math.nan},
     "'sigma' must be positive and finite, got nan"),
], ids=["sizes-int", "sizes-floats", "p-str", "q_min-str", "n-str",
        "sizes-range", "q_min-range", "n-range", "scale-inf", "sigma-nan"])
def test_generate_rejects_a_wrong_type_before_drawing(family, params,
                                                      message):
    # each used to raise TypeError in the generator, or to run on a string;
    # an out-of-range value raised the generator's own message, and a NaN
    # sigma or q_min drew a graph
    with pytest.raises(ValueError) as err:
        generate(GenSpec(family, params))
    assert str(err.value) == f"family '{family}' parameter {message}"


# Values of the right type outside each parameter's range, NaN and the
# infinities among them; an int too large for a float is no finite real.
OUT_OF_RANGE = {
    "sizes": [[5, 0], [-1], (3, -2), np.array([4, 0])],
    "n": [26, 0, -64, np.int64(20)], "size": [0, -1],
    **dict.fromkeys(("p", "q"), [-0.1, 1.5, 2, math.inf, -math.inf, math.nan,
                                 np.float64("nan"), 10**400]),
    "q_min": [-1e-9, 0.34, 1, math.nan, math.inf],
    "c_p": [0, 0.0, 1.01, -0.5, math.nan, math.inf],
    **dict.fromkeys(("scale", "sigma"), [0, 0.0, -1.0, math.inf, -math.inf,
                                         math.nan, np.float32("inf"),
                                         10**400]),
    "points": [],
}


def _direct(family, params):
    """The family's public generator, called on ``params`` directly."""
    if family == "gaussian_kernel":
        return gaussian_kernel_graph(**params)
    return getattr(generators, f"gen_{family}")(seed=1, **params)


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_gen_functions_and_genspec_reject_alike(family):
    """Each parameter has one rule: a direct call raises exactly the
    ValueError that GenSpec raises for the same bad value. Each generator
    used to cast (sizes [5.7, 5] drew [5, 5]), accept NaN or overflow in its
    own way."""
    required, optional = FAMILY_PARAMS[family]
    full = {name: WELL_TYPED[name] for name in (*required, *optional)}
    for name in full:
        for bad in WRONG_TYPES[name] + OUT_OF_RANGE[name]:
            params = {**full, name: bad}
            with pytest.raises(ValueError, match=f"^family '{family}' "
                               f"parameter '{name}' must be ") as built:
                GenSpec(family, params)
            with pytest.raises(ValueError) as direct:
                _direct(family, params)
            assert str(direct.value) == str(built.value)
    _direct(family, full)


def test_int_parameters_draw_their_float_forms_graph():
    """An int probability reads as its float. An int q_min of 0 used to
    make hsbm's probability matrix int64, so p truncated to 0 and the graph
    had no edge."""
    hsbm = {"p": 0.3, "size": 20}
    for as_int, as_float in [
            (lambda: gen_sbm([6, 6], 1, 0, 3),
             lambda: gen_sbm([6, 6], 1.0, 0.0, 3)),
            (lambda: gen_hsbm(0.3, 0, 7, size=20),
             lambda: gen_hsbm(0.3, 0.0, 7, size=20)),
            (lambda: generate(GenSpec("hsbm", {**hsbm, "q_min": 0}, 7)),
             lambda: generate(GenSpec("hsbm", {**hsbm, "q_min": 0.0}, 7))),
            (lambda: gen_sbm_planted_cliques([4, 5], 0, 0, 1, 2),
             lambda: gen_sbm_planted_cliques([4, 5], 0.0, 0.0, 1.0, 2))]:
        G, labels = as_int()
        assert G.m > 0
        assert _instance_digest(G, labels) == _instance_digest(*as_float())


_NOT_A_PARAMETER = st.sampled_from(["1", None, True, [1], b"x", 1j])
_ANY_REAL = st.one_of(st.floats(), st.sampled_from([-1, 0, 1, 2, 10**400]))
# Each parameter draws a value in its range or any value of its type (NaN,
# the infinities and an int too large for a float among them). The sizes
# are bounded so that no draw allocates a large graph: at most four blocks
# of 12, an hsbm block of 12, n up to 60 and a scale up to 0.05 (blocks of
# 95, 45 and 10).
_PARAM_VALUES = {
    "sizes": st.one_of(st.lists(st.integers(1, 12), min_size=1, max_size=4),
                       st.lists(st.integers(-1, 12), max_size=4)),
    "n": st.one_of(st.integers(27, 60), st.integers(-3, 60)),
    "size": st.one_of(st.integers(1, 12), st.integers(-2, 12)),
    **dict.fromkeys(("p", "q", "c_p"), st.one_of(st.floats(0, 1), _ANY_REAL)),
    "q_min": st.one_of(st.floats(0, 1 / 3), _ANY_REAL),
    "scale": st.one_of(st.floats(0.0025, 0.05), st.floats(max_value=0.05),
                       st.sampled_from([math.nan, math.inf, 10**400])),
    "sigma": st.one_of(st.floats(0.01, 10), _ANY_REAL),
    "points": st.one_of(
        st.lists(st.lists(st.floats(-10, 10), min_size=2, max_size=2),
                 min_size=2, max_size=6),
        st.lists(st.lists(st.floats(), max_size=2), max_size=6)),
}


@st.composite
def gen_specs(draw):
    """A family, a value for each of its parameters (one in ten of another
    type) and a seed."""
    family = draw(st.sampled_from(GENERATOR_FAMILIES))
    required, optional = FAMILY_PARAMS[family]
    params = {name: draw(_PARAM_VALUES[name] if draw(st.integers(0, 9))
                         else _NOT_A_PARAMETER)
              for name in (*required, *optional)}
    return family, params, draw(st.integers(-1, 2**64))


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(gen_specs())
def test_generate_returns_a_graph_or_raises_value_error(case):
    """Whatever the values, a spec either draws a graph or is rejected
    with ValueError; any other error is a bug."""
    try:
        G, labels = generate(GenSpec(*case))
    except ValueError:
        return
    assert isinstance(G, Graph)
    assert np.all(np.isfinite(G.edges_w)) and np.all(G.edges_w > 0)
    assert labels is None or labels.n == G.n


def test_genspec_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'erdos'"):
        GenSpec("erdos", {})
    # A spec is checked against the family's row of the table when it is
    # built, so a bad one never reaches a generator.
    everything = {name for required, optional in FAMILY_PARAMS.values()
                  for name in (*required, *optional)}
    for family, (required, optional) in FAMILY_PARAMS.items():
        full = {name: WELL_TYPED[name] for name in (*required, *optional)}
        GenSpec(family, full)
        for name in required:
            with pytest.raises(ValueError, match=f"family '{family}' "
                               f"requires parameter '{name}'"):
                GenSpec(family, {k: v for k, v in full.items() if k != name})
        for name in sorted(everything - set(full)) + ["seed"]:
            with pytest.raises(ValueError, match=f"family '{family}' "
                               f"does not take parameter '{name}'"):
                GenSpec(family, {**full, name: 0})


def test_generate_fills_the_table_defaults():
    # hsbm's q_min default lives only in FAMILY_PARAMS
    spec = GenSpec("hsbm", {"p": 0.3, "size": 20}, seed=7)
    assert _instance_digest(*generate(spec)) == \
        _instance_digest(*gen_hsbm(0.3, 0.0005, 7, size=20))


def test_seed_changes_output():
    Ga, _ = gen_sbm([20, 20], 0.3, 0.05, 1)
    Gb, _ = gen_sbm([20, 20], 0.3, 0.05, 2)
    assert not (Ga.m == Gb.m
                and np.array_equal(Ga.edges_u, Gb.edges_u)
                and np.array_equal(Ga.edges_v, Gb.edges_v))


def test_labels_roundtrip_with_cliques(tmp_path):
    _, labels = gen_sbm_planted_cliques([8, 8], 0.5, 0.1, 0.5, 3)
    path = str(tmp_path / "labels.txt")
    save_labels(path, labels)
    back = load_labels(path)
    assert np.array_equal(back.clusters, labels.clusters)
    assert set(back.cliques) == set(labels.cliques)
    for cid in labels.cliques:
        assert np.array_equal(back.cliques[cid], labels.cliques[cid])
    first = open(path).readline().split()
    assert len(first) == 3


def test_labels_roundtrip_plain(tmp_path):
    _, labels = gen_sbm([5, 5], 0.5, 0.1, 3)
    path = str(tmp_path / "labels.txt")
    save_labels(path, labels)
    back = load_labels(path)
    assert np.array_equal(back.clusters, labels.clusters)
    assert not back.cliques
    assert len(open(path).readline().split()) == 2


def test_labels_load_validation(tmp_path):
    """Every error names the file, and the line when one line is at fault."""
    bad = tmp_path / "bad.txt"
    prefix = re.escape(str(bad))
    for text, where in [("0 0\n2 1\n", ""),       # vertex 1 missing
                        ("0 0 1 9\n", ":1"),       # too many columns
                        ("0 0\n1 x\n", ":2"),      # not an integer
                        ("0 0 1\n1 1\n", ":2"),    # columns change
                        ("0 0 2\n1 0 1\n", ":1"),  # clique flag not 0 or 1
                        ("0 0\n1 -1\n", ":2"),     # negative cluster id
                        ("0 0\n1 1_0\n", ":2"),    # Python's digit separator
                        ("", "")]:
        bad.write_text(text)
        with pytest.raises(ValueError, match=rf"^{prefix}{where}: "):
            load_labels(str(bad))


def test_labels_load_skips_blank_lines(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0 1 1\n1 1 1\n2 0 0\n")
    want = load_labels(str(path))
    path.write_text("0 1 1\n\n1 1 1\n \t\n2 0 0\n")
    got = load_labels(str(path))
    assert np.array_equal(got.clusters, want.clusters)
    assert got.cliques.keys() == want.cliques.keys() == {1}
    assert np.array_equal(got.cliques[1], want.cliques[1])


def test_planted_labels_validation():
    with pytest.raises(ValueError):
        PlantedLabels(np.array([0, 1]), {0: np.array([1])})
    with pytest.raises(ValueError):
        PlantedLabels(np.array([-1, 0]))
    with pytest.raises(ValueError, match="^cluster ids must be nonnegative$"):
        PlantedLabels([-1, 0])
    with pytest.raises(ValueError,
                       match="^cluster labels must be a nonempty 1-d array$"):
        PlantedLabels([])
    with pytest.raises(ValueError, match="^cluster labels must be integers"):
        PlantedLabels(np.array([0, 1.5, 1]))
    with pytest.raises(ValueError, match="^clique 0 members must be integers"):
        PlantedLabels(np.array([0, 0, 0]), {0: [0.5, 1]})


@pytest.mark.parametrize("seed", [1.7, "3", True, np.float64(2.0), -1, 2**64])
def test_genspec_checks_its_seed_when_built(seed):
    """A seed breaking the integer rule or outside [0, 2**64) fails when
    the spec is built, before any draw, so a sweep over it gives
    ValueError rows rather than another seed's instance."""
    params = {"sizes": [5, 5], "p": 0.5, "q": 0.1}
    with pytest.raises(ValueError,
                       match="^seed must be a 64-bit unsigned integer$"):
        GenSpec("sbm", params, seed)
    rows = compare_sweep([SweepPoint("sbm", params)], ("degrees",), [seed])
    assert [r["status"] for r in rows] == ["error:ValueError", "error:empty"]
    assert GenSpec("sbm", params, np.uint64(2**64 - 1)).seed == 2**64 - 1


def test_planted_labels_keep_their_own_cliques_dict():
    given = {0: [2, 1]}
    labels = PlantedLabels(np.array([0, 0, 0]), given)
    assert type(given[0]) is list and given == {0: [2, 1]}
    assert labels.cliques is not given
    assert labels.cliques[0].dtype == np.int64
    assert labels.cliques[0].tolist() == [2, 1]


def _instance_digest(G, labels):
    h = hashlib.sha256()
    for a in (G.edges_u, G.edges_v, G.edges_w, labels.clusters):
        h.update(np.ascontiguousarray(a).tobytes())
    for cid in sorted(labels.cliques):
        h.update(np.int64(cid).tobytes() + labels.cliques[cid].tobytes())
    return h.hexdigest()


# Computed on the commit before the four block-model generators shared
# `_block_graph`, with this file in its tests/ directory, from there:
#   PYTHONPATH=../src python -c 'import test_generators as t; \
#     [print(f, s, t._instance_digest(*t.BLOCK_FAMILIES[f](s))) \
#      for f in t.BLOCK_FAMILIES for s in (0, 7)]'
BLOCK_FAMILIES = {
    "sbm": lambda s: gen_sbm([30, 40, 20], 0.3, 0.02, s),
    "hsbm": lambda s: gen_hsbm(0.3, 0.01, s, size=20),
    "sbm_planted_cliques":
        lambda s: gen_sbm_planted_cliques([30, 40], 0.2, 0.02, 0.3, s),
    "sbm_unequal": lambda s: gen_sbm_unequal(s, 0.2, scale=0.05),
}
BLOCK_DIGESTS = {
    ("sbm", 0): "16e0ae3cbbe737bac104bc30cc30b33362e52dc68bac389616b41465be31960f",
    ("sbm", 7): "c330ef706633fe3f16070795987746edc95040689e21e7e9d2bb035164d546b6",
    ("hsbm", 0): "3cd9cd03c6b5e3433caa443115a1f65d749c5b6db3451fa246b994d670c015cc",
    ("hsbm", 7): "3ee64098f7aaec09dacc8b93efeb9f00812a9d667dc2d3988a34fa31f76f9976",
    ("sbm_planted_cliques", 0):
        "7bbcc5e691fda00d2549785d04a2080aae7e9c5f7e6a871a8b30da6f0f7f7237",
    ("sbm_planted_cliques", 7):
        "ceb75371ec14dd3ceee8296189065d51dfac51cdd963716182c7c078be221759",
    ("sbm_unequal", 0):
        "8e0457ebd1fb27c08c4cca671980016e334cd8f4895fc636f38d029ce018f43a",
    ("sbm_unequal", 7):
        "f05a6607ad353f5ad78a5214d3fdc1bec48bdb6db424d11c9b924f543515f9ca",
}


@pytest.mark.parametrize("family, seed", sorted(BLOCK_DIGESTS))
def test_block_families_pinned(family, seed):
    G, labels = BLOCK_FAMILIES[family](seed)
    assert _instance_digest(G, labels) == BLOCK_DIGESTS[family, seed]


# The two expander families make half of the benchmark's sweep and stall
# there on every seed, so their bytes are pinned too. Computed on the
# commit before these pins were added, from its tests/ directory:
#   PYTHONPATH=../src python -c 'import test_generators as t; \
#     [print(f, s, t._instance_digest(*t.EXPANDER_FAMILIES[f](s))) \
#      for f in t.EXPANDER_FAMILIES for s in (0, 7)]'
# after pasting EXPANDER_FAMILIES into that file.
EXPANDER_FAMILIES = {
    "planted_clique_expander": lambda s: gen_planted_clique_expander(64, s),
    "bridged_two_cluster": lambda s: gen_bridged_two_cluster(64, s),
}
EXPANDER_DIGESTS = {
    ("planted_clique_expander", 0):
        "c4afb6316fc9cb63457e46a65e086fc84f3bc882ee8b2339024b05e0ea34561f",
    ("planted_clique_expander", 7):
        "5337d0789d4e5869dadbff54caca718d2e020966b580f9961a371e2c79fcaa19",
    ("bridged_two_cluster", 0):
        "c5aa7d436ea05f56f3b343826d37a9d80a1c69f1ceaa5d1b766ef4fd753df72e",
    ("bridged_two_cluster", 7):
        "40a0b2928cb3519e2094e7571e95cb096cb3f6e1f9b328c3f5a0266fb169aebe",
}


@pytest.mark.parametrize("family, seed", sorted(EXPANDER_DIGESTS))
def test_expander_families_pinned(family, seed):
    G, labels = EXPANDER_FAMILIES[family](seed)
    assert _instance_digest(G, labels) == EXPANDER_DIGESTS[family, seed]


def _stream_state(rng):
    state = rng.bit_generator.state
    return (state["state"]["counter"].tolist(), state["buffer"].tolist(),
            state["buffer_pos"])


@pytest.mark.parametrize("chunk", [1, 7, 64, generators._DRAW_CHUNK])
def test_chunked_bernoulli_block_matches_whole_draw(monkeypatch, chunk):
    monkeypatch.setattr(generators, "_DRAW_CHUNK", chunk)
    for sizes in ([1], [2], [2, 1], [13, 1], [9, 14], [31], [400]):
        blocks = [np.arange(s) + 5 for s in sizes]
        A, B = blocks[0], blocks[-1]
        for prob in (0.0, 1e-4, 0.3, 1.0):
            ours, theirs = generators._rng(11), generators._rng(11)
            got = generators._bernoulli_block(ours, A, B, prob)
            want = _bernoulli_block_ORACLE(theirs, A, B, prob)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            assert _stream_state(ours) == _stream_state(theirs)
            # The next draw continues the stream at the same position.
            assert ours.random() == theirs.random()


def _stub_draws():
    """``(n, us, vs)`` stub pairings of three kinds: random permutations as
    ``_random_regular`` draws them, all self-loops, and dense draws on at
    most 7 vertices, where many pairings admit no simple graph."""
    for seed in range(1200):
        r = np.random.default_rng(seed)
        if seed % 8 == 6:
            loops = np.repeat(np.arange(int(r.integers(2, 7))),
                              int(r.integers(1, 3)))
            yield int(loops[-1]) + 1, loops, loops.copy()
            continue
        if seed % 8 == 7:
            n = int(r.integers(2, 8))
            d = int(r.integers(1, n + 1))
        else:
            n, d = int(r.integers(8, 65)), int(r.integers(2, 9))
        # one more stub per vertex when n * d is odd, so all pair up
        stubs = r.permutation(np.repeat(np.arange(n), d + n * d % 2))
        yield n, stubs[0::2], stubs[1::2]


def test_pair_repair_matches_oracle():
    """The per-pair count repair gives the per-pair index set repair's
    edges, or its None, and leaves the stream where the latter does."""
    draws = exhausted = 0
    for seed, (n, us, vs) in enumerate(_stub_draws()):
        ours, theirs = generators._rng(seed), generators._rng(seed)
        got = generators._pair_repair(us, vs, n, ours)
        want = _pair_repair_ORACLE(us, vs, n, theirs)
        assert (got is None) == (want is None), seed
        if got is None:
            exhausted += 1
        else:
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), seed
        assert _stream_state(ours) == _stream_state(theirs)
        assert ours.random() == theirs.random()
        draws += 1
    assert draws >= 1000 and exhausted >= 100


def _record_repairs(monkeypatch):
    """Patch ``_pair_repair`` to log whether each call ran out of budget."""
    log, repair = [], generators._pair_repair

    def logged(*args):
        out = repair(*args)
        log.append(out is None)
        return out
    monkeypatch.setattr(generators, "_pair_repair", logged)
    return log


def test_random_regular_redraws_exhausted_stubs(monkeypatch):
    log = _record_repairs(monkeypatch)
    G = generators._random_regular(5, 4, generators._rng(0), 0.1)
    assert log == [True, False]
    assert G.m == 10  # K5, the one 4-regular graph on 5 vertices


def test_random_regular_gives_up_after_20_draws(monkeypatch):
    log = _record_repairs(monkeypatch)
    # K4 is the one 3-regular graph on 4 vertices, and its lambda2 is 4/3
    with pytest.raises(ValueError, match=r"^failed to sample a 3-regular "
                       r"graph with spectral gap >= 2.0 on 4 vertices after "
                       r"20 draws$"):
        generators._random_regular(4, 3, generators._rng(0), 2.0)
    assert len(log) == 20


def test_block_generation_memory_follows_edges():
    tracemalloc.start()
    try:
        G, _ = gen_sbm([3000] * 3, 0.0067, 0.00017, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.m > 0
    assert peak < 24 * 2**20, f"traced generation peak {peak / 2**20:.1f} MB"
