"""Sweep harness tests: row layout, normalization, failure rows, determinism."""

import threading

import numpy as np
import pytest

from wellclust import experiment
from wellclust.experiment import (
    ALGORITHMS,
    CSV_FIELDS,
    SweepPoint,
    checked_cost,
    compare_sweep,
    format_params,
    rows_to_csv,
    run_algorithm,
)
from wellclust.generators import FAMILY_PARAMS, GENERATOR_FAMILIES, gen_sbm
from wellclust.tree import dasgupta_cost

from conftest import complete_graph


SMALL_POINTS = [SweepPoint("sbm", {"sizes": (12, 12), "p": p, "q": 0.05})
                for p in (0.3, 0.4, 0.5)]
FOUR_ALGOS = ("degrees", "prunemerge", "single", "average")


def test_format_params_stable_token():
    token = format_params({"b": True, "a": 0.25, "n": [3, 4], "s": "x",
                           "pts": [[0.0, 0.5], np.array([1.0, 2.0])]})
    assert token == "a=0.25;b=true;n=3|4;pts=0:0.5|1:2;s=x"
    assert "," not in token


def test_run_algorithm_every_kind(k4):
    for algo in ALGORITHMS:
        out = run_algorithm(k4, algo, k=1, seed=5)
        assert out.algo == algo
        assert out.tree.n_leaves == 4
        assert out.cost == checked_cost(k4, out.tree)
        assert out.ms is None


def test_run_algorithm_rejects_unknown(k4):
    with pytest.raises(ValueError, match="unknown"):
        run_algorithm(k4, "ward")


def test_run_algorithm_scores_planted_labels():
    G, labels = gen_sbm([20, 20], 0.6, 0.01, 7)
    out = run_algorithm(G, "prunemerge", k=2, labels=labels)
    assert out.ari == 1.0
    assert out.k == 2


def test_run_algorithm_timing_opt_in(k4):
    assert run_algorithm(k4, "degrees").ms is None
    timed = run_algorithm(k4, "degrees", timing=True)
    assert timed.ms is not None and timed.ms >= 0.0


def test_sweep_row_arithmetic():
    rows = compare_sweep(SMALL_POINTS, FOUR_ALGOS, seeds=(1, 2, 3, 4, 5))
    data = [r for r in rows if r["seed"] != "mean"]
    means = [r for r in rows if r["seed"] == "mean"]
    assert len(data) == 60
    assert len(means) == 12
    for r in data:
        assert r["status"] == "ok"
        assert r["ms"] == ""


def test_sweep_normalizes_against_prunemerge():
    rows = compare_sweep(SMALL_POINTS, FOUR_ALGOS, seeds=(1, 2, 3))
    for r in rows:
        if r["algo"] == "prunemerge" and r["seed"] != "mean":
            assert r["norm_cost"] == "1"
        if r["status"] == "ok" and r["seed"] != "mean":
            assert float(r["norm_cost"]) > 0


def test_sweep_rows_ordered_by_point_then_seed():
    rows = compare_sweep(SMALL_POINTS[:2], ("degrees", "single"),
                         seeds=(4, 9))
    key = [(r["params"], r["seed"], r["algo"]) for r in rows]
    labels = [p.label() for p in SMALL_POINTS[:2]]
    want = [(lab, str(s), a) for lab in labels for s in (4, 9)
            for a in ("degrees", "single")]
    want += [(lab, "mean", a) for lab in labels for a in ("degrees", "single")]
    assert key == want


def test_generator_failure_becomes_rows():
    points = [SweepPoint("sbm", {"sizes": (8, 8), "p": 0.9, "q": 0.1}),
              SweepPoint("sbm", {"sizes": (8, 8), "p": 2.0, "q": 0.1})]
    rows = compare_sweep(points, ("degrees", "single"), seeds=(1, 2))
    assert len(rows) == 12
    bad = [r for r in rows if r["params"].startswith("p=2")]
    assert len(bad) == 6
    for r in bad:
        want = "error:empty" if r["seed"] == "mean" else "error:ValueError"
        assert r["status"] == want
        assert r["cost"] == ""
    good = [r for r in rows if not r["params"].startswith("p=2")]
    assert all(r["status"].startswith("ok") for r in good)


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
def test_missing_parameter_becomes_value_error_rows(family):
    required, _ = FAMILY_PARAMS[family]
    point = SweepPoint(family, dict.fromkeys(required[1:], 1))
    rows = compare_sweep([point], ("degrees", "single"), seeds=(1, 2))
    assert [r["status"] for r in rows] == \
        ["error:ValueError"] * 4 + ["error:empty"] * 2


def test_algorithm_failure_leaves_others_running():
    # five 3-cliques make every eigenvalue past the fifth-from-zero gap
    # degenerate for k=4, so only prunemerge fails on the instance
    points = [SweepPoint("sbm", {"sizes": (3, 3, 3, 3, 3), "p": 1.0,
                                 "q": 0.0})]
    rows = compare_sweep(points, ("prunemerge", "degrees"), seeds=(1,), k=4)
    by = {(r["algo"], r["seed"]): r for r in rows}
    assert by[("prunemerge", "1")]["status"] == "error:ValueError"
    assert by[("degrees", "1")]["status"] == "ok"
    assert by[("degrees", "1")]["cost"] == "78"
    assert by[("degrees", "1")]["norm_cost"] == ""
    assert by[("prunemerge", "mean")]["status"] == "error:empty"


def test_csv_bytes_reproducible_across_reruns():
    kw = dict(points=SMALL_POINTS, algos=FOUR_ALGOS, seeds=(1, 2, 3))
    first = rows_to_csv(compare_sweep(**kw))
    again = rows_to_csv(compare_sweep(**kw))
    assert first == again
    assert first.splitlines()[0] == ",".join(CSV_FIELDS)


def test_sweep_runs_on_the_calling_thread(monkeypatch):
    threads = []
    original = experiment.run_algorithm

    def recorded(G, algo, **kwargs):
        threads.append(threading.get_ident())
        return original(G, algo, **kwargs)

    monkeypatch.setattr(experiment, "run_algorithm", recorded)
    before = threading.active_count()
    compare_sweep(SMALL_POINTS, ("degrees", "random"), seeds=(1, 2, 3))
    assert threads == [threading.get_ident()] * 18
    assert threading.active_count() == before


def test_mean_row_averages_costs():
    rows = compare_sweep(SMALL_POINTS[:1], ("degrees",), seeds=(1, 2, 3))
    data = [float(r["cost"]) for r in rows if r["seed"] != "mean"]
    mean = [r for r in rows if r["seed"] == "mean"][0]
    assert float(mean["cost"]) == pytest.approx(sum(data) / 3)
    assert mean["status"] == "ok:3"


def test_sweep_validation():
    with pytest.raises(ValueError, match="timing"):
        compare_sweep(SMALL_POINTS[:1], ("degrees",), (1,), timing="cpu")
    with pytest.raises(ValueError, match="unknown"):
        compare_sweep(SMALL_POINTS[:1], ("ward",), (1,))
    with pytest.raises(ValueError, match="nonempty"):
        compare_sweep(SMALL_POINTS[:1], ("degrees",), ())


def test_checked_cost_matches_direct(k4):
    T = run_algorithm(k4, "degrees").tree
    assert checked_cost(k4, T) == dasgupta_cost(k4, T)


# the four families of the small_sweep benchmark workload
SWEEP_FAMILIES = [
    SweepPoint("sbm", {"sizes": [50, 50, 50], "p": 0.3, "q": 0.002}),
    SweepPoint("sbm_planted_cliques", {"sizes": [100, 100, 100], "p": 0.06,
                                       "q": 0.002, "c_p": 0.4}),
    SweepPoint("planted_clique_expander", {"n": 256}),
    SweepPoint("bridged_two_cluster", {"n": 256}),
]


def _pipeline_calls(monkeypatch):
    """Count the single-k pipeline runs ``run_algorithm`` starts: each
    derives its params first, which is also where a k too large for the
    graph fails."""
    calls = []
    original = experiment.derive_params

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "derive_params", counted)
    return calls


def _by_key(rows, algo):
    return {(r["family"], r["params"], r["seed"]): r for r in rows
            if r["algo"] == algo}


@pytest.mark.parametrize("points, k, best_k_max, reuses", [
    (SWEEP_FAMILIES, 3, None, True),
    (SWEEP_FAMILIES[:1], 3, 4, False),
    ([SweepPoint("sbm", {"sizes": [4, 4], "p": 1.0, "q": 0.1})], 9, None,
     False),
])
def test_naive_rows_reuse_prunemerge_run(monkeypatch, points, k, best_k_max,
                                         reuses):
    kw = dict(points=points, seeds=(1, 2, 3), k=k, best_k_max=best_k_max)
    calls = _pipeline_calls(monkeypatch)
    pair = compare_sweep(algos=("prunemerge", "naive"), **kw)
    pair_calls = len(calls)
    calls.clear()
    alone = compare_sweep(algos=("naive",), **kw)
    # a standalone naive row runs the pipeline once for its instance
    assert len(calls) == 3 * len(points)
    calls.clear()
    prune = _by_key(compare_sweep(algos=("prunemerge",), **kw), "prunemerge")
    # a reusing naive row adds no run to its prunemerge row's
    assert pair_calls == len(calls) + (0 if reuses else 3 * len(points))
    assert _by_key(pair, "prunemerge") == prune
    naive = _by_key(alone, "naive")
    assert len(naive) == 4 * len(points)
    for key, row in _by_key(pair, "naive").items():
        # norm_cost is the only column that depends on the other rows
        assert {**row, "norm_cost": ""} == naive[key]
        if prune[key]["status"] == "ok" and row["status"] == "ok":
            assert float(row["norm_cost"]) == pytest.approx(
                float(row["cost"]) / float(prune[key]["cost"]), rel=1e-9)
        elif key[2] != "mean":
            assert row["norm_cost"] == ""
    if k == 9:
        assert {r["status"] for r in pair} == {"error:ValueError",
                                               "error:empty"}


def test_reusing_naive_row_is_its_own_timed_op(monkeypatch):
    """A reusing naive row is still one run_algorithm call, timed on the
    work it adds, so its tree and latency stay observable per op."""
    calls = []
    original = experiment.run_algorithm

    def counted(G, algo, **kwargs):
        calls.append((algo, kwargs["_pipeline"] is not None))
        return original(G, algo, **kwargs)

    monkeypatch.setattr(experiment, "run_algorithm", counted)
    rows = compare_sweep(SWEEP_FAMILIES[:1], ("naive", "prunemerge"), (1, 2),
                         k=3, timing="wall")
    assert calls == [("prunemerge", False), ("naive", True)] * 2
    assert all(float(r["ms"]) > 0 for r in rows if r["algo"] == "naive")


def test_naive_op_on_a_reused_run_returns_its_tree():
    """A pipeline run that detached nothing has one tree: a naive op given
    that prunemerge record returns the record's own tree object and cost,
    and folds nothing."""
    G, _ = gen_sbm([50, 50, 50], 0.3, 0.002, 1)
    pm = run_algorithm(G, "prunemerge", k=3)
    assert pm.result.pruned == ()
    naive = run_algorithm(G, "naive", k=3, _pipeline=pm.result)
    assert naive.tree is pm.tree is pm.result.tree
    assert naive.cost == pm.cost
    assert naive.result is pm.result and naive.k == 3
