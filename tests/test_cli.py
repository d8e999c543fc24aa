"""Command-line behavior: outputs, file round-trips, exit-code contract."""

import csv
import importlib
import json
import re
import subprocess
import sys

import pytest

from wellclust.cli import _flag, _load_points, main
from wellclust.degree_hc import hc_with_degrees
from wellclust.generators import (FAMILY_PARAMS, GENERATOR_FAMILIES, GenSpec,
                                  generate, load_labels)
from wellclust.graph import load_graph, save_graph
from wellclust.spectral import (SpectralConvergenceError, smallest_eigenvalues,
                                spectral_partition)
from wellclust.tree import dasgupta_cost, load_tree, save_tree

from conftest import weighted_graph
from test_decomposition import WIDE_RANGE_EDGES
from test_prune_merge import forced_decomposition, forced_prune_graph

PATH3_GRAPH = "3 2\n0 1 1.0\n1 2 1.0\n"
PATH3_TREE = "leaf 0 0\nleaf 1 1\nleaf 2 2\n3 0 1\n4 3 2\n"
K3_GRAPH = "3 3\n0 1 1.0\n0 2 1.0\n1 2 1.0\n"
TWO_TRIANGLES = ("6 6\n0 1 1.0\n0 2 1.0\n1 2 1.0\n"
                 "3 4 1.0\n3 5 1.0\n4 5 1.0\n")


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "wellclust.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_cost_command(tmp_path):
    g = tmp_path / "g.txt"
    t = tmp_path / "t.txt"
    g.write_text(PATH3_GRAPH)
    t.write_text(PATH3_TREE)
    code, out, _ = run_cli("cost", str(g), str(t))
    assert code == 0
    assert out == "5\n"


def _bridged_triangles(tmp_path):
    """Two triangles joined by a light edge, and their degree tree."""
    g, t = tmp_path / "g.txt", tmp_path / "t.txt"
    g.write_text(TWO_TRIANGLES.replace("6 6\n", "6 7\n") + "2 3 0.5\n")
    G = load_graph(g)
    save_tree(hc_with_degrees(G), str(t))
    return G, g, t


def test_cost_spectrum_sweep_print_the_library_results(tmp_path, capsys):
    G, g, t = _bridged_triangles(tmp_path)
    assert main(["cost", str(g), str(t)]) == 0
    cost = dasgupta_cost(G, load_tree(t))
    assert capsys.readouterr().out == format(cost, ".12g") + "\n"
    assert main(["spectrum", "--graph", str(g), "--k", "3"]) == 0
    spec = smallest_eigenvalues(G, 3)
    assert capsys.readouterr().out == "".join(
        f"{i} {value:.12g} {residual:.3g}\n"
        for i, (value, residual) in enumerate(zip(spec.eigenvalues,
                                                  spec.residuals)))
    assert main(["sweep", "--graph", str(g)]) == 0
    cut = spectral_partition(G)
    assert capsys.readouterr().out == (
        " ".join(str(int(v)) for v in sorted(cut.set)) + "\n"
        + format(cut.conductance, ".12g") + "\n")


def test_run_wall_timing_writes_one_ms_line(tmp_path, capsys):
    G, g, _ = _bridged_triangles(tmp_path)
    assert main(["run", "--graph", str(g), "--algo", "degrees",
                 "--timing", "wall"]) == 0
    captured = capsys.readouterr()
    assert captured.out == format(dasgupta_cost(G, hc_with_degrees(G)),
                                  ".12g") + "\n"
    assert re.fullmatch(r"ms \d+\.\d{3}\n", captured.err)


def test_generate_omitted_optional_flag_takes_its_default(tmp_path, capsys):
    out, want = tmp_path / "g.txt", tmp_path / "want.txt"
    assert main(["generate", "--family", "sbm_unequal", "--c-p", "0.1",
                 "--seed", "3", "--out", str(out)]) == 0
    save_graph(generate(GenSpec("sbm_unequal", {"c_p": 0.1}, 3))[0], str(want))
    assert out.read_bytes() == want.read_bytes()


def test_run_degrees_on_triangle(tmp_path):
    g = tmp_path / "k3.txt"
    g.write_text(K3_GRAPH)
    code, out, _ = run_cli("run", "--graph", str(g), "--algo", "degrees")
    assert code == 0
    assert out == "8\n"


def test_generate_two_triangles_bytes(tmp_path):
    out = tmp_path / "g.txt"
    code, stdout, _ = run_cli("generate", "--family", "sbm", "--sizes", "3,3",
                              "--p", "1", "--q", "0", "--seed", "1",
                              "--out", str(out))
    assert code == 0
    assert out.read_text() == TWO_TRIANGLES
    assert "n=6 m=6" in stdout


def test_generate_writes_labels(tmp_path):
    out = tmp_path / "g.txt"
    lab = tmp_path / "lab.txt"
    code = main(["generate", "--family", "sbm", "--sizes", "3,3", "--p", "1",
                 "--q", "0", "--seed", "1", "--out", str(out),
                 "--labels", str(lab)])
    assert code == 0
    assert lab.read_text() == "0 0\n1 0\n2 0\n3 1\n4 1\n5 1\n"


def test_generate_labels_unavailable(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n1 0\n0 1\n")
    code = main(["generate", "--family", "gaussian_kernel", "--points-file",
                 str(pts), "--sigma", "1.0", "--seed", "1",
                 "--out", str(tmp_path / "g.txt"),
                 "--labels", str(tmp_path / "lab.txt")])
    assert code == 1
    assert "no planted labels" in capsys.readouterr().err


def test_generate_labels_unavailable_writes_no_graph(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n1 0\n0 1\n")
    g, lab = tmp_path / "g.txt", tmp_path / "l.txt"
    code = main(["generate", "--family", "gaussian_kernel", "--points-file",
                 str(pts), "--sigma", "1.0", "--seed", "1", "--out", str(g),
                 "--labels", str(lab)])
    assert code == 1
    assert "no planted labels" in capsys.readouterr().err
    assert not g.exists() and not lab.exists()


def test_run_tree_roundtrip(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text(TWO_TRIANGLES)
    t = tmp_path / "t.txt"
    code = main(["run", "--graph", str(g), "--algo", "average",
                 "--out", str(t)])
    printed = float(capsys.readouterr().out)
    assert code == 0
    assert dasgupta_cost(load_graph(g), load_tree(t)) == printed == 16.0


def test_run_json_with_best_over_k(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text(TWO_TRIANGLES)
    code, out, _ = run_cli("run", "--graph", str(g), "--algo", "prunemerge",
                           "--best-over-k", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"algo": "prunemerge", "cost": 16.0, "k": 2, "ms": None,
                       "r": 2, "stalled": False, "pruned": 0}


@pytest.mark.parametrize("argv", [
    ["run", "--graph", "g.txt", "--algo", "naive"],
    ["run", "--graph", "g.txt", "--algo", "degrees", "--json"],
    ["compare", "--family", "sbm", "--sizes", "10,10", "--p", "0.5",
     "--q", "0.05", "--algos", "naive,degrees", "--out", "c.csv"],
])
def test_best_over_k_needs_prunemerge(tmp_path, monkeypatch, capsys, argv):
    """Only prunemerge tries several k; any other algorithm would run as
    if the flag were absent."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.txt").write_text(TWO_TRIANGLES)
    assert main(argv + ["--best-over-k", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: wellclust {argv[0]} ")
    assert f"wellclust {argv[0]}: error: --best-over-k applies to " \
        "prunemerge" in captured.err
    assert not (tmp_path / "c.csv").exists()


def test_compare_best_over_k_with_prunemerge_among_algos(tmp_path):
    # the prunemerge rows try k = 2..4; naive runs at --k
    out = tmp_path / "c.csv"
    assert main(["compare", "--family", "sbm", "--sizes", "10,10", "--p",
                 "0.5", "--q", "0.05", "--algos", "prunemerge,naive",
                 "--best-over-k", "4", "--k", "3", "--seeds", "1",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:3]]
    assert [(r[3], r[9]) for r in rows] == [("prunemerge", "ok"),
                                            ("naive", "ok")]
    assert rows[1][4] == "3"


def test_compare_best_over_k_scores_planted_labels(tmp_path):
    """A best-over-k prunemerge row scores its winning run's partition
    against the planted labels; naive rows, as without the flag, do not."""
    out = tmp_path / "c.csv"
    assert main(["compare", "--family", "sbm", "--sizes", "30,30,30", "--p",
                 "0.4", "--q", "0.02", "--algos", "prunemerge,naive,degrees",
                 "--best-over-k", "4", "--seeds", "3", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 12
    for row in rows:
        assert row["status"] in ("ok", "ok:3")
        if row["algo"] == "prunemerge":
            assert 0.0 <= float(row["ari"]) <= 1.0
        else:
            assert row["ari"] == ""
    scores = [float(r["ari"]) for r in rows[:9] if r["algo"] == "prunemerge"]
    assert float(rows[9]["ari"]) == pytest.approx(sum(scores) / 3, abs=1e-6)


def test_compare_best_over_k_below_two(tmp_path, monkeypatch, capsys):
    """``run`` and ``compare`` reject the flag before reading any file,
    instead of failing inside ``best_over_k`` or writing an error row for
    every prunemerge op; ``run`` names a graph that does not exist."""
    monkeypatch.chdir(tmp_path)
    assert main(["compare", "--family", "sbm", "--sizes", "20,20", "--p",
                 "0.5", "--q", "0.05", "--algos", "prunemerge,naive",
                 "--seeds", "2", "--best-over-k", "1", "--out", "c.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: wellclust compare ")
    assert "--best-over-k must be at least 2" in captured.err
    assert not (tmp_path / "c.csv").exists()
    assert main(["run", "--graph", "missing.txt", "--algo", "prunemerge",
                 "--best-over-k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: wellclust run ")
    assert captured.err.endswith(
        "wellclust run: error: --best-over-k must be at least 2\n")


@pytest.mark.parametrize("family, k, r, stalled", [
    (["bridged_two_cluster", "--n", "256"], "2", 1, True),
    (["sbm", "--sizes", "50,50,50", "--p", "0.3", "--q", "0.002"], "3", 3,
     False),
])
def test_run_json_reports_partition(tmp_path, capsys, family, k, r, stalled):
    g = str(tmp_path / "g.txt")
    assert main(["generate", "--family", *family, "--seed", "1",
                 "--out", g]) == 0
    capsys.readouterr()
    assert main(["run", "--graph", g, "--algo", "prunemerge", "--k", k]) == 0
    plain = capsys.readouterr().out
    assert main(["run", "--graph", g, "--algo", "prunemerge", "--k", k,
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r"] == r and payload["stalled"] is stalled
    assert plain == format(payload["cost"], ".12g") + "\n"
    assert main(["run", "--graph", g, "--algo", "naive", "--k", k,
                 "--json"]) == 0
    naive = json.loads(capsys.readouterr().out)
    # the naive fold reports the same pipeline run as prunemerge at that k
    assert set(naive) == set(payload)
    assert (naive["r"], naive["stalled"]) == (r, stalled)
    # a run that detached nothing gives both algorithms one tree
    assert payload["pruned"] == naive["pruned"] == 0
    assert naive["cost"] == payload["cost"]


@pytest.mark.parametrize("extra", [[], ["--best-over-k", "3"]])
def test_run_json_counts_detached_subtrees(tmp_path, monkeypatch, capsys,
                                           extra):
    """`pruned` counts the subtrees the prune stage detached, here on the
    crafted partition whose boundary test rejects both clusters whole."""
    monkeypatch.setattr(importlib.import_module("wellclust.prune_merge"),
                        "strong_decomposition", forced_decomposition)
    g = str(tmp_path / "g.txt")
    save_graph(forced_prune_graph(), g)
    payloads = {}
    for algo in ("prunemerge", "naive"):
        argv = extra if algo == "prunemerge" else []
        assert main(["run", "--graph", g, "--algo", algo, "--json",
                     *argv]) == 0
        payloads[algo] = json.loads(capsys.readouterr().out)
    assert payloads["prunemerge"]["pruned"] == payloads["naive"]["pruned"] == 4
    assert payloads["prunemerge"]["k"] == 2
    # the naive op folds the detached subtrees back in place
    assert payloads["naive"]["cost"] != payloads["prunemerge"]["cost"]


def test_sweep_command(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text(TWO_TRIANGLES)
    code, out, _ = run_cli("sweep", "--graph", str(g))
    assert code == 0
    assert out == "0 1 2\n0\n"


def test_spectrum_command(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text(TWO_TRIANGLES)
    code, out, _ = run_cli("spectrum", "--graph", str(g), "--k", "3")
    assert code == 0
    rows = [line.split() for line in out.splitlines()]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    values = [float(r[1]) for r in rows]
    assert values[0] <= 1e-8 and values[1] <= 1e-8
    assert values[2] == pytest.approx(1.5, abs=1e-9)


def test_all_eigenpairs_of_a_large_graph(tmp_path):
    """On a graph above the dense size limit, ``spectrum --k n`` and
    ``--best-over-k n-1`` (which needs all n pairs) use the dense solver,
    since the Lanczos path cannot return k = n pairs."""
    n = 70
    g = tmp_path / "path.txt"
    g.write_text(f"{n} {n - 1}\n" +
                 "".join(f"{i} {i + 1} 1.0\n" for i in range(n - 1)))
    code, out, err = run_cli("spectrum", "--graph", str(g), "--k", str(n))
    assert code == 0, err
    dense = smallest_eigenvalues(load_graph(str(g)), n, method="dense")
    assert out == "".join(f"{i} {dense.eigenvalues[i]:.12g} "
                          f"{dense.residuals[i]:.3g}\n" for i in range(n))
    code, out, err = run_cli("run", "--graph", str(g), "--algo",
                             "prunemerge", "--best-over-k", str(n - 1))
    assert code == 0, err
    assert float(out) > 0


def test_decompose_json_payload(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text(TWO_TRIANGLES)
    out = tmp_path / "dec.json"
    code = main(["decompose", "--graph", str(g), "--k", "2",
                 "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert sorted(payload) == ["cores", "iterations", "k", "params",
                               "report", "sets", "stalled"]
    assert payload["sets"] == [[0, 1, 2], [3, 4, 5]]
    assert payload["cores"] == [[0, 1, 2], [3, 4, 5]]
    assert payload["stalled"] is False
    assert sorted(payload["params"]) == ["lambda_k", "lambda_k1", "phi_in",
                                         "phi_in_mode", "phi_out", "rho_star"]


def test_compare_sweeps_cartesian_grid(tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--family", "sbm", "--sizes", "8,8",
                 "--p", "0.4,0.6", "--q", "0.1", "--algos", "degrees,single",
                 "--seeds", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 13
    points = {line.split(",")[1] for line in lines[1:]}
    assert points == {"p=0.4;q=0.1;sizes=8|8", "p=0.6;q=0.1;sizes=8|8"}


@pytest.mark.parametrize("family, points", [
    (["hsbm", "--p", "0.3", "--q-min", "0.001,0.002", "--size", "20,40"],
     {"p=0.3;q_min=0.001;size=20", "p=0.3;q_min=0.001;size=40",
      "p=0.3;q_min=0.002;size=20", "p=0.3;q_min=0.002;size=40"}),
    (["gaussian_kernel", "--points-file", "PTS", "--sigma", "0.5,1"],
     {"points=0:0|1:0|5:5;sigma=0.5", "points=0:0|1:0|5:5;sigma=1"}),
], ids=["hsbm", "gaussian_kernel"])
def test_compare_sweeps_every_int_and_real_flag(tmp_path, capsys, family,
                                                points):
    """--q-min, --size and --sigma exited 1 on a comma list, while --p and
    --n swept."""
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n1 0\n5 5\n")
    family = [str(pts) if tok == "PTS" else tok for tok in family]
    out = tmp_path / "cmp.csv"
    assert main(["compare", "--family", *family, "--algos", "degrees",
                 "--seeds", "1", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    data = [row["params"] for row in rows if row["seed"] != "mean"]
    assert sorted(data) == sorted(points)
    assert capsys.readouterr().out == \
        f"wrote {out}: {len(points)} data rows + {len(points)} mean rows\n"


def test_compare_reruns_byte_identical(tmp_path):
    args = ["compare", "--family", "sbm", "--sizes", "10,10", "--p", "0.5",
            "--q", "0.05", "--algos", "degrees,prunemerge,single",
            "--seeds", "3"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_compare_exits_one_when_no_op_succeeds(tmp_path, capsys):
    # k = 9 exceeds what an 8-vertex graph can split into, so every
    # prunemerge and naive op raises and becomes an error row
    out = tmp_path / "fail.csv"
    code = main(["compare", "--family", "sbm", "--sizes", "4,4", "--p", "0.5",
                 "--q", "0.1", "--algos", "prunemerge,naive", "--k", "9",
                 "--seeds", "2", "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == f"wrote {out}: 4 data rows + 2 mean rows\n"
    assert captured.err == "error: no operation succeeded\n"
    lines = out.read_text().splitlines()
    assert len(lines) == 7
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == \
        ["error:ValueError"] * 4 + ["error:empty"] * 2


def test_malformed_graph_line_numbered(tmp_path, capsys):
    g = tmp_path / "bad.txt"
    g.write_text("3 2\n0 1\n1 2 1.0\n")
    t = tmp_path / "t.txt"
    t.write_text(PATH3_TREE)
    code = main(["cost", str(g), str(t)])
    assert code == 1
    assert f"{g}:2:" in capsys.readouterr().err
    g.write_text("a b\n0 1 1.0\n")
    code = main(["run", "--graph", str(g), "--algo", "degrees"])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {g}:1: ")


def test_malformed_tree_line_numbered(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text(PATH3_GRAPH)
    t = tmp_path / "bad.txt"
    t.write_text("leaf 0 0\nleaf 1 one\n")
    code = main(["cost", str(g), str(t)])
    assert code == 1
    assert f"{t}:2:" in capsys.readouterr().err


def test_ragged_points_line_numbered(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n1 1\n2 2 2\n")
    code = main(["generate", "--family", "gaussian_kernel", "--points-file",
                 str(pts), "--sigma", "1.0", "--seed", "1",
                 "--out", str(tmp_path / "g.txt")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {pts}:3: ")


def test_empty_points_file_exits_one(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("\n  \n")
    g = tmp_path / "g.txt"
    code = main(["generate", "--family", "gaussian_kernel", "--points-file",
                 str(pts), "--sigma", "1.0", "--seed", "1", "--out", str(g)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {pts}: no points found\n"
    assert not g.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_points_line_numbered(tmp_path, capsys, value):
    pts = tmp_path / "pts.txt"
    pts.write_text(f"0 0\n{value} 1\n2 2\n")
    code = main(["generate", "--family", "gaussian_kernel", "--points-file",
                 str(pts), "--sigma", "1.0", "--seed", "1",
                 "--out", str(tmp_path / "g.txt")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {pts}:2: bad point line")


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--family", "sbm", "--sizes", "10,10", "--p", "0.5",
      "--q", "0.1", "--c-p", "0.4", "--seed", "1"], "--c-p"),
    (["generate", "--family", "sbm", "--sizes", "10,10", "--p", "0.5",
      "--q", "0.1", "--sigma", "2", "--seed", "1"], "--sigma"),
    (["generate", "--family", "hsbm", "--p", "0.5", "--n", "50",
      "--seed", "1"], "--n"),
    (["compare", "--family", "planted_clique_expander", "--n", "64",
      "--p", "0.3,0.5", "--algos", "degrees"], "--p"),
])
def test_foreign_family_flag_rejected(tmp_path, capsys, argv, flag):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    family = argv[argv.index("--family") + 1]
    assert f"family {family!r} does not take {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family", GENERATOR_FAMILIES)
@pytest.mark.parametrize("command", ["generate", "compare"])
def test_family_flags_cover_the_generator_table(capsys, monkeypatch,
                                               command, family):
    monkeypatch.setenv("COLUMNS", "200")    # no help line wraps
    assert main([command, "--help"]) == 0
    options = capsys.readouterr().out.split("\noptions:\n")[1]
    required, optional = FAMILY_PARAMS[family]
    for name in (*required, *optional):
        assert f"\n  {_flag(name)} " in options
        # each flag's help names every family that takes it
        help = options.split(f"\n  {_flag(name)} ")[1].split("\n  -")[0]
        assert family in help.split(":")[0].replace(",", " ").split()


@pytest.mark.parametrize("argv", [
    ["run", "--graph", "g.txt", "--algo", "degrees"],
    ["decompose", "--graph", "g.txt", "--k", "2"],
    ["compare", "--family", "planted_clique_expander", "--n", "16",
     "--algos", "degrees", "--out", "c.csv"],
])
def test_c0_flag_rejected(capsys, argv):
    # c_0 is the fixed constant decomposition.C0, not an option
    assert main(argv + ["--c0", "2"]) == 1
    assert "unrecognized arguments: --c0 2" in capsys.readouterr().err


def test_unreachable_tree_nodes_exit_one(tmp_path, capsys):
    # leaves 2 and 3 hang under the 2-cycle 5 <-> 6, which root 4 never
    # reaches; line 6 names node 6 before the line that defines it
    g = tmp_path / "g.txt"
    g.write_text("2 1\n0 1 1.0\n")
    t = tmp_path / "t.txt"
    t.write_text("leaf 0 0\nleaf 1 1\n4 0 1\nleaf 2 2\nleaf 3 3\n"
                 "5 6 2\n6 5 3\n")
    assert main(["cost", str(g), str(t)]) == 1
    assert capsys.readouterr().err == \
        f"error: {t}:6: child 6 is not defined on an earlier line\n"


def test_negative_leaf_vertex_exits_one(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("2 1\n0 1 1.0\n")
    t = tmp_path / "t.txt"
    t.write_text("leaf 0 0\nleaf 1 1\nleaf 2 -1\n3 0 1\n4 3 2\n")
    assert main(["cost", str(g), str(t)]) == 1
    assert capsys.readouterr().err == \
        f"error: {t}:3: bad dendrogram line 'leaf 2 -1\\n'\n"


def test_leaf_vertex_beyond_int64_exits_one(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text("2 1\n0 1 1.0\n")
    t = tmp_path / "t.txt"
    t.write_text("leaf 0 99999999999999999999\n")
    assert main(["cost", str(g), str(t)]) == 1
    assert capsys.readouterr().err == \
        f"error: {t}:1: bad dendrogram line 'leaf 0 99999999999999999999\\n'\n"


@pytest.mark.parametrize("read, text", [
    (load_graph, b"2 1\n0 1 1.0\xff\n"),
    (load_labels, b"0 0\n1 \xff\n"),
    (_load_points, b"0 0\n1 1\xff\n"),
    (load_tree, b"leaf 0 0\nleaf 1 \xff1\n2 0 1\n"),
], ids=["graph", "labels", "points", "tree"])
def test_non_ascii_byte_fails_its_line(tmp_path, read, text):
    path = tmp_path / "in.txt"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: bad "):
        read(path)


@pytest.mark.parametrize("read, text, kind", [
    (load_graph, "12 1\n0 1_0 1.0\n", "edge"),
    (load_tree, "leaf 0 0\nleaf 1 1_1\n2 0 1\n", "dendrogram"),
    (load_labels, "0 0\n1 1_0\n", "label"),
    (_load_points, "0 0\n1_0 2\n", "point"),
], ids=["graph", "tree", "labels", "points"])
def test_digit_separator_fails_its_line(tmp_path, read, text, kind):
    """Python's int() and float() read "1_0" as 10; no file format does."""
    path = tmp_path / "in.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read(str(path))
    assert str(err.value) == \
        f"{path}:2: bad {kind} line {text.splitlines(True)[1]!r}"


def test_out_of_memory_exits_one(monkeypatch, capsys):
    import wellclust.cli as cli_mod

    def load_graph(path):
        raise MemoryError("Unable to allocate 72.8 TiB for an array with "
                          "shape (10000000000000,) and data type float64")

    monkeypatch.setattr(cli_mod, "load_graph", load_graph)
    assert main(["sweep", "--graph", "g.txt"]) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 72.8 TiB for an array with "
        "shape (10000000000000,) and data type float64\n")


@pytest.mark.parametrize("edges, message", [
    ("0 5 1.0", "2: edge (0, 5) has an endpoint outside 0..2"),
    ("0 1 1.0\n1 0 2.0", "2: duplicate edge (0, 1) on lines 2 and 3"),
    ("0 1 -1.0",
     "2: edge (0, 1) has a weight that is not strictly positive and finite"),
    ("0 1 1.0\n1 2 nan",
     "3: edge (1, 2) has a weight that is not strictly positive and finite"),
    ("0 1 1.0\n\n2 2 1.0", "4: edge (2, 2) is a self-loop"),
], ids=["endpoint", "duplicate", "weight", "nan", "self-loop"])
def test_graph_errors_name_the_file(tmp_path, capsys, edges, message):
    g = tmp_path / "g.txt"
    g.write_text(f"3 {len(edges.split()) // 3}\n{edges}\n")
    with pytest.raises(ValueError) as err:
        load_graph(g)
    assert str(err.value) == f"{g}:{message}"
    t = tmp_path / "t.txt"
    t.write_text(PATH3_TREE)
    assert main(["cost", str(g), str(t)]) == 1
    assert capsys.readouterr().err == f"error: {g}:{message}\n"


def test_missing_file_exit_one(tmp_path, capsys):
    code = main(["run", "--graph", str(tmp_path / "absent.txt"),
                 "--algo", "degrees"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_flag_errors_exit_one(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text(K3_GRAPH)
    assert run_cli()[0] == 1
    assert run_cli("run", "--graph", str(g), "--algo", "ward")[0] == 1
    assert run_cli("generate", "--family", "sbm", "--p", "0.5", "--q", "0.1",
                   "--seed", "1", "--out", str(g))[0] == 1


def test_command_checks_print_the_command_usage(tmp_path, capsys):
    family = ["--family", "sbm", "--sizes", "10,10", "--p", "0.5",
              "--q", "0.1"]
    pts = tmp_path / "pts.txt"
    pts.write_text("0 0\n1 0\n0 1\n")
    g, csv = str(tmp_path / "g.txt"), str(tmp_path / "c.csv")
    no_sizes = ["--family", "sbm", "--p", "0.3", "--q", "0.01"]
    for argv, message in (
            (["generate", *family, "--n", "50", "--seed", "1", "--out", g],
             "family 'sbm' does not take --n"),
            (["generate", *no_sizes, "--seed", "1", "--out", g],
             "family 'sbm' requires --sizes"),
            (["compare", *no_sizes, "--algos", "naive", "--out", csv],
             "family 'sbm' requires --sizes"),
            (["generate", *no_sizes, "--sizes", "3,x", "--seed", "1",
              "--out", g], "argument --sizes: bad integer list '3,x'"),
            (["compare", *family[:4], "--p", "0.3,x", "--q", "0.01",
              "--algos", "naive", "--out", csv],
             "argument --p: bad number list '0.3,x'"),
            (["generate", "--family", "gaussian_kernel", "--points-file",
              str(pts), "--sigma", "1.0", "--seed", "1", "--out", g,
              "--labels", str(tmp_path / "lab.txt")],
             "family 'gaussian_kernel' has no planted labels"),
            (["compare", *family, "--algos", "bogus", "--out", csv],
             "unknown algorithm 'bogus'"),
            (["compare", *family, "--algos", "naive", "--seeds", "0",
              "--out", csv],
             "--seeds must be at least 1")):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: wellclust {argv[0]} "), err
        assert f"wellclust {argv[0]}: error: {message}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["pts.txt"]


def test_infeasible_parameters_exit_one(tmp_path, capsys):
    g = tmp_path / "g.txt"
    assert main(["generate", "--family", "sbm", "--sizes", "3,3,3,3,3",
                 "--p", "1", "--q", "0", "--seed", "1",
                 "--out", str(g)]) == 0
    capsys.readouterr()
    code = main(["run", "--graph", str(g), "--algo", "prunemerge",
                 "--k", "4"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_numerical_failure_exit_two(tmp_path, capsys, monkeypatch):
    import wellclust.cli as cli_mod

    def explode(*args, **kwargs):
        raise SpectralConvergenceError("did not converge")

    monkeypatch.setattr(cli_mod, "run_algorithm", explode)
    g = tmp_path / "g.txt"
    g.write_text(K3_GRAPH)
    code = main(["run", "--graph", str(g), "--algo", "degrees"])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_random_seed_out_of_range_exits_1(tmp_path):
    g = tmp_path / "g.txt"
    g.write_text(TWO_TRIANGLES)
    code, out, err = run_cli("run", "--graph", str(g), "--algo", "random",
                             "--seed", "-1")
    assert (code, out) == (1, "")
    assert err == "error: seed must be a 64-bit unsigned integer\n"


def test_weights_past_the_float_range(tmp_path):
    """A volume-to-weight ratio past the float range made the iteration
    budget raise OverflowError; a volume past it loaded with a numpy
    RuntimeWarning and scored inf."""
    wide, over = tmp_path / "wide.txt", tmp_path / "over.txt"
    wide.write_text("3 2\n0 1 1e-300\n1 2 1e300\n")
    over.write_text("3 2\n0 1 1.7e308\n1 2 1.7e308\n")
    code, out, err = run_cli("run", "--graph", str(wide), "--algo",
                             "prunemerge", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"algo": "prunemerge", "cost": 2e300, "k": 2,
                               "ms": None, "r": 1, "stalled": True,
                               "pruned": 0}
    for argv in (["run", "--graph", str(over), "--algo", "degrees"],
                 ["spectrum", "--graph", str(over), "--k", "2"]):
        code, out, err = run_cli(*argv)
        assert (code, out) == (1, "")
        assert err == (f"error: {over}: edge weights too large: the volume "
                       "inf and the cost bound n * vol / 2 must be finite\n")


def test_wide_weight_range_graph_runs(tmp_path, capsys):
    """Both commands exited 2 while the move check compared two float
    totals of a 7.17e7 cut that a 3.9e-9 drop leaves unchanged."""
    g = tmp_path / "g.txt"
    save_graph(weighted_graph(11, WIDE_RANGE_EDGES), g)
    assert main(["run", "--graph", str(g), "--algo", "prunemerge", "--k", "3",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["r"] == 3
    assert main(["decompose", "--graph", str(g), "--k", "3"]) == 0
    assert len(json.loads(capsys.readouterr().out)["sets"]) == 3
