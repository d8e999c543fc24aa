"""Command-line behavior: outputs, file round-trips, exit-code contract."""

import json
import subprocess
import sys

import pytest

from wellclust.cli import main
from wellclust.graph import load_graph
from wellclust.spectral import SpectralConvergenceError
from wellclust.tree import dasgupta_cost, load_tree

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
    assert payload == {"algo": "prunemerge", "cost": 16.0, "k": 2, "ms": None}


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
    assert set(json.loads(capsys.readouterr().out)) == \
        {"algo", "cost", "k", "ms"}


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


def test_malformed_tree_line_numbered(tmp_path, capsys):
    g = tmp_path / "g.txt"
    g.write_text(PATH3_GRAPH)
    t = tmp_path / "bad.txt"
    t.write_text("leaf 0 0\nleaf 1 one\n")
    code = main(["cost", str(g), str(t)])
    assert code == 1
    assert f"{t}:2:" in capsys.readouterr().err


def test_unreachable_tree_nodes_exit_one(tmp_path, capsys):
    # leaves 2 and 3 hang under the 2-cycle 5 <-> 6, which root 4 never reaches
    g = tmp_path / "g.txt"
    g.write_text("2 1\n0 1 1.0\n")
    t = tmp_path / "t.txt"
    t.write_text("leaf 0 0\nleaf 1 1\n4 0 1\nleaf 2 2\nleaf 3 3\n"
                 "5 6 2\n6 5 3\n")
    assert main(["cost", str(g), str(t)]) == 1
    assert capsys.readouterr().err == \
        "error: 4 dendrogram node(s) unreachable from the root\n"


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
