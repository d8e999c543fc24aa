"""Tests of the benchmark itself, on tiny instances.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seconds", "0.5", "--scale", "tiny",
         *args], cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return last


def test_workload_names_match_spec(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace, tmp_path):
    res = result_of(run_bench("--workload", workload, "--seed", "3",
                              "--trace", str(trace), "--out", str(tmp_path)))
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {name: m["unit"] for name, m in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if trace == 0:
        assert res["metrics"]["ok_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in res["metrics"].values())
    else:
        assert (tmp_path / f"{workload}-seed3-trace1-spans.jsonl").is_file()


def test_traced_counts_repeat(tmp_path):
    runs = [result_of(run_bench("--workload", "sbm900_baselines", "--seed",
                                "2", "--trace", "1", "--out", str(tmp_path)))
            for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["linkage.calls"] == 5
    assert counts[0]["decomposition.runs"] == 48


def test_tampered_reference_fails_ops(tmp_path):
    ref = tmp_path / "reference.json"
    common = ("--workload", "sbm900_baselines", "--seed", "4",
              "--reference", str(ref), "--out", str(tmp_path))
    recorded = run_bench(*common, "--record-reference")
    assert recorded.returncode == 0, recorded.stderr
    clean = result_of(run_bench(*common))
    assert clean["correct"] is True and clean["failed"] == 0

    data = json.loads(ref.read_text())
    ops = data["sbm900_baselines"]["tiny"]["4"]
    ops["p=0.12/s17/prunemerge"]["cost"] = "1"
    ops["p=0.2/s16/single"]["tree"] = "0" * 16
    ref.write_text(json.dumps(data))
    for trace in ("0", "1"):
        res = result_of(run_bench(*common, "--trace", trace))
        assert res["correct"] is False
        assert res["failed"] >= 2
    res = result_of(run_bench(*common))
    assert res["metrics"]["ok_frac"]["value"] < 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--trace",
                     "0", cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
