"""Seeded experiment sweeps comparing clustering algorithms on generated graphs.

One sweep point is a generator family with fixed parameters; each point is
instantiated under several seeds, every requested algorithm runs on every
instance, and the results land in a CSV whose bytes depend only on the
inputs (timing columns are left blank unless explicitly requested).
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .decomposition import derive_params
from .degree_hc import hc_with_degrees
from .generators import GenSpec, PlantedLabels, generate
from .graph import Graph
from .linkage import linkage
from .metrics import adjusted_rand_index
from .prune_merge import PruneMergeResult, best_over_k, run_prune_merge
from .tree import HCTree, dasgupta_cost, dasgupta_cost_cutform, random_tree

ALGORITHMS = ("degrees", "prunemerge", "naive", "single", "complete",
              "average", "random")

CSV_FIELDS = ("family", "params", "seed", "algo", "k", "cost", "norm_cost",
              "ari", "ms", "status")

_COST_RTOL = 1e-9


@dataclass(frozen=True)
class RunOutcome:
    """A single algorithm run on a single graph instance; ``result`` is the
    pipeline record a ``prunemerge`` or ``naive`` run took its tree from."""

    algo: str
    tree: HCTree
    cost: float
    k: int | None = None
    ari: float | None = None
    ms: float | None = None
    result: PruneMergeResult | None = None


def checked_cost(G: Graph, T: HCTree) -> float:
    """Dasgupta cost computed two independent ways; they must agree."""
    cost = dasgupta_cost(G, T)
    alt = dasgupta_cost_cutform(G, T)
    if not math.isclose(cost, alt, rel_tol=_COST_RTOL, abs_tol=1e-9):
        raise AssertionError(
            f"cost mismatch: edge-sum form {cost!r} vs cut form {alt!r}")
    return cost


def run_algorithm(G: Graph, algo: str, k: int = 2, seed: int = 0,
                  best_k_max: int | None = None,
                  labels: PlantedLabels | None = None,
                  phi_in_mode: str = "practical", timing: bool = False,
                  _pipeline: PruneMergeResult | None = None) -> RunOutcome:
    """Run one algorithm on ``G`` and return its tree, cost, and metadata.

    ``k`` and ``phi_in_mode`` feed the decomposition-based algorithms: a
    single-k run turns them into its ``DecompParams`` here, with
    :func:`derive_params`, and ``best_over_k`` does so for each k it tries.
    ``seed`` only matters for ``random``.  ``prunemerge`` and ``naive``
    take one pipeline run: for ``prunemerge`` with ``best_k_max`` set, the
    cheapest over k = 2..best_k_max; otherwise ``_pipeline`` (a single-k
    ``prunemerge`` record of the same inputs) or a fresh run at ``k``.
    ``prunemerge`` keeps its pruned tree and scores its partition against
    ``labels`` when given; ``naive`` takes the record's ``naive_tree()``.
    """
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; expected one of "
                         f"{ALGORITHMS}")
    start = time.perf_counter() if timing else None
    ari: float | None = None
    k_used: int | None = None
    result = None
    if algo == "degrees":
        tree = hc_with_degrees(G)
    elif algo in ("prunemerge", "naive"):
        if algo == "prunemerge" and best_k_max is not None:
            k_used, result = best_over_k(G, best_k_max,
                                         phi_in_mode=phi_in_mode)
        else:
            k_used, result = k, _pipeline or run_prune_merge(
                G, derive_params(G, k, phi_in_mode=phi_in_mode))
        tree = result.tree if algo == "prunemerge" else result.naive_tree()
        if algo == "prunemerge" and labels is not None:
            ari = adjusted_rand_index(labels.clusters, result.partition.labels)
    elif algo == "random":
        tree = random_tree(G.n, seed)
    else:
        tree = linkage(G, algo)
    ms = None
    if start is not None:
        ms = (time.perf_counter() - start) * 1000.0
    cost = checked_cost(G, tree)
    return RunOutcome(algo=algo, tree=tree, cost=cost, k=k_used, ari=ari,
                      ms=ms, result=result)


@dataclass(frozen=True)
class SweepPoint:
    """One cell of a sweep: a family plus a fixed parameter assignment."""

    family: str
    params: Mapping[str, Any]

    def spec(self, seed: int) -> GenSpec:
        return GenSpec(self.family, self.params, seed)

    def label(self) -> str:
        return format_params(self.params)


def format_params(params: Mapping[str, Any]) -> str:
    """Stable one-token rendering: ``key=value;key=value``, keys sorted.

    Sequence values join with ``|``, and the coordinates of a point inside
    one with ``:``, so the token stays comma-free and can sit inside a CSV
    field unquoted.
    """
    parts = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, (list, tuple, np.ndarray)):
            rendered = "|".join(_scalar_str(x) for x in value)
        else:
            rendered = _scalar_str(value)
        parts.append(f"{key}={rendered}")
    return ";".join(parts)


def _scalar_str(x: Any) -> str:
    if isinstance(x, (list, tuple, np.ndarray)):
        return ":".join(_scalar_str(c) for c in x)
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".12g")
    return str(x)


def _fmt_float(x: float | None, spec: str) -> str:
    return "" if x is None else format(x, spec)


def default_thread_count() -> int:
    """Always 1: the sweep runs on the calling thread.

    Kept only because the benchmark record reads it as ``pool_threads``;
    it goes with the next change to ``perfbench/`` (ROADMAP item 1).
    """
    return 1


def _instance_rows(point: SweepPoint, seed: int, algos: Sequence[str],
                   k: int, best_k_max: int | None, phi_in_mode: str,
                   timing: bool) -> list[dict[str, str]]:
    """All CSV data rows for one (point, seed) instance."""
    outcomes: dict[str, RunOutcome | Exception] = {}
    try:
        G, labels = generate(point.spec(seed))
    except Exception as exc:  # noqa: BLE001  (row-level error reporting)
        for algo in algos:
            outcomes[algo] = exc
        G = labels = None
    order = [] if G is None else list(algos)
    if "prunemerge" in order:
        # run first: its cost is the normalization base, and naive reuses it
        order.remove("prunemerge")
        order.insert(0, "prunemerge")
    for algo in order:
        # a best-over-k prunemerge run may have won at a k other than naive's
        reuse = None if best_k_max is not None else getattr(
            outcomes.get("prunemerge"), "result", None)
        try:
            outcomes[algo] = run_algorithm(
                G, algo, k=k, seed=seed, best_k_max=best_k_max,
                labels=labels, phi_in_mode=phi_in_mode, timing=timing,
                _pipeline=reuse)
        except Exception as exc:  # noqa: BLE001  (row-level error reporting)
            outcomes[algo] = exc
    base = outcomes.get("prunemerge")
    base_cost = base.cost if isinstance(base, RunOutcome) else None
    rows = []
    for algo in algos:
        out = outcomes[algo]
        row = {"family": point.family, "params": point.label(),
               "seed": str(seed), "algo": algo}
        if isinstance(out, RunOutcome):
            norm = None
            if base_cost is not None and base_cost > 0:
                norm = out.cost / base_cost
            row.update({
                "k": "" if out.k is None else str(out.k),
                "cost": format(out.cost, ".12g"),
                "norm_cost": _fmt_float(norm, ".9g"),
                "ari": _fmt_float(out.ari, ".6f"),
                "ms": _fmt_float(out.ms, ".3f"),
                "status": "ok",
            })
        else:
            row.update({"k": "", "cost": "", "norm_cost": "", "ari": "",
                        "ms": "", "status": f"error:{type(out).__name__}"})
        rows.append(row)
    return rows


def _mean_rows(point: SweepPoint, algos: Sequence[str],
               data: list[list[dict[str, str]]]) -> list[dict[str, str]]:
    """Per-algorithm mean rows over the ok seeds of one point."""
    rows = []
    for algo in algos:
        picked = [r for per_seed in data for r in per_seed
                  if r["algo"] == algo and r["status"] == "ok"]
        row = {"family": point.family, "params": point.label(),
               "seed": "mean", "algo": algo, "k": "", "cost": "",
               "norm_cost": "", "ari": "", "ms": "",
               "status": f"ok:{len(picked)}" if picked else "error:empty"}
        if picked:
            for field, spec in (("cost", ".12g"), ("norm_cost", ".9g"),
                                ("ari", ".6f"), ("ms", ".3f")):
                vals = [float(r[field]) for r in picked if r[field] != ""]
                if len(vals) == len(picked):
                    row[field] = format(sum(vals) / len(vals), spec)
        rows.append(row)
    return rows


def compare_sweep(points: Sequence[SweepPoint], algos: Sequence[str],
                  seeds: Sequence[int], k: int = 2,
                  best_k_max: int | None = None,
                  phi_in_mode: str = "practical",
                  timing: str = "none") -> list[dict[str, str]]:
    """Run every algorithm on every seeded instance of every point.

    Returns the CSV rows (dicts keyed by :data:`CSV_FIELDS`): data rows
    grouped by point, then seed, then the caller's algorithm order,
    followed by one mean row per (point, algorithm).  Instances run one
    after another on the calling thread, so with ``timing="wall"`` a
    row's ``ms`` is the wall time of that op alone.
    """
    if timing not in ("none", "wall"):
        raise ValueError("timing must be 'none' or 'wall'")
    for algo in algos:
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
    if not points or not algos or not seeds:
        raise ValueError("points, algos, and seeds must all be nonempty")
    by_point = [[_instance_rows(point, seed, algos, k, best_k_max,
                                phi_in_mode, timing == "wall")
                 for seed in seeds] for point in points]
    out = [row for per_point in by_point for per_seed in per_point
           for row in per_seed]
    for point, per_point in zip(points, by_point):
        out.extend(_mean_rows(point, algos, per_point))
    return out


def rows_to_csv(rows: Sequence[Mapping[str, str]]) -> str:
    """Serialize rows with a fixed header and ``\\n`` line endings."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({f: row.get(f, "") for f in CSV_FIELDS})
    return buf.getvalue()


def write_csv(rows: Sequence[Mapping[str, str]], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))
