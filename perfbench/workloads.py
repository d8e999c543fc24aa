"""The benchmark's workloads: inputs made from a seed, one timed round of
ops, and the checks on every op's output.

An op is one ``run_algorithm(G, algo, k=3, seed, labels, timing=True)``
call; its latency is the ``RunOutcome.ms`` the program reports. Calls go
through the ``wellclust`` module attributes so that a traced run sees them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from wellclust import experiment, generators

K = 3
PIPELINE_ALGOS = ("prunemerge", "naive", "degrees", "random")


@dataclass
class Observed:
    """One op's result as the round saw it; ``fields`` holds only what
    this run could observe (cost, tree, r, ari)."""

    key: str
    algo: str
    ms: float | None
    problem: str | None
    fields: dict = field(default_factory=dict)


def tree_digest(T) -> str:
    """Digest of the ordered tree, independent of node numbering: the
    pre-order walk with leaves as vertex ids and internal nodes as -1."""
    walk = []
    stack = [int(T.root)]
    left, right, leaf = T.left, T.right, T.leaf_vertex
    while stack:
        node = stack.pop()
        if left[node] < 0:
            walk.append(int(leaf[node]))
        else:
            walk.append(-1)
            stack.append(int(right[node]))
            stack.append(int(left[node]))
    data = np.asarray(walk, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def outcome_fields(res) -> dict:
    """Cost, tree digest and ARI of a ``RunOutcome``, as the reference
    stores them."""
    return {"cost": format(res.cost, ".12g"), "tree": tree_digest(res.tree),
            "ari": None if res.ari is None else format(res.ari, ".6f")}


def invariant_problem(n: int, volume: float, tree, cost: float) -> str | None:
    """Checks that hold on any seed. The edge-form cost equal to the cut
    form is checked by ``run_algorithm`` itself, which raises otherwise."""
    if tree is not None:
        leaves = tree.leaf_vertex[tree.left < 0]
        if not np.array_equal(np.sort(leaves), np.arange(n)):
            return "tree leaves do not biject with the vertices"
    if not 0.0 <= cost <= n * volume / 2.0 * (1.0 + 1e-12):
        return f"cost {cost!r} outside [0, n*vol/2]"
    return None


class Workload:
    """Base: ``setup`` generates the inputs, ``round`` runs every op once."""

    name = ""

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = scale

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> list[Observed]:
        raise NotImplementedError

    def key_of(self, attrs: dict) -> str:
        """Reference key of an op seen by the tracer."""
        raise NotImplementedError


class DirectWorkload(Workload):
    """Named instances, several per run so that one instance's eigensolver
    luck does not set a run's figures. Every instance runs the four pipeline
    algorithms ``repeats`` times a round; the linkage ops run once a round,
    spread evenly between the cheap ops so that those sample the whole
    round."""

    repeats = 1
    INSTANCES = 1

    def instance_seeds(self) -> list[int]:
        return [self.INSTANCES * self.seed + i for i in range(self.INSTANCES)]

    def specs(self) -> dict[str, generators.GenSpec]:
        raise NotImplementedError

    def linkage_ops(self) -> list[tuple[str, str]]:
        return []

    def setup(self) -> None:
        self.instances = {}
        for label, spec in self.specs().items():
            G, labels = generators.generate(spec)
            self.instances[label] = (G, labels, spec.seed)

    def round(self) -> list[Observed]:
        cheap = [(label, algo) for label in self.instances
                 for algo in PIPELINE_ALGOS] * self.repeats
        heavy = self.linkage_ops()
        ops, start = [], 0
        for j, op in enumerate(heavy, 1):
            stop = j * len(cheap) // (len(heavy) + 1)
            ops += cheap[start:stop] + [op]
            start = stop
        ops += cheap[start:]
        out = []
        for label, algo in ops:
            G, labels, seed = self.instances[label]
            key = f"{label}/{algo}"
            try:
                res = experiment.run_algorithm(
                    G, algo, k=K, seed=seed, labels=labels, timing=True)
            except Exception as exc:  # noqa: BLE001  (counted as failed)
                out.append(Observed(key, algo, None,
                                    f"{type(exc).__name__}: {exc}"))
                continue
            problem = invariant_problem(G.n, G.total_volume, res.tree,
                                        res.cost)
            out.append(Observed(key, algo, res.ms, problem,
                                outcome_fields(res)))
        return out

    def key_of(self, attrs: dict) -> str:
        for label, (G, _, seed) in self.instances.items():
            if (G.n, G.m, seed) == (attrs["n"], attrs["m"], attrs["seed"]):
                return f"{label}/{attrs['algo']}"
        raise KeyError(f"no instance with n={attrs['n']}, m={attrs['m']}")


class Sbm9kPipeline(DirectWorkload):
    """Expected degree 20 inside a block and 1 across, as in the n = 30k
    instance of the scale target, at a size where ops repeat in a run."""

    name = "sbm9k_pipeline"
    INSTANCES = 2
    # Three passes make a round of 20-30 s. On a shared 2-vCPU machine
    # whose speed drifts over tens of seconds, rounds of 7-10 s spread by up
    # to 25% over ten seeds.
    repeats = 3

    def specs(self):
        if self.scale == "tiny":
            params = {"sizes": [40, 40, 40], "p": 0.3, "q": 0.005}
        else:
            params = {"sizes": [3000, 3000, 3000], "p": 0.0067,
                      "q": 0.00017}
        return {f"sbm9k/s{s}": generators.GenSpec("sbm", params, s)
                for s in self.instance_seeds()}


class Sbm900Baselines(DirectWorkload):
    """Criterion 10's family: 3 x 300 SBMs at p = 0.04, 0.12, 0.2. The
    pipeline algorithms run on four instances per p. Linkage runs on the
    first instance of each p: single linkage, criterion 10's baseline, on
    all three, complete and average on one each, which keeps a run within
    its time budget (a call takes 3-6 s on a 2-vCPU machine)."""

    name = "sbm900_baselines"
    repeats = 2
    INSTANCES = 4
    LINKAGE = {0.04: ("single",), 0.12: ("single", "complete"),
               0.2: ("single", "average")}

    def specs(self):
        size, q, scale_p = (300, 0.002, 1.0) if self.scale == "full" \
            else (20, 0.01, 4.0)
        return {f"p={p:g}/s{s}": generators.GenSpec(
                    "sbm", {"sizes": [size] * 3, "p": min(1.0, p * scale_p),
                            "q": q}, s)
                for p in self.LINKAGE for s in self.instance_seeds()}

    def linkage_ops(self):
        first = self.instance_seeds()[0]
        return [(f"p={p:g}/s{first}", kind)
                for p, kinds in self.LINKAGE.items() for kind in kinds]


class SmallSweep(Workload):
    """``compare_sweep`` over four small families, many seeds, the thread
    pool; the CSV rows are its output."""

    name = "small_sweep"
    SEEDS_PER_RUN = 20

    def points(self) -> list[experiment.SweepPoint]:
        if self.scale == "tiny":
            return [
                experiment.SweepPoint("sbm", {"sizes": [12, 12, 12],
                                              "p": 0.6, "q": 0.02}),
                experiment.SweepPoint("sbm_planted_cliques", {
                    "sizes": [15, 15, 15], "p": 0.3, "q": 0.02, "c_p": 0.4}),
                experiment.SweepPoint("planted_clique_expander", {"n": 32}),
                experiment.SweepPoint("bridged_two_cluster", {"n": 32}),
            ]
        return [
            experiment.SweepPoint("sbm", {"sizes": [50, 50, 50], "p": 0.3,
                                          "q": 0.002}),
            experiment.SweepPoint("sbm_planted_cliques", {
                "sizes": [100, 100, 100], "p": 0.06, "q": 0.002, "c_p": 0.4}),
            experiment.SweepPoint("planted_clique_expander", {"n": 256}),
            experiment.SweepPoint("bridged_two_cluster", {"n": 256}),
        ]

    def seeds(self) -> list[int]:
        count = self.SEEDS_PER_RUN if self.scale == "full" else 3
        return [count * self.seed + i for i in range(count)]

    def setup(self) -> None:
        # (family, seed) -> (n, m, vol) for the cost bound and trace keys
        self.sizes = {}
        for point in self.points():
            for s in self.seeds():
                G, _ = generators.generate(point.spec(s))
                self.sizes[(point.family, s)] = (G.n, G.m, G.total_volume)

    def round(self) -> list[Observed]:
        rows = experiment.compare_sweep(self.points(), PIPELINE_ALGOS,
                                        self.seeds(), k=K, timing="wall")
        experiment.rows_to_csv(rows)
        out = []
        for row in rows:
            if row["seed"] == "mean":
                continue
            seed = int(row["seed"])
            key = f"{row['family']}/s{seed}/{row['algo']}"
            if row["status"] != "ok":
                out.append(Observed(key, row["algo"], None, row["status"]))
                continue
            n, _, vol = self.sizes[(row["family"], seed)]
            problem = invariant_problem(n, vol, None, float(row["cost"]))
            out.append(Observed(key, row["algo"], float(row["ms"]), problem, {
                "cost": row["cost"], "ari": row["ari"] or None}))
        return out

    def key_of(self, attrs: dict) -> str:
        for (family, s), (n, m, _) in self.sizes.items():
            if (n, m, s) == (attrs["n"], attrs["m"], attrs["seed"]):
                return f"{family}/s{s}/{attrs['algo']}"
        raise KeyError(f"no instance with n={attrs['n']}, m={attrs['m']}")


WORKLOADS = {w.name: w for w in (Sbm9kPipeline, Sbm900Baselines, SmallSweep)}


def merge_traced(workload: Workload, op_spans, observed: list[Observed],
                 ) -> None:
    """Add to each op of a traced round what only the trace sees (the tree
    digest of sweep ops, ``r`` of prunemerge) and check its tree."""
    seen = {}
    for span in op_spans:
        if span.outcome is None:
            continue
        G, res = span.outcome
        fields = outcome_fields(res)
        if "r" in span.attrs:
            fields["r"] = span.attrs["r"]
        seen[workload.key_of(span.attrs)] = (fields, invariant_problem(
            G.n, G.total_volume, res.tree, res.cost))
    for obs in observed:
        fields, problem = seen.get(obs.key, ({}, None))
        obs.fields.update(fields)
        obs.problem = obs.problem or problem


def reference_problems(observed: list[Observed], expected: dict | None,
                       ) -> list[str | None]:
    """Per op: the first field that differs from the reference, or None."""
    if expected is None:
        return [None] * len(observed)
    problems = []
    for obs in observed:
        ref = expected.get(obs.key)
        if ref is None:
            problems.append("op missing from the reference")
            continue
        diff = [f"{k}: {v!r} != reference {ref[k]!r}"
                for k, v in obs.fields.items() if k in ref and ref[k] != v]
        problems.append(diff[0] if diff else None)
    return problems
