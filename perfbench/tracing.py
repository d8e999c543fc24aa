"""Span tracing around wellclust's public functions, for traced runs only.

:meth:`Tracer.install` replaces every public function of the measured
modules with a wrapper, in every ``wellclust`` module namespace that holds
it (the defining module, the modules that import it and the package), and
:meth:`Tracer.uninstall` puts the originals back. The program's own files
are not touched. A span is one wrapped call: name, start, end, parent span
and op id, where an op is one ``run_algorithm`` call. Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("generators", "graph", "spectral", "decomposition", "degree_hc",
          "tree", "prune_merge", "linkage", "experiment")

# Called once per tree node inside hc_with_degrees: a span per call would
# cost more than the work it measures, so its time stays in degree_hc's.
UNWRAPPED = {("degree_hc", "top_block_size")}

OP_FUNCTION = ("experiment", "run_algorithm")

# Generators that draw one Bernoulli variable per vertex pair.
PAIR_DRAW_GENERATORS = {"gen_sbm", "gen_hsbm", "gen_sbm_planted_cliques",
                        "gen_sbm_unequal"}


class Span:
    __slots__ = ("id", "parent", "op", "op_span", "layer", "name", "phase",
                 "start", "end", "self_s", "cpu_s", "outer", "layer_outer",
                 "thread", "attrs", "outcome")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.id, "parent": self.parent, "op": self.op,
                "layer": self.layer, "name": self.name, "phase": self.phase,
                "start": self.start, "end": self.end,
                "self_s": self.self_s, "thread": self.thread, **self.attrs}


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _observe_op(span, args, kwargs, result):
    G = args[0]
    span.attrs.update(n=G.n, m=G.m, algo=_arg(args, kwargs, 1, "algo"),
                      seed=_arg(args, kwargs, 3, "seed", 0))
    span.outcome = (G, result)


def _observe_eig(span, args, kwargs, result):
    span.attrs["n"] = args[0].n


def _observe_strong(span, args, kwargs, result):
    partition, report = result
    span.attrs.update(clusters=partition.r, iterations=report["iterations"],
                      stalled=bool(report["stalled"]))


def _observe_prune_merge(span, args, kwargs, result):
    span.attrs.update(pool_entries=len(result.pool_sizes),
                      pruned=len(result.pruned), r=result.partition.r)
    if span.op_span is not None:
        span.op_span.attrs["r"] = result.partition.r


def _observe_degree_tree(span, args, kwargs, result):
    span.attrs["leaves"] = args[0].n


def _observe_linkage(span, args, kwargs, result):
    span.attrs["kind"] = _arg(args, kwargs, 1, "kind")


def _observe_pairs(span, args, kwargs, result):
    n = result[0].n
    span.attrs["pair_draws"] = n * (n - 1) // 2


OBSERVERS = {
    OP_FUNCTION: _observe_op,
    ("spectral", "smallest_eigenvalues"): _observe_eig,
    ("decomposition", "strong_decomposition"): _observe_strong,
    ("prune_merge", "run_prune_merge"): _observe_prune_merge,
    ("degree_hc", "hc_with_degrees"): _observe_degree_tree,
    ("linkage", "linkage"): _observe_linkage,
    **{("generators", name): _observe_pairs for name in PAIR_DRAW_GENERATORS},
}


class Tracer:
    """Installs the wrappers and collects their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        self._root_stack: list[Span] | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._root_stack = self._stack()
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"wellclust.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")
                        and (layer, name) not in UNWRAPPED):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        modules = [m for key, m in list(sys.modules.items())
                   if key == "wellclust" or key.startswith("wellclust.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, layer: str, name: str, fn):
        observe = OBSERVERS.get((layer, name))
        is_op = (layer, name) == OP_FUNCTION

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # A pool thread's first span was caused by whatever the
                # installing thread has open (compare_sweep).
                root = self._root_stack
                parent = root[0] if root and root is not stack else None
            span = Span()
            span.id = next(self._ids)
            span.parent = parent.id if parent is not None else 0
            if is_op:
                span.op = next(self._ops)
                span.op_span = span
            else:
                span.op = parent.op if parent is not None else 0
                span.op_span = parent.op_span if parent is not None else None
            span.layer = layer
            span.name = name
            span.phase = self.phase
            span.self_s = None
            span.cpu_s = None
            span.outer = all(s.name != name or s.layer != layer for s in stack)
            span.layer_outer = all(s.layer != layer for s in stack)
            span.thread = threading.get_ident()
            span.attrs = {}
            span.outcome = None
            stack.append(span)
            cpu0 = time.thread_time() if is_op else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                if is_op:
                    span.cpu_s = time.thread_time() - cpu0
                stack.pop()
                self.spans.append(span)
            if observe is not None:
                observe(span, args, kwargs, result)
            return result

        return traced

    def finish(self) -> None:
        """Set every span's self time: its duration minus the part of it
        that its child spans cover, on any thread."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            children.setdefault(span.parent, []).append(span)
        for span in self.spans:
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(span.id, ()),
                                key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            span.self_s = span.duration - covered

    def op_spans(self, phase: str) -> list[Span]:
        return [s for s in self.spans
                if s.phase == phase and (s.layer, s.name) == OP_FUNCTION]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.id):
                fh.write(json.dumps(span.to_json(), default=str) + "\n")


def unit_of(name: str) -> str:
    if name.endswith("_frac"):
        return "frac"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def _outer(spans, layer, name):
    return [s for s in spans if s.layer == layer and s.name == name and s.outer]


def _total(spans, layer, name) -> float:
    return sum(s.duration for s in _outer(spans, layer, name))


def _layer_self(spans, layer) -> float:
    return sum(s.self_s for s in spans if s.layer == layer)


def _attr_sum(spans, layer, name, key) -> float:
    return sum(s.attrs.get(key, 0) for s in _outer(spans, layer, name))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures: generators from the set-up phase, every other
    layer from the traced round."""
    tracer.finish()
    setup = [s for s in tracer.spans if s.phase == "setup"]
    run = [s for s in tracer.spans if s.phase == "run"]
    out: dict[str, float] = {}

    out["generators.generate_s"] = sum(
        s.duration for s in setup if s.layer == "generators" and s.layer_outer)
    out["generators.pair_draws"] = sum(s.attrs.get("pair_draws", 0)
                                       for s in setup)
    out["generators.self_s"] = _layer_self(setup, "generators")

    for fname in ("induced_subgraph", "cut_weight", "vertex_set"):
        out[f"graph.{fname}_calls"] = sum(
            1 for s in run if s.layer == "graph" and s.name == fname)
        out[f"graph.{fname}_s"] = _total(run, "graph", fname)
    out["graph.self_s"] = _layer_self(run, "graph")

    eigs = _outer(run, "spectral", "smallest_eigenvalues")
    out["spectral.eig_calls"] = len(eigs)
    out["spectral.eig_full_graph_calls"] = sum(
        1 for s in eigs if s.op_span is not None
        and s.attrs.get("n") == s.op_span.attrs.get("n"))
    out["spectral.eig_vertices"] = sum(s.attrs.get("n", 0) for s in eigs)
    out["spectral.eig_s"] = sum(s.duration for s in eigs)
    out["spectral.sweep_calls"] = len(_outer(run, "spectral",
                                             "spectral_partition"))
    out["spectral.sweep_s"] = _total(run, "spectral", "spectral_partition")
    out["spectral.self_s"] = _layer_self(run, "spectral")

    out["decomposition.runs"] = len(_outer(run, "decomposition",
                                           "strong_decomposition"))
    out["decomposition.derive_s"] = _total(run, "decomposition",
                                           "derive_params")
    out["decomposition.strong_s"] = _total(run, "decomposition",
                                           "strong_decomposition")
    out["decomposition.report_s"] = _total(run, "decomposition",
                                           "termination_report")
    out["decomposition.self_s"] = _layer_self(run, "decomposition")
    for key in ("iterations", "clusters"):
        out[f"decomposition.{key}"] = _attr_sum(
            run, "decomposition", "strong_decomposition", key)
    out["decomposition.stalled_runs"] = sum(
        1 for s in _outer(run, "decomposition", "strong_decomposition")
        if s.attrs.get("stalled"))

    trees = _outer(run, "degree_hc", "hc_with_degrees")
    out["degree_hc.calls"] = len(trees)
    out["degree_hc.leaves"] = sum(s.attrs.get("leaves", 0) for s in trees)
    out["degree_hc.s"] = sum(s.duration for s in trees)
    out["degree_hc.self_s"] = _layer_self(run, "degree_hc")

    for metric, fname in (("merge_s", "caterpillar_merge"),
                          ("relabel_s", "relabel_leaves"),
                          ("critical_nodes_s", "critical_nodes"),
                          ("random_tree_s", "random_tree"),
                          ("cost_edge_s", "dasgupta_cost"),
                          ("cost_cut_s", "dasgupta_cost_cutform")):
        out[f"tree.{metric}"] = _total(run, "tree", fname)
    out["tree.self_s"] = _layer_self(run, "tree")

    out["prune_merge.run_s"] = _total(run, "prune_merge", "run_prune_merge")
    out["prune_merge.naive_s"] = _total(run, "prune_merge",
                                        "naive_cluster_merge")
    out["prune_merge.self_s"] = _layer_self(run, "prune_merge")
    for key in ("pool_entries", "pruned"):
        out[f"prune_merge.{key}"] = _attr_sum(run, "prune_merge",
                                              "run_prune_merge", key)

    links = _outer(run, "linkage", "linkage")
    out["linkage.calls"] = len(links)
    for kind in ("single", "complete", "average"):
        out[f"linkage.{kind}_s"] = sum(s.duration for s in links
                                       if s.attrs.get("kind") == kind)
    out["linkage.self_s"] = _layer_self(run, "linkage")

    ops = [s for s in run if (s.layer, s.name) == OP_FUNCTION]
    wall = sum(s.duration for s in ops)
    cpu = sum(s.cpu_s for s in ops)
    out["experiment.ops"] = len(ops)
    out["experiment.op_wall_s"] = wall
    out["experiment.op_cpu_s"] = cpu
    out["experiment.wait_frac"] = 1.0 - cpu / wall if wall > 0 else 0.0
    out["experiment.checked_cost_s"] = _total(run, "experiment",
                                              "checked_cost")
    out["experiment.csv_s"] = _total(run, "experiment", "rows_to_csv")
    out["experiment.self_s"] = _layer_self(run, "experiment")
    out["trace.spans"] = len(tracer.spans)
    return out

