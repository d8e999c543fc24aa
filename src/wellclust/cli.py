"""Command-line front end: generate graphs, run algorithms, score trees,
inspect spectra, decompose, and sweep algorithm comparisons to CSV.

Exit codes: 0 on success, 1 on validation errors (bad flags, malformed
files, infeasible parameters), 2 on numerical failures (eigensolver
non-convergence, decomposition iteration-cap blowups).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from .decomposition import (PHI_IN_MODES, DecompositionError, derive_params,
                            strong_decomposition)
from .experiment import (ALGORITHMS, SweepPoint, compare_sweep, run_algorithm,
                         write_csv)
from .generators import (FAMILY_PARAMS, GENERATOR_FAMILIES, GenSpec,
                         generate, save_labels)
from .graph import load_graph, save_graph
from .spectral import (SpectralConvergenceError, smallest_eigenvalues,
                       spectral_partition)
from .tree import dasgupta_cost, load_tree, save_tree

NUMERICAL_ERRORS = (SpectralConvergenceError, DecompositionError,
                    FloatingPointError, np.linalg.LinAlgError)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; we reserve 2 for
    numerical failures, so flag problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from None


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}") from None


def _add_family_flags(sub: argparse.ArgumentParser, sweep: bool) -> None:
    """Generator-family parameter flags.

    Under ``sweep`` the scalar knobs accept comma lists and the sweep runs
    their cartesian product.
    """
    num = _float_list if sweep else float
    cnt = _int_list if sweep else int
    sub.add_argument("--family", required=True, choices=GENERATOR_FAMILIES)
    sub.add_argument("--sizes", type=_int_list, metavar="N1,N2,...",
                     help="block sizes (sbm, sbm_planted_cliques)")
    sub.add_argument("--p", type=num, help="intra-block edge probability")
    sub.add_argument("--q", type=num, help="cross-block edge probability")
    sub.add_argument("--q-min", dest="q_min", type=float,
                     help="hsbm: smallest cross-block probability")
    sub.add_argument("--size", type=int, help="hsbm: vertices per block "
                     f"(default {FAMILY_PARAMS['hsbm'][1]['size']})")
    sub.add_argument("--n", type=cnt, help="vertex count (single-knob families)")
    sub.add_argument("--c-p", dest="c_p", type=num,
                     help="planted-clique fraction per block")
    sub.add_argument("--scale", type=num,
                     help="sbm_unequal: proportional size multiplier")
    sub.add_argument("--points-file", help="gaussian_kernel: one point per line")
    sub.add_argument("--sigma", type=float, help="gaussian_kernel: bandwidth")


_SWEEPABLE = ("p", "q", "c_p", "n", "scale")


def _load_points(path: str) -> list[list[float]]:
    points = []
    with open(path, encoding="ascii", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                point = [float(tok) for tok in parts]
                if points and len(point) != len(points[0]):
                    raise ValueError
                if not all(map(math.isfinite, point)):
                    raise ValueError
                points.append(point)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: bad point line {line!r}") from None
    if not points:
        raise ValueError(f"{path}: no points found")
    return points


def _dest(name: str) -> str:
    """The flag dest of a ``FAMILY_PARAMS`` name: the points come from a
    file."""
    return "points_file" if name == "points" else name


def _flag(name: str) -> str:
    return "--" + _dest(name).replace("_", "-")


def _family_params(args, parser: argparse.ArgumentParser) -> dict:
    """Collect this family's parameters from flags, rejecting missing ones
    and those of other families."""
    required, optional = FAMILY_PARAMS[args.family]
    taken = (*required, *optional)
    for other_required, other_optional in FAMILY_PARAMS.values():
        for name in (*other_required, *other_optional):
            if name not in taken and getattr(args, _dest(name)) is not None:
                parser.error(f"family {args.family!r} does not take "
                             f"{_flag(name)}")
    params = {}
    for name in taken:
        value = getattr(args, _dest(name))
        if value is None:
            if name in required:
                parser.error(f"family {args.family!r} requires {_flag(name)}")
            continue
        params[name] = value
    if "points" in params:
        params["points"] = _load_points(params["points"])
    return params


def _sweep_points(args, parser: argparse.ArgumentParser) -> list[SweepPoint]:
    """Cartesian product over the comma-list knobs, in fixed knob order."""
    params = _family_params(args, parser)
    swept = [k for k in _SWEEPABLE if isinstance(params.get(k), list)]
    grids = [params[k] for k in swept]
    points = []
    for combo in itertools.product(*grids):
        assign = dict(params)
        assign.update(zip(swept, combo))
        points.append(SweepPoint(args.family, assign))
    return points


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _check_best_over_k(args, parser, algos) -> None:
    """``--best-over-k`` needs prunemerge among ``algos`` and a KMAX of at
    least 2; ``run`` and ``compare`` check it before reading any file."""
    if args.best_over_k is None:
        return
    if "prunemerge" not in algos:
        parser.error(f"--best-over-k applies to prunemerge only, not "
                     f"{','.join(algos)}")
    if args.best_over_k < 2:
        parser.error("--best-over-k must be at least 2")


def cmd_generate(args, parser) -> int:
    params = _family_params(args, parser)
    G, labels = generate(GenSpec(args.family, params, args.seed))
    if args.labels is not None and labels is None:
        parser.error(f"family {args.family!r} has no planted labels")
    save_graph(G, args.out)
    if args.labels is not None:
        save_labels(args.labels, labels)
    print(f"wrote {args.out}: n={G.n} m={G.m} volume="
          f"{format(G.total_volume, '.12g')}")
    return 0


def cmd_run(args, parser) -> int:
    _check_best_over_k(args, parser, [args.algo])
    G = load_graph(args.graph)
    outcome = run_algorithm(G, args.algo, k=args.k, seed=args.seed,
                            best_k_max=args.best_over_k,
                            phi_in_mode=args.phi_in_mode,
                            timing=args.timing == "wall")
    if args.out is not None:
        save_tree(outcome.tree, args.out)
    if args.json:
        payload = {"algo": args.algo, "cost": outcome.cost, "k": outcome.k,
                   "ms": outcome.ms}
        if outcome.result is not None:
            payload["r"] = outcome.result.partition.r
            payload["stalled"] = outcome.result.decomposition_report["stalled"]
            payload["pruned"] = len(outcome.result.pruned)
        print(json.dumps(payload))
    else:
        print(format(outcome.cost, ".12g"))
        if outcome.ms is not None:
            print(f"ms {outcome.ms:.3f}", file=sys.stderr)
    return 0


def cmd_cost(args, parser) -> int:
    G = load_graph(args.graph)
    T = load_tree(args.tree)
    print(format(dasgupta_cost(G, T), ".12g"))
    return 0


def cmd_decompose(args, parser) -> int:
    G = load_graph(args.graph)
    params = derive_params(G, args.k, phi_in_mode=args.phi_in_mode)
    partition, report = strong_decomposition(G, params)
    iterations, stalled = report.pop("iterations"), report.pop("stalled")
    del report["trace_tail"]
    payload = {
        "k": args.k,
        "params": {
            "lambda_k": params.lambda_k,
            "lambda_k1": params.lambda_k1,
            "rho_star": params.rho_star,
            "phi_in": params.phi_in,
            "phi_out": params.phi_out,
            "phi_in_mode": params.phi_in_mode,
        },
        "sets": [sorted(int(v) for v in P) for P in partition.sets],
        "cores": [sorted(int(v) for v in c) for c in partition.cores],
        "iterations": iterations,
        "stalled": stalled,
        "report": report,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_spectrum(args, parser) -> int:
    G = load_graph(args.graph)
    result = smallest_eigenvalues(G, args.k)
    for i in range(len(result.eigenvalues)):
        print(f"{i} {result.eigenvalues[i]:.12g} {result.residuals[i]:.3g}")
    return 0


def cmd_sweep(args, parser) -> int:
    G = load_graph(args.graph)
    cut = spectral_partition(G)
    print(" ".join(str(int(v)) for v in sorted(cut.set)))
    print(format(cut.conductance, ".12g"))
    return 0


def cmd_compare(args, parser) -> int:
    algos = [tok.strip() for tok in args.algos.split(",") if tok.strip()]
    for algo in algos:
        if algo not in ALGORITHMS:
            parser.error(f"unknown algorithm {algo!r}; choose from "
                         f"{','.join(ALGORITHMS)}")
    _check_best_over_k(args, parser, algos)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    points = _sweep_points(args, parser)
    rows = compare_sweep(points, algos, seeds=range(1, args.seeds + 1),
                         k=args.k, best_k_max=args.best_over_k,
                         phi_in_mode=args.phi_in_mode, timing=args.timing)
    write_csv(rows, args.out)
    n_data = sum(1 for r in rows if r["seed"] != "mean")
    print(f"wrote {args.out}: {n_data} data rows + "
          f"{len(rows) - n_data} mean rows")
    if not any(r["status"] == "ok" for r in rows):
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wellclust",
                     description="hierarchical graph clustering toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    p_gen = subs.add_parser("generate", help="write a seeded graph instance")
    _add_family_flags(p_gen, sweep=False)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--labels", help="also write planted labels here")
    p_gen.set_defaults(func=cmd_generate)

    p_run = subs.add_parser("run", help="cluster a graph file, print cost")
    p_run.add_argument("--graph", required=True)
    p_run.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_run.add_argument("--k", type=int, default=2)
    p_run.add_argument("--best-over-k", dest="best_over_k", type=int,
                       help="prunemerge: try 2..KMAX, keep cheapest tree")
    p_run.add_argument("--seed", type=int, default=0,
                       help="random baseline's seed")
    p_run.add_argument("--out", help="write the dendrogram here")
    p_run.add_argument("--phi-in-mode", dest="phi_in_mode",
                       choices=PHI_IN_MODES, default="practical")
    p_run.add_argument("--timing", choices=("none", "wall"), default="none")
    p_run.add_argument("--json", action="store_true",
                       help="print a JSON record instead of the bare cost")
    p_run.set_defaults(func=cmd_run)

    p_cost = subs.add_parser("cost", help="score a dendrogram file")
    p_cost.add_argument("graph")
    p_cost.add_argument("tree")
    p_cost.set_defaults(func=cmd_cost)

    p_dec = subs.add_parser("decompose",
                            help="partition into low-conductance clusters")
    p_dec.add_argument("--graph", required=True)
    p_dec.add_argument("--k", type=int, required=True)
    p_dec.add_argument("--phi-in-mode", dest="phi_in_mode",
                       choices=PHI_IN_MODES, default="practical")
    p_dec.add_argument("--out", help="write the JSON here instead of stdout")
    p_dec.set_defaults(func=cmd_decompose)

    p_spec = subs.add_parser("spectrum",
                             help="smallest normalized-Laplacian eigenvalues")
    p_spec.add_argument("--graph", required=True)
    p_spec.add_argument("--k", type=int, required=True)
    p_spec.set_defaults(func=cmd_spectrum)

    p_sw = subs.add_parser("sweep", help="two-sided spectral sweep cut")
    p_sw.add_argument("--graph", required=True)
    p_sw.set_defaults(func=cmd_sweep)

    p_cmp = subs.add_parser("compare",
                            help="multi-seed algorithm comparison to CSV")
    _add_family_flags(p_cmp, sweep=True)
    p_cmp.add_argument("--algos", required=True,
                       metavar="A1,A2,...", help=",".join(ALGORITHMS))
    p_cmp.add_argument("--seeds", type=int, default=5,
                       help="instances per point, seeded 1..N")
    p_cmp.add_argument("--k", type=int, default=2)
    p_cmp.add_argument("--best-over-k", dest="best_over_k", type=int)
    p_cmp.add_argument("--phi-in-mode", dest="phi_in_mode",
                       choices=PHI_IN_MODES, default="practical")
    p_cmp.add_argument("--timing", choices=("none", "wall"), default="none")
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=cmd_compare)
    # a command's own checks print its usage, not the root parser's
    for sub in subs.choices.values():
        sub.set_defaults(parser=sub)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, args.parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # e.g. a graph header claiming 10**13 vertices
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
