"""End-to-end acceptance criteria, one test per numbered criterion.

Each test prints (and registers for the terminal summary) a single line
``CRITERION n: PASS/FAIL - measurements``.

Criteria 7 and 10 compare the pipeline against baselines whose advantage
the pipeline only promises under a precondition: pruning beats the
no-pruning fold only where a subtree is detached, and degree ordering
competes with single linkage only inside certified clusters. Each
comparison applies where the run reports its precondition (``pruned``,
``partition.r``, the ``stalled`` flag), and those reports are checked
against independent oracles (``prune_condition_ORACLE``,
``termination_report``, and ``naive_merge_ORACLE`` for the unpruned tree). Their lines carry the measured margins and the
certified-seed counts on PASS as well; see README for the analysis.
"""

import math
import subprocess
import sys
import time

import numpy as np

import conftest
from conftest import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
    unit_graph,
    weighted_graph,
)
from wellclust.decomposition import (_State, derive_params,
                                     strong_decomposition, termination_report)
from wellclust.degree_hc import hc_with_degrees
from wellclust.experiment import ALGORITHMS, run_algorithm
from wellclust.generators import (gen_bridged_two_cluster,
                                  gen_planted_clique_expander, gen_sbm,
                                  gen_sbm_planted_cliques, gen_sbm_unequal)
from wellclust.graph import build_graph, induced_subgraph
from wellclust.linkage import linkage
from wellclust.metrics import adjusted_rand_index
from wellclust.prune_merge import _fold, _prune_cluster, run_prune_merge
from wellclust.spectral import smallest_eigenvalues, spectral_partition
from wellclust.tree import (brute_force_opt, caterpillar_merge,
                            critical_nodes, dasgupta_cost,
                            dasgupta_cost_cutform, random_tree,
                            relabel_leaves)
from oracles import (all_tree_costs_ORACLE, cut_weight_ORACLE,
                     double_factorial_trees, graph_conductance_exact_ORACLE,
                     naive_merge_ORACLE, prune_condition_ORACLE)


def record(num, ok, detail):
    line = f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def structured_graphs():
    """Named graphs up to 12 vertices plus weighted random ones."""
    graphs = [path_graph(8), cycle_graph(12), complete_graph(5),
              complete_graph(12), star_graph(8),
              unit_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
              weighted_graph(4, [(0, 1, 3.0), (1, 2, 1.0), (2, 3, 5.0),
                                 (0, 3, 2.0)])]
    for n in (6, 9, 12):
        graphs.append(random_connected_graph(n, 300 + n))
    return graphs


def test_criterion_01_cost_form_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 31))
        edges = [(i, j, float(rng.integers(1, 10)))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.35]
        if not edges:
            edges = [(0, 1, float(rng.integers(1, 10)))]
        G = build_graph(n, edges)
        T = random_tree(n, int(rng.integers(0, 2**31)))
        if dasgupta_cost(G, T) != dasgupta_cost_cutform(G, T):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    line = record(1, ok, f"200 graphs x random trees, {mismatches} "
                         f"mismatches, {elapsed:.2f}s")
    assert ok, line


def test_criterion_02_trivial_bound_everywhere(small_corpus):
    start = time.perf_counter()
    graphs = list(small_corpus) + structured_graphs()
    graphs += [gen_sbm([40, 40], 0.3, 0.02, s)[0] for s in (1, 2)]
    graphs += [gen_sbm([30, 30, 30], 0.3, 0.01, 3)[0],
               gen_planted_clique_expander(128, 1)[0],
               gen_sbm_planted_cliques([40, 40], 0.4, 0.02, 0.3, 4)[0],
               gen_sbm_unequal(5, 0.1, 0.1)[0]]
    produced = 0
    violations = []
    for G in graphs:
        for algo in ALGORITHMS:
            try:
                out = run_algorithm(G, algo, k=2, seed=7)
            except ValueError:
                continue
            produced += 1
            if out.cost > G.n * G.total_volume / 2 + 1e-9:
                violations.append((G.n, algo, out.cost))
    elapsed = time.perf_counter() - start
    ok = not violations and produced >= 7 * len(graphs) // 2
    line = record(2, ok, f"{produced} trees over {len(graphs)} graphs x "
                         f"{len(ALGORITHMS)} algorithms, {len(violations)} "
                         f"bound violations, {elapsed:.1f}s")
    assert ok, f"{line}; violations={violations[:5]}"


def test_criterion_03_small_graph_oracle_bounds(small_corpus):
    start = time.perf_counter()
    viol_lower = []
    viol_upper = []
    for G in small_corpus:
        phi = graph_conductance_exact_ORACLE(G)
        opt, _ = brute_force_opt(G)
        cost_deg = dasgupta_cost(G, hc_with_degrees(G))
        deg, vol = G.degrees, G.total_volume
        d_avg = vol / G.n
        lower = (2 * phi / 9) * max(vol ** 2 / deg.max(),
                                    deg.min() * G.n ** 2)
        upper = (9 / (4 * phi)) * min(d_avg / deg.min(),
                                      deg.max() / d_avg) * opt
        if opt < lower:
            viol_lower.append((G.n, opt, lower))
        if cost_deg > upper:
            viol_upper.append((G.n, cost_deg, upper))
    elapsed = time.perf_counter() - start
    ok = (len(small_corpus) >= 500 and not viol_lower and not viol_upper
          and elapsed < 120.0)
    line = record(3, ok, f"{len(small_corpus)} isomorphism classes (n<=7), "
                         f"{len(viol_lower)} lower / {len(viol_upper)} upper "
                         f"violations, {elapsed:.1f}s")
    assert ok, f"{line}; lower={viol_lower[:3]} upper={viol_upper[:3]}"


def test_criterion_04_clique_cost_identity():
    start = time.perf_counter()
    bad = []
    for n in range(3, 8):
        G = complete_graph(n)
        expected = (n ** 3 - n) / 3
        costs = np.asarray(all_tree_costs_ORACLE(G))
        opt, _ = brute_force_opt(G)
        if (len(costs) != double_factorial_trees(n)
                or not np.all(costs == expected) or opt != expected):
            bad.append(n)
    elapsed = time.perf_counter() - start
    ok = not bad
    line = record(4, ok, f"complete graphs n=3..7, all "
                         f"{double_factorial_trees(7)} topologies at n=7 "
                         f"cost (n^3-n)/3, {elapsed:.2f}s")
    assert ok, f"{line}; failing n={bad}"


def test_criterion_05_cheeger_sandwich(small_corpus):
    start = time.perf_counter()
    graphs = [G for G in list(small_corpus) + structured_graphs()
              if G.n <= 12]
    violations = []
    for G in graphs:
        lam2 = max(0.0, float(smallest_eigenvalues(G, 2).eigenvalues[1]))
        phi = graph_conductance_exact_ORACLE(G)
        cut = spectral_partition(G)
        lower_ok = lam2 / 2 <= phi + 1e-6
        upper_ok = phi <= math.sqrt(2 * lam2) + 1e-6
        sweep_ok = cut.conductance <= 2 * math.sqrt(phi) + 1e-6
        if not (lower_ok and upper_ok and sweep_ok):
            violations.append((G.n, lam2, phi, cut.conductance))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 60.0
    line = record(5, ok, f"{len(graphs)} graphs n<=12, "
                         f"{len(violations)} sandwich/sweep violations, "
                         f"{elapsed:.1f}s")
    assert ok, f"{line}; violations={violations[:5]}"


def test_criterion_06_expander_clique_scaling():
    start = time.perf_counter()
    growths = []
    sep_fracs = []
    for seed in (1, 2, 3):
        ratio = {}
        for n in (512, 4096):
            G, labels = gen_planted_clique_expander(n, seed)
            clique = labels.cliques[0]
            cost_deg = dasgupta_cost(G, hc_with_degrees(G))
            ratio[n] = dasgupta_cost(G, random_tree(G.n, seed)) / cost_deg
            rest = np.setdiff1d(np.arange(G.n), clique)
            parts = [relabel_leaves(hc_with_degrees(induced_subgraph(G, S)),
                                    S) for S in (clique, rest)]
            sep_cost = dasgupta_cost(G, caterpillar_merge(parts))
            sep_fracs.append(cost_deg / sep_cost)
        growths.append(ratio[4096] / ratio[512])
    elapsed = time.perf_counter() - start
    ok = (all(g >= 1.3 for g in growths) and all(f <= 3.0 for f in sep_fracs)
          and elapsed < 180.0)
    line = record(6, ok, f"random/degree-order cost ratio grows x"
                         f"{min(growths):.3f}..x{max(growths):.3f} from "
                         f"n=512 to 4096 (need >=1.3); degree-order <= "
                         f"{max(sep_fracs):.2f}x separate-clique-first "
                         f"(need <=3), {elapsed:.1f}s")
    assert ok, line


def keep_whole_margin(G, P, k):
    """By how much the keep-whole test passes on cluster P: values above 1
    mean no subtree would be detached."""
    ind = induced_subgraph(G, P)
    T = hc_with_degrees(ind)
    crit = critical_nodes(ind, T)
    outside = np.setdiff1d(np.arange(G.n), P, assume_unique=True)
    lhs = rhs = 0.0
    for node in crit:
        local = T.leaves_under(node)
        lhs += cut_weight_ORACLE(G, P[local], outside)
        parent = int(T.parent[node])
        parent_leaves = int(T.leaf_count[parent if parent >= 0 else node])
        rhs += parent_leaves * float(ind.degrees[local].sum())
    return math.inf if lhs == 0 else (6.0 * (k + 1) * rhs) / (G.n * lhs)


def same_tree(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("left", "right", "parent", "leaf_vertex"))


def stall_audit(G, res, params):
    """Independent termination audit of a pipeline run's partition under
    the run's ``params``, and whether the run's own ``stalled`` flag agrees
    with its while_2 predicate (a sweep candidate survives that no branch
    accepted)."""
    audit = termination_report(G, res.partition, params)
    agrees = res.decomposition_report["stalled"] == \
        audit["predicates"]["while_2"]
    return audit, agrees


def first_prune_mismatches(G, res, k):
    """Clusters whose first keep-whole outcome in ``condition_trace``
    differs from ``prune_condition_ORACLE`` on the cluster's own
    degree tree; singletons are never tested and must have empty traces."""
    bad = []
    for i, (P, trace) in enumerate(zip(res.partition.sets,
                                       res.condition_trace)):
        ind = induced_subgraph(G, P)
        if ind.n < 2:
            expected = None
        else:
            T = hc_with_degrees(ind)
            crit = critical_nodes(ind, T)
            expected = not crit or prune_condition_ORACLE(G, T, crit, P, k)
        if (trace[0] if trace else None) != expected:
            bad.append(i)
    return bad


def test_criterion_07_bridged_cluster_separation():
    """The prune stage can only beat the no-pruning baseline where it
    detaches something; at these sizes it detaches nothing, so the check
    there is that the two trees coincide, plus the measured trend of the
    keep-whole margin that a detachment would have to overcome."""
    start = time.perf_counter()
    ratios = {}
    r_values = {}
    stalled = {}
    margins = {}
    pruned = {}
    problems = []
    for n in (256, 1024):
        G, labels = gen_bridged_two_cluster(n, 1)
        params = derive_params(G, 2)
        res = run_prune_merge(G, params)
        naive = naive_merge_ORACLE(
            G, strong_decomposition(G, derive_params(G, 2))[0])
        ratios[n] = dasgupta_cost(G, naive) / dasgupta_cost(G, res.tree)
        r_values[n] = res.partition.r
        stalled[n] = res.decomposition_report["stalled"]
        pruned[n] = len(res.pruned)
        margins[n] = min(keep_whole_margin(
            G, np.flatnonzero(labels.clusters == c), 2) for c in (0, 1))
        if not stall_audit(G, res, params)[1]:
            problems.append(f"n={n}: stalled flag disagrees with the audit")
        if first_prune_mismatches(G, res, 2):
            problems.append(f"n={n}: keep-whole trace disagrees with "
                            f"prune_condition_ORACLE")
        if res.pruned and not ratios[n] > 1.0:
            problems.append(f"n={n}: detached {pruned[n]} subtrees, "
                            f"naive/prune ratio not above 1")
        if not res.pruned and not same_tree(res.tree, naive):
            problems.append(f"n={n}: nothing detached, yet the tree differs "
                            f"from naive_merge_ORACLE")
    if any(pruned.values()) and not ratios[1024] > ratios[256]:
        problems.append("naive/prune ratio not increasing in n")
    if not margins[1024] < margins[256]:
        problems.append("keep-whole margin on the planted copies does not "
                        "fall with n")
    exponent = math.log(margins[1024] / margins[256]) / math.log(4)
    crossover = (256 * margins[256] ** (-1.0 / exponent) if exponent < 0
                 else math.inf)
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 180.0
    line = record(7, ok, f"naive/prune ratio {ratios[256]:.6f} at n=256, "
                         f"{ratios[1024]:.6f} at n=1024 (need >1 and "
                         f"increasing where a subtree is detached, else "
                         f"identical trees); detached {pruned[256]}/"
                         f"{pruned[1024]}, r={r_values[256]}/"
                         f"{r_values[1024]}, stalled={stalled[256]}/"
                         f"{stalled[1024]}; planted-copy keep-whole margin "
                         f"{margins[256]:.1f} -> {margins[1024]:.1f} "
                         f"(need falling), ~n^{exponent:.3f}, reaches 1 "
                         f"near n~{crossover:.1e}; {elapsed:.1f}s")
    assert ok, f"{line}; {problems}"


def test_criterion_08_decomposition_contract():
    start = time.perf_counter()
    ari_ok = 0
    failures = []
    for seed in range(1, 11):
        G, labels = gen_sbm([100, 100, 100], 0.3, 0.002, seed)
        params = derive_params(G, 3)
        partition, run_report = strong_decomposition(G, params)
        report = termination_report(G, partition, params)
        preds_clear = not any(report["predicates"].values())
        a3_all = all(node["a3_ok"] for cluster in report["clusters"]
                     for node in cluster["critical_nodes"])
        within_cap = (not run_report["stalled"]
                      and run_report["iterations"] <= params.max_iterations)
        ari = adjusted_rand_index(labels.clusters, partition.labels)
        ari_ok += ari >= 0.9
        if not (within_cap and partition.r <= 3 and preds_clear and a3_all):
            failures.append((seed, partition.r, run_report["iterations"],
                             preds_clear, a3_all))
    elapsed = time.perf_counter() - start
    ok = not failures and ari_ok >= 8 and elapsed < 120.0
    line = record(8, ok, f"10 seeded block models: {ari_ok}/10 with "
                         f"ARI>=0.9, {len(failures)} contract failures, "
                         f"{elapsed:.1f}s")
    assert ok, f"{line}; failures={failures}"


def forced_prune_pool():
    """Construction that forces detachments: two bridged unit 4-cliques
    as one cluster, with vertex 0 pouring weight 50 onto each of 20
    outside vertices."""
    edges = []
    for a in range(4):
        for b in range(a + 1, 4):
            edges.append((a, b, 1.0))
            edges.append((4 + a, 4 + b, 1.0))
    edges.append((3, 4, 1.0))
    for x in range(8, 28):
        edges.append((0, x, 50.0))
    for x in range(8, 27):
        edges.append((x, x + 1, 1.0))
    G = weighted_graph(28, edges)
    cluster = np.arange(8)
    ext = np.arange(8, 28)
    # the cluster's view, with its tree and critical nodes, as the
    # decomposition hands it to the prune stage
    view = _State(G, derive_params(G, 2), sets=[cluster, ext],
                  cores=[cluster, ext]).info(0)
    pieces, _ = _prune_cluster(G, view, 2, 0)
    ext_tree = relabel_leaves(hc_with_degrees(induced_subgraph(G, ext)), ext)
    return list(_fold(G.n, pieces + [(ext_tree, None)])[2]), 2


def test_criterion_09_detached_subtree_parent_bound():
    start = time.perf_counter()
    runs = [(gen_sbm([50, 50, 50], 0.3, 0.002, s)[0], 3) for s in (1, 2, 3)]
    runs += [(gen_sbm([40, 60, 80], 0.3, 0.002, 8)[0], 3),
             (gen_bridged_two_cluster(256, 1)[0], 2),
             (gen_sbm_planted_cliques([100, 100, 100], 0.06, 0.002, 0.4,
                                      1)[0], 3),
             (unit_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5),
                             (4, 5)]), 2)]
    records = []
    for G, k in runs:
        result = run_prune_merge(G, derive_params(G, k))
        records += [(rec, k) for rec in result.pruned]
    pipeline_count = len(records)
    crafted, crafted_k = forced_prune_pool()
    records += [(rec, crafted_k) for rec in crafted]
    violations = [rec for rec, k in records
                  if rec["parent_final_leaves"] > 12 * k * rec["leaf_count"]]
    elapsed = time.perf_counter() - start
    ok = not violations and len(crafted) >= 2
    line = record(9, ok, f"{len(records)} detached-subtree records "
                         f"({pipeline_count} from {len(runs)} pipeline runs, "
                         f"{len(crafted)} from the forced construction), "
                         f"{len(violations)} parent-size violations, "
                         f"{elapsed:.1f}s")
    assert ok, f"{line}; violations={violations[:3]}"


def test_criterion_10_reduced_scale_cost_orderings():
    """Clause 1: degree ordering competes with single linkage inside
    certified clusters, so the single/prune bound applies to the seeds
    whose decomposition is certified k-clustered, and p = 0.12 and 0.2 must
    certify on every seed. Clause 2: pruning can only beat the no-pruning
    baseline where a subtree is detached; elsewhere both trees coincide."""
    start = time.perf_counter()
    k = 3
    seeds = (1, 2, 3, 4, 5)
    must_certify = (0.12, 0.2)
    sweep = {}
    certified = {}
    uncertified = {}
    r_seen = {}
    problems = []
    for p in (0.04, 0.12, 0.2):
        norms = {True: [], False: []}
        r_seen[p] = []
        for seed in seeds:
            G, _ = gen_sbm([300, 300, 300], p, 0.002, seed)
            params = derive_params(G, k)
            res = run_prune_merge(G, params)
            cost_prune = dasgupta_cost(G, res.tree)
            cost_single = dasgupta_cost(G, linkage(G, "single"))
            audit, stall_ok = stall_audit(G, res, params)
            is_certified = (res.partition.r == k
                            and not res.decomposition_report["stalled"]
                            and not any(audit["predicates"].values()))
            if not stall_ok:
                problems.append(f"p={p} seed={seed}: stalled flag disagrees "
                                f"with the audit")
            norms[is_certified].append(cost_single / cost_prune)
            r_seen[p].append(res.partition.r)
        certified[p] = len(norms[True])
        sweep[p] = float(np.mean(norms[True])) if norms[True] else None
        uncertified[p] = (float(np.mean(norms[False])) if norms[False]
                          else None)
        if sweep[p] is not None and sweep[p] < 1.0:
            problems.append(f"p={p}: single/prune {sweep[p]:.4f} < 1 on "
                            f"certified seeds")
        if p in must_certify and certified[p] < len(seeds):
            problems.append(f"p={p}: only {certified[p]}/{len(seeds)} seeds "
                            f"certified")

    prune_costs = []
    naive_costs = []
    for seed in seeds:
        G, _ = gen_sbm_planted_cliques([300, 300, 300], 0.06, 0.002, 0.4,
                                       seed)
        res = run_prune_merge(G, derive_params(G, k))
        naive = naive_merge_ORACLE(
            G, strong_decomposition(G, derive_params(G, k))[0])
        if first_prune_mismatches(G, res, k):
            problems.append(f"clique seed={seed}: keep-whole trace disagrees "
                            f"with prune_condition_ORACLE")
        if res.pruned:
            prune_costs.append(dasgupta_cost(G, res.tree))
            naive_costs.append(dasgupta_cost(G, naive))
        elif not same_tree(res.tree, naive):
            problems.append(f"clique seed={seed}: nothing detached, yet the "
                            f"tree differs from naive_merge_ORACLE")
    clique_ratio = (float(np.mean(prune_costs) / np.mean(naive_costs))
                    if prune_costs else None)
    if clique_ratio is not None and clique_ratio > 0.9:
        problems.append(f"prune/naive {clique_ratio:.6f} > 0.9 on seeds "
                        f"with a detached subtree")
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 600.0

    def fmt(x, digits):
        return "-" if x is None else f"{x:.{digits}f}"

    line = record(10, ok,
                  "single/prune means on certified seeds "
                  + ", ".join(f"p={p}: {fmt(sweep[p], 4)} "
                              f"({certified[p]}/{len(seeds)} certified, "
                              f"r={r_seen[p]}, uncertified "
                              f"{fmt(uncertified[p], 4)})" for p in sweep)
                  + f" (need >=1 where certified, all seeds certified at "
                    f"p={must_certify}); prune/naive on planted cliques "
                    f"{fmt(clique_ratio, 6)} over {len(prune_costs)}/"
                    f"{len(seeds)} seeds with a detached subtree (need <=0.9 "
                    f"there, identical trees elsewhere), {elapsed:.0f}s")
    assert ok, f"{line}; {problems}"


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "wellclust.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_11_cli_determinism(tmp_path):
    start = time.perf_counter()
    identical = []

    def twice(name, argv, outfiles=()):
        outs = []
        for _ in (0, 1):
            body = run_cli(*argv)
            for path in outfiles:
                body += path.read_text()
            outs.append(body)
        identical.append((name, outs[0] == outs[1]))

    g = tmp_path / "g.txt"
    lab = tmp_path / "lab.txt"
    twice("generate",
          ["generate", "--family", "sbm", "--sizes", "12,12", "--p", "0.5",
           "--q", "0.05", "--seed", "3", "--out", str(g),
           "--labels", str(lab)], (g, lab))
    t = tmp_path / "t.txt"
    twice("run",
          ["run", "--graph", str(g), "--algo", "prunemerge", "--k", "2",
           "--out", str(t)], (t,))
    twice("cost", ["cost", str(g), str(t)])
    d = tmp_path / "d.json"
    twice("decompose",
          ["decompose", "--graph", str(g), "--k", "2", "--out", str(d)],
          (d,))
    twice("spectrum", ["spectrum", "--graph", str(g), "--k", "3"])
    twice("sweep", ["sweep", "--graph", str(g)])
    c = tmp_path / "c.csv"
    twice("compare",
          ["compare", "--family", "sbm", "--sizes", "8,8", "--p", "0.4,0.6",
           "--q", "0.1", "--algos", "degrees,prunemerge,single",
           "--seeds", "2", "--out", str(c)], (c,))
    elapsed = time.perf_counter() - start
    unstable = [name for name, same in identical if not same]
    ok = not unstable
    line = record(11, ok, f"{len(identical)} commands rerun byte-identical"
                          f" ({len(unstable)} unstable), {elapsed:.1f}s")
    assert ok, f"{line}; unstable={unstable}"
