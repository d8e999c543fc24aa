"""Hierarchical clustering of weighted graphs with conductance guarantees.

The package builds Dasgupta-cost dendrograms three ways: a degree-ordering
heuristic that is provably good inside low-conductance clusters, classical
linkage baselines, and a prune-and-merge pipeline driven by a strong
(inner, outer)-conductance decomposition with certified cluster cores.
"""

from .decomposition import (DecompositionError, DecompParams, Partition,
                            derive_params, strong_decomposition,
                            termination_report)
from .degree_hc import hc_with_degrees
from .experiment import (ALGORITHMS, RunOutcome, SweepPoint, compare_sweep,
                         run_algorithm, write_csv)
from .generators import (GENERATOR_FAMILIES, GenSpec, PlantedLabels,
                         generate, load_labels, save_labels)
from .graph import (Graph, build_graph, induced_subgraph, load_graph,
                    save_graph, set_conductance, volume)
from .linkage import linkage
from .metrics import adjusted_rand_index
from .prune_merge import PruneMergeResult, best_over_k, run_prune_merge
from .spectral import (SpectralConvergenceError, SpectralResult, SweepCut,
                       smallest_eigenvalues, spectral_partition)
from .tree import (HCTree, TreeBuilder, brute_force_opt, caterpillar_merge,
                   critical_nodes, dasgupta_cost, dasgupta_cost_cutform,
                   load_tree, random_tree, save_tree)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS", "DecompParams", "DecompositionError", "GENERATOR_FAMILIES",
    "GenSpec", "Graph", "HCTree", "Partition", "PlantedLabels",
    "PruneMergeResult", "RunOutcome", "SpectralConvergenceError",
    "SpectralResult", "SweepCut", "SweepPoint", "TreeBuilder",
    "adjusted_rand_index", "best_over_k", "brute_force_opt", "build_graph",
    "caterpillar_merge", "compare_sweep", "critical_nodes",
    "dasgupta_cost", "dasgupta_cost_cutform", "derive_params",
    "generate", "hc_with_degrees", "induced_subgraph", "linkage",
    "load_graph", "load_labels", "load_tree", "random_tree", "run_algorithm",
    "run_prune_merge", "save_graph", "save_labels", "save_tree",
    "set_conductance", "smallest_eigenvalues", "spectral_partition",
    "strong_decomposition", "termination_report", "volume", "write_csv",
]
