"""Cut-query algorithms: learning, sparsifying, and min-cutting graphs
through a cut-value oracle while counting every distinct query."""

from .discovery import find_neighbor, learn_graph, singleton_state
from .flow import FlowAssignment, flow_cover_weight, max_flow, strip_flow
from .global_mincut import (
    contract_safe,
    cover_edge_count,
    enumerate_near_min_cuts,
    global_min_cut_v1,
    global_min_cut_v2,
)
from .graph import (
    ContractionState,
    Cut,
    SimpleGraph,
    WeightedGraph,
    barbell,
    better_cut,
    clique_plus_path,
    cycle,
    exact_cut_value,
    generate,
    gnp,
    planted_cut,
    planted_cut_sides,
    read_edge_list,
    write_edge_list,
)
from .contraction import karger_until, uniform_subsample
from .oracle import CutOracle, QueryLedger, edges_between
from .params import DEFAULT_EPS, DEFAULT_TUNING, Tuning, st_epsilon
from .reference import (
    brute_force_min_cut,
    brute_force_st_min_cut,
    definitional_strengths,
    deterministic_min_cut,
    exact_strengths,
    st_min_cut_known,
)
from .rng import derive_seed, make_rng
from .st_mincut import st_min_cut
from .strength import (
    Sparsifier,
    StrengthMap,
    approximate_strengths,
    strength_decompose_known,
)

__version__ = "0.1.0"

__all__ = [
    "ContractionState",
    "Cut",
    "CutOracle",
    "DEFAULT_EPS",
    "DEFAULT_TUNING",
    "FlowAssignment",
    "QueryLedger",
    "SimpleGraph",
    "Sparsifier",
    "StrengthMap",
    "Tuning",
    "WeightedGraph",
    "approximate_strengths",
    "barbell",
    "better_cut",
    "brute_force_min_cut",
    "brute_force_st_min_cut",
    "clique_plus_path",
    "contract_safe",
    "cover_edge_count",
    "cycle",
    "definitional_strengths",
    "derive_seed",
    "deterministic_min_cut",
    "edges_between",
    "enumerate_near_min_cuts",
    "exact_cut_value",
    "exact_strengths",
    "find_neighbor",
    "flow_cover_weight",
    "generate",
    "global_min_cut_v1",
    "global_min_cut_v2",
    "gnp",
    "karger_until",
    "learn_graph",
    "make_rng",
    "max_flow",
    "planted_cut",
    "planted_cut_sides",
    "read_edge_list",
    "singleton_state",
    "st_epsilon",
    "st_min_cut",
    "st_min_cut_known",
    "strength_decompose_known",
    "strip_flow",
    "uniform_subsample",
    "write_edge_list",
    "__version__",
]
