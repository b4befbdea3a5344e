"""Exact solvers for subset feedback vertex set and node multiway cut on
graphs of bounded independent set number, with brute-force oracles and
hardness-reduction generators for end-to-end verification."""

from .flow import (
    FlowNetwork,
    MaxFlowResult,
    UnboundedFlowError,
    max_flow,
    min_vertex_separator,
)
from .graph import (
    AlphaBoundError,
    Graph,
    GraphError,
    InternalInvariantError,
    PreconditionError,
    find_independent_set,
    independence_at_most,
    is_s_forest,
)
from .multiway import (
    check_multiway,
    solve_nmc_alpha2,
    solve_nmcdt_xp,
    solve_wnmcdt_alpha2,
)
from .oracle import (
    KINDS,
    ProblemInstance,
    SizeGuardError,
    Solution,
    feasible_removed,
    oracle_solve,
)
from .reductions import (
    MulticoloredInstance,
    ReductionOutput,
    TripartiteGraph,
    multicolored_source_optimum,
    reduce_mcis_to_fvs,
    reduce_vc3_to_nmc,
    reduce_vc3_to_wsfvs,
    verify_reduction,
)
from .solvers import (
    solve_sfvs_xp,
    solve_wsfvs_alpha3,
)

__version__ = "0.1.0"
