"""Binary optimization by discrete principal coordinate descent.

Public surface: core types and vector ops, the solver, baseline solvers,
objective constructors, graph tooling, and the hashing driver.
"""

from .core import (
    BinaryVector,
    BoundUnavailableError,
    ConstraintSpec,
    DimensionError,
    DomainError,
    NumericError,
    Objective,
    ParseError,
    SolverReport,
    UNCONSTRAINED,
    UnsupportedConstraintError,
    binary_vector,
    constraint_check,
    exact_ones,
    hamming_distance,
    random_feasible,
    sign,
    signs,
)
from .solver import (
    GRADIENT_AVERAGE,
    LIPSCHITZ,
    NEIGHBORHOOD_CAP,
    PrincipalSets,
    SolverConfig,
    ThresholdPolicy,
    balanced_flip,
    derive_thresholds,
    dpcd_solve,
    effective_epsilon,
    enumerate_neighborhood,
    neighborhood_search,
    neighborhood_size,
    principal_sets,
    step_bound,
    unconstrained_flip,
)
from .baselines import (
    OracleResult,
    exhaustive_oracle,
    greedy_peel,
    random_search,
    sgm_solve,
)
from .objectives import (
    AffinityProblem,
    HashingProblem,
    make_affinity_objective,
    make_dense_subgraph,
    make_hashing_objective,
    make_quadratic,
    make_shifted_separable,
)
from .graph import (
    SparseGraph,
    density,
    load_edge_list,
    load_matrix_market,
    planted_partition,
    save_edge_list,
)
from .hashing import (
    HashModel,
    RetrievalScore,
    alternating_hash,
    encode,
    evaluate_retrieval,
    load_matrix,
    load_matrix_binary,
    load_matrix_csv,
    save_matrix_binary,
    solve_projection,
    solve_w,
)

__version__ = "0.1.0"
