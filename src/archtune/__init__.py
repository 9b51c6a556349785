"""Self-tuning control architectures for discrete-time linear networks.

Online joint selection of sensors, actuators, and feedback/estimation gains:
greedy swapping over device sets driven by predicted closed-loop cost, an
exact piecewise-quadratic DP oracle for small instances, and a seeded
simulation harness comparing fixed against self-tuning architectures.
"""

from .costs import (
    CostLedger,
    CostParameters,
    LedgerEntry,
    accumulate_true_cost,
    predicted_cost,
    running_cost,
    switching_cost,
    synthesize_gains,
    total_estimated_cost,
    true_stage_cost,
    uniform_cost_parameters,
)
from .exact_dp import (
    PiecewiseQuadratic,
    QuadraticPiece,
    architecture_subsets,
    brute_force_value,
    dp_backward,
    evaluate,
)
from .greedy import (
    Choice,
    change_count,
    greedy_actuator_state_feedback,
    greedy_select,
    greedy_swap,
    least_squares_identify,
    rejection_choices,
    selection_choices,
)
from .network import (
    ArchitectureConstraints,
    ArchitectureSet,
    LinearNetworkSystem,
    build_input_matrix,
    build_output_matrix,
    random_network,
    random_network_localized,
)
from .simulation import (
    ComparisonSummary,
    SimulationConfig,
    SimulationTrace,
    compare_runs,
    simulate,
)
from .synthesis import (
    DIVERGED,
    Diverged,
    GainSchedule,
    estimator_update,
    kalman_forward,
    kalman_step,
    lqr_backward,
    riccati_step,
    solve_dare,
)

__version__ = "0.1.0"

__all__ = [
    "ArchitectureConstraints",
    "ArchitectureSet",
    "Choice",
    "ComparisonSummary",
    "CostLedger",
    "CostParameters",
    "DIVERGED",
    "Diverged",
    "GainSchedule",
    "LedgerEntry",
    "LinearNetworkSystem",
    "PiecewiseQuadratic",
    "QuadraticPiece",
    "SimulationConfig",
    "SimulationTrace",
    "accumulate_true_cost",
    "architecture_subsets",
    "brute_force_value",
    "build_input_matrix",
    "build_output_matrix",
    "change_count",
    "compare_runs",
    "dp_backward",
    "estimator_update",
    "evaluate",
    "greedy_actuator_state_feedback",
    "greedy_select",
    "greedy_swap",
    "kalman_forward",
    "kalman_step",
    "least_squares_identify",
    "lqr_backward",
    "predicted_cost",
    "random_network",
    "random_network_localized",
    "rejection_choices",
    "riccati_step",
    "running_cost",
    "selection_choices",
    "simulate",
    "solve_dare",
    "switching_cost",
    "synthesize_gains",
    "total_estimated_cost",
    "true_stage_cost",
    "uniform_cost_parameters",
]
