"""Finite-horizon LQG/MPC synthesis, analysis, and simulation for linear
plants actuated over independent Bernoulli packet-loss channels, under
acknowledged (TCP-like) and unacknowledged (UDP-like) protocols."""

from importlib import resources

from .allocation import (AllocationReport, communication_cost, is_feasible,
                         optimize_allocation, write_frontier_csv)
from .analysis import (GapReport, MaxDiffReport, RootCandidate, cost_gap,
                       determinant_root_candidates, gap_derivative,
                       iso_cost_transmission, maximal_gap, monotonic_sweep,
                       scalar_cost_gap, write_sweep_csv)
from .controller import (ControlLaw, CostReport, LineResolvents, Protocol,
                         bernoulli_quadratic_expectation,
                         closed_loop_eigenvalues, error_quadratic_expectation,
                         expected_cost, expected_costs, line_resolvents,
                         optimal_sequence, synthesize)
from .prediction import PredictionOperators, build_prediction_operators
from .scenario import (ChannelModel, ParseError, PlantModel, Scenario,
                       ScenarioError, SimOptions, ValidationError, WeightSpec,
                       load_scenario, save_scenario, scenario_from_dict,
                       scenario_to_dict, validate_scenario)
from .simulator import (MonteCarloStats, TrajectoryRecord, monte_carlo_cost,
                        open_loop_rollout, receding_horizon_sim,
                        replicate_seed, write_trajectory_csv)

__version__ = "0.1.0"


def fixture_path(name: str):
    """Filesystem path of a bundled scenario fixture ('pendulum' or 'mixed')."""
    ref = resources.files(__name__) / "fixtures" / f"{name}.json"
    with resources.as_file(ref) as p:
        return p
