"""Communication resource allocation under a control-cost budget.

Feasible channel means are those whose expected optimal control cost stays
at or below a budget alpha; the communication cost of a configuration is
the price-weighted sum of its delivery probabilities.  Because the control
cost is strictly decreasing in every channel mean, the feasible set is an
up-set.  Every cost of an allocation runs on one cost setup of the
operators, protocol and state, which holds the constant term, f and the
diagonal split.  The grid stage evaluates every point of the k^m grid over
(0, 1]^m along its k^(m-1) lines (the points that share their first m-1
means), resolved as ``line_resolvents`` resolves them, which costs O(N)
per point once each line is diagonalized.  Points whose cost lies within
TIE_RTOL of the budget, and the frontier points, take the single-point
cost, so that feasibility is decided as ``is_feasible`` decides it.  The
stage takes the cheapest feasible point and the minimal feasible points
(the frontier) from the feasibility mask, and then bisects each priced
coordinate onto the active constraint.  The bisection of a channel runs on
one line, along which that channel moves and the others stay at their
current means, so each trial also costs O(N); a trial within TIE_RTOL of
the budget takes the single-point cost, as a grid point does, and the
bisection makes the decisions of ``is_feasible``.  A single-point cost
(the all-ones check and those points) is one Cholesky factor and one
triangular solve and has the bits of ``expected_cost``.  The report keeps
the cost of every grid point, which the full-grid CSV
(``write_frontier_csv``) prints without evaluating anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from .controller import Protocol, _line_resolvents, _point_costs, expected_cost
from .prediction import PredictionOperators

__all__ = [
    "AllocationReport",
    "communication_cost",
    "grid_points",
    "grid_size",
    "is_feasible",
    "optimize_allocation",
    "write_frontier_csv",
]

REFINE_TOL = 1e-6
# Relative band (of the cost with no input) around the budget in which the
# line cost of a grid point or a bisection trial is replaced by its
# single-point cost.  The two agree to about 1e-13, so outside the band both
# fall on the same side of the budget.
TIE_RTOL = 1e-10
# Relative width of the price shortlist ranked exactly in the grid stage.
SHORTLIST_TOL = 1e-9


@dataclass(frozen=True)
class AllocationReport:
    m_star: np.ndarray          # optimal per-channel means (refined)
    m_grid: np.ndarray          # grid-stage optimum before refinement
    comm_cost: float            # tr(beta M*)
    alpha: float
    protocol: Protocol
    grid_resolution: float
    frontier: list[tuple[tuple[float, ...], float]]  # boundary (mu, control cost)
    grid_costs: np.ndarray      # control cost of every grid point, in grid_points order
    beta: np.ndarray            # channel prices the allocation was made at


def communication_cost(mu, beta) -> float:
    """Price-weighted delivery probability sum."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta < 0.0):
        raise ValueError("beta must be nonnegative")
    return float(np.dot(np.asarray(mu, dtype=float), beta))


def is_feasible(ops: PredictionOperators, mu, protocol: Protocol,
                alpha: float, x) -> bool:
    """True iff the expected optimal cost at channel means mu is <= alpha."""
    return expected_cost(ops, protocol, x, upsilon=np.asarray(mu, dtype=float)).total <= alpha


def grid_size(resolution: float) -> int:
    """Number of grid values per channel, k = 1/resolution rounded."""
    if not 0.0 < resolution <= 0.5:
        raise ValueError("resolution must lie in (0, 0.5]")
    return int(round(1.0 / resolution))


def _grid_values(resolution: float) -> np.ndarray:
    k = grid_size(resolution)
    vals = np.round(np.arange(1, k + 1) * resolution, 12)
    vals[-1] = 1.0  # include the perfect channel exactly; zero is excluded
    return vals


def grid_points(values, m: int) -> np.ndarray:
    """Every m-tuple of ``values`` as the rows of a (len(values)**m, m)
    array, in ``itertools.product`` order (last coordinate fastest)."""
    axes = np.meshgrid(*(m * [np.asarray(values, dtype=float)]), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, m)


# One error state for every cost of an allocation, as for expected_cost: a
# cost that is not finite is refused by name, at perfect channels here and
# in the report on output.
@np.errstate(over="ignore", invalid="ignore")
def optimize_allocation(ops: PredictionOperators, protocol: Protocol, alpha: float,
                        beta, x, resolution: float = 0.01) -> AllocationReport:
    """Cheapest channel configuration meeting the cost budget.

    The grid over (0, 1]^m is evaluated line by line; among its feasible
    points the communication-cost minimizer is returned
    (ties broken by lexicographically smallest means), then bisects each
    priced coordinate down onto the budget boundary to within 1e-6, dearest
    first, on one line per channel through the current means (see the
    module docstring).
    Raises when alpha, beta or the cost at perfect channels is not finite,
    and when even perfect channels exceed the budget.
    """
    grid_size(resolution)  # rejects a resolution outside (0, 0.5]
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    beta = np.asarray(beta, dtype=float)
    m = ops.m
    if beta.shape != (m,):
        raise ValueError(f"beta must have length {m}")
    if not np.all(np.isfinite(beta)):
        raise ValueError("beta must be finite")
    if np.any(beta < 0.0):
        raise ValueError("beta must be nonnegative")
    point = _point_costs(ops, protocol, x)

    perfect = point.totals(np.ones((1, m)))[0]
    if not perfect <= alpha:
        if not np.isfinite(perfect):
            raise ValueError("the cost at all-ones channel means is not finite")
        raise ValueError("budget infeasible: cost at all-ones channel means exceeds alpha")

    vals = _grid_values(resolution)
    k = len(vals)
    points = grid_points(vals, m)
    lines = _line_resolvents(ops, point, grid_points(vals, m - 1) if m > 1 else None)
    costs = lines.costs(vals).ravel()
    band = TIE_RTOL * point.constant
    near = np.flatnonzero(np.abs(costs - alpha) <= band)
    if near.size:
        costs[near] = point.totals(points[near])
    ok = costs <= alpha
    feasible = np.flatnonzero(ok)

    # Shortlist by a vectorized price, then rank the shortlist with the
    # per-point key, so that exact ties break as communication_cost rounds.
    price = points[feasible] @ beta
    near = feasible[price <= price.min() + SHORTLIST_TOL * (1.0 + float(np.sum(beta)))]
    best = min(near, key=lambda j: (communication_cost(points[j], beta), tuple(points[j])))

    # boundary samples: feasible points whose every lower grid neighbour is not
    feas = ok.reshape((k,) * m)
    minimal = feas.copy()
    for i in range(m):
        below = np.roll(feas, 1, axis=i)
        np.moveaxis(below, i, 0)[0] = False  # the lowest grid value has no lower neighbour
        minimal &= ~below
    edge = np.flatnonzero(minimal)
    costs[edge] = point.totals(points[edge])
    frontier = [(tuple(points[j]), float(costs[j])) for j in edge]

    # Each priced channel, dearest first, is bisected on its own line: the
    # other channels stay at mu_star, and a trial's cost is O(N) on the
    # line's resolvents.  A trial whose line cost lies in the tie band (or
    # is not finite, or sits off the positive definite part of the line)
    # takes the single-point cost, so every decision is is_feasible's.
    mu_grid = points[best].astype(float)
    mu_star = mu_grid.copy()
    for i in sorted(range(m), key=lambda i: (-beta[i], i)):
        if beta[i] == 0.0:
            continue  # unpriced channels gain nothing from refinement
        line = _line_resolvents(ops, point, np.delete(mu_star, i)[np.newaxis], i)
        lam, h2, top = line.lam[0], line.h2[0], line.constant - line.offset[0]
        low = float(lam[0])
        lo, hi = 0.0, mu_star[i]
        trial = mu_star.copy()
        while hi - lo > REFINE_TOL:
            mid = 0.5 * (lo + hi)
            t = 1.0 / mid
            cost = top - np.sum(h2 / (lam + t)) if low + t > 0.0 else np.nan
            if not band < abs(cost - alpha) < np.inf:
                trial[i] = mid
                cost = point.totals(trial[np.newaxis])[0]
            if cost <= alpha:
                hi = mid
            else:
                lo = mid
        mu_star[i] = hi  # hi is always a feasible endpoint

    return AllocationReport(m_star=mu_star, m_grid=mu_grid,
                            comm_cost=communication_cost(mu_star, beta),
                            alpha=float(alpha), protocol=protocol,
                            grid_resolution=float(resolution), frontier=frontier,
                            grid_costs=costs, beta=beta)


def write_frontier_csv(path, ops: PredictionOperators, report: AllocationReport) -> None:
    """Full-grid export of the grid ``report`` was chosen from:
    ``mu_1..mu_m,control_cost,comm_cost,feasible``, every cell ``%.9g``.
    The costs are the report's; nothing is evaluated."""
    points = grid_points(_grid_values(report.grid_resolution), ops.m)
    costs = report.grid_costs
    header = [f"mu_{i+1}" for i in range(ops.m)] + ["control_cost", "comm_cost", "feasible"]
    write_csv(path, header, np.column_stack([points, costs, points @ report.beta,
                                             costs <= report.alpha]))
