"""Communication resource allocation under a control-cost budget.

Feasible channel means are those whose expected optimal control cost stays
at or below a budget alpha; the communication cost of a configuration is
the price-weighted sum of its delivery probabilities.  Because the control
cost is strictly decreasing in every channel mean, the feasible set is an
up-set.  The grid stage evaluates every point of the k^m grid over
(0, 1]^m in one batched cost call (``expected_costs``), takes the cheapest
feasible point and the minimal feasible points (the frontier) from the
resulting arrays, and then bisects each priced coordinate onto the active
constraint with single-point cost calls.  The grid is exhaustive, so its
work grows as k^m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controller import Protocol, expected_cost, expected_costs
from .prediction import PredictionOperators

__all__ = [
    "AllocationReport",
    "communication_cost",
    "grid_points",
    "is_feasible",
    "optimize_allocation",
    "write_frontier_csv",
]

REFINE_TOL = 1e-6
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


def _grid_values(resolution: float) -> np.ndarray:
    k = int(round(1.0 / resolution))
    vals = np.round(np.arange(1, k + 1) * resolution, 12)
    vals[-1] = 1.0  # include the perfect channel exactly; zero is excluded
    return vals


def grid_points(values, m: int) -> np.ndarray:
    """Every m-tuple of ``values`` as the rows of a (len(values)**m, m)
    array, in ``itertools.product`` order (last coordinate fastest)."""
    axes = np.meshgrid(*(m * [np.asarray(values, dtype=float)]), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, m)


def optimize_allocation(ops: PredictionOperators, protocol: Protocol, alpha: float,
                        beta, x, resolution: float = 0.01) -> AllocationReport:
    """Cheapest channel configuration meeting the cost budget.

    Grid search over (0, 1]^m keeps feasible points and returns the
    communication-cost minimizer (ties broken by lexicographically smallest
    means), then bisects each priced coordinate down onto the budget
    boundary to within 1e-6.  Raises when even perfect channels exceed the
    budget.
    """
    if not 0.0 < resolution <= 0.5:
        raise ValueError("resolution must lie in (0, 0.5]")
    beta = np.asarray(beta, dtype=float)
    m = ops.m
    if beta.shape != (m,):
        raise ValueError(f"beta must have length {m}")
    if np.any(beta < 0.0):
        raise ValueError("beta must be nonnegative")
    x = np.asarray(x, dtype=float)

    if not is_feasible(ops, np.ones(m), protocol, alpha, x):
        raise ValueError("budget infeasible: cost at all-ones channel means exceeds alpha")

    vals = _grid_values(resolution)
    k = len(vals)
    points = grid_points(vals, m)
    costs = expected_costs(ops, protocol, x, points)
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
    frontier = [(tuple(points[j]), float(costs[j])) for j in np.flatnonzero(minimal)]

    mu_grid = points[best].astype(float)
    mu_star = mu_grid.copy()
    order = sorted(range(m), key=lambda i: (-beta[i], i))
    for i in order:
        if beta[i] == 0.0:
            continue  # unpriced channels gain nothing from refinement
        lo, hi = 0.0, mu_star[i]
        trial = mu_star.copy()
        while hi - lo > REFINE_TOL:
            mid = 0.5 * (lo + hi)
            if mid <= 0.0:
                break
            trial[i] = mid
            if is_feasible(ops, trial, protocol, alpha, x):
                hi = mid
            else:
                lo = mid
        mu_star[i] = hi  # hi is always a feasible endpoint

    return AllocationReport(m_star=mu_star, m_grid=mu_grid,
                            comm_cost=communication_cost(mu_star, beta),
                            alpha=float(alpha), protocol=protocol,
                            grid_resolution=float(resolution), frontier=frontier)


def write_frontier_csv(path, ops: PredictionOperators, protocol: Protocol,
                       alpha: float, beta, x, resolution: float = 0.01) -> None:
    """Full-grid export: ``mu_1..mu_m,control_cost,comm_cost,feasible``."""
    beta = np.asarray(beta, dtype=float)
    m = ops.m
    points = grid_points(_grid_values(resolution), m)
    costs = expected_costs(ops, protocol, x, points)
    header = [f"mu_{i+1}" for i in range(m)] + ["control_cost", "comm_cost", "feasible"]
    lines = [",".join(header)]
    for mu, total, price in zip(points.tolist(), costs.tolist(), (points @ beta).tolist()):
        cells = ([f"{v:.9g}" for v in mu]
                 + [f"{total:.9g}", f"{price:.9g}", "1" if total <= alpha else "0"])
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
