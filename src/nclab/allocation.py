"""Communication resource allocation under a control-cost budget.

Feasible channel means are those whose expected optimal control cost stays
at or below a budget alpha; the communication cost of a configuration is
the price-weighted sum of its delivery probabilities.  Because the control
cost is strictly decreasing in every channel mean, the feasible set is an
up-set, so each line of the k^m grid over (0, 1]^m (the points that share
their first m-1 means) is feasible from one index on.  The grid stage finds
that index on all k^(m-1) lines at once by bisection, one batched cost call
(``expected_costs``) per round on the midpoints of the lines still open,
so about k^(m-1) log2(k) points are evaluated instead of k^m.  It takes the
cheapest feasible point and the minimal feasible points (the frontier) from
the resulting feasibility mask, and then bisects each priced coordinate
onto the active constraint with single-point cost calls.  The report keeps
the cost of every point the search evaluated; the full-grid CSV
(``write_frontier_csv``) evaluates only the others.
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
    "grid_size",
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
    grid_costs: np.ndarray      # control cost of each grid point the search evaluated,
                                # NaN elsewhere, in grid_points order
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


def _first_feasible(ops: PredictionOperators, protocol: Protocol, alpha: float,
                    x, points: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """First feasible index of every grid line (k where there is none), and
    the costs of the points the batched bisection evaluated, NaN elsewhere.

    ``points`` are the k^m grid points in ``grid_points`` order, so each
    run of k rows is one line with the last mean rising.  Every line keeps
    an infeasible index ``lo`` (-1 before any is found) and a feasible index
    ``hi`` (k before any is found); each round evaluates the midpoints of
    the lines with ``hi - lo > 1`` in one call.  After ceil(log2(k + 1))
    rounds, ``hi`` is each line's first feasible index, and its cost is
    among those evaluated unless it is k.
    """
    lines = points.shape[0] // k
    costs = np.full(points.shape[0], np.nan)
    lo = np.full(lines, -1)
    hi = np.full(lines, k)
    live = np.arange(lines)
    while live.size:
        mid = (lo[live] + hi[live]) // 2
        at = live * k + mid
        costs[at] = expected_costs(ops, protocol, x, points[at])
        ok = costs[at] <= alpha
        hi[live[ok]] = mid[ok]
        lo[live[~ok]] = mid[~ok]
        live = live[hi[live] - lo[live] > 1]
    return hi, costs


def optimize_allocation(ops: PredictionOperators, protocol: Protocol, alpha: float,
                        beta, x, resolution: float = 0.01) -> AllocationReport:
    """Cheapest channel configuration meeting the cost budget.

    A bisection along every line of the grid over (0, 1]^m finds the
    feasible grid points and returns the communication-cost minimizer
    (ties broken by lexicographically smallest means), then bisects each
    priced coordinate down onto the budget boundary to within 1e-6.
    Raises when alpha or beta is not finite and when even perfect channels
    exceed the budget.
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
    x = np.asarray(x, dtype=float)

    if not is_feasible(ops, np.ones(m), protocol, alpha, x):
        raise ValueError("budget infeasible: cost at all-ones channel means exceeds alpha")

    vals = _grid_values(resolution)
    k = len(vals)
    points = grid_points(vals, m)
    first, costs = _first_feasible(ops, protocol, alpha, x, points, k)
    ok = (np.arange(k) >= first[:, np.newaxis]).ravel()
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
    # every minimal point is its line's first feasible point, so its cost is known
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
                            grid_resolution=float(resolution), frontier=frontier,
                            grid_costs=costs, beta=beta)


def write_frontier_csv(path, ops: PredictionOperators, report: AllocationReport, x) -> None:
    """Full-grid export of the grid ``report`` was chosen from:
    ``mu_1..mu_m,control_cost,comm_cost,feasible``, every cell ``%.9g``.
    The points the search left unevaluated are evaluated at measured state
    x in one batched call, so each grid point is evaluated once in all."""
    points = grid_points(_grid_values(report.grid_resolution), ops.m)
    costs = report.grid_costs.copy()
    missing = np.isnan(costs)
    costs[missing] = expected_costs(ops, report.protocol, x, points[missing])
    header = [f"mu_{i+1}" for i in range(ops.m)] + ["control_cost", "comm_cost", "feasible"]
    table = np.column_stack([points, costs, points @ report.beta, costs <= report.alpha])
    with open(path, "w") as fh:  # a plain file, also for a path ending in .gz
        np.savetxt(fh, table, fmt="%.9g", delimiter=",", header=",".join(header), comments="")
