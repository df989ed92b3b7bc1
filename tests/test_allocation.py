import itertools
from dataclasses import replace

import numpy as np
import pytest

from nclab import (Protocol, communication_cost, expected_cost, expected_costs,
                   iso_cost_transmission, is_feasible, optimize_allocation,
                   write_frontier_csv)
from nclab.allocation import grid_points

from conftest import CSV_EDGE_VALUES, ops_of, random_scenario, toy_scenario

TCP, UDP = Protocol.TCP_LIKE, Protocol.UDP_LIKE


def test_communication_cost_arithmetic():
    assert communication_cost([0.9, 0.5], [1.0, 1.0]) == pytest.approx(1.4)
    assert communication_cost([0.3, 0.8], [0.0, 0.0]) == 0.0
    assert communication_cost([0.9, 0.5], [0.05, 1.0]) == pytest.approx(0.545)
    with pytest.raises(ValueError, match="nonnegative"):
        communication_cost([0.5], [-1.0])


def test_feasibility_thresholds(mixed):
    ops = ops_of(mixed)
    x = mixed.eval_state
    assert is_feasible(ops, [0.2, 0.2], UDP, 1e18, x)
    floor = expected_cost(ops, UDP, x, upsilon=np.ones(2)).total
    # nothing beats the perfect-channel cost
    rng = np.random.default_rng(1)
    for _ in range(10):
        mu = rng.uniform(0.05, 1.0, 2)
        assert not is_feasible(ops, mu, UDP, floor * (1 - 1e-9), x)


def test_feasibility_is_monotone():
    rng = np.random.default_rng(10)
    for _ in range(5):
        scn = random_scenario(rng, m_max=2)
        ops = ops_of(scn)
        x = scn.eval_state
        mu = rng.uniform(0.1, 0.8, scn.m)
        alpha = expected_cost(ops, TCP, x, upsilon=mu).total
        assert is_feasible(ops, mu, TCP, alpha, x)
        better = np.minimum(mu + rng.uniform(0.0, 0.2, scn.m), 1.0)
        assert is_feasible(ops, better, TCP, alpha, x)


def test_budget_infeasible_raises(mixed):
    ops = ops_of(mixed)
    floor = expected_cost(ops, UDP, mixed.eval_state, upsilon=np.ones(2)).total
    with pytest.raises(ValueError, match="budget infeasible"):
        optimize_allocation(ops, UDP, floor * 0.5, [1.0, 1.0], mixed.eval_state)


def test_single_channel_boundary_equality(pendulum):
    ops = ops_of(pendulum)
    x = pendulum.eval_state
    alpha = expected_cost(ops, TCP, x, upsilon=0.62).total
    rep = optimize_allocation(ops, TCP, alpha, [1.0], x, resolution=0.01)
    # unique boundary point: the optimum achieves the budget with equality
    assert rep.m_star[0] == pytest.approx(0.62, abs=2e-6)
    assert expected_cost(ops, TCP, x, upsilon=rep.m_star).total <= alpha * (1 + 1e-9)
    assert not is_feasible(ops, rep.m_star - 5e-6, TCP, alpha, x)


def test_minimizer_beats_every_feasible_grid_point(mixed):
    ops = ops_of(mixed)
    x = mixed.eval_state
    alpha = expected_cost(ops, UDP, x, upsilon=np.array([0.9, 0.8])).total
    beta = np.array([1.0, 0.3])
    rep = optimize_allocation(ops, UDP, alpha, beta, x, resolution=0.05)
    grid = np.round(np.arange(1, 21) * 0.05, 12)
    for m1 in grid:
        for m2 in grid:
            if is_feasible(ops, [m1, m2], UDP, alpha, x):
                assert rep.comm_cost <= communication_cost([m1, m2], beta) + 1e-12


def test_refinement_keeps_feasibility_and_never_costs_more(mixed):
    ops = ops_of(mixed)
    x = mixed.eval_state
    alpha = expected_cost(ops, UDP, x, upsilon=np.array([0.85, 0.7])).total
    beta = [1.0, 1.0]
    rep = optimize_allocation(ops, UDP, alpha, beta, x, resolution=0.05)
    total = expected_cost(ops, UDP, x, upsilon=rep.m_star).total
    assert total <= alpha * (1 + 1e-9)
    assert rep.comm_cost <= communication_cost(rep.m_grid, beta) + 1e-12
    assert np.all(rep.m_star <= rep.m_grid + 1e-12)


def test_frontier_points_are_minimal_feasible(mixed):
    ops = ops_of(mixed)
    x = mixed.eval_state
    alpha = expected_cost(ops, UDP, x, upsilon=np.array([0.9, 0.9])).total
    rep = optimize_allocation(ops, UDP, alpha, [1.0, 1.0], x, resolution=0.1)
    assert rep.frontier
    for mu, cost in rep.frontier:
        assert cost <= alpha
        # stepping any coordinate down one grid notch leaves the feasible set
        for i in range(2):
            if mu[i] > 0.1 + 1e-12:
                lower = np.array(mu)
                lower[i] -= 0.1
                assert not is_feasible(ops, lower, UDP, alpha, x)


def test_scalar_channel_allocation_matches_iso_cost_bisection(pendulum):
    ops = ops_of(pendulum)
    x = pendulum.eval_state
    m1 = 0.8
    alpha = expected_cost(ops, UDP, x, upsilon=m1).total
    t_iso = iso_cost_transmission(ops, m1, x)
    rep = optimize_allocation(ops, TCP, alpha, [1.0], x, resolution=0.01)
    assert rep.m_star[0] == pytest.approx(t_iso, abs=1e-6)


def test_resolution_validation(pendulum):
    ops = ops_of(pendulum)
    with pytest.raises(ValueError, match="resolution"):
        optimize_allocation(ops, TCP, 1e18, [1.0], pendulum.eval_state, resolution=0.6)


@pytest.mark.parametrize("alpha, beta, name", [
    (np.nan, [1.0, 1.0], "alpha"), (np.inf, [1.0, 1.0], "alpha"), (-np.inf, [1.0, 1.0], "alpha"),
    (1e18, [np.nan, 1.0], "beta"), (1e18, [np.inf, 1.0], "beta"), (1e18, [1.0, -np.inf], "beta"),
])
def test_non_finite_alpha_or_beta_is_refused(mixed, alpha, beta, name):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        optimize_allocation(ops_of(mixed), UDP, alpha, beta, mixed.eval_state)


def test_frontier_csv(tmp_path, mixed):
    ops = ops_of(mixed)
    x = mixed.eval_state
    alpha = expected_cost(ops, UDP, x, upsilon=np.array([0.9, 0.9])).total
    rep = optimize_allocation(ops, UDP, alpha, [1.0, 1.0], x, resolution=0.25)
    path = tmp_path / "frontier.csv"
    write_frontier_csv(path, ops, rep)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "mu_1,mu_2,control_cost,comm_cost,feasible"
    assert len(lines) == 1 + 16  # 4 grid values per channel
    assert all(ln.split(",")[-1] in ("0", "1") for ln in lines[1:])

    # edge values in the cost and price columns, against a per-cell reference
    edge = replace(rep, grid_costs=np.resize(CSV_EDGE_VALUES, 16), alpha=1 / 3,
                   beta=np.array([1e-300, 1.7976931348623157e308]))
    write_frontier_csv(path, ops, edge)
    points = grid_points([0.25, 0.5, 0.75, 1.0], 2)
    rows = [",".join(f"{v:.9g}" for v in [*mu, c, p, float(c <= 1 / 3)])
            for mu, c, p in zip(points.tolist(), edge.grid_costs.tolist(),
                                (points @ edge.beta).tolist())]
    assert path.read_text() == "\n".join([lines[0], *rows]) + "\n"


def _looped_grid_stage(ops, protocol, alpha, beta, x, resolution, costs=None):
    """Per-point reference for the allocation: (m_grid, m_star, frontier,
    flags, totals).  ``costs``, in ``grid_points`` order, stands in for the
    per-point cost calls on grids too large to loop over."""
    k = int(round(1.0 / resolution))
    vals = np.round(np.arange(1, k + 1) * resolution, 12)
    vals[-1] = 1.0
    flags, frontier, best = {}, [], None
    for j, idx in enumerate(itertools.product(range(k), repeat=ops.m)):
        mu = vals[list(idx)]
        total = (expected_cost(ops, protocol, x, upsilon=mu).total if costs is None
                 else float(costs[j]))
        flags[idx] = (total <= alpha, total)
        if total <= alpha:
            key = (communication_cost(mu, beta), tuple(mu))
            best = key if best is None or key < best else best
    for idx, (ok, total) in flags.items():
        lower = [idx[:i] + (idx[i] - 1,) + idx[i + 1:] for i in range(ops.m) if idx[i] > 0]
        if ok and not any(flags[j][0] for j in lower):
            frontier.append((tuple(vals[list(idx)]), total))
    # each priced coordinate bisected onto the budget, dearest first
    mu_star = np.array(best[1])
    for i in sorted(range(ops.m), key=lambda i: (-beta[i], i)):
        lo, hi = 0.0, mu_star[i]
        trial = mu_star.copy()
        while beta[i] != 0.0 and hi - lo > 1e-6:
            trial[i] = 0.5 * (lo + hi)
            if expected_cost(ops, protocol, x, upsilon=trial).total <= alpha:
                hi = trial[i]
            else:
                lo = trial[i]
        mu_star[i] = hi
    return (np.array(best[1]), mu_star, frontier, [flags[i][0] for i in sorted(flags)],
            [flags[i][1] for i in sorted(flags)])


def test_batched_grid_stage_matches_per_point_loop(tmp_path, mixed):
    rng = np.random.default_rng(12)
    cases = [(mixed, np.array([0.9, 0.8]), [1.0, 1.0], 0.05),
             (mixed, np.array([0.7, 0.95]), [0.05, 1.0], 0.05)]
    for _ in range(4):
        scn = random_scenario(rng, m_max=3, n_horizon_max=4)
        cases.append((scn, rng.uniform(0.5, 0.95, scn.m), np.ones(scn.m), 0.125))
    looped = len(cases)
    # only the all-ones point meets a budget of exactly its own cost
    cases.append((mixed, np.ones(2), [1.0, 1.0], 0.05))
    while (scn := random_scenario(rng, m_max=3, n_horizon_max=4)).m != 3:
        pass
    cases.append((scn, rng.uniform(0.5, 0.95, 3), rng.uniform(0.0, 2.0, 3), 0.05))
    # the default resolution, against an exhaustive per-point mask
    cases += [(mixed, np.array([0.9, 0.8]), [1.0, 1.0], 0.01),
              (mixed, np.array([0.7, 0.95]), [0.05, 1.0], 0.01)]
    for c, (scn, mu_alpha, beta, res) in enumerate(cases):
        ops = ops_of(scn)
        x = scn.eval_state
        k = int(round(1.0 / res))
        vals = np.round(np.arange(1, k + 1) * res, 12)
        vals[-1] = 1.0
        points = grid_points(vals, ops.m)
        for p in (TCP, UDP):
            alpha = expected_cost(ops, p, x, upsilon=mu_alpha).total
            exhaustive = None if c < looped else expected_costs(ops, p, x, points)
            m_grid, m_star, frontier, flags, totals = _looped_grid_stage(ops, p, alpha, beta, x,
                                                                         res, exhaustive)
            rep = optimize_allocation(ops, p, alpha, beta, x, resolution=res)
            assert np.array_equal(rep.m_grid, m_grid)
            assert np.array_equal(rep.m_star, m_star)
            assert rep.comm_cost == communication_cost(m_star, beta)
            assert rep.frontier == frontier
            if c == looped:
                assert [mu for mu, _ in rep.frontier] == [(1.0, 1.0)]
            # every grid cost is known, and agrees with the per-point cost
            np.testing.assert_allclose(rep.grid_costs, totals, rtol=1e-12, atol=0.0)
            path = tmp_path / "frontier.csv"
            write_frontier_csv(path, ops, rep)
            rows = path.read_text().strip().split("\n")[1:]
            assert [r.endswith(",1") for r in rows] == flags
            assert [r.split(",")[ops.m] for r in rows] == [f"{v:.9g}" for v in totals]


def _is_feasible_bisection(ops, protocol, alpha, beta, x, m_grid):
    """Reference refinement: each priced coordinate, dearest first, bisected
    onto the budget with single-point ``is_feasible`` calls."""
    mu_star = m_grid.copy()
    for i in sorted(range(ops.m), key=lambda i: (-beta[i], i)):
        if beta[i] == 0.0:
            continue
        lo, hi = 0.0, mu_star[i]
        trial = mu_star.copy()
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            if mid <= 0.0:
                break
            trial[i] = mid
            if is_feasible(ops, trial, protocol, alpha, x):
                hi = mid
            else:
                lo = mid
        mu_star[i] = hi
    return mu_star


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("resolution", [0.05, 0.1])
def test_prepared_refinement_equals_the_is_feasible_bisection(m, resolution):
    # the all-ones check, the tie band, the frontier and every bisection
    # trial run on one cost setup; the report keeps the bits of per-point
    # is_feasible and expected_costs calls, with unpriced channels among
    # the prices
    rng = np.random.default_rng(40 + 10 * m + int(100 * resolution))
    for case in range(4):
        scn = random_scenario(rng, m=m, n_horizon_max=6)
        ops = ops_of(scn)
        x = scn.eval_state
        beta = rng.uniform(0.0, 2.0, m)
        unpriced = case % (m + 1)  # one channel, or none when unpriced == m
        beta[unpriced:unpriced + 1] = 0.0
        for p in (TCP, UDP):
            alpha = expected_cost(ops, p, x, upsilon=rng.uniform(0.4, 0.95, m)).total
            assert is_feasible(ops, np.ones(m), p, alpha, x)
            rep = optimize_allocation(ops, p, alpha, beta, x, resolution=resolution)
            m_star = _is_feasible_bisection(ops, p, alpha, beta, x, rep.m_grid)
            assert rep.m_star.tobytes() == m_star.tobytes()
            assert rep.comm_cost == communication_cost(m_star, beta)
            edge = np.array([mu for mu, _ in rep.frontier])
            assert [c for _, c in rep.frontier] == expected_costs(ops, p, x, edge).tolist()
            assert is_feasible(ops, rep.m_grid, p, alpha, x)


@pytest.mark.parametrize("beta, message", [([1.0], "beta must have length 2"),
                                           ([1.0, -0.5], "beta must be nonnegative")],
                         ids=["one_entry", "negative"])
def test_allocation_refuses_a_malformed_beta(mixed, beta, message):
    with pytest.raises(ValueError, match=message):
        optimize_allocation(ops_of(mixed), UDP, 1e18, beta, mixed.eval_state)
