import numpy as np
import pytest
import scipy.linalg

from nclab import (Protocol, bernoulli_quadratic_expectation,
                   closed_loop_eigenvalues, determinant_root_candidates,
                   error_quadratic_expectation, expected_cost, expected_costs,
                   line_resolvents, monte_carlo_cost, optimal_sequence, synthesize)
from nclab.allocation import _grid_values

from conftest import (enumerate_bernoulli_quadratic, lossy_riccati_oracle, make_scenario,
                      minimize_quadratic_oracle, noise_trace_oracle, ops_of,
                      protocol_objective_oracle, random_scenario,
                      riccati_first_gain_oracle, toy_scenario)

TCP, UDP = Protocol.TCP_LIKE, Protocol.UDP_LIKE


def test_protocol_enum_is_exhaustive():
    assert {p.value for p in Protocol} == {"tcp", "udp"}
    assert Protocol.parse("TCP") is TCP
    with pytest.raises(ValueError):
        Protocol.parse("sctp")


def test_scalar_toy_gains_and_gram():
    ops = ops_of(toy_scenario(mu=0.5))
    tcp = synthesize(ops, TCP)
    udp = synthesize(ops, UDP)
    assert np.allclose(tcp.k, [[2.0 / 3.0]])
    assert np.allclose(udp.k, [[0.5]])


def test_scalar_toy_costs():
    scn = toy_scenario(mu=0.5, x=1.0)
    ops = ops_of(scn)
    tcp = expected_cost(ops, TCP, scn.eval_state)
    udp = expected_cost(ops, UDP, scn.eval_state)
    assert tcp.total == pytest.approx(2.0 - 1.0 / 3.0, rel=1e-12)
    assert udp.total == pytest.approx(2.0 - 1.0 / 4.0, rel=1e-12)
    assert tcp.constant_term == pytest.approx(2.0, rel=1e-12)
    assert tcp.total == pytest.approx(tcp.constant_term - tcp.reduction_term, rel=1e-12)
    assert tcp.reduction_term >= 0 and udp.reduction_term >= 0


def test_perfect_channel_collapses_to_lossfree_law():
    rng = np.random.default_rng(2)
    scn = random_scenario(rng, mu_lo=1.0, mu_hi=1.0)
    ops = ops_of(scn)
    tcp = synthesize(ops, TCP)
    udp = synthesize(ops, UDP)
    assert np.allclose(tcp.k, udp.k, rtol=1e-10)


def test_lossfree_gain_matches_riccati_recursion(pendulum):
    ops = ops_of(pendulum)
    law = synthesize(ops, TCP, upsilon=1.0)
    k_dp = riccati_first_gain_oracle(pendulum.plant.a, pendulum.plant.b,
                                     pendulum.weights.omega_steps,
                                     pendulum.weights.psi_steps)
    assert np.allclose(law.k_first, k_dp, rtol=1e-9)


def test_cost_at_origin_is_noise_floor():
    rng = np.random.default_rng(8)
    scn = random_scenario(rng, sigma_scale=0.3)
    ops = ops_of(scn)
    for p in (TCP, UDP):
        rep = expected_cost(ops, p, np.zeros(scn.n))
        assert rep.reduction_term == pytest.approx(0.0, abs=1e-12)
        assert rep.total == pytest.approx(ops.noise_trace, rel=1e-12)


def test_error_quadratic_expectation():
    scn = toy_scenario(mu=0.5)
    ops = ops_of(scn)
    # acknowledged: input-independent
    for u in (0.0, 1.0, -3.7):
        assert error_quadratic_expectation(ops, TCP, [u]) == 0.0
    # unacknowledged at u=1: 0.5 * 1 * 0.5 = 0.25
    assert error_quadratic_expectation(ops, UDP, [1.0]) == pytest.approx(0.25, rel=1e-12)
    # perfect channel removes the input dependence
    assert error_quadratic_expectation(ops, UDP, [1.0], upsilon=1.0) == 0.0


def test_error_expectation_matches_enumeration():
    rng = np.random.default_rng(21)
    for _ in range(10):
        scn = random_scenario(rng, n_max=3, m_max=2, n_horizon_max=3)
        ops = ops_of(scn)
        k = scn.horizon * scn.m
        useq = rng.normal(size=k)
        means = ops.upsilon_diag
        dev = enumerate_bernoulli_quadratic(ops.omega_g, means, useq)
        # subtract the mean part to isolate E[(v-mean) Og (v-mean)]
        mean_part = float((means * useq) @ ops.omega_g @ (means * useq))
        assert error_quadratic_expectation(ops, UDP, useq) == pytest.approx(
            dev - mean_part, rel=1e-10, abs=1e-12)


def test_bernoulli_quadratic_expectation_examples():
    rng = np.random.default_rng(4)
    # deterministic channels: zero variance
    for mu in (0.0, 1.0):
        og = rng.normal(size=(3, 3))
        og = og @ og.T
        u = rng.normal(size=3)
        ub = np.full(3, mu)
        assert bernoulli_quadratic_expectation(og, ub, u) == pytest.approx(
            float((ub * u) @ og @ (ub * u)), rel=1e-12, abs=1e-12)
    # diagonal omega_g, unit vector: picks one diagonal entry times the mean
    og = np.diag([2.0, 3.0, 4.0])
    ub = np.array([0.3, 0.6, 0.9])
    e1 = np.array([0.0, 1.0, 0.0])
    assert bernoulli_quadratic_expectation(og, ub, e1) == pytest.approx(0.6 * 3.0)


def test_bernoulli_quadratic_matches_enumeration():
    rng = np.random.default_rng(14)
    for _ in range(8):
        k = int(rng.integers(1, 9))
        f = rng.normal(size=(k, k))
        og = f @ f.T
        ub = rng.uniform(0.05, 0.95, k)
        u = rng.normal(size=k)
        assert bernoulli_quadratic_expectation(og, ub, u) == pytest.approx(
            enumerate_bernoulli_quadratic(og, ub, u), rel=1e-10)


def test_optimal_sequence_toy_and_zero_state():
    scn = toy_scenario(mu=0.5)
    ops = ops_of(scn)
    assert optimal_sequence(synthesize(ops, TCP), [1.0]) == pytest.approx([-2.0 / 3.0])
    assert optimal_sequence(synthesize(ops, UDP), [1.0]) == pytest.approx([-0.5])
    assert np.array_equal(optimal_sequence(synthesize(ops, TCP), [0.0]), [0.0])


def test_input_norm_ordering_usually_but_not_always_holds():
    # the unacknowledged law often uses less input energy, but the ordering
    # is not a theorem: the frozen seed below yields a scalar-channel system
    # (n=4, N=8, mu~0.871) where the unacknowledged sequence has the LARGER
    # 2-norm, confirmed by the exhaustive-enumeration minimizer oracle in
    # test_laws_minimize_the_planning_objective's machinery
    rng = np.random.default_rng(33)
    smaller = 0
    violations = 0
    for _ in range(20):
        scn = random_scenario(rng)
        ops = ops_of(scn)
        ut = optimal_sequence(synthesize(ops, TCP), scn.eval_state)
        uu = optimal_sequence(synthesize(ops, UDP), scn.eval_state)
        if np.linalg.norm(ops.omega_gp @ scn.eval_state) > 1e-12:
            if np.linalg.norm(uu) < np.linalg.norm(ut):
                smaller += 1
            else:
                violations += 1
                fun = lambda u, s=scn: protocol_objective_oracle(s, "udp", u)
                u_chk, _ = minimize_quadratic_oracle(fun, scn.horizon * scn.m)
                assert np.allclose(u_chk, uu, rtol=1e-7, atol=1e-8)
    assert smaller >= 15
    assert violations >= 1  # the ordering genuinely fails sometimes


def test_gram_difference_identity():
    # G_udp - G_tcp = (I ∘ Omega_g)(I - Y); with K = G^{-1} Omega_gp for both
    # laws that reads G_tcp (K_tcp - K_udp) = (I ∘ Omega_g)(I - Y) K_udp
    rng = np.random.default_rng(41)
    scn = random_scenario(rng)
    ops = ops_of(scn)
    kt = synthesize(ops, TCP).k
    ku = synthesize(ops, UDP).k
    y = ops.upsilon_diag
    gt = ops.omega_g * y[np.newaxis, :] + np.diag(ops.psi)
    diff = ops.omega_d * (1.0 - y)
    assert np.allclose(gt @ (kt - ku), diff[:, np.newaxis] * ku, rtol=1e-9, atol=1e-12)
    assert np.all(diff > 0)  # all means < 1 here


def test_reduction_quadratic_form_is_transpose_stable():
    # x' Ogp' (Og Y + Psi)^{-1} Y Ogp x == x' Ogp' Y (Y Og + Psi)^{-1} Ogp x
    rng = np.random.default_rng(6)
    for _ in range(5):
        scn = random_scenario(rng, m_max=3)
        ops = ops_of(scn)
        y = np.diag(ops.upsilon_diag)
        f = ops.omega_gp @ scn.eval_state
        psi = np.diag(ops.psi)
        left = float(f @ np.linalg.solve(ops.omega_g @ y + psi, y @ f))
        right = float(f @ (y @ np.linalg.solve(y @ ops.omega_g + psi, f)))
        assert left == pytest.approx(right, rel=1e-12)


def test_matrix_commutation_on_shared_channel():
    # with a single shared mean the two orderings agree as matrices
    rng = np.random.default_rng(7)
    scn = random_scenario(rng, m_max=1)
    ops = ops_of(scn)
    u = 0.37
    k = ops.horizon * ops.m
    y = u * np.eye(k)
    psi = np.diag(ops.psi)
    a = np.linalg.solve(ops.omega_g @ y + psi, y)
    b = y @ np.linalg.inv(y @ ops.omega_g + psi)
    assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_convexity_certificate():
    rng = np.random.default_rng(51)
    for _ in range(5):
        scn = random_scenario(rng)
        ops = ops_of(scn)
        u = ops.upsilon_diag
        hess_tcp = 2.0 * ((u[:, None] * ops.omega_g) * u[None, :] + np.diag(u * ops.psi))
        hess_udp = hess_tcp + 2.0 * np.diag(u * ops.omega_d * (1 - u))
        assert np.min(np.linalg.eigvalsh(0.5 * (hess_tcp + hess_tcp.T))) > 0
        assert np.min(np.linalg.eigvalsh(0.5 * (hess_udp + hess_udp.T))) > 0


def test_laws_minimize_the_planning_objective():
    # dual route: exhaustively-enumerated objective, quadratic recovery, solve
    rng = np.random.default_rng(60)
    trials = 0
    while trials < 8:
        scn = random_scenario(rng, n_max=3, m_max=2, n_horizon_max=3,
                              sigma_scale=0.2)
        k = scn.horizon * scn.m
        if k > 6:
            continue
        trials += 1
        ops = ops_of(scn)
        for p in (TCP, UDP):
            fun = lambda u: protocol_objective_oracle(scn, p.value, u)
            u_opt, j_opt = minimize_quadratic_oracle(fun, k)
            law = synthesize(ops, p)
            assert np.allclose(optimal_sequence(law, scn.eval_state), u_opt,
                               rtol=1e-8, atol=1e-8)
            assert expected_cost(ops, p, scn.eval_state).total == pytest.approx(
                j_opt, rel=1e-8)


def test_scheduled_channel_laws_match_flat_override():
    rng = np.random.default_rng(71)
    scn = random_scenario(rng, n_max=2, m_max=2, n_horizon_max=3)
    N, m = scn.horizon, scn.m
    sched = rng.uniform(0.1, 0.9, (N, m))
    from nclab import ChannelModel, Scenario
    scn2 = Scenario(plant=scn.plant, channel=ChannelModel(means=sched),
                    weights=scn.weights, eval_state=scn.eval_state, sim=scn.sim)
    ops2 = ops_of(scn2)
    ops1 = ops_of(scn)
    for p in (TCP, UDP):
        a = synthesize(ops2, p)
        b = synthesize(ops1, p, upsilon=sched.reshape(-1))
        assert np.allclose(a.k, b.k, rtol=1e-12)


def test_scheduled_channel_law_minimizes_objective():
    rng = np.random.default_rng(83)
    scn = random_scenario(rng, n_max=2, m_max=1, n_horizon_max=3, sigma_scale=0.1)
    from nclab import ChannelModel, Scenario
    sched = rng.uniform(0.2, 0.9, (scn.horizon, 1))
    scn = Scenario(plant=scn.plant, channel=ChannelModel(means=sched),
                   weights=scn.weights, eval_state=scn.eval_state, sim=scn.sim)
    ops = ops_of(scn)
    for p in (TCP, UDP):
        fun = lambda u: protocol_objective_oracle(scn, p.value, u)
        u_opt, j_opt = minimize_quadratic_oracle(fun, scn.horizon)
        assert np.allclose(optimal_sequence(synthesize(ops, p), scn.eval_state),
                           u_opt, rtol=1e-8, atol=1e-8)
        assert expected_cost(ops, p, scn.eval_state).total == pytest.approx(j_opt, rel=1e-8)


def test_eigenvalue_ordering_is_deterministic():
    scn = make_scenario([[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]],
                        [np.eye(2)] * 3, [[[1.0]]] * 3, np.eye(2), [0.9])
    law = synthesize(ops_of(scn), TCP)
    eigs = closed_loop_eigenvalues(law, scn.plant)
    assert eigs.shape == (2,)
    assert eigs[0].real >= eigs[1].real
    if eigs[0].real == eigs[1].real:
        assert eigs[0].imag >= eigs[1].imag


def test_bad_upsilon_override_rejected():
    ops = ops_of(toy_scenario())
    with pytest.raises(ValueError, match=r"channel mean must lie in \(0,1\]"):
        synthesize(ops, TCP, upsilon=0.0)
    with pytest.raises(ValueError, match="shape"):
        synthesize(ops, TCP, upsilon=np.array([0.5, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# batched cost core


def _with_means(scn, means):
    from nclab import ChannelModel, Scenario
    return Scenario(plant=scn.plant, channel=ChannelModel(means=means),
                    weights=scn.weights, eval_state=scn.eval_state, sim=scn.sim)


def _lu_cost(ops, protocol, x, diag, noise):
    """Per-point reference through an LU solve of the asymmetric Gram
    matrix G, using none of the Cholesky path; ``noise`` is the oracle's
    noise trace."""
    g = ops.omega_g * diag[np.newaxis, :] + np.diag(ops.psi)
    if protocol is UDP:
        g = g + np.diag(np.diag(ops.omega_g) * (1.0 - diag))
    f = ops.omega_gp @ x
    constant = x @ (ops.q + ops.omega_p) @ x + noise
    return constant - f @ (diag * np.linalg.solve(g, f))


def test_batched_costs_match_per_point_costs_on_random_ensemble():
    # stationary (B, m) and scheduled (B, N*m) stacks, both protocols
    rng = np.random.default_rng(90)
    for trial in range(12):
        scn = random_scenario(rng, sigma_scale=0.2 * (trial % 2))
        if trial % 3 == 0:
            scn = _with_means(scn, rng.uniform(0.1, 0.9, (scn.horizon, scn.m)))
        ops = ops_of(scn)
        noise = noise_trace_oracle(scn)
        nm = scn.horizon * scn.m
        for stack in (rng.uniform(0.02, 1.0, (7, scn.m)), rng.uniform(0.02, 1.0, (7, nm)),
                      rng.uniform(0.02, 1.0, 7)):
            for p in (TCP, UDP):
                got = expected_costs(ops, p, scn.eval_state, stack)
                ref = [expected_cost(ops, p, scn.eval_state, upsilon=u).total for u in stack]
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
                diags = [np.resize(u, nm) for u in np.reshape(stack, (len(stack), -1))]
                lu = [_lu_cost(ops, p, scn.eval_state, d, noise) for d in diags]
                np.testing.assert_allclose(got, lu, rtol=1e-12, atol=0.0)


def test_prepared_point_costs_equal_expected_cost_bit_for_bit():
    # one _point_costs per (operators, protocol, state), evaluated row by row
    # as the allocation's refinement does and as one stack, gives the bits
    # of a fresh expected_cost at every point: stationary (m) and full
    # stacked (N*m) means, on scenarios with per-step weights and, every
    # third one, a scheduled channel
    from nclab.controller import _point_costs
    rng = np.random.default_rng(93)
    for trial in range(12):
        scn = random_scenario(rng, sigma_scale=0.2 * (trial % 2))
        if trial % 3 == 0:
            scn = _with_means(scn, rng.uniform(0.1, 0.9, (scn.horizon, scn.m)))
        ops = ops_of(scn)
        x = scn.eval_state
        for width in (scn.m, scn.horizon * scn.m):
            stack = rng.uniform(0.02, 1.0, (9, width))
            stack[0] = 1.0
            for p in (TCP, UDP):
                point = _point_costs(ops, p, x)
                ref = [expected_cost(ops, p, x, upsilon=u).total for u in stack]
                rows = [point.totals(u[np.newaxis])[0] for u in stack]
                assert rows == ref
                assert point.totals(stack).tolist() == ref
                assert point.constant == expected_cost(ops, p, x, upsilon=stack[1]).constant_term


def test_batched_costs_match_enumeration_oracle():
    rng = np.random.default_rng(91)
    trials = 0
    while trials < 6:
        scn = random_scenario(rng, n_max=3, m_max=2, n_horizon_max=3, sigma_scale=0.2)
        k = scn.horizon * scn.m
        if k > 6:
            continue
        trials += 1
        ops = ops_of(scn)
        stack = rng.uniform(0.05, 1.0, (3, k))
        for p in (TCP, UDP):
            got = expected_costs(ops, p, scn.eval_state, stack)
            for row, total in zip(stack, got):
                sched = _with_means(scn, row.reshape(scn.horizon, scn.m))
                fun = lambda u, s=sched: protocol_objective_oracle(s, p.value, u)
                _, j_opt = minimize_quadratic_oracle(fun, k)
                assert total == pytest.approx(j_opt, rel=1e-12)


def test_batched_costs_reject_a_row_outside_the_unit_interval():
    ops = ops_of(toy_scenario())
    for bad in (0.0, 1.5, -0.2, np.nan):
        with pytest.raises(ValueError, match=r"channel mean must lie in \(0,1\]"):
            expected_costs(ops, TCP, [1.0], np.array([0.3, bad, 0.9]))


def test_batched_costs_raise_on_a_non_positive_definite_member():
    # psi = -1/2 on a scalar plant (A = B = Omega = 1): for one step, TCP's
    # S = u^2 - u/2 is negative below u = 1/2; for two steps, UDP's S is u
    # times [[3/2, u], [u, 1/2]], indefinite above u = sqrt(3)/2
    for p, steps, good, bad in ((TCP, 1, [0.9, 1.0], 0.1), (UDP, 2, [0.5, 0.3], 0.95)):
        scn = make_scenario([[1.0]], [[1.0]], steps * [[[1.0]]], steps * [[[-0.5]]],
                            [[1.0]], [0.9], x=[1.0])
        ops = ops_of(scn)
        assert np.all(np.isfinite(expected_costs(ops, p, [1.0], np.array(good))))
        with pytest.raises(np.linalg.LinAlgError, match="singular protocol Gram system"):
            expected_costs(ops, p, [1.0], np.array([good[0], bad, good[1]]))


def test_batched_costs_do_not_depend_on_the_chunk_size(monkeypatch, mixed):
    from nclab import controller
    ops = ops_of(mixed)
    stack = np.random.default_rng(92).uniform(0.05, 1.0, (700, 2))
    ref = expected_costs(ops, UDP, mixed.eval_state, stack)
    nm2_bytes = 8 * (mixed.horizon * mixed.m) ** 2
    for rows in (1, 3, 64, 10_000):
        monkeypatch.setattr(controller, "_CHUNK_BYTES", rows * nm2_bytes)
        assert np.array_equal(expected_costs(ops, UDP, mixed.eval_state, stack), ref)
    # a batch of one is the single-point path
    assert ref[5] == expected_cost(ops, UDP, mixed.eval_state, upsilon=stack[5]).total
    # lines likewise: 600 lines of 5 points each
    fixed, vals = stack[:600, :1], stack[:5, 1]
    monkeypatch.undo()
    ref = line_resolvents(ops, UDP, mixed.eval_state, fixed).costs(vals)
    for rows in (1, 3, 64, 10_000):
        monkeypatch.setattr(controller, "_CHUNK_BYTES", rows * nm2_bytes)
        assert np.array_equal(line_resolvents(ops, UDP, mixed.eval_state, fixed).costs(vals), ref)


def test_one_budget_splits_every_batched_evaluation(monkeypatch, pendulum, mixed):
    # controller._CHUNK_BYTES bounds the maximizer's candidates, the Monte
    # Carlo replicates, the cost stacks and the line resolvents: at a
    # sixteenth of it each splits into more chunks, with the same bits.  At
    # the default, pendulum decides 8 chunks, 5000 replicates on mixed draw 2
    # and mixed's 700 points and 600 lines factor 3 + 2
    from nclab import analysis, controller, simulator
    ops_p, ops_m, x = ops_of(pendulum), ops_of(mixed), mixed.eval_state
    stack = np.random.default_rng(94).uniform(0.05, 1.0, (700, 2))
    cases = [(analysis, "_decide_chunk", lambda: determinant_root_candidates(ops_p)),
             (simulator, "_draws", lambda: monte_carlo_cost(mixed, UDP, 5000, 3)),
             (controller, "_factor", lambda: (
                 expected_costs(ops_m, UDP, x, stack).tolist(),
                 line_resolvents(ops_m, UDP, x, stack[:600, :1]).costs(stack[:5, 1]).tolist()))]
    calls = []
    for module, name, _ in cases:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, name=name, real=real: calls.append(name) or real(*a))
    runs, default = {}, controller._CHUNK_BYTES
    low = default // 16
    for budget in (default, low):
        monkeypatch.setattr(controller, "_CHUNK_BYTES", budget)
        for _, name, run in cases:
            calls.clear()
            runs[budget, name] = run(), calls.count(name)
    assert [runs[default, name][1] for _, name, _ in cases] == [8, 2, 5]
    for _, name, _ in cases:
        assert runs[low, name][0] == runs[default, name][0]
        assert runs[low, name][1] > runs[default, name][1]


def _per_term_costs(lines, means):
    """Line costs from a loop over the terms, each added to the offset as an
    (L, k) array in index order."""
    t = 1.0 / np.asarray(means, dtype=float)
    red = np.repeat(lines.offset[:, np.newaxis], t.size, axis=1)
    for lam, h2 in zip(lines.lam.T, lines.h2.T):
        red += h2[:, np.newaxis] / (lam[:, np.newaxis] + t)
    return lines.constant - red


def test_line_costs_equal_the_per_term_loop_bit_for_bit(monkeypatch, pendulum, mixed):
    # pendulum's 80-term shared line, mixed's 99-line sweep and 100-line
    # allocation grid, then chunk boundaries forced through _CHUNK_BYTES
    from nclab import controller
    sweep = np.linspace(0.01, 0.99, 99)
    grid = _grid_values(0.01)
    ops_p, ops_m = ops_of(pendulum), ops_of(mixed)
    for p in (TCP, UDP):
        cases = [(line_resolvents(ops_p, p, pendulum.eval_state), sweep),
                 (line_resolvents(ops_m, p, mixed.eval_state, sweep[:, np.newaxis]), sweep),
                 (line_resolvents(ops_m, p, mixed.eval_state, grid[:, np.newaxis]), grid)]
        assert [c[0].lam.shape for c in cases] == [(1, 80), (99, 10), (100, 10)]
        for lines, means in cases:
            assert np.array_equal(lines.costs(means), _per_term_costs(lines, means))
        lines, means = cases[1]
        ref = _per_term_costs(lines, means)
        for rows in (1, 7, 98):  # chunks of 1, of 7 with a remainder of 1, of 98 and 1
            monkeypatch.setattr(controller, "_CHUNK_BYTES", rows * 8 * 10 * 99)
            assert np.array_equal(lines.costs(means), ref)
        monkeypatch.undo()


# ---------------------------------------------------------------------------
# line resolvents


def _gram_cost(ops, protocol, x, diag):
    """Per-point reference with the arithmetic of the S = Y G path: a
    Cholesky factor L of the symmetrised S and the reduction |L^-1 Y f|^2."""
    s = diag[:, np.newaxis] * ops.omega_g * diag + np.diag(diag * ops.psi)
    if protocol is UDP:
        s = s + np.diag(diag * np.diag(ops.omega_g) * (1.0 - diag))
    factor = np.linalg.cholesky(0.5 * (s + s.T))
    w = scipy.linalg.solve_triangular(factor, diag * (ops.omega_gp @ x), lower=True)
    return float(x @ (ops.q + ops.omega_p) @ x) + ops.noise_trace - float(w @ w)


def _riccati_cost(scn, protocol, upsilon=None):
    _, p0 = lossy_riccati_oracle(scn, protocol.value, upsilon)
    x = scn.eval_state
    return float(x @ scn.weights.q @ x) + float(x @ p0 @ x) + noise_trace_oracle(scn)


@pytest.mark.parametrize("chunk_bytes", [None, 1], ids=["default_chunks", "one_line_chunks"])
def test_line_resolvents_match_per_point_reference_and_riccati_oracle(monkeypatch, pendulum,
                                                                       chunk_bytes):
    # per-channel lines (last channel moving) and the shared-mean line, m <= 3,
    # per-step psi, both protocols; trial 10 is pendulum's 80-row line; at the
    # default budget the three per-channel lines share one batched eigh, at a
    # one-byte budget each line is a chunk of its own
    from nclab import controller
    if chunk_bytes is not None:
        monkeypatch.setattr(controller, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(93)
    for trial in range(11):
        scn = (pendulum if trial == 10 else
               random_scenario(rng, m_max=3, n_horizon_max=6, sigma_scale=0.2 * (trial % 2)))
        ops, x = ops_of(scn), scn.eval_state
        vals = np.append(rng.uniform(0.05, 1.0, 4), 1.0)
        fixed = rng.uniform(0.05, 1.0, (3 if scn.m > 1 else 1, scn.m - 1))
        for p in (TCP, UDP):
            for rows in (fixed, None):
                got = line_resolvents(ops, p, x, rows).costs(vals)
                assert got.shape == (1 if rows is None else len(rows), 5)
                for line, costs in enumerate(got):
                    for v, cost in zip(vals, costs):
                        mu = np.full(scn.m, v) if rows is None else np.append(rows[line], v)
                        ref = _gram_cost(ops, p, x, np.tile(mu, scn.horizon))
                        assert cost == pytest.approx(ref, rel=1e-12, abs=0.0)
                        assert cost == pytest.approx(_riccati_cost(scn, p, mu), rel=1e-12, abs=0.0)


def test_scheduled_points_match_per_point_reference_and_riccati_oracle():
    rng = np.random.default_rng(94)
    for trial in range(8):
        scn = random_scenario(rng, m_max=3, n_horizon_max=6, sigma_scale=0.2 * (trial % 2))
        scn = _with_means(scn, rng.uniform(0.05, 1.0, (scn.horizon, scn.m)))
        ops = ops_of(scn)
        for p in (TCP, UDP):
            cost = expected_cost(ops, p, scn.eval_state).total
            ref = _gram_cost(ops, p, scn.eval_state, ops.upsilon_diag)
            assert cost == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert cost == pytest.approx(_riccati_cost(scn, p), rel=1e-12, abs=0.0)


def test_line_resolvents_refuse_bad_means_and_indefinite_lines(mixed):
    ops, x = ops_of(mixed), mixed.eval_state
    with pytest.raises(ValueError, match=r"channel mean must lie in \(0,1\]"):
        line_resolvents(ops, TCP, x).costs([0.5, 0.0])
    with pytest.raises(ValueError, match=r"channel mean must lie in \(0,1\]"):
        line_resolvents(ops, TCP, x, [[0.5], [1.5]])
    with pytest.raises(ValueError, match="shape"):
        line_resolvents(ops, TCP, x, [0.5, 0.5])
    # psi = -1/2 (see the test above): no line through these points is
    # positive definite at every point
    for p, steps, means in ((TCP, 1, [0.9, 0.1]), (UDP, 2, [0.3, 0.95])):
        scn = make_scenario([[1.0]], [[1.0]], steps * [[[1.0]]], steps * [[[-0.5]]],
                            [[1.0]], [0.9], x=[1.0])
        with pytest.raises(np.linalg.LinAlgError, match="singular protocol Gram system"):
            line_resolvents(ops_of(scn), p, [1.0]).costs(means)
