import numpy as np
import pytest

from nclab import ChannelModel, build_prediction_operators

from conftest import make_scenario, ops_of, random_scenario, stack_operators_oracle


def test_scalar_unit_plant_blocks():
    scn = make_scenario([[1.0]], [[1.0]], [[[1.0]]] * 2, [[[1.0]]] * 2,
                        [[1.0]], [0.5])
    ops = ops_of(scn)
    assert np.array_equal(ops.phi, [[1.0], [1.0]])
    assert np.array_equal(ops.gamma, [[1.0, 0.0], [1.0, 1.0]])
    assert np.array_equal(ops.lam, [[1.0, 0.0], [1.0, 1.0]])


def test_single_step_collapse():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 2))
    om = rng.normal(size=(3, 3))
    om = om @ om.T + np.eye(3)
    scn = make_scenario(a, b, [om], [np.diag([1.0, 2.0])], np.eye(3), [0.5, 0.5])
    ops = ops_of(scn)
    assert np.allclose(ops.phi, a)
    assert np.allclose(ops.gamma, b)
    assert np.allclose(ops.lam, np.eye(3))
    assert np.allclose(ops.omega_p, a.T @ om @ a)
    assert np.allclose(ops.omega_g, b.T @ om @ b)
    assert np.allclose(ops.omega_gp, b.T @ om @ a)


def test_pendulum_dimensions(pendulum):
    ops = ops_of(pendulum)
    assert ops.phi.shape == (320, 4)
    assert ops.gamma.shape == (320, 80)
    assert ops.upsilon_diag.shape == (80,)
    assert ops.omega_l.shape == (320, 320)


def test_step_means_examples():
    assert np.array_equal(ChannelModel(means=np.array([0.5])).step_means(3), [[0.5]] * 3)
    assert np.array_equal(ChannelModel(means=np.array([1.0, 0.7])).step_means(2),
                          [[1.0, 0.7], [1.0, 0.7]])
    sched = ChannelModel(means=np.array([[0.9], [0.5]]))
    assert np.array_equal(sched.step_means(2), [[0.9], [0.5]])
    assert np.array_equal(sched.step_means(4), [[0.9], [0.5], [0.5], [0.5]])
    scn = make_scenario([[1.0]], [[1.0]], [[[1.0]]] * 3, [[[1.0]]] * 3, [[1.0]], [0.5])
    with pytest.raises(ValueError, match="schedule length"):
        build_prediction_operators(scn.plant, scn.weights, sched)


def test_block_structure_matches_independent_construction():
    rng = np.random.default_rng(11)
    for _ in range(5):
        scn = random_scenario(rng, n_max=3, m_max=3, n_horizon_max=5)
        ops = ops_of(scn)
        phi, gamma, lam = stack_operators_oracle(scn.plant.a, scn.plant.b, scn.horizon)
        assert np.allclose(ops.phi, phi, rtol=1e-12, atol=1e-12)
        assert np.allclose(ops.gamma, gamma, rtol=1e-12, atol=1e-12)
        assert np.allclose(ops.lam, lam, rtol=1e-12, atol=1e-12)


def test_stacked_equation_matches_step_iteration():
    # state from the condensed matrix equation == step-by-step recursion
    rng = np.random.default_rng(29)
    for _ in range(10):
        scn = random_scenario(rng, n_max=3, m_max=3, n_horizon_max=5)
        n, m, N = scn.n, scn.m, scn.horizon
        ops = ops_of(scn)
        x0 = rng.normal(size=n)
        useq = rng.normal(size=N * m)
        vs = (rng.random((N, m)) < 0.5).astype(float)
        ws = rng.normal(size=(N, n))
        stacked = (ops.phi @ x0
                   + ops.gamma @ (vs.reshape(-1) * useq)
                   + ops.lam @ ws.reshape(-1))
        x = x0.copy()
        for k in range(N):
            x = scn.plant.a @ x + scn.plant.b @ (vs[k] * useq[k * m:(k + 1) * m]) + ws[k]
            blk = stacked[k * n:(k + 1) * n]
            assert np.allclose(blk, x, rtol=1e-12, atol=1e-12)


def test_weight_products_and_hadamard_split():
    rng = np.random.default_rng(5)
    scn = random_scenario(rng, n_max=3, m_max=2, n_horizon_max=4)
    ops = ops_of(scn)
    assert np.allclose(ops.omega_p, ops.phi.T @ ops.omega @ ops.phi)
    assert np.allclose(ops.omega_g, ops.gamma.T @ ops.omega @ ops.gamma)
    assert np.allclose(ops.omega_gp, ops.gamma.T @ ops.omega @ ops.phi)
    assert np.allclose(ops.omega_l, ops.lam.T @ ops.omega @ ops.lam)
    assert np.count_nonzero(ops.omega_d - np.diag(np.diag(ops.omega_d))) == 0
    assert np.all(np.diag(ops.omega_d) > 0)
    assert np.allclose(np.diag(ops.omega_h), 0.0)
    assert np.allclose(ops.omega_h, ops.omega_h.T)
    assert np.allclose(ops.omega_d + ops.omega_h, ops.omega_g)


def test_omega_g_and_omega_l_positive_definite():
    # omega_g is strictly definite only when the input map has full column
    # rank (m <= n); draw accordingly
    rng = np.random.default_rng(17)
    done = 0
    while done < 5:
        scn = random_scenario(rng, n_max=3, m_max=3, n_horizon_max=5, sigma_scale=0.1)
        if scn.m > scn.n:
            continue
        done += 1
        ops = ops_of(scn)
        assert np.min(np.linalg.eigvalsh(ops.omega_g)) > 0
        assert np.min(np.linalg.eigvalsh(ops.omega_l)) > 0
        assert ops.noise_trace > 0


def test_builds_are_bit_reproducible(pendulum):
    a = ops_of(pendulum)
    b = ops_of(pendulum)
    for name in ("phi", "gamma", "lam", "omega_g", "omega_gp", "omega_l"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_scheduled_channel_stacks_per_step_means():
    sched = np.array([[0.9, 0.4], [0.5, 0.8], [0.2, 0.6]])
    scn = make_scenario(np.eye(2), np.eye(2), [np.eye(2)] * 3, [np.eye(2)] * 3,
                        np.eye(2), [0.5, 0.5])
    scn = scn.__class__(plant=scn.plant, channel=ChannelModel(means=sched),
                        weights=scn.weights, eval_state=scn.eval_state, sim=scn.sim)
    ops = ops_of(scn)
    assert np.allclose(ops.upsilon_diag, sched.reshape(-1))
