import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from nclab import ChannelModel, build_prediction_operators
from nclab.analysis import _omega_h
from nclab.prediction import _gamma

from conftest import (make_scenario, noise_trace_oracle, ops_of, random_scenario,
                      stack_operators_oracle, stacked_weights_oracle, step_means_oracle)


def _oracle_products(scn):
    """Omega_g, Omega_gp and Omega_p from the oracle's stacked operators."""
    phi, gamma, _ = stack_operators_oracle(scn.plant.a, scn.plant.b, scn.horizon)
    omega, _, _ = stacked_weights_oracle(scn)
    return gamma.T @ omega @ gamma, gamma.T @ omega @ phi, phi.T @ omega @ phi


def test_scalar_unit_plant_blocks():
    # Phi = [1; 1], Gamma = Lambda = [[1, 0], [1, 1]], unit weights
    scn = make_scenario([[1.0]], [[1.0]], [[[1.0]]] * 2, [[[1.0]]] * 2,
                        [[1.0]], [0.5], sigma_w=[[1.0]])
    ops = ops_of(scn)
    assert np.array_equal(ops.omega_g, [[2.0, 1.0], [1.0, 1.0]])
    assert np.array_equal(ops.omega_gp, [[2.0], [1.0]])
    assert np.array_equal(ops.omega_p, [[2.0]])
    assert np.array_equal(ops.psi, [1.0, 1.0])
    assert ops.noise_trace == 3.0  # tr(Lambda' Lambda)


def test_single_step_collapse():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    b = rng.normal(size=(3, 2))
    om = rng.normal(size=(3, 3))
    om = om @ om.T + np.eye(3)
    scn = make_scenario(a, b, [om], [np.diag([1.0, 2.0])], np.eye(3), [0.5, 0.5])
    ops = ops_of(scn)
    assert np.allclose(ops.omega_p, a.T @ om @ a)
    assert np.allclose(ops.omega_g, b.T @ om @ b)
    assert np.allclose(ops.omega_gp, b.T @ om @ a)


def test_pendulum_dimensions(pendulum):
    ops = ops_of(pendulum)
    assert ops.omega_g.shape == (80, 80)
    assert ops.psi.shape == ops.omega_d.shape == (80,)
    assert ops.omega_gp.shape == (80, 4)
    assert ops.omega_p.shape == (4, 4)
    assert ops.upsilon_diag.shape == (80,)


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


# n, m, N, spectral radius of A, rank of Sigma_W, scheduled channel
STRUCTURE_CASES = [
    (3, 2, 17, 0.9, 3, False),
    (5, 1, 40, 1.1, 2, True),
    (8, 3, 40, 1.05, 5, True),
    (5, 3, 23, 0.7, 0, False),
    (3, 3, 40, 1.2, 1, True),
    (8, 3, 31, 0.95, 8, False),
]


def _structured_scenario(rng, n, m, N, rho, rank, scheduled):
    """A random scenario whose A has spectral radius ``rho`` and whose
    Sigma_W = F F' has rank ``rank``, with per-step weights and a channel
    schedule of one row per step when ``scheduled``."""
    a = rng.normal(size=(n, n))
    a *= rho / np.max(np.abs(np.linalg.eigvals(a)))
    f = rng.normal(size=(n, rank))
    omega_steps = [g @ g.T + np.eye(n) for g in rng.normal(size=(N, n, n))]
    psi_steps = [np.diag(rng.uniform(0.3, 2.0, m)) for _ in range(N)]
    mu = rng.uniform(0.05, 0.95, (N, m) if scheduled else m)
    return make_scenario(a, rng.normal(size=(n, m)), omega_steps, psi_steps, np.eye(n), mu,
                         sigma_w=f @ f.T)


def test_block_structure_matches_independent_construction():
    # the batched block products against the oracles' dense Omega, Phi and
    # Gamma: small random shapes, then odd n, n8 m3, scheduled channels,
    # horizons up to 40, rank-deficient Sigma_W and spectral radius above 1
    rng = np.random.default_rng(11)
    scenarios = [random_scenario(rng, n_max=3, m_max=3, n_horizon_max=5) for _ in range(5)]
    scenarios += [_structured_scenario(rng, *case) for case in STRUCTURE_CASES]
    for scn in scenarios:
        ops = ops_of(scn)
        omega_g, omega_gp, omega_p = _oracle_products(scn)
        for got, ref in ((ops.omega_g, omega_g), (ops.omega_gp, omega_gp),
                         (ops.omega_p, omega_p), (ops.omega_d, np.diag(omega_g))):
            # entries that cancel are judged against the matrix's largest
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * np.max(np.abs(ref)))
        assert np.array_equal(np.diag(ops.psi), stacked_weights_oracle(scn)[1])
        assert np.array_equal(ops.upsilon_diag, step_means_oracle(scn).reshape(-1))
        np.testing.assert_allclose(ops.noise_trace, noise_trace_oracle(scn), rtol=1e-13,
                                   atol=0.0)


def _gathered_operators(scn):
    """The weight products with Gamma gathered from its blocks by lag, the
    powers of A chained by ``np.matmul``, and Omega as a C-ordered stack,
    each product taken in the order the build takes it."""
    a, b, N = scn.plant.a, scn.plant.b, scn.horizon
    n, m = b.shape
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(np.matmul(a, powers[-1]))
    powers = np.array(powers)
    lag = np.subtract.outer(np.arange(N), np.arange(N))
    lag[lag < 0] = N
    blocks = np.concatenate([powers[:N] @ b, np.zeros((1, n, m))])
    gamma = blocks[lag].transpose(0, 2, 1, 3).reshape(N * n, N * m)
    omega = np.array(scn.weights.omega_steps)
    omega_g = gamma.T @ np.matmul(omega, gamma.reshape(N, n, N * m)).reshape(N * n, N * m)
    omega_g = 0.5 * (omega_g + omega_g.T)
    phi_omega = np.matmul(powers[1:].transpose(0, 2, 1), omega).transpose(1, 0, 2)
    cov = np.cumsum(powers[:N] @ scn.plant.sigma_w @ powers[:N].transpose(0, 2, 1), axis=0)
    return {"omega_g": omega_g, "omega_d": np.diag(omega_g),
            "omega_gp": gamma.T @ np.matmul(omega, powers[1:]).reshape(N * n, n),
            "omega_p": phi_omega.reshape(n, N * n) @ powers[1:].reshape(N * n, n),
            "noise_trace": float(np.sum(omega * cov.transpose(0, 2, 1)))}


def test_operators_equal_a_gathered_gamma_bit_for_bit(pendulum, mixed):
    # every field, with the strided Toeplitz Gamma, the np.dot power chain
    # and a weight given once (a stride-0 stack), against a gathered Gamma,
    # np.matmul powers and a C-ordered stack: m = 1 (pendulum, whose reshape of the strided view
    # is not contiguous), m = 2 (mixed) and m = 3
    rng = np.random.default_rng(31)
    scenarios = [pendulum, mixed, _structured_scenario(rng, 3, 1, 17, 0.9, 3, False)]
    scenarios += [_structured_scenario(rng, *case) for case in STRUCTURE_CASES[2:4]]
    assert pendulum.weights.omega_steps.strides[0] == 0
    assert [scn.m for scn in scenarios] == [1, 2, 1, 3, 3]
    for scn in scenarios:
        ops = ops_of(scn)
        refs = _gathered_operators(scn)
        refs.update(psi=np.diag(stacked_weights_oracle(scn)[1]), q=scn.weights.q,
                    upsilon_diag=step_means_oracle(scn).reshape(-1))
        assert set(refs) | {"n", "m", "horizon"} == set(vars(ops))
        for name, ref in refs.items():
            assert np.array_equal(getattr(ops, name), ref), name


def _traced_peak(build):
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _owners(arrays):
    """The arrays that own the memory of ``arrays``: a view keeps its base alive."""
    roots = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        roots[id(a)] = a
    return list(roots.values())


def test_build_transient_memory_below_one_gamma():
    # at n8 m3 N200 Gamma is built with one Gamma-sized copy.  The build
    # peaks in the one product Gamma'(Omega Gamma), with Gamma, Omega Gamma
    # and Omega_g alive (18.4 MB), and little more: Gamma and Omega Gamma are
    # released before Omega_g is symmetrized.  The result keeps Omega_g as
    # its only (N m)^2 array, and O(N m n) bytes besides: Omega_gp and the
    # (N m,) diagonals
    n, m, N = 8, 3, 200
    nm = N * m
    scn = _structured_scenario(np.random.default_rng(23), n, m, N, 0.95, n, False)
    gamma_bytes = (N * n) * nm * 8
    powers = np.array([np.linalg.matrix_power(scn.plant.a, k) for k in range(N)])
    _, peak = _traced_peak(lambda: _gamma(powers, scn.plant.b))
    assert peak < 1.05 * gamma_bytes  # Gamma and the padded blocks (1% of it)
    ops, peak = _traced_peak(lambda: ops_of(scn))
    owners = _owners(v for v in vars(ops).values() if isinstance(v, np.ndarray))
    retained = sum(v.nbytes for v in owners)
    assert peak < 2.05 * gamma_bytes + nm * nm * 8
    assert [v.size >= nm * nm for v in owners].count(True) == 1
    assert retained <= nm * nm * 8 + 4 * nm * n * 8


def test_noise_trace_matches_oracle():
    # per-step Omega; every fourth scenario has no noise
    rng = np.random.default_rng(13)
    for trial in range(20):
        scn = random_scenario(rng, n_max=4, m_max=2, n_horizon_max=12)
        f = rng.normal(size=(scn.n, scn.n))
        sigma_w = np.zeros((scn.n, scn.n)) if trial % 4 == 0 else f @ f.T
        scn = replace(scn, plant=replace(scn.plant, sigma_w=sigma_w))
        np.testing.assert_allclose(ops_of(scn).noise_trace, noise_trace_oracle(scn),
                                   rtol=1e-12, atol=0.0)


def test_stacked_equation_matches_step_iteration():
    # state from the condensed matrix equation == step-by-step recursion
    rng = np.random.default_rng(29)
    for _ in range(10):
        scn = random_scenario(rng, n_max=3, m_max=3, n_horizon_max=5)
        n, m, N = scn.n, scn.m, scn.horizon
        phi, gamma, lam = stack_operators_oracle(scn.plant.a, scn.plant.b, N)
        x0 = rng.normal(size=n)
        useq = rng.normal(size=N * m)
        vs = (rng.random((N, m)) < 0.5).astype(float)
        ws = rng.normal(size=(N, n))
        stacked = phi @ x0 + gamma @ (vs.reshape(-1) * useq) + lam @ ws.reshape(-1)
        x = x0.copy()
        for k in range(N):
            x = scn.plant.a @ x + scn.plant.b @ (vs[k] * useq[k * m:(k + 1) * m]) + ws[k]
            blk = stacked[k * n:(k + 1) * n]
            assert np.allclose(blk, x, rtol=1e-12, atol=1e-12)


def test_weight_products_and_hadamard_split():
    rng = np.random.default_rng(5)
    scn = random_scenario(rng, n_max=3, m_max=2, n_horizon_max=4)
    ops = ops_of(scn)
    assert np.array_equal(ops.omega_d, np.diag(ops.omega_g))
    assert np.all(ops.omega_d > 0)
    omega_h = _omega_h(ops)
    assert np.count_nonzero(np.diag(omega_h)) == 0
    assert np.array_equal(omega_h, omega_h.T)
    assert np.array_equal(np.diag(ops.omega_d) + omega_h, ops.omega_g)


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
        assert ops.noise_trace > 0  # Omega_l definite, Sigma_W = 0.1 I


def test_builds_are_bit_reproducible(pendulum):
    a = ops_of(pendulum)
    b = ops_of(pendulum)
    for name in ("upsilon_diag", "psi", "omega_p", "omega_g", "omega_gp", "omega_d"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.noise_trace == b.noise_trace


def test_scheduled_channel_stacks_per_step_means():
    sched = np.array([[0.9, 0.4], [0.5, 0.8], [0.2, 0.6]])
    scn = make_scenario(np.eye(2), np.eye(2), [np.eye(2)] * 3, [np.eye(2)] * 3,
                        np.eye(2), [0.5, 0.5])
    scn = scn.__class__(plant=scn.plant, channel=ChannelModel(means=sched),
                        weights=scn.weights, eval_state=scn.eval_state, sim=scn.sim)
    ops = ops_of(scn)
    assert np.allclose(ops.upsilon_diag, sched.reshape(-1))


@pytest.mark.parametrize("edit, message", [
    (lambda scn: replace(scn, plant=replace(scn.plant, b=np.ones((3, 2)))),
     "b has 3 rows but a is 2x2"),
    (lambda scn: replace(scn, channel=ChannelModel(means=np.array([0.5]))),
     "channel means cover 1 channels but b has 2 columns"),
], ids=["three_row_b", "one_channel_means"])
def test_build_refuses_mismatched_dimensions(mixed, edit, message):
    scn = edit(mixed)
    with pytest.raises(ValueError, match=message):
        build_prediction_operators(scn.plant, scn.weights, scn.channel)


def test_every_operator_array_is_read_only(pendulum, mixed):
    for scn in (pendulum, mixed):
        ops = ops_of(scn)
        arrays = [f.name for f in fields(ops) if isinstance(getattr(ops, f.name), np.ndarray)]
        assert arrays == ["upsilon_diag", "psi", "q", "omega_p", "omega_g", "omega_gp",
                          "omega_d"]
        for name in arrays:
            with pytest.raises(ValueError, match="read-only"):
                getattr(ops, name)[...] = 0.0


def test_a_scenario_builds_its_operators_once(pendulum):
    scn = replace(pendulum)  # a scenario object no other test has read
    ops = scn.operators
    assert scn.operators is ops
    built = ops_of(scn)
    for f in fields(ops):
        assert np.array_equal(getattr(ops, f.name), getattr(built, f.name))
    # a replaced scenario is a new object, with operators of its own
    assert replace(scn, sim=replace(scn.sim, seed=1)).operators is not ops
