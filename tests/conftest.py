"""Shared fixtures and independent oracles.

The oracle helpers deliberately re-derive everything from the plant data
with their own constructions (matrix_power loops, exhaustive Bernoulli
enumeration, Riccati recursions) so they share no code path with the
package internals they check.
"""

import json

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from hypothesis import settings

from nclab import (ChannelModel, PlantModel, Scenario, SimOptions, WeightSpec,
                   build_prediction_operators, fixture_path, load_scenario)

# Reproducible property tests: the same examples on every run
# (pytest --hypothesis-profile=ci); a plain run uses the same profile.
settings.register_profile("ci", derandomize=True, deadline=None, database=None)
settings.load_profile("ci")

# Values every CSV writer must print exactly as ``f"{v:.9g}"`` does: a signed
# zero, a tiny and the largest double, a repeating fraction, an
# integer wider than nine digits and the step-count cap.
CSV_EDGE_VALUES = [-0.0, 1e-300, 1.7976931348623157e308, 1 / 3, 123456789012.0, 1e6]


def csv_reference(header, table) -> str:
    """The CSV text every writer must produce: the header, then each row's
    cells as ``f"{v:.9g}"``, comma-separated, one row per line."""
    rows = [",".join(f"{v:.9g}" for v in row) for row in np.asarray(table, dtype=float).tolist()]
    return "".join(line + "\n" for line in [",".join(header), *rows])

# ---------------------------------------------------------------------------
# scenario builders


def make_scenario(a, b, omega_steps, psi_steps, q, mu, sigma_w=None, x=None,
                  beta=None, seed=1234, replicates=100):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n, m = a.shape[0], b.shape[1]
    N = len(omega_steps)
    if sigma_w is None:
        sigma_w = np.zeros((n, n))
    plant = PlantModel(a=a, b=b, sigma_w=np.asarray(sigma_w, dtype=float),
                       x0_mean=np.zeros(n))
    channel = ChannelModel(means=np.asarray(mu, dtype=float),
                           beta=None if beta is None else np.asarray(beta, dtype=float))
    weights = WeightSpec(q=np.asarray(q, dtype=float),
                         omega_steps=np.asarray(omega_steps, dtype=float),
                         psi_steps=np.asarray(psi_steps, dtype=float), horizon=N)
    x = plant.x0_mean if x is None else np.asarray(x, dtype=float)
    return Scenario(plant=plant, channel=channel, weights=weights, eval_state=x,
                    sim=SimOptions(steps=N, replicates=replicates, seed=seed))


def toy_scenario(mu=0.5, sigma_w=0.0, x=1.0):
    """n = m = N = 1, A = B = Q = Omega = Psi = 1."""
    return make_scenario(a=[[1.0]], b=[[1.0]], omega_steps=[[[1.0]]],
                         psi_steps=[[[1.0]]], q=[[1.0]], mu=[mu],
                         sigma_w=[[sigma_w]], x=[x])


def random_scenario(rng, n_max=4, m_max=3, n_horizon_max=10, mu_lo=0.05,
                    mu_hi=0.95, sigma_scale=0.0, n=None, m=None):
    """Random sizes up to the maxima, unless n or m is given."""
    n = int(rng.integers(1, n_max + 1)) if n is None else n
    m = int(rng.integers(1, m_max + 1)) if m is None else m
    N = int(rng.integers(1, n_horizon_max + 1))
    a = rng.normal(0.0, 0.6, (n, n))
    b = rng.normal(0.0, 1.0, (n, m))

    def spd(k):
        f = rng.normal(0.0, 1.0, (k, k))
        return f @ f.T + (0.3 + rng.random()) * np.eye(k)

    def diag_pd(k):
        return np.diag(rng.uniform(0.3, 2.0, k))

    omega_steps = [spd(n) for _ in range(N)]
    psi_steps = [diag_pd(m) for _ in range(N)]
    mu = rng.uniform(mu_lo, mu_hi, m)
    x = rng.normal(0.0, 1.0, n)
    sw = sigma_scale * np.eye(n) if sigma_scale else None
    return make_scenario(a, b, omega_steps, psi_steps, spd(n), mu, sigma_w=sw, x=x)


def ops_of(scn):
    return build_prediction_operators(scn.plant, scn.weights, scn.channel)


def edited_fixture(fixture, value, places) -> dict:
    """The scenario document of ``fixture`` with the first number of each
    place, a dotted path into it, set to value(number)."""
    doc = json.loads(open(fixture_path(fixture)).read())
    for place in places:
        entry = doc
        for key in place.split("."):
            entry = entry[key]
        while isinstance(entry[0], list):
            entry = entry[0]
        entry[0] = value(entry[0])
    return doc


@pytest.fixture(autouse=True)
def _no_kept_scenarios():
    """Every test starts with ``load_scenario`` keeping no scenario, so no
    test reads one that another test loaded."""
    from nclab import scenario

    scenario._kept.clear()


@pytest.fixture(scope="session")
def pendulum():
    return load_scenario(fixture_path("pendulum"))


@pytest.fixture(scope="session")
def mixed():
    return load_scenario(fixture_path("mixed"))


# ---------------------------------------------------------------------------
# independent oracles


def stack_operators_oracle(a, b, N):
    """Independent construction of the stacked operators via matrix_power."""
    n, m = a.shape[0], b.shape[1]
    phi = np.vstack([np.linalg.matrix_power(a, i + 1) for i in range(N)])
    gamma = np.zeros((N * n, N * m))
    lam = np.zeros((N * n, N * n))
    for i in range(N):
        for j in range(i + 1):
            gamma[i * n:(i + 1) * n, j * m:(j + 1) * m] = np.linalg.matrix_power(a, i - j) @ b
            lam[i * n:(i + 1) * n, j * n:(j + 1) * n] = np.linalg.matrix_power(a, i - j)
    return phi, gamma, lam


def step_means_oracle(scn, upsilon=None):
    """(N, m) per-step channel means: the scenario's own (stationary or
    scheduled), or an override (scalar, per-channel, or full stacked)."""
    N, m = scn.horizon, scn.m
    u = np.asarray(scn.channel.means if upsilon is None else upsilon, dtype=float)
    if u.size == N * m:
        u = u.reshape(N, m)
    return np.broadcast_to(u, (N, m)).copy()


def stacked_weights_oracle(scn):
    """Block-diagonal stacked Omega, Psi and Sigma_W over the horizon."""
    N = scn.horizon
    omega = np.zeros((N * scn.n, N * scn.n))
    psi = np.zeros((N * scn.m, N * scn.m))
    for k in range(N):
        omega[k * scn.n:(k + 1) * scn.n, k * scn.n:(k + 1) * scn.n] = scn.weights.omega_steps[k]
        psi[k * scn.m:(k + 1) * scn.m, k * scn.m:(k + 1) * scn.m] = scn.weights.psi_steps[k]
    return omega, psi, np.kron(np.eye(N), scn.plant.sigma_w)


def noise_trace_oracle(scn):
    """tr(Omega_l Sigma_W), the cost of the uncorrected process noise."""
    _, _, lam = stack_operators_oracle(scn.plant.a, scn.plant.b, scn.horizon)
    omega, _, sw = stacked_weights_oracle(scn)
    return float(np.trace(lam.T @ omega @ lam @ sw))


def all_outcomes(k):
    """(2^k, k) array of every 0/1 pattern."""
    return ((np.arange(2 ** k)[:, None] >> np.arange(k)) & 1).astype(float)


def outcome_probs(patterns, means):
    return np.prod(np.where(patterns > 0.5, means, 1.0 - means), axis=1)


def enumerate_bernoulli_quadratic(omega_g, means, useq):
    """E[(v ∘ u)' Omega_g (v ∘ u)] by exhaustive enumeration over v."""
    pats = all_outcomes(len(means))
    probs = outcome_probs(pats, np.asarray(means, dtype=float))
    vu = pats * np.asarray(useq, dtype=float)
    vals = np.einsum("ri,ij,rj->r", vu, omega_g, vu)
    return float(probs @ vals)


def protocol_objective_oracle(scn, protocol_tag, useq):
    """Planning objective of one protocol at a fixed input sequence, built
    from scratch: expected trajectory + exhaustively enumerated error and
    input-penalty expectations."""
    a, b = scn.plant.a, scn.plant.b
    N, m = scn.horizon, scn.m
    x = scn.eval_state
    phi, gamma, lam = stack_operators_oracle(a, b, N)
    omega, psi, sw = stacked_weights_oracle(scn)
    means = step_means_oracle(scn).reshape(-1)

    xhat = phi @ x + gamma @ (means * useq)
    noise = float(np.trace(lam.T @ omega @ lam @ sw))
    pats = all_outcomes(N * m)
    probs = outcome_probs(pats, means)
    vu = pats * useq
    input_term = float(probs @ np.einsum("ri,ij,rj->r", vu, psi, vu))
    j = float(x @ scn.weights.q @ x) + float(xhat @ omega @ xhat) + input_term + noise
    if protocol_tag == "udp":
        dev = (pats - means) * useq
        gog = gamma.T @ omega @ gamma
        j += float(probs @ np.einsum("ri,ij,rj->r", dev, gog, dev))
    return j


def minimize_quadratic_oracle(fun, k):
    """Exact minimizer of a quadratic objective recovered by sampling.

    For quadratic f, gradients and Hessians from unit-step differences are
    exact up to rounding; the minimizer solves H u = -g.
    """
    f0 = fun(np.zeros(k))
    e = np.eye(k)
    fp = np.array([fun(e[i]) for i in range(k)])
    fm = np.array([fun(-e[i]) for i in range(k)])
    g = 0.5 * (fp - fm)
    h = np.empty((k, k))
    for i in range(k):
        h[i, i] = fp[i] + fm[i] - 2.0 * f0
        for j in range(i):
            fij = fun(e[i] + e[j])
            h[i, j] = h[j, i] = fij - fp[i] - fp[j] + f0
    u = np.linalg.solve(h, -g)
    return u, fun(u)


def riccati_first_gain_oracle(a, b, omega_steps, psi_steps):
    """First-step gain of the loss-free finite-horizon problem by backward
    dynamic programming."""
    N = len(omega_steps)
    p = np.array(omega_steps[N - 1], dtype=float)
    for k in range(N - 2, -1, -1):
        kk = np.linalg.solve(psi_steps[k + 1] + b.T @ p @ b, b.T @ p @ a)
        p = omega_steps[k] + a.T @ p @ a - a.T @ p @ b @ kk
    return np.linalg.solve(psi_steps[0] + b.T @ p @ b, b.T @ p @ a)


def open_loop_expected_cost_oracle(scn, useq):
    """Exact expected realized cost of a fixed open-loop sequence, by
    exhaustive enumeration over every transmission pattern."""
    N, m = scn.horizon, scn.m
    a, b = scn.plant.a, scn.plant.b
    means = step_means_oracle(scn).reshape(-1)
    phi, gamma, lam = stack_operators_oracle(a, b, N)
    omega, psi, sw = stacked_weights_oracle(scn)
    x = scn.eval_state
    pats = all_outcomes(N * m)
    probs = outcome_probs(pats, means)
    total = float(x @ scn.weights.q @ x) + float(np.trace(lam.T @ omega @ lam @ sw))
    vu = pats * useq
    xs = phi @ x + vu @ gamma.T
    total += float(probs @ (np.einsum("ri,ij,rj->r", xs, omega, xs)
                            + np.einsum("ri,ij,rj->r", vu, psi, vu)))
    return total


def lossy_riccati_oracle(scn, kind, upsilon=None):
    """Stage gains L_0..L_{N-1} (u_k = -L_k xhat_k; an (N, m, n) array) and
    cost-to-go P_0 of a scenario's loss-channel LQ problem, at its own
    channel means or an override ``upsilon``, in which the controller
    measures x_0 only, by backward dynamic programming on the noise-free
    state xhat (Schenato et al., Proc. IEEE 2007, with no observation
    after x_0).  Step k minimizes over u

        u'(Psi_k o E_k)u + (A x + B M_k u)' S_k (A x + B M_k u) + u'(D_k o B' X_k B)u,

    with M_k = diag(mu_k), D_k = diag(mu_k (1 - mu_k)), E_k = E[v v'] =
    mu_k mu_k' + D_k, S_k = Omega_k + P_{k+1} and ``o`` the entrywise
    product.  ``kind`` picks X_k, the weight on the delivery-noise term
    B (v - mu) u of the next state:

    - ``"tcp"``: X_k = 0, the acknowledged planning objective (the state
      term is taken along the mean trajectory);
    - ``"udp"``: X_k = T_k = Omega_k + A' T_{k+1} A, the open-loop cost of a
      state error, which the unacknowledged controller never corrects;
      this is the expected realized cost of an open-loop sequence;
    - ``"ack"``: X_k = S_k, the acknowledged controller that learns every
      delivery and re-plans (Schenato's TCP-like law); its value is the
      least expected realized cost of any policy using x_0 and the
      acknowledgments.

    The values are ordered, P_0: tcp <= ack <= udp: the acknowledged
    controller may ignore acknowledgments, and by Jensen's inequality its
    cost is at least the planning objective at its mean input.  The
    optimal cost is x'Qx + x'P_0x + tr(Sigma_W Omega_l) for every kind.
    """
    a, b = scn.plant.a, scn.plant.b
    omega_steps, psi_steps = scn.weights.omega_steps, scn.weights.psi_steps
    means = step_means_oracle(scn, upsilon)
    N = scn.horizon
    gains = np.empty((N, b.shape[1], a.shape[0]))
    t = np.zeros_like(a)
    p = np.zeros_like(a)
    for k in range(N - 1, -1, -1):
        mu = means[k]
        d = np.diag(mu * (1.0 - mu))
        t = omega_steps[k] + a.T @ t @ a
        s = omega_steps[k] + p
        x_err = {"tcp": np.zeros_like(a), "udp": t, "ack": s}[kind]
        h = (psi_steps[k] * (np.outer(mu, mu) + d)
             + (mu[:, None] * (b.T @ s @ b)) * mu + d * (b.T @ x_err @ b))
        gains[k] = np.linalg.solve(h, mu[:, None] * (b.T @ s @ a))
        p = a.T @ s @ a - a.T @ s @ b @ (mu[:, None] * gains[k])
        p = 0.5 * (p + p.T)
    return gains, p


def riccati_gap_oracle(scn, y):
    """Cost gap J_udp - J_tcp = x'(P_0^udp - P_0^tcp)x at a shared mean y."""
    x = scn.eval_state
    p_udp = lossy_riccati_oracle(scn, "udp", float(y))[1]
    p_tcp = lossy_riccati_oracle(scn, "tcp", float(y))[1]
    return float(x @ (p_udp - p_tcp) @ x)


def gap_maximizer_oracle(scn):
    """Shared mean of maximal gap: the best point of a 400-point log grid
    on [1e-6, 1), refined by bounded scalar minimization between its
    neighbours.  Returns (maximizer, gap at the maximizer)."""
    points = 400
    grid = np.geomspace(1e-6, 1.0, points + 1)[:-1]
    vals = [riccati_gap_oracle(scn, y) for y in grid]
    i = int(np.argmax(vals))
    lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, points - 1)]
    res = scipy.optimize.minimize_scalar(lambda y: -riccati_gap_oracle(scn, y),
                                         bounds=(lo, hi), method="bounded",
                                         options={"xatol": 1e-12})
    return float(res.x), -float(res.fun)


def open_loop_cost_closed_form_oracle(scn, useq):
    """Exact expected realized cost of a fixed open-loop sequence in closed
    form: with delivered inputs V U, E[V U U' V] = (U U') ∘ E[v v'] and
    E[v v'] = mu mu' + diag(mu (1 - mu)) for independent deliveries."""
    means = step_means_oracle(scn).reshape(-1)
    phi, gamma, lam = stack_operators_oracle(scn.plant.a, scn.plant.b, scn.horizon)
    omega, psi, sw = stacked_weights_oracle(scn)
    x = scn.eval_state
    useq = np.asarray(useq, dtype=float)
    evv = np.outer(means, means) + np.diag(means * (1.0 - means))
    second = np.outer(useq, useq) * evv
    xbar = phi @ x
    return (float(x @ scn.weights.q @ x) + float(xbar @ omega @ xbar)
            + 2.0 * float(xbar @ omega @ gamma @ (means * useq))
            + float(np.sum((gamma.T @ omega @ gamma + psi) * second))
            + float(np.trace(lam.T @ omega @ lam @ sw)))


def acknowledged_rollout_oracle(scn, gains, v, w):
    """Realized costs of the acknowledged re-planning policy for a batch of
    replicates with deliveries v (R, N, m) and noise w (R, N, n).

    The controller measures x_0 only.  It tracks xhat, the state without
    noise, from x_0 and the acknowledgments and commands u_k = -L_k xhat_k
    (``gains`` from ``lossy_riccati_oracle``); the plant runs on the noisy
    state.  A replicate's cost is x_0'Qx_0 plus x_{k+1}'Omega_k x_{k+1} and
    the delivered input's penalty at every step."""
    a, b = scn.plant.a, scn.plant.b
    x0 = np.asarray(scn.eval_state, dtype=float)
    xhat = np.tile(x0, (v.shape[0], 1))
    x = xhat.copy()
    cost = np.full(v.shape[0], float(x0 @ scn.weights.q @ x0))
    for k in range(scn.horizon):
        applied = v[:, k, :] * -(xhat @ gains[k].T)
        xhat = xhat @ a.T + applied @ b.T
        x = x @ a.T + applied @ b.T + w[:, k, :]
        cost += (np.einsum("ri,ij,rj->r", x, scn.weights.omega_steps[k], x)
                 + np.einsum("ri,ij,rj->r", applied, scn.weights.psi_steps[k], applied))
    return cost


def draws_oracle(scn, steps, seed):
    """Deliveries (steps, m) and noise (steps, n) of one rollout by the
    documented seed rule: SeedSequence(seed) -> Philox -> uniforms of shape
    (steps, m), then (steps, n); a delivery is u < mean (a schedule's last
    row holding past its end) and the noise is ndtri(u) @ L' with
    L L' = Sigma_w (L = 0 when Sigma_w = 0)."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    uv = rng.random((steps, scn.m))
    uw = rng.random((steps, scn.n))
    means = np.asarray(scn.channel.means, dtype=float)
    if means.ndim == 2:
        means = means[[min(k, means.shape[0] - 1) for k in range(steps)]]
    sw = np.asarray(scn.plant.sigma_w, dtype=float)
    lw = np.linalg.cholesky(sw) if np.any(sw) else np.zeros_like(sw)
    return (uv < means).astype(float), scipy.special.ndtri(uw) @ lw.T
