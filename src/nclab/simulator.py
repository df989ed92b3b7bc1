"""Seeded closed-loop simulation with Bernoulli loss injection.

Randomness contract
-------------------
All draws come from ``numpy``'s counter-based Philox generator.  A rollout
with seed ``s`` draws, in order, one uniform block of shape (steps, m) for
the transmissions and one of shape (steps, n) for the noise; Gaussians are
produced deterministically from the uniforms by the inverse normal CDF.
Replicate ``r`` of a Monte Carlo run with base seed ``b`` uses
``replicate_seed(b, r)``, so replicates are reproducible individually and
independent of execution order or thread count.

Transmission and noise streams depend only on (seed, step), never on the
protocol: running both protocols at the same seed yields common random
numbers, which makes paired cost-gap estimates low-variance.

Every simulation is one recursion (``_rollout``) over a stack of
replicates: a single rollout is a stack of one, and Monte Carlo runs one
stack per chunk.  Only the generators and their uniforms are per replicate.

A lost packet applies exactly zero input at that actuator, and the realized
cost weights each stage's input penalty by the realized transmissions (a
lost packet incurs no input penalty).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .controller import Protocol, optimal_sequence, synthesize
from .prediction import build_prediction_operators
from .scenario import Scenario

__all__ = [
    "TrajectoryRecord",
    "MonteCarloStats",
    "replicate_seed",
    "open_loop_rollout",
    "receding_horizon_sim",
    "monte_carlo_cost",
    "write_trajectory_csv",
]

SEED_RULE = "replicate r uses numpy SeedSequence(entropy=(base_seed, r))"

# Byte budget of one Monte Carlo chunk's stored states and inputs.
_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class TrajectoryRecord:
    states: np.ndarray         # (steps+1, n)
    inputs: np.ndarray         # (steps, m), commanded inputs
    transmissions: np.ndarray  # (steps, m), realized 0/1 deliveries
    stage_costs: np.ndarray    # (steps,), row 0 includes the x_0 term
    realized_cost: float       # in-order sum of stage_costs
    seed: int


@dataclass(frozen=True)
class MonteCarloStats:
    mean_cost: float
    stderr: float
    replicates: int
    per_replicate_seeds: str = SEED_RULE


def replicate_seed(base_seed: int, r: int) -> int:
    """Derived 64-bit seed for replicate ``r`` (documented split rule)."""
    return int(np.random.SeedSequence(entropy=(int(base_seed), int(r))).generate_state(1, np.uint64)[0])


def _noise_factor(sigma_w: np.ndarray) -> np.ndarray:
    """Lower-triangular-ish factor L with L L' = sigma_w (PSD tolerated)."""
    if not np.any(sigma_w):
        return np.zeros_like(sigma_w)
    try:
        return np.linalg.cholesky(sigma_w)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(0.5 * (sigma_w + sigma_w.T))
        return v * np.sqrt(np.clip(w, 0.0, None))


def _draws(scn: Scenario, steps: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Deliveries (R, steps, m) and noise (R, steps, n) for a chunk of R
    seeds.  Each seed's generator draws its uniforms in the fixed order;
    the delivery threshold, the inverse normal CDF and the noise factor
    then act on the whole chunk."""
    uv = np.empty((len(seeds), steps, scn.m))
    uw = np.empty((len(seeds), steps, scn.n))
    for i, s in enumerate(seeds):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(s))))
        rng.random(out=uv[i])
        rng.random(out=uw[i])
    v = (uv < scn.channel.step_means(steps)).astype(float)
    w = ndtri(uw) @ _noise_factor(scn.plant.sigma_w).T
    return v, w


def _stage_weights(scn: Scenario, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """State (steps, n, n) and input (steps, m, m) penalties of steps
    0..steps-1; beyond the horizon (receding mode) the final step's repeat."""
    i = np.minimum(np.arange(steps), scn.horizon - 1)
    return scn.weights.omega_steps[i], scn.weights.psi_steps[i]


def _rollout(scn: Scenario, v: np.ndarray, w: np.ndarray, sequence: np.ndarray | None = None,
             gain: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Rollouts of a stack of R replicates from ``eval_state`` with
    deliveries v (R, steps, m) and noise w (R, steps, n).

    The commanded input at step k is ``sequence[k]`` (open loop) or
    -gain @ x_k (state feedback).  Returns the states (steps+1, R, n), the
    commanded inputs (steps, R, m), the realized costs (R,) and the stage
    costs (steps, R).  Stage k is the cost added by the transition out of
    step k; stage 0 also carries the x_0 term.  Row r depends only on
    replicate r's draws; a stack of one agrees with the same row of a larger
    stack to rounding, not bit for bit.
    """
    a, b = scn.plant.a, scn.plant.b
    R, steps = v.shape[:2]
    v, w = v.transpose(1, 0, 2), w.transpose(1, 0, 2)
    states = np.empty((steps + 1, R, scn.n))
    inputs = np.empty((steps, R, scn.m))
    applied = np.empty((steps, R, scn.m))
    x0 = np.asarray(scn.eval_state, dtype=float)
    states[0] = x0
    for k in range(steps):
        inputs[k] = sequence[k] if gain is None else -(states[k] @ gain.T)
        applied[k] = v[k] * inputs[k]
        states[k + 1] = states[k] @ a.T + applied[k] @ b.T + w[k]
    om, psi = _stage_weights(scn, steps)
    x = states[1:]
    stages = ((x @ om) * x).sum(axis=2) + ((applied @ psi) * applied).sum(axis=2)
    stages[0] += float(x0 @ scn.weights.q @ x0)
    # add.accumulate (unlike sum) adds the stages strictly step by step
    return states, inputs, np.add.accumulate(stages, axis=0)[-1], stages


def _record(scn: Scenario, seed: int, steps: int, sequence=None, gain=None) -> TrajectoryRecord:
    """One rollout: the stack of one replicate with seed ``seed``."""
    v, w = _draws(scn, steps, [seed])
    states, inputs, cost, stages = _rollout(scn, v, w, sequence=sequence, gain=gain)
    return TrajectoryRecord(states=states[:, 0], inputs=inputs[:, 0], transmissions=v[0],
                            stage_costs=stages[:, 0], realized_cost=float(cost[0]),
                            seed=int(seed))


def _open_loop_sequence(scn: Scenario, protocol: Protocol) -> np.ndarray:
    ops = build_prediction_operators(scn.plant, scn.weights, scn.channel)
    law = synthesize(ops, protocol)
    return optimal_sequence(law, scn.eval_state).reshape(scn.horizon, scn.m)


def open_loop_rollout(scn: Scenario, protocol: Protocol, seed: int) -> TrajectoryRecord:
    """Apply the full optimal sequence planned at ``eval_state`` over one
    horizon, with fresh losses and noise at every step."""
    return _record(scn, seed, scn.horizon, sequence=_open_loop_sequence(scn, protocol))


def receding_horizon_sim(scn: Scenario, protocol: Protocol, steps: int, seed: int) -> TrajectoryRecord:
    """Re-plan at every measured state and apply only the first input block."""
    if steps < 1:
        raise ValueError("steps must be ≥ 1")
    ops = build_prediction_operators(scn.plant, scn.weights, scn.channel)
    law = synthesize(ops, protocol)  # the law is state-independent; re-solving
    kf = law.k_first                 # each step would rebuild this same gain
    return _record(scn, seed, steps, gain=kf)


def monte_carlo_cost(scn: Scenario, protocol: Protocol, replicates: int,
                     base_seed: int, threads: int | None = None) -> MonteCarloStats:
    """Mean and standard error of the open-loop realized cost.

    Replicate ``r`` reproduces ``open_loop_rollout`` at seed
    ``replicate_seed(base_seed, r)`` to rounding (see ``_rollout``).
    Replicates run in chunks of about ``_CHUNK_BYTES`` of stored states and
    inputs, so the chunk size follows from the horizon and the dimensions,
    never from ``threads``.  A replicate's cost depends only on its own
    draws, and aggregation uses exact (fsum) summation, so the result does
    not depend on the thread count or on the order in which chunks finish.

    The mean estimates the expected realized cost of the protocol's
    open-loop sequence, which is the unacknowledged objective at that
    sequence.  It matches ``expected_cost`` for UDP and lies above it for
    TCP, whose closed form is a planning value that no policy attains
    (see ``expected_cost``).
    """
    if replicates < 2:
        raise ValueError("replicates must be ≥ 2")
    u_star = _open_loop_sequence(scn, protocol)
    rows = max(1, _CHUNK_BYTES // (8 * scn.horizon * (scn.n + scn.m)))
    costs = np.empty(replicates)

    def run(lo):
        hi = min(lo + rows, replicates)
        v, w = _draws(scn, scn.horizon, [replicate_seed(base_seed, r) for r in range(lo, hi)])
        costs[lo:hi] = _rollout(scn, v, w, sequence=u_star)[2]

    starts = range(0, replicates, rows)
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run, starts))
    else:
        for lo in starts:
            run(lo)

    mean = math.fsum(costs) / replicates
    ssq = math.fsum((c - mean) ** 2 for c in costs)
    stderr = math.sqrt(ssq / (replicates - 1)) / math.sqrt(replicates)
    return MonteCarloStats(mean_cost=mean, stderr=stderr, replicates=replicates)


def write_trajectory_csv(path, record: TrajectoryRecord, scn: Scenario) -> None:
    """Write ``step,x_1..x_n,u_1..u_m,v_1..v_m,stage_cost`` rows.

    Row k holds the pre-update state x_k and the record's stage cost k,
    the cost added by the transition out of step k (row 0 also carries the
    x_0 term), so the column sums to the record's realized cost.
    """
    n, m = scn.n, scn.m
    steps = record.inputs.shape[0]
    header = (["step"] + [f"x_{i+1}" for i in range(n)]
              + [f"u_{i+1}" for i in range(m)] + [f"v_{i+1}" for i in range(m)]
              + ["stage_cost"])
    lines = [",".join(header)]
    for k in range(steps):
        cells = ([str(k)] + [f"{v:.9g}" for v in record.states[k]]
                 + [f"{v:.9g}" for v in record.inputs[k]]
                 + [f"{v:.9g}" for v in record.transmissions[k]]
                 + [f"{record.stage_costs[k]:.9g}"])
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
