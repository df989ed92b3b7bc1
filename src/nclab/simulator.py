"""Seeded closed-loop simulation with Bernoulli loss injection.

Randomness contract
-------------------
All draws come from ``numpy``'s counter-based Philox generator.  A rollout
with seed ``s`` draws, in order, one uniform block of shape (steps, m) for
the transmissions and one of shape (steps, n) for the noise; Gaussians are
produced deterministically from the uniforms by the inverse normal CDF.
Replicate ``r`` of a Monte Carlo run with base seed ``b`` uses
``replicate_seed(b, r)``, so replicates are reproducible individually and
independent of the order in which chunks run.  Seeds are nonnegative
integers of any size.

The rule is stated seed by seed, but no per-seed ``SeedSequence`` is built.
Philox is counter-based, so a stream is fixed by its key alone (Salmon et
al., "Parallel random numbers: as easy as 1, 2, 3", SC11).  ``_seed_states``
runs numpy's SeedSequence hash on uint32 arrays for a whole chunk at once:
it gives a Monte Carlo chunk's replicate seeds and every seed's Philox key,
bit for bit as numpy's ``SeedSequence`` does.  One Philox per chunk is then
re-keyed through its ``state`` for each seed, from a state dict of plain
Python ints.

Transmission and noise streams depend only on (seed, step), never on the
protocol: running both protocols at the same seed yields common random
numbers, which makes paired cost-gap estimates low-variance.

Every simulation is one recursion (``_rollout``) over a stack of
replicates: a single rollout is a stack of one, and Monte Carlo runs one
stack per chunk.  Only the Philox key and its uniforms are per replicate.
The draws are written time-major, (steps, R, .), the layout the recursion
reads step by step, and handed out as (R, steps, .) views.  Each stage
cost's terms are summed in index order.  A single rollout takes one set of
buffers, and Monte Carlo runs its chunks in one loop that writes each chunk
into the buffers of the one before.  Every product and sum keeps the order
of the plain step-by-step loop, so trajectories and costs are its bits.

A lost packet applies exactly zero input at that actuator, and the realized
cost weights each stage's input penalty by the realized transmissions (a
lost packet incurs no input penalty).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from .controller import Protocol, _chunks, optimal_sequence, synthesize
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


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init·mult^k mod 2^32 for k = 0..count-1, as a (count, 1) column."""
    c = np.full(count, mult, dtype=np.uint32)
    c[0] = init
    return np.multiply.accumulate(c, dtype=np.uint32)[:, np.newaxis]


# numpy's SeedSequence hash (M. E. O'Neill's seed_seq_fe) with its pool of
# four uint32 words.  Hash step k xors with _A[k] and multiplies by _A[k+1];
# a pool takes 16 steps (4 to fill it, 12 to mix it), plus 4 for each entropy
# word beyond the fourth.  Output word i uses _B[i] and _B[i+1] likewise.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_A = _hash_constants(_INIT_A, _MULT_A, 1 + _POOL * _POOL)
_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 1 + 2 * 2)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(x: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """Hash steps on uint32 words, which wrap as numpy's do."""
    x = (x ^ xor) * mul
    return x ^ (x >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = _MIX_L * x - _MIX_R * y
    return z ^ (z >> 16)


def _round_constants(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Mixing round s hashes pool word s with steps 4+3s, 5+3s, 6+3s into the
    other three words in turn.  Word s keeps its value, so its row of the
    (4, 1) xor and multiply columns is a placeholder."""
    k = _POOL + 3 * s
    return np.insert(_A[k:k + 3], s, 0, axis=0), np.insert(_A[k + 1:k + 4], s, 0, axis=0)


_ROUNDS = [_round_constants(s) for s in range(_POOL)]


def _words(values) -> tuple[np.ndarray, np.ndarray]:
    """Little-endian uint32 words (R, L) of R nonnegative integers, zero-padded
    on the right, and each one's word count (R,); zero is one word."""
    x = np.asarray(values)
    if x.dtype.kind in "iu":
        if x.dtype.kind == "i" and np.any(x < 0):
            raise ValueError("seeds must be nonnegative integers")
        words = x.astype("<u8").view("<u4").reshape(-1, 2)
        return words, 1 + (words[:, 1] != 0)
    x = [operator.index(v) for v in np.asarray(values, dtype=object).ravel()]  # beyond 64 bits
    if min(x) < 0:
        raise ValueError("seeds must be nonnegative integers")
    counts = np.array([max(1, -(-v.bit_length() // 32)) for v in x])
    x = np.array(x, dtype=object)
    words = np.stack([(x >> (32 * j)) & 0xFFFFFFFF for j in range(counts.max())], axis=1)
    return words.astype(np.uint32), counts


def _seed_states(words: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n, np.uint64)`` for R entropies
    at once, as an (R, n) array, n <= 2 (half the pool).  Row r of ``words``
    holds entropy r's uint32 words, zero-padded on the right, and
    ``counts[r]`` how many it has.

    Entropy of at most four words hashes as if zero-padded to the pool size,
    as numpy's does; longer entropy runs the extra mixing loop, once for each
    group of equal word count."""
    pool = np.zeros((_POOL, len(words)), dtype=np.uint32)
    pool[:words.shape[1]] = words[:, :_POOL].T
    pool = _hashmix(pool, _A[:_POOL], _A[1:_POOL + 1])
    for s, (xor, mul) in enumerate(_ROUNDS):  # word s mixes into the other three
        kept = pool[s]
        pool = _mix(pool, _hashmix(kept, xor, mul))
        pool[s] = kept
    longest = int(counts.max())
    if longest > _POOL:
        ca = _hash_constants(_INIT_A, _MULT_A, 1 + _POOL * longest)
        for c in np.unique(counts[counts > _POOL]):
            rows = np.flatnonzero(counts == c)
            sub = pool[:, rows]
            for j in range(_POOL, c):  # each further word into every pool word
                k = _POOL * j
                sub = _mix(sub, _hashmix(words[rows, j], ca[k:k + _POOL], ca[k + 1:k + _POOL + 1]))
            pool[:, rows] = sub
    out = _hashmix(pool[:2 * n], _B[:2 * n], _B[1:2 * n + 1])  # words 2i, 2i+1 are uint64 i's low, high
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)


def _replicate_seeds(base_seed: int, lo: int, hi: int) -> np.ndarray:
    """``replicate_seed(base_seed, r)`` for r in [lo, hi), hashed at once from
    the entropy words of (base_seed, r)."""
    base, count = _words([base_seed])
    base = base[:, :count[0]]
    words, counts = _words(np.arange(lo, hi, dtype=np.uint64))
    entropy = np.hstack([np.broadcast_to(base, (hi - lo, base.shape[1])), words])
    return _seed_states(entropy, base.shape[1] + counts, 1)[:, 0]


def _noise_factor(sigma_w: np.ndarray) -> np.ndarray:
    """Lower-triangular-ish factor L with L L' = sigma_w (PSD tolerated)."""
    if not np.any(sigma_w):
        return np.zeros_like(sigma_w)
    try:
        return np.linalg.cholesky(sigma_w)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(0.5 * (sigma_w + sigma_w.T))
        return v * np.sqrt(np.clip(w, 0.0, None))


class _Buffers:
    """Named float64 buffers that the chunks of one Monte Carlo run reuse.

    ``take(name, *shape)`` returns a C-contiguous array of that shape over
    the front of buffer ``name``, growing it when it is too small, so a
    chunk writes into the memory of the one before instead of fresh pages.
    What it hands out stays valid until the same name is taken again;
    ``"scratch"`` holds what a function no longer needs when it returns."""

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, name: str, *shape: int) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            flat = self._flat[name] = np.empty(size)
        return flat[:size].reshape(shape)


def _draws(scn: Scenario, steps: int, seeds, buffers: _Buffers | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Deliveries (R, steps, m) and noise (R, steps, n) for a chunk of R
    seeds.  Seed s keys Philox with ``SeedSequence(s).generate_state(2,
    uint64)``, hashed for the whole chunk at once; one Philox is re-keyed per
    seed and draws the seed's (steps, m) then (steps, n) uniforms as one block.
    The state dict it is re-keyed from holds plain ints, which the ``state``
    setter reads faster than numpy scalars.

    The delivery threshold, the inverse normal CDF and the noise factor act
    on the whole chunk and write time-major (steps, R, .) arrays, the layout
    ``_rollout`` reads; the results are their transposed views.  Every array
    is taken from ``buffers`` (a new set without them); the noise
    overwrites the spent uniforms."""
    from scipy.special import ndtri

    take = (buffers or _Buffers()).take
    keys = _seed_states(*_words(seeds), 2)
    R, split = len(keys), steps * scn.m
    u = take("draws", R, split + steps * scn.n)
    bits = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bits)
    state = bits.state  # counter 0 and an empty buffer: a fresh stream
    state["state"]["counter"] = state["state"]["counter"].tolist()
    state["buffer"] = state["buffer"].tolist()
    for i, key in enumerate(zip(*keys.T.tolist())):
        state["state"]["key"] = key
        bits.state = state
        rng.random(out=u[i])
    # the ufuncs run over (steps, ., R) views in C order: the replicate axis
    # is innermost, so the time-major writes come in runs of R, not of m or n
    v = take("deliveries", steps, R, scn.m)
    z = take("scratch", steps, R, scn.n)
    np.less(u[:, :split].reshape(R, steps, scn.m).transpose(1, 2, 0),
            scn.channel.step_means(steps)[:, :, np.newaxis], out=v.transpose(0, 2, 1), order="C")
    ndtri(u[:, split:].reshape(R, steps, scn.n).transpose(1, 2, 0), out=z.transpose(0, 2, 1),
          order="C")
    # one (steps·R, n) product gives the per-seed products' bits
    w = take("draws", steps, R, scn.n)
    np.matmul(z.reshape(-1, scn.n), _noise_factor(scn.plant.sigma_w).T, out=w.reshape(-1, scn.n))
    return v.transpose(1, 0, 2), w.transpose(1, 0, 2)


def _stage_weights(scn: Scenario, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """State (steps, n, n) and input (steps, m, m) penalties of steps
    0..steps-1; beyond the horizon (receding mode) the final step's repeat."""
    i = np.minimum(np.arange(steps), scn.horizon - 1)
    return scn.weights.omega_steps[i], scn.weights.psi_steps[i]


def _row_sums(terms: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``terms.sum(axis=-1)`` into ``out``, bit for bit.  numpy adds fewer
    than 8 terms in index order from +0.0, which column adds do without its
    reduction machinery; from 8 terms up it adds in pairwise blocks, so
    ``sum`` stays."""
    if terms.shape[-1] >= 8:
        return terms.sum(axis=-1, out=out)
    np.add(terms[..., 0], 0.0, out=out)
    for i in range(1, terms.shape[-1]):
        out += terms[..., i]
    return out


# a state or stage cost that is not finite is refused on output
@np.errstate(over="ignore", invalid="ignore")
def _rollout(scn: Scenario, v: np.ndarray, w: np.ndarray, sequence: np.ndarray | None = None,
             gain: np.ndarray | None = None, buffers: _Buffers | None = None
             ) -> tuple[np.ndarray, ...]:
    """Rollouts of a stack of R replicates from ``eval_state`` with
    deliveries v (R, steps, m) and noise w (R, steps, n).

    The commanded input at step k is ``sequence[k]`` (open loop) or
    -gain @ x_k (state feedback).  Returns the states (steps+1, R, n), the
    commanded inputs (steps, R, m), the realized costs (R,) and the stage
    costs (steps, R).  Stage k is the cost added by the transition out of
    step k; stage 0 also carries the x_0 term.  Row r depends only on
    replicate r's draws; a stack of one agrees with the same row of a larger
    stack to rounding, not bit for bit.

    v and w from ``_draws`` are views of time-major arrays, so each step
    reads contiguous rows.  Open-loop inputs are a broadcast view of the
    sequence, multiplied by B for all steps before the recursion, which then
    writes each step in place.  Each stage cost's terms are summed in index
    order (``_row_sums``); every product and sum gives the step-by-step
    loop's bits.  Every array is taken from ``buffers`` (a new set without
    them), so the results stay valid until the buffers are taken again.
    """
    take = (buffers or _Buffers()).take
    at, bt = scn.plant.a.T, scn.plant.b.T
    R, steps = v.shape[:2]
    n, m = scn.n, scn.m
    v, w = v.transpose(1, 0, 2), w.transpose(1, 0, 2)
    states = take("states", steps + 1, R, n)
    x0 = np.asarray(scn.eval_state, dtype=float)
    states[0] = x0
    # states[k+1] holds B u_k until A x_k and w_k are added to it: x + y is
    # y + x bit for bit, so each sum is the step-by-step loop's
    applied = take("applied", steps, R, m)
    if gain is None:
        inputs = np.broadcast_to(sequence[:steps, np.newaxis], v.shape)
        np.multiply(v, inputs, out=applied)
        np.matmul(applied, bt, out=states[1:])
    else:
        inputs = take("inputs", steps, R, m)
        neg_kt = -gain.T
    ax = np.empty((R, n))
    matmul, multiply, add = np.matmul, np.multiply, np.add
    for x_k, x, u_k, v_k, b_k, w_k in zip(states, states[1:], inputs, v, applied, w):
        if gain is not None:
            matmul(x_k, neg_kt, out=u_k)
            multiply(v_k, u_k, out=b_k)
            matmul(b_k, bt, out=x)
        add(x, matmul(x_k, at, out=ax), out=x)
        add(x, w_k, out=x)
    om, psi = _stage_weights(scn, steps)
    x = states[1:]
    terms = np.matmul(x, om, out=take("scratch", steps, R, n))
    terms *= x
    stages = _row_sums(terms, take("stages", steps, R))
    terms = np.matmul(applied, psi, out=take("scratch", steps, R, m))
    terms *= applied
    sums = take("sums", steps, R)
    stages += _row_sums(terms, sums)
    stages[0] += float(x0 @ scn.weights.q @ x0)
    # add.accumulate (unlike sum) adds the stages strictly step by step
    cost = np.add.accumulate(stages, axis=0, out=sums)[-1]
    return states, inputs, cost, stages


def _record(scn: Scenario, seed: int, steps: int, sequence=None, gain=None) -> TrajectoryRecord:
    """One rollout: the stack of one replicate with seed ``seed``."""
    buffers = _Buffers()
    v, w = _draws(scn, steps, [seed], buffers)
    states, inputs, cost, stages = _rollout(scn, v, w, sequence, gain, buffers)
    return TrajectoryRecord(states=states[:, 0], inputs=inputs[:, 0], transmissions=v[0],
                            stage_costs=stages[:, 0], realized_cost=float(cost[0]),
                            seed=int(seed))


def _open_loop_sequence(scn: Scenario, protocol: Protocol) -> np.ndarray:
    law = synthesize(scn.operators, protocol)
    with np.errstate(over="ignore", invalid="ignore"):  # refused with the realized cost
        return optimal_sequence(law, scn.eval_state).reshape(scn.horizon, scn.m)


def open_loop_rollout(scn: Scenario, protocol: Protocol, seed: int) -> TrajectoryRecord:
    """Apply the full optimal sequence planned at ``eval_state`` over one
    horizon, with fresh losses and noise at every step."""
    return _record(scn, seed, scn.horizon, sequence=_open_loop_sequence(scn, protocol))


def receding_horizon_sim(scn: Scenario, protocol: Protocol, steps: int, seed: int) -> TrajectoryRecord:
    """Re-plan at every measured state and apply only the first input block."""
    if steps < 1:
        raise ValueError("steps must be ≥ 1")
    # the law is state-independent; re-solving each step would rebuild this same gain
    kf = synthesize(scn.operators, protocol).k_first
    return _record(scn, seed, steps, gain=kf)


def _fsum_over(values: np.ndarray, divisor: int) -> float:
    """``math.fsum(values) / divisor``.  Where the sum is beyond the float
    range (fsum raises OverflowError), the values are summed scaled by a
    power of two above their count, which cannot overflow, and the quotient
    is scaled back.  Scaling by a power of two is exact short of subnormal
    values, so the two roundings are those of an unbounded exponent range;
    a quotient beyond the float range is inf."""
    try:
        return math.fsum(values) / divisor
    except OverflowError:
        scale = 2.0 ** values.size.bit_length()
        return math.fsum(values / scale) / divisor * scale


def monte_carlo_cost(scn: Scenario, protocol: Protocol, replicates: int,
                     base_seed: int) -> MonteCarloStats:
    """Mean and standard error of the open-loop realized cost.

    Replicate ``r`` reproduces ``open_loop_rollout`` at seed
    ``replicate_seed(base_seed, r)`` to rounding (see ``_rollout``).
    Replicates run in chunks of about ``controller._CHUNK_BYTES`` of stored
    states and inputs (the size follows from the horizon and the
    dimensions), in one loop that writes each chunk into the buffers of the
    one before.  A replicate's cost depends only on its own draws, and
    aggregation uses exact (fsum) summation, so the result does not depend
    on the order in which chunks run; costs whose sum is beyond the float
    range still give their mean.  A cost that is not finite gives a mean that is not finite,
    without a warning.

    The mean estimates the expected realized cost of the protocol's
    open-loop sequence, which is the unacknowledged objective at that
    sequence.  It matches ``expected_cost`` for UDP and lies above it for
    TCP, whose closed form is a planning value that no policy attains
    (see ``expected_cost``).
    """
    if replicates < 2:
        raise ValueError("replicates must be ≥ 2")
    if base_seed < 0:
        raise ValueError("base_seed must be a nonnegative integer")
    u_star = _open_loop_sequence(scn, protocol)
    costs = np.empty(replicates)
    buffers = _Buffers()
    for rows in _chunks(replicates, 8 * scn.horizon * (scn.n + scn.m)):
        v, w = _draws(scn, scn.horizon, _replicate_seeds(base_seed, rows.start, rows.stop),
                      buffers)
        costs[rows] = _rollout(scn, v, w, sequence=u_star, buffers=buffers)[2]

    mean = _fsum_over(costs, replicates)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf when the mean is inf
        variance = _fsum_over((costs - mean) ** 2, replicates - 1)
    stderr = math.sqrt(variance) / math.sqrt(replicates)
    return MonteCarloStats(mean_cost=mean, stderr=stderr, replicates=replicates)


def write_trajectory_csv(path, record: TrajectoryRecord) -> None:
    """Write ``step,x_1..x_n,u_1..u_m,v_1..v_m,stage_cost`` rows, every cell
    ``%.9g`` (steps are at most 10^6, so the step column prints as an integer).

    Row k holds the pre-update state x_k and the record's stage cost k,
    the cost added by the transition out of step k (row 0 also carries the
    x_0 term), so the column sums to the record's realized cost.
    """
    steps, m = record.inputs.shape
    header = (["step"] + [f"x_{i+1}" for i in range(record.states.shape[1])]
              + [f"u_{i+1}" for i in range(m)] + [f"v_{i+1}" for i in range(m)]
              + ["stage_cost"])
    write_csv(path, header, np.column_stack([np.arange(steps), record.states[:steps],
                                             record.inputs, record.transmissions,
                                             record.stage_costs]))
