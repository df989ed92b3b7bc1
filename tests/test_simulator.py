import math
import threading
from fractions import Fraction

import numpy as np
import pytest

from nclab import (ChannelModel, Protocol, Scenario, TrajectoryRecord, expected_cost,
                   monte_carlo_cost, open_loop_rollout, optimal_sequence,
                   receding_horizon_sim, replicate_seed, synthesize, write_trajectory_csv)
from nclab import controller, simulator
from nclab.simulator import _draws, _replicate_seeds, _rollout, _seed_states, _words

from conftest import (CSV_EDGE_VALUES, draws_oracle, make_scenario,
                      open_loop_expected_cost_oracle, ops_of, random_scenario, toy_scenario)

TCP, UDP = Protocol.TCP_LIKE, Protocol.UDP_LIKE

# seeds that take one to seven uint32 words, at the word boundaries
DIRECT_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 3, 2**200]


def _channel(mu, steps=1):
    """Two-state scenario with one actuator per entry of mu."""
    m = len(mu)
    return make_scenario(np.eye(2), np.ones((2, m)), [np.eye(2)] * steps,
                         [np.eye(m)] * steps, np.eye(2), mu)


def _with_channel(scn, means):
    return Scenario(plant=scn.plant, channel=ChannelModel(means=np.asarray(means, dtype=float)),
                    weights=scn.weights, eval_state=scn.eval_state, sim=scn.sim)


def test_transmission_perfect_channel_always_delivers():
    v, _ = _draws(_channel([1.0, 1.0]), 100, range(100))
    assert np.array_equal(v, np.ones((100, 100, 2)))


def test_transmission_mean_within_binomial_bounds():
    v, _ = _draws(_channel([0.5]), 100, range(1000))
    draws = v.reshape(-1)
    stderr = 0.5 / np.sqrt(len(draws))
    assert abs(draws.mean() - 0.5) <= 4 * stderr


def test_transmission_channels_are_independent():
    v, _ = _draws(_channel([0.3, 0.7]), 100, range(1000))
    draws = v.reshape(-1, 2)
    cov = np.mean((draws[:, 0] - draws[:, 0].mean()) * (draws[:, 1] - draws[:, 1].mean()))
    stderr = np.sqrt(0.3 * 0.7 * 0.7 * 0.3 / len(draws))
    assert abs(cov) <= 4 * stderr


def test_chunked_draws_equal_the_seed_rule_bit_for_bit(pendulum, mixed):
    # one chunk of seeds gives each seed's draws exactly as the documented
    # rule does seed by seed: fixtures, a schedule, and sigma_w = 0
    sched = _with_channel(pendulum, np.linspace(0.2, 0.9, pendulum.horizon)[:, np.newaxis])
    quiet = make_scenario(mixed.plant.a, mixed.plant.b, mixed.weights.omega_steps,
                          mixed.weights.psi_steps, mixed.weights.q, mixed.channel.means)
    for scn, count in ((mixed, 10_000), (pendulum, 10_000), (sched, 2000), (quiet, 2000)):
        seeds = [replicate_seed(31, r) for r in range(count)]
        for lo in range(0, count, 2500):
            v, w = _draws(scn, scn.horizon, seeds[lo:lo + 2500])
            for i, s in enumerate(seeds[lo:lo + 2500]):
                v_ref, w_ref = draws_oracle(scn, scn.horizon, s)
                assert np.array_equal(v[i], v_ref) and np.array_equal(w[i], w_ref)
    assert not np.any(w)  # the last chunk is the noiseless scenario's
    # seeds of every word count, in one mixed chunk and one by one
    chunk = DIRECT_SEEDS + seeds[:5]
    v, w = _draws(pendulum, pendulum.horizon, chunk)
    for i, s in enumerate(chunk):
        v_ref, w_ref = draws_oracle(pendulum, pendulum.horizon, s)
        assert np.array_equal(v[i], v_ref) and np.array_equal(w[i], w_ref)
        v1, w1 = _draws(pendulum, pendulum.horizon, [s])
        assert np.array_equal(v1[0], v_ref) and np.array_equal(w1[0], w_ref)


def test_vectorized_seed_hash_matches_numpy():
    # replicate seeds of 10^4 replicates at base seeds of one to three words
    for base in (0, 7, 2**31 - 1, 2**32, 2**64 + 5):
        got = _replicate_seeds(base, 0, 10_000)
        ref = [np.random.SeedSequence(entropy=(base, r)).generate_state(1, np.uint64)[0]
               for r in range(10_000)]
        assert got.dtype == np.uint64 and np.array_equal(got, ref)
    # Philox keys of direct seeds, the long ones through the extra mixing loop
    keys = _seed_states(*_words(DIRECT_SEEDS), 2)
    for key, s in zip(keys, DIRECT_SEEDS):
        assert np.array_equal(key, np.random.SeedSequence(s).generate_state(2, np.uint64))


def test_rollout_is_deterministic():
    scn = toy_scenario(mu=0.5, sigma_w=0.2, x=1.0)
    a = open_loop_rollout(scn, TCP, seed=99)
    b = open_loop_rollout(scn, TCP, seed=99)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.transmissions, b.transmissions)
    assert a.realized_cost == b.realized_cost


def test_rollout_noiseless_perfect_channel_matches_expected_cost(pendulum):
    from nclab.scenario import ChannelModel, PlantModel, Scenario
    p = pendulum.plant
    plant = PlantModel(a=p.a, b=p.b, sigma_w=np.zeros((4, 4)),
                       x0_mean=p.x0_mean)
    scn = Scenario(plant=plant, channel=ChannelModel(means=np.array([1.0])),
                   weights=pendulum.weights, eval_state=pendulum.eval_state,
                   sim=pendulum.sim)
    rec = open_loop_rollout(scn, TCP, seed=0)
    rep = expected_cost(ops_of(scn), TCP, scn.eval_state)
    assert rec.realized_cost == pytest.approx(rep.total, rel=1e-10)
    rec_udp = open_loop_rollout(scn, UDP, seed=0)
    assert rec_udp.realized_cost == pytest.approx(rep.total, rel=1e-10)


def test_record_satisfies_the_recursion_and_cost_definition():
    scn = toy_scenario(mu=0.5, sigma_w=0.0, x=2.0)
    rec = open_loop_rollout(scn, UDP, seed=5)
    # noiseless: the recursion is exactly reconstructible from the record
    x = rec.states[0]
    cost = float(x @ scn.weights.q @ x)
    for k in range(rec.inputs.shape[0]):
        applied = rec.transmissions[k] * rec.inputs[k]
        x = scn.plant.a @ x + scn.plant.b @ applied
        assert np.allclose(rec.states[k + 1], x, rtol=0, atol=0)
        cost += float(x @ scn.weights.omega_steps[k] @ x)
        cost += float(applied @ scn.weights.psi_steps[k] @ applied)
    assert rec.realized_cost == pytest.approx(cost, rel=1e-14)


def test_common_random_numbers_across_protocols():
    scn = toy_scenario(mu=0.5, sigma_w=0.3, x=1.0)
    a = open_loop_rollout(scn, TCP, seed=123)
    b = open_loop_rollout(scn, UDP, seed=123)
    assert np.array_equal(a.transmissions, b.transmissions)
    rh_a = receding_horizon_sim(scn, TCP, steps=7, seed=123)
    rh_b = receding_horizon_sim(scn, UDP, steps=7, seed=123)
    assert np.array_equal(rh_a.transmissions, rh_b.transmissions)


def test_receding_rejects_nonpositive_steps():
    scn = toy_scenario()
    with pytest.raises(ValueError, match="steps must be ≥ 1"):
        receding_horizon_sim(scn, TCP, steps=0, seed=1)


def test_receding_noiseless_matches_direct_iteration():
    a = np.array([[1.05, 0.1], [0.0, 0.9]])
    b = np.array([[0.0], [1.0]])
    scn = make_scenario(a, b, [np.eye(2)] * 6, [[[1.0]]] * 6, np.eye(2), [1.0],
                        x=[1.0, -0.5])
    law = synthesize(ops_of(scn), TCP)
    rec = receding_horizon_sim(scn, TCP, steps=12, seed=4)
    x = np.array([1.0, -0.5])
    for k in range(12):
        assert np.allclose(rec.states[k], x, rtol=1e-12, atol=1e-12)
        x = (a - b @ law.k_first) @ x
    norms = np.linalg.norm(rec.states, axis=1)
    assert norms[-1] <= norms[0]  # closed loop contracts from the start state


def test_open_loop_mean_matches_enumerated_expectation():
    # Monte Carlo vs the exhaustive-enumeration oracle for the applied law
    scn = toy_scenario(mu=0.5, sigma_w=0.0, x=1.0)
    for p, j_exp in ((TCP, None), (UDP, None)):
        law = synthesize(ops_of(scn), p)
        useq = optimal_sequence(law, scn.eval_state)
        oracle = open_loop_expected_cost_oracle(scn, useq)
        stats = monte_carlo_cost(scn, p, replicates=20000, base_seed=7)
        assert abs(stats.mean_cost - oracle) <= 4 * stats.stderr


def test_unacknowledged_open_loop_mean_matches_its_planning_value():
    # the unacknowledged planning objective IS the true open-loop expected
    # cost, so its Monte Carlo mean reproduces the closed form
    scn = toy_scenario(mu=0.5, sigma_w=0.0, x=1.0)
    stats = monte_carlo_cost(scn, UDP, replicates=20000, base_seed=11)
    assert abs(stats.mean_cost - 1.75) <= 4 * stats.stderr
    rep = expected_cost(ops_of(scn), UDP, scn.eval_state)
    assert rep.total == pytest.approx(1.75, rel=1e-12)


def test_acknowledged_planning_value_underestimates_open_loop_cost():
    # the acknowledged optimum is a certainty-equivalent planning value; the
    # realized open-loop mean sits strictly above it (16/9 vs 5/3 here)
    scn = toy_scenario(mu=0.5, sigma_w=0.0, x=1.0)
    law = synthesize(ops_of(scn), TCP)
    useq = optimal_sequence(law, scn.eval_state)
    oracle = open_loop_expected_cost_oracle(scn, useq)
    assert oracle == pytest.approx(16.0 / 9.0, rel=1e-12)
    stats = monte_carlo_cost(scn, TCP, replicates=20000, base_seed=13)
    assert abs(stats.mean_cost - oracle) <= 4 * stats.stderr
    assert stats.mean_cost > expected_cost(ops_of(scn), TCP, scn.eval_state).total


def test_monte_carlo_replicates_reproduce_individual_rollouts():
    scn = toy_scenario(mu=0.6, sigma_w=0.1, x=1.5)
    stats = monte_carlo_cost(scn, UDP, replicates=50, base_seed=21)
    costs = [open_loop_rollout(scn, UDP, replicate_seed(21, r)).realized_cost
             for r in range(50)]
    assert stats.mean_cost == pytest.approx(np.mean(costs), rel=1e-12)
    assert stats.replicates == 50
    assert "SeedSequence" in stats.per_replicate_seeds


def test_monte_carlo_starts_no_thread(monkeypatch):
    # the chunks run in one loop on the calling thread
    def refuse(self):
        raise AssertionError("monte_carlo_cost started a thread")

    scn = toy_scenario(mu=0.5, sigma_w=0.2, x=1.0)
    monkeypatch.setattr(controller, "_CHUNK_BYTES", 512 * 8 * (scn.n + scn.m))  # 10 chunks
    monkeypatch.setattr(threading.Thread, "start", refuse)
    for p in (TCP, UDP):
        stats = monte_carlo_cost(scn, p, replicates=5000, base_seed=3)
        assert stats.replicates == 5000 and np.isfinite(stats.mean_cost)


def test_monte_carlo_equals_chunked_oracle_bit_for_bit(pendulum, mixed):
    # each chunk rebuilt from the documented seed rule, seed by seed
    for scn, replicates in ((pendulum, 700), (mixed, 3500)):
        rows = max(1, controller._CHUNK_BYTES // (8 * scn.horizon * (scn.n + scn.m)))
        assert replicates > rows
        for p in (TCP, UDP):
            u_star = simulator._open_loop_sequence(scn, p)
            costs = []
            for lo in range(0, replicates, rows):
                pairs = [draws_oracle(scn, scn.horizon, replicate_seed(77, r))
                         for r in range(lo, min(lo + rows, replicates))]
                v, w = np.stack([a for a, _ in pairs]), np.stack([b for _, b in pairs])
                costs.extend(_rollout(scn, v, w, sequence=u_star)[2])
            mean = math.fsum(costs) / replicates
            ssq = math.fsum((c - mean) ** 2 for c in costs)
            stderr = math.sqrt(ssq / (replicates - 1)) / math.sqrt(replicates)
            stats = monte_carlo_cost(scn, p, replicates=replicates, base_seed=77)
            assert stats.mean_cost == mean and stats.stderr == stderr


def _stepwise_rollout(scn, v, w, sequence=None, gain=None):
    """``_rollout`` as one step at a time: the input, the applied input and
    the next state of step k from arrays of step k alone."""
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
    om, psi = simulator._stage_weights(scn, steps)
    x = states[1:]
    stages = ((x @ om) * x).sum(axis=2) + ((applied @ psi) * applied).sum(axis=2)
    stages[0] += float(x0 @ scn.weights.q @ x0)
    return states, inputs, np.add.accumulate(stages, axis=0)[-1], stages


def test_rollout_equals_the_stepwise_recursion_bit_for_bit(pendulum, mixed):
    # open loop (inputs multiplied for all steps at once) and state feedback
    # (-K' taken once, each step written in place), stacks of one and of
    # many, on both fixtures and a random ensemble; feedback runs past the
    # horizon as the receding simulation does
    rng = np.random.default_rng(61)
    ensemble = [random_scenario(rng, n_max=5, m_max=3, n_horizon_max=12, sigma_scale=0.3)
                for _ in range(6)]
    for scn in [pendulum, mixed] + ensemble:
        for p in (TCP, UDP):
            law = synthesize(ops_of(scn), p)
            u_star = optimal_sequence(law, scn.eval_state).reshape(scn.horizon, scn.m)
            for seeds in ([3], range(40)):
                v, w = _draws(scn, scn.horizon, seeds)
                got = _rollout(scn, v, w, sequence=u_star)
                ref = _stepwise_rollout(scn, v, w, sequence=u_star)
                assert all(np.array_equal(g, r) for g, r in zip(got, ref))
                v, w = _draws(scn, 2 * scn.horizon + 5, seeds)
                got = _rollout(scn, v, w, gain=law.k_first)
                ref = _stepwise_rollout(scn, v, w, gain=law.k_first)
                assert all(np.array_equal(g, r) for g, r in zip(got, ref))


@pytest.mark.parametrize("m", [1, 8])
@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_rollout_row_sums_on_both_sides_of_eight_terms_bit_for_bit(n, m):
    # numpy sums fewer than 8 terms in index order and 8 or more in pairwise
    # blocks; the stage costs' row sums must give its bits on both sides, for
    # the state terms (n) and the input terms (m), open loop and feedback
    scn = random_scenario(np.random.default_rng(100 * n + m), n=n, m=m, n_horizon_max=8,
                          sigma_scale=0.3)
    law = synthesize(ops_of(scn), UDP)
    u_star = optimal_sequence(law, scn.eval_state).reshape(scn.horizon, scn.m)
    for seeds in ([3], range(40)):
        for steps, kwargs in ((scn.horizon, {"sequence": u_star}),
                              (2 * scn.horizon + 5, {"gain": law.k_first})):
            v, w = _draws(scn, steps, seeds)
            got = _rollout(scn, v, w, **kwargs)
            ref = _stepwise_rollout(scn, v, w, **kwargs)
            assert all(np.array_equal(g, r) for g, r in zip(got, ref))


@pytest.mark.parametrize("fixture, replicates", [("pendulum", 2000), ("mixed", 14000)])
def test_monte_carlo_chunk_budget_does_not_change_the_result(fixture, replicates, request,
                                                             monkeypatch):
    # from many small chunks to two large ones, each reusing the buffers of
    # the one before; no chunk is a stack of one (see _rollout)
    scn = request.getfixturevalue(fixture)
    for p in (TCP, UDP):
        results = set()
        for budget in (64 << 10, 1 << 20, 4 << 20):
            monkeypatch.setattr(controller, "_CHUNK_BYTES", budget)
            rows = budget // (8 * scn.horizon * (scn.n + scn.m))
            assert replicates > rows and replicates % rows != 1
            stats = monte_carlo_cost(scn, p, replicates=replicates, base_seed=19)
            results.add((stats.mean_cost, stats.stderr))
        assert len(results) == 1


def test_monte_carlo_builds_no_seed_sequence(monkeypatch):
    scn = toy_scenario(mu=0.5, sigma_w=0.2, x=1.0)
    ref = monte_carlo_cost(scn, UDP, replicates=500, base_seed=2**70)

    def refuse(*args, **kwargs):
        raise AssertionError("built a SeedSequence")

    monkeypatch.setattr(np.random, "SeedSequence", refuse)
    stats = monte_carlo_cost(scn, UDP, replicates=500, base_seed=2**70)
    assert (stats.mean_cost, stats.stderr) == (ref.mean_cost, ref.stderr)


def test_negative_seeds_are_refused():
    scn = toy_scenario()
    for seeds in ([-1], [3, -5], [-(2**70)], np.array([4, -2])):
        with pytest.raises(ValueError, match="nonnegative"):
            _draws(scn, 3, seeds)
    with pytest.raises(ValueError, match="nonnegative"):
        monte_carlo_cost(scn, UDP, replicates=10, base_seed=-5)


def test_monte_carlo_rejects_single_replicate():
    with pytest.raises(ValueError, match="replicates"):
        monte_carlo_cost(toy_scenario(), TCP, replicates=1, base_seed=0)


def test_trajectory_csv_layout(tmp_path):
    scn = toy_scenario(mu=0.5, sigma_w=0.1, x=1.0)
    rec = open_loop_rollout(scn, TCP, seed=17)
    out = tmp_path / "traj.csv"
    write_trajectory_csv(out, rec)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "step,x_1,u_1,v_1,stage_cost"
    assert len(lines) == 1 + rec.inputs.shape[0]
    cells = [ln.split(",")[-1] for ln in lines[1:]]
    assert cells == [f"{c:.9g}" for c in rec.stage_costs]
    assert sum(map(float, cells)) == pytest.approx(rec.realized_cost, rel=1e-6)

    # edge values in every column (n = 2, m = 3) and a 10^6-step record, whose
    # step column must print plain integers; each against a per-cell reference
    def record(steps, n, m):
        return TrajectoryRecord(states=np.resize(CSV_EDGE_VALUES, (steps + 1, n)),
                                inputs=np.resize(CSV_EDGE_VALUES[::-1], (steps, m)),
                                transmissions=np.resize([1.0, 0.0], (steps, m)),
                                stage_costs=np.resize(CSV_EDGE_VALUES, steps),
                                realized_cost=0.0, seed=0)

    def reference_row(rec, k):
        return ",".join(f"{v:.9g}" for v in [k, *rec.states[k], *rec.inputs[k],
                                             *rec.transmissions[k], rec.stage_costs[k]])

    rec = record(7, 2, 3)
    write_trajectory_csv(out, rec)
    header = "step,x_1,x_2,u_1,u_2,u_3,v_1,v_2,v_3,stage_cost"
    assert out.read_text() == "\n".join([header] + [reference_row(rec, k) for k in range(7)]) + "\n"
    rec = record(10 ** 6, 1, 1)
    write_trajectory_csv(out, rec)
    lines = out.read_text().split("\n")
    assert len(lines) == 10 ** 6 + 2 and lines[-1] == ""  # header, rows, final newline
    for k in (0, 1, 5, 10 ** 6 - 1):  # the writer formats every row alike
        assert lines[1 + k] == reference_row(rec, k)
    assert lines[-2].startswith("999999,")


def test_stage_costs_sum_in_order_to_the_realized_cost(pendulum, mixed):
    for scn in (pendulum, mixed):
        for p in (TCP, UDP):
            for rec in (open_loop_rollout(scn, p, seed=4),
                        receding_horizon_sim(scn, p, steps=scn.horizon + 7, seed=4)):
                assert rec.stage_costs.shape == (rec.inputs.shape[0],)
                assert np.add.accumulate(rec.stage_costs)[-1] == rec.realized_cost


def test_scheduled_channel_uses_per_step_means():
    base = make_scenario(np.eye(2), np.eye(2), [np.eye(2)] * 4, [np.eye(2)] * 4,
                         np.eye(2), [0.5, 0.5], x=[1.0, 1.0])
    sched = np.array([[1.0, 1.0], [1e-9, 1e-9], [1.0, 1.0], [1e-9, 1e-9]])
    scn = _with_channel(base, sched)
    rec = open_loop_rollout(scn, TCP, seed=9)
    assert np.array_equal(rec.transmissions[0], [1.0, 1.0])
    assert np.array_equal(rec.transmissions[2], [1.0, 1.0])
    assert np.array_equal(rec.transmissions[1], [0.0, 0.0])
    assert np.array_equal(rec.transmissions[3], [0.0, 0.0])


def test_receding_past_the_horizon_holds_the_schedules_last_row():
    base = make_scenario(np.eye(2), np.eye(2), [np.eye(2)] * 4, [np.eye(2)] * 4,
                         np.eye(2), [0.5, 0.5], x=[1.0, 1.0])
    scn = _with_channel(base, [[1e-9, 1e-9]] * 3 + [[1.0, 1.0]])
    rec = receding_horizon_sim(scn, UDP, steps=12, seed=9)
    assert np.array_equal(rec.transmissions[:3], np.zeros((3, 2)))
    assert np.array_equal(rec.transmissions[3:], np.ones((9, 2)))


def _rounded(x: Fraction) -> Fraction:
    """x rounded to a double's 53 bits with no limit on the exponent."""
    shift = Fraction(2) ** (x.numerator.bit_length() - x.denominator.bit_length())
    return Fraction(float(x / shift)) * shift


@pytest.mark.parametrize("count", [2, 3, 50, 1000])
def test_mean_of_costs_summing_past_the_float_range_keeps_its_roundings(count):
    # fsum's sum, then the division, each rounded once: beyond the float
    # range the scaled sum gives the bits an unbounded exponent would
    values = np.random.default_rng(count).uniform(0.5, 1.0, count) * 1.7e308
    exact = sum(map(Fraction, values.tolist()))
    with pytest.raises(OverflowError):
        math.fsum(values)
    for divisor in (count, count - 1):
        expected = float(_rounded(_rounded(exact) / divisor)) if exact / divisor < 2**1024 else math.inf
        assert simulator._fsum_over(values, divisor) == expected
    assert simulator._fsum_over(values[:10] * 1e-300, 7) == math.fsum(values[:10] * 1e-300) / 7
