import dataclasses

import numpy as np
import pytest

from nclab import (Protocol, cost_gap, determinant_root_candidates,
                   expected_cost, gap_derivative, maximal_gap, monotonic_sweep,
                   scalar_cost_gap, scenario_from_dict, write_sweep_csv)
from nclab.analysis import _pencil, _pencil_lambdas, derivative_matrix

from conftest import CSV_EDGE_VALUES, edited_fixture, ops_of, random_scenario, toy_scenario

TCP, UDP = Protocol.TCP_LIKE, Protocol.UDP_LIKE
SQRT2 = np.sqrt(2.0)


def test_toy_gap_is_one_twelfth():
    scn = toy_scenario(mu=0.5, x=1.0)
    rep = cost_gap(ops_of(scn), scn.eval_state)
    assert rep.gap == pytest.approx(1.0 / 12.0, rel=1e-12)
    assert rep.j_udp - rep.j_tcp == pytest.approx(rep.gap, rel=1e-9)


def test_gap_vanishes_at_perfect_channel():
    scn = toy_scenario(mu=1.0, x=1.0)
    rep = cost_gap(ops_of(scn), scn.eval_state)
    assert abs(rep.gap) <= 1e-12 * abs(rep.j_tcp)


def test_gap_positive_on_random_systems():
    rng = np.random.default_rng(100)
    for _ in range(25):
        scn = random_scenario(rng)
        rep = cost_gap(ops_of(scn), scn.eval_state)
        assert rep.gap > 0 or np.linalg.norm(
            ops_of(scn).omega_gp @ scn.eval_state) < 1e-12


def test_scalar_gap_equals_full_gap_on_shared_channel():
    rng = np.random.default_rng(9)
    for _ in range(4):
        scn = random_scenario(rng, m_max=2)
        ops = ops_of(scn)
        for u in np.linspace(0.01, 0.99, 99):
            full = cost_gap(ops, scn.eval_state, upsilon=float(u)).gap
            scal = scalar_cost_gap(ops, float(u), scn.eval_state)
            assert scal == pytest.approx(full, rel=1e-10, abs=1e-13)


def test_scalar_gap_toy_value_and_limits():
    scn = toy_scenario(mu=0.5, x=1.0)
    ops = ops_of(scn)
    assert scalar_cost_gap(ops, 0.5, [1.0]) == pytest.approx(1.0 / 12.0, rel=1e-12)
    # (1 - y) factor kills the gap near a perfect channel
    assert scalar_cost_gap(ops, 1 - 1e-9, [1.0]) < 1e-6 * scalar_cost_gap(ops, 0.5, [1.0])
    with pytest.raises(ValueError, match=r"upsilon outside \(0,1\)"):
        scalar_cost_gap(ops, 1.0, [1.0])


def _two_solve_gap(ops, u, x):
    """gap(u) = u(1-u) f' GG(u) Omega_d GF(u) f by two dense solves."""
    f = ops.omega_gp @ x
    psi, od = np.diag(ops.psi), np.diag(ops.omega_d)
    gf_f = np.linalg.solve(u * ops.omega_g + psi, f)
    gg_df = np.linalg.solve(u * (ops.omega_g - od) + od + psi, od @ gf_f)
    return u * (1.0 - u) * float(f @ gg_df)


@pytest.mark.parametrize("name", ["pendulum", "mixed"])
def test_spectral_gap_curve_matches_solves_and_costs(name, request):
    # the vectorized curve against the resolvent solves it replaces and
    # against the difference of the two protocols' expected costs
    from nclab.analysis import GRID_POINTS, _gap_curve
    scn = request.getfixturevalue(name)
    ops = ops_of(scn)
    x = scn.eval_state
    grid = np.linspace(1e-6, 1.0 - 1e-6, GRID_POINTS)
    curve = _gap_curve(ops, x)(grid)
    solves = np.array([_two_solve_gap(ops, u, x) for u in grid])
    np.testing.assert_allclose(curve, solves, rtol=1e-10, atol=0.0)
    costs = np.array([cost_gap(ops, x, upsilon=float(u)).gap for u in grid])
    np.testing.assert_allclose(curve, costs, rtol=1e-8, atol=0.0)


def test_pendulum_scalar_sweep_is_positive_with_interior_max(pendulum):
    ops = ops_of(pendulum)
    us = np.geomspace(1e-5, 0.999, 80)
    gaps = np.array([scalar_cost_gap(ops, float(u), pendulum.eval_state) for u in us])
    assert np.all(gaps > 0)
    assert gaps.argmax() not in (0, len(gaps) - 1)


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(200)
    for _ in range(6):
        scn = random_scenario(rng, n_max=3, m_max=2, n_horizon_max=5)
        ops = ops_of(scn)
        x = scn.eval_state
        for u in rng.uniform(0.05, 0.95, 3):
            h = 1e-6
            fd = (scalar_cost_gap(ops, u + h, x) - scalar_cost_gap(ops, u - h, x)) / (2 * h)
            an = gap_derivative(ops, float(u), x)
            assert an == pytest.approx(fd, rel=1e-5, abs=1e-10)


def test_toy_derivative_root_at_sqrt2_minus_one():
    scn = toy_scenario(mu=0.5, x=1.0)
    ops = ops_of(scn)
    assert abs(gap_derivative(ops, SQRT2 - 1.0, [1.0])) < 1e-10
    # closed form: gap(y) = y(1-y) / (2(1+y)) for the unit toy
    for u in (0.2, 0.5, 0.8):
        assert scalar_cost_gap(ops, u, [1.0]) == pytest.approx(
            u * (1 - u) / (2 * (1 + u)), rel=1e-12)


def test_toy_candidates_are_exact():
    scn = toy_scenario(mu=0.5, x=1.0)
    ops = ops_of(scn)
    lams = _pencil_lambdas(*_pencil(ops))
    assert lams == pytest.approx([1.0], rel=1e-12)
    cands = determinant_root_candidates(ops)
    assert len(cands) == 2  # 2 N m with N = m = 1
    vals = sorted(c.value for c in cands)
    assert vals[0] == pytest.approx(1.0 / (1.0 - SQRT2), rel=1e-10)  # invalid
    assert vals[1] == pytest.approx(SQRT2 - 1.0, abs=1e-10)
    flags = {round(c.value, 6): c.valid for c in cands}
    assert flags[round(SQRT2 - 1.0, 6)] is True
    assert flags[round(1.0 / (1.0 - SQRT2), 6)] is False


def test_candidate_count_is_2nm():
    rng = np.random.default_rng(55)
    scn = random_scenario(rng, n_max=3, m_max=2, n_horizon_max=4)
    ops = ops_of(scn)
    assert len(determinant_root_candidates(ops)) == 2 * scn.horizon * scn.m


def test_valid_candidates_zero_the_derivative_matrix_determinant():
    # residual oracle, including systems with dense (non-diagonal) state
    # weights so omega_g has structure beyond its diagonal
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(12):
        scn = random_scenario(rng, n_max=3, m_max=2, n_horizon_max=3)
        ops = ops_of(scn)
        _, ld_ref = np.linalg.slogdet(derivative_matrix(ops, 0.5))
        for c in determinant_root_candidates(ops):
            if c.valid and 1e-6 < c.value < 1 - 1e-6:
                _, ld = np.linalg.slogdet(derivative_matrix(ops, c.value))
                assert ld - ld_ref <= np.log(1e-8)
                checked += 1
    assert checked >= 10


def test_toy_maximal_gap_from_analytic_candidates():
    scn = toy_scenario(mu=0.5, x=1.0)
    rep = maximal_gap(ops_of(scn), [1.0])
    assert rep.method == "analytic_roots"
    assert rep.maximizer == pytest.approx(SQRT2 - 1.0, abs=1e-10)
    u = rep.maximizer
    assert rep.gap_at_max == pytest.approx(u * (1 - u) / (2 * (1 + u)), rel=1e-10)


def test_maximal_gap_is_a_local_max():
    rng = np.random.default_rng(404)
    for _ in range(4):
        scn = random_scenario(rng, n_max=3, m_max=2, n_horizon_max=4)
        ops = ops_of(scn)
        rep = maximal_gap(ops, scn.eval_state)
        assert 0 < rep.maximizer < 1
        g0 = rep.gap_at_max

        def g(u):
            return scalar_cost_gap(ops, u, scn.eval_state) if 0 < u < 1 else 0.0

        assert g(rep.maximizer - 1e-4) < g0 + 1e-12 * abs(g0)
        assert g(rep.maximizer + 1e-4) < g0 + 1e-12 * abs(g0)


def test_single_input_analytic_and_grid_paths_agree():
    # with one stacked input the annihilation filter passes and both routes
    # must land on the same maximizer
    rng = np.random.default_rng(500)
    from nclab import analysis
    for _ in range(6):
        scn = random_scenario(rng, n_max=3, m_max=1, n_horizon_max=1)
        ops = ops_of(scn)
        rep = maximal_gap(ops, scn.eval_state)
        assert rep.method == "analytic_roots"
        grid = analysis._grid_maximize(analysis._gap_curve(ops, scn.eval_state))
        assert abs(rep.maximizer - grid) <= 1e-4


def test_multichannel_systems_fall_back_to_grid(pendulum):
    rep = maximal_gap(ops_of(pendulum), pendulum.eval_state)
    assert rep.method == "grid_fallback"
    assert 0 < rep.maximizer < 1
    # the best unfiltered determinant root tracks the grid maximizer closely
    assert rep.analytic_best is not None
    assert abs(rep.analytic_best - rep.maximizer) <= 1e-4


def _replaced_newton_round(u, t, h_diag):
    """One candidate's pencil eigenvalue of least modulus and its slope, as
    the per-candidate polish computed them."""
    p = (u * u) * t + np.diag((2.0 * u - 1.0) * h_diag)
    vals, vecs = np.linalg.eigh(p)
    j = int(np.argmin(np.abs(vals)))
    w = vecs[:, j]
    return float(vals[j]), float(w @ (2.0 * u * t + np.diag(2.0 * h_diag)) @ w)


def _replaced_polish_root(u, t, h_diag, stop=1e-12):
    """The per-candidate Newton polish that ``_polish_roots`` batches; it
    stops once a step is at most ``stop`` max(u, 1e-6)."""
    for _ in range(8):
        val, slope = _replaced_newton_round(u, t, h_diag)
        if slope == 0.0:
            break
        step = val / slope
        nxt = u - step
        if not 0.0 < nxt < 1.0:
            break
        u = nxt
        if abs(step) <= stop * max(u, 1e-6):
            break
    return u


def _replaced_candidates(ops, stop=1e-12):
    """The per-candidate polish and eigenvalue annihilation loop that the
    batched polish and the trace bound replace.  A derivative matrix past
    the float range is not annihilated."""
    from nclab.analysis import EIGCOND_RTOL, RootCandidate
    t, h_diag = _pencil(ops)
    scale = np.linalg.norm(derivative_matrix(ops, 0.5), 2)
    out = []
    for lam in _pencil_lambdas(t, h_diag):
        disc = 1.0 + lam
        if disc < 0.0:
            pair = (np.nan, np.nan)
        else:
            r = float(np.sqrt(disc))
            pair = (1.0 / (1.0 + r), np.inf if r == 1.0 else 1.0 / (1.0 - r))
        for value in pair:
            eigcond = False
            if 0.0 < value < 1.0:
                value = float(_replaced_polish_root(value, t, h_diag, stop))
                with np.errstate(over="ignore", invalid="ignore"):
                    fmat = derivative_matrix(ops, value)
                eigcond = bool(np.all(np.isfinite(fmat)) and np.max(
                    np.abs(np.linalg.eigvals(fmat))) <= EIGCOND_RTOL * scale)
            out.append(RootCandidate(value=value, eigcond=eigcond, valid=0.0 <= value <= 1.0))
    return out


def _same_candidates(got, ref) -> bool:
    """Equal candidate lists, a NaN value equal to a NaN value."""
    return (np.array_equal([c.value for c in got], [c.value for c in ref], equal_nan=True)
            and [(c.eigcond, c.valid) for c in got] == [(c.eigcond, c.valid) for c in ref])


def _indefinite_operators():
    """Two stacked inputs with Omega_d + Psi indefinite.  For a scenario,
    T + H = (Omega_g + Psi) Omega_d^-1 (Omega_g + Psi) is positive definite,
    so every lambda exceeds -1 and only rounding takes 1 + lambda below 0
    (as on mixed with omega[0][0] x 1e200).  Here one lambda lies below -1
    by construction, and the pencils of ``_spectrum`` hold NaN, so the trace
    bound decides nothing and the real candidate goes through the
    eigenvalues."""
    og = np.array([[-3.0, 1.0], [1.0, 2.0]])
    return dataclasses.replace(
        ops_of(toy_scenario()), psi=np.ones(2), omega_g=og, omega_d=np.diag(og).copy(),
        omega_gp=np.ones((2, 1)), upsilon_diag=np.full(2, 0.5), horizon=2)


def _mixed_with_omega_times_1e200():
    """mixed with omega[0][0] x 1e200: 1 + lambda rounds below 0 for four
    lambdas, so eight candidates are NaN."""
    return ops_of(scenario_from_dict(edited_fixture("mixed", lambda v: v * 1e200,
                                                   ["weights.omega"])))


def test_candidates_equal_the_replaced_per_candidate_loop(pendulum, mixed):
    # pendulum and mixed as ``maxdiff`` (with --scalar for mixed) builds them,
    # mixed with omega[0][0] x 1e200, the N = m = 1 toy whose root passes
    # through the eigenvalue fallback, a seeded ensemble with out-of-range
    # candidates, and a lambda below -1
    toy = ops_of(toy_scenario(mu=0.5, x=1.0))
    rng = np.random.default_rng(2024)
    ensemble = [ops_of(random_scenario(rng, n_max=3, m_max=3, n_horizon_max=6))
                for _ in range(16)]
    seen = {"nan": 0, "outside": 0, "eigcond": 0}
    with np.errstate(invalid="ignore"):
        for ops in [ops_of(pendulum), ops_of(mixed), _mixed_with_omega_times_1e200(), toy,
                    _indefinite_operators()] + ensemble:
            got = determinant_root_candidates(ops)
            assert _same_candidates(got, _replaced_candidates(ops))
            seen["nan"] += sum(np.isnan(c.value) for c in got)
            seen["outside"] += sum(not (np.isnan(c.value) or c.valid) for c in got)
            seen["eigcond"] += sum(c.eigcond for c in got)
    assert min(seen.values()) > 0, seen
    assert sum(np.isnan(c.value) for c in determinant_root_candidates(
        _mixed_with_omega_times_1e200())) == 8
    assert [c.eigcond for c in determinant_root_candidates(toy)].count(True) == 1


def test_a_derivative_matrix_past_the_float_range_is_not_annihilated(monkeypatch):
    # on mixed with omega[0][0] x 1e200 the trace bound decides all 16 valid
    # candidates, though 11 have a derivative matrix past the float range.
    # With the bound leaving every candidate open, those 11 reach the
    # eigenvalue test, which flags them not annihilated, with no warning
    import warnings
    from nclab import analysis
    ops = _mixed_with_omega_times_1e200()
    monkeypatch.setattr(analysis, "_fmat_traces", lambda spectrum, y: np.zeros(len(y)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = determinant_root_candidates(ops)
    with np.errstate(over="ignore", invalid="ignore"):
        past = [c for c in got if c.valid
                and not np.all(np.isfinite(derivative_matrix(ops, c.value)))]
    assert len(past) == 11 and not any(c.eigcond for c in past)
    assert _same_candidates(got, _replaced_candidates(ops))


def _chunk_threads(monkeypatch, analysis):
    """Record the thread that decides each chunk of candidates.  The first
    two chunks since ``seen`` was cleared wait for each other when a pool
    runs them: otherwise one pool thread may take every chunk of a fast
    draw before a second thread starts."""
    import threading
    seen = []
    decide = analysis._decide_chunk
    meet = threading.Barrier(2)

    def recording(*args):
        seen.append(threading.get_ident())
        if threading.current_thread() is not threading.main_thread() and len(seen) <= 2:
            meet.wait(timeout=60)
        return decide(*args)

    monkeypatch.setattr(analysis, "_decide_chunk", recording)
    return seen


def test_parallel_polish_equals_the_serial_loop(monkeypatch, pendulum):
    # two spare CPUs polish on two threads, one CPU on the calling thread,
    # with the same chunks.  Pendulum runs 8 chunks; each random draw gets
    # a budget of two candidates per chunk
    from nclab import analysis, controller
    seen = _chunk_threads(monkeypatch, analysis)
    rng = np.random.default_rng(7)
    draws = [ops_of(random_scenario(rng, n_max=5, m_max=3, n_horizon_max=12))
             for _ in range(12)]
    chunked, counts = 0, []
    for ops, budget in [(ops_of(pendulum), controller._CHUNK_BYTES)] + [
            (ops, 2 * 2 * 8 * analysis._pencil(ops)[0].size) for ops in draws]:
        monkeypatch.setattr(controller, "_CHUNK_BYTES", budget)
        runs = {}
        for cpus in (1, 2):
            monkeypatch.setattr(analysis._openblas, "spare_cpus", lambda cpus=cpus: cpus)
            seen.clear()
            runs[cpus] = determinant_root_candidates(ops)
            runs[cpus, "threads"] = len(set(seen))
            runs[cpus, "chunks"] = len(seen)
        assert runs[1] == runs[2]
        assert runs[1, "threads"] == 1
        if runs[1, "chunks"] >= 2:
            chunked += 1
            assert runs[2, "threads"] == 2
        counts.append(runs[2, "chunks"])
    assert chunked >= 6
    assert counts[0] == 8  # pendulum: 80 candidates, 10 per chunk on two threads


def test_chunks_hold_the_stack_budget(monkeypatch, pendulum, mixed):
    # a chunk's pencils and slope matrices fit controller._CHUNK_BYTES, and a
    # chunk holds one candidate when one alone is larger
    from nclab import analysis, controller
    sizes = []
    decide = analysis._decide_chunk

    def recording(ops, spectrum, scale, t, h_diag, us):
        sizes.append((len(us), 2 * 8 * t.size))
        return decide(ops, spectrum, scale, t, h_diag, us)

    monkeypatch.setattr(analysis, "_decide_chunk", recording)
    monkeypatch.setattr(analysis._openblas, "spare_cpus", lambda: 2)
    for name, ops in (("pendulum", ops_of(pendulum)), ("mixed", ops_of(mixed))):
        matrix_bytes = 2 * 8 * analysis._pencil(ops)[0].size
        for budget in (1 << 20, 3 * matrix_bytes, matrix_bytes // 2):
            monkeypatch.setattr(controller, "_CHUNK_BYTES", budget)
            sizes.clear()
            determinant_root_candidates(ops)
            assert sum(rows for rows, _ in sizes) == {"pendulum": 80, "mixed": 20}[name]
            for rows, per_candidate in sizes:
                assert per_candidate == matrix_bytes
                assert rows * per_candidate <= budget or rows == 1
            if budget < matrix_bytes:
                assert {rows for rows, _ in sizes} == {1}


def test_many_polish_threads_with_fast_switching_equal_the_serial_loop(monkeypatch, mixed):
    # eight threads on at most a few cores, one candidate per chunk (a
    # budget of one) and a switch interval of 1 us: a lost or misplaced
    # chunk result changes the list
    import sys
    from nclab import analysis, controller
    ops = ops_of(mixed)
    monkeypatch.setattr(controller, "_CHUNK_BYTES", 2 * 8 * analysis._pencil(ops)[0].size)
    monkeypatch.setattr(analysis._openblas, "spare_cpus", lambda: 1)
    serial = determinant_root_candidates(ops)
    monkeypatch.setattr(analysis._openblas, "spare_cpus", lambda: 8)
    seen = _chunk_threads(monkeypatch, analysis)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = determinant_root_candidates(ops)
    finally:
        sys.setswitchinterval(interval)
    assert len(seen) == 20 and len(set(seen)) >= 2
    assert parallel == serial


@pytest.mark.parametrize("blas, cpus, workers", [(None, 2, 1), (2, 2, 1), (2, 4, 2),
                                                 (1, 2, 2), (1, 1, 1)])
def test_polish_threads_follow_the_cpus_openblas_leaves_idle(monkeypatch, pendulum,
                                                             blas, cpus, workers):
    # CPUs // OpenBLAS threads, and one thread where numpy's OpenBLAS is
    # not found; pendulum's 8 chunks bound nothing here
    from nclab import _openblas, analysis
    monkeypatch.setattr(_openblas, "_numpy_getter", lambda: None if blas is None else (lambda: blas))
    monkeypatch.setattr(_openblas, "_cpus", lambda: cpus)
    assert _openblas.spare_cpus() == workers
    seen = _chunk_threads(monkeypatch, analysis)
    determinant_root_candidates(ops_of(pendulum))
    assert len(set(seen)) == workers


def test_mixed_scalar_candidates_stay_on_the_calling_thread(monkeypatch, mixed):
    # mixed's 20 candidates in range fit one chunk, so no pool is started
    import threading
    from nclab import analysis
    monkeypatch.setattr(analysis._openblas, "spare_cpus", lambda: 2)
    seen = _chunk_threads(monkeypatch, analysis)
    determinant_root_candidates(ops_of(mixed))
    assert seen == [threading.get_ident()]


def _dense_diagonals(ops):
    """Psi, Omega_d and Omega_h = Omega_g - Omega_d as the dense (N m)^2
    matrices the operators held before Psi and Omega_d became vectors."""
    psi, od = np.diag(ops.psi), np.diag(ops.omega_d)
    return psi, od, ops.omega_g - od


def _replaced_pencil(ops):
    psi, od, oh = _dense_diagonals(ops)
    d = np.diag(od)
    od_inv = np.diag(1.0 / d)
    t = ops.omega_g @ od_inv @ (ops.omega_g + psi) + psi @ od_inv @ oh
    return 0.5 * (t + t.T), np.diag(psi) * (d + np.diag(psi)) / d


def _replaced_spectrum(ops):
    psi, od, oh = _dense_diagonals(ops)
    s_f = 1.0 / np.sqrt(np.diag(psi))
    s_g = 1.0 / np.sqrt(np.diag(od) + np.diag(psi))
    lam, q = np.linalg.eigh(s_f[:, None] * ops.omega_g * s_f)
    kap, p = np.linalg.eigh(s_g[:, None] * oh * s_g)
    v, w = s_f[:, None] * q, s_g[:, None] * p
    return lam, v, kap, w, w.T @ (np.diag(od)[:, None] * v)


def _replaced_derivative_matrix(ops, u):
    psi, od, oh = _dense_diagonals(ops)
    og = ops.omega_g
    gf = np.linalg.inv(u * og + psi)
    gg = np.linalg.inv(u * oh + od + psi)
    inner = (1.0 - 2.0 * u) * od - u * (1.0 - u) * (oh @ gg @ od + od @ gf @ og)
    return gg @ inner @ gf


def _replaced_cholesky(ops, protocol, u):
    # S = Y (Omega_g + D0 + E/Y) Y with the dense split D0 = -Omega_d and
    # E = Psi + Omega_d for UDP, D0 = 0 and E = Psi for TCP; Cholesky reads
    # the lower triangle only
    psi, od, _ = _dense_diagonals(ops)
    d0, e = (-od, psi + od) if protocol is UDP else (np.zeros_like(psi), psi)
    s = (u[:, :, None] * ops.omega_g) * u[:, None, :] + u[:, :, None] * (e + u[:, :, None] * d0)
    return np.linalg.cholesky(s)


def test_vector_diagonals_equal_the_replaced_dense_forms(pendulum, mixed):
    # Psi and Omega_d held as (N m,) vectors, with Omega_h formed on demand,
    # against the dense forms they replace: products with a diagonal matrix
    # are broadcast scalings, which give the GEMM's bits because its other
    # terms are exact zeros
    from nclab.analysis import _spectrum
    from nclab.controller import _cholesky
    rng = np.random.default_rng(7)
    scenarios = [pendulum, mixed] + [random_scenario(rng, n_max=5, m_max=3, n_horizon_max=12)
                                     for _ in range(40)]
    for scn in scenarios:
        ops = ops_of(scn)
        pairs = list(zip(_pencil(ops), _replaced_pencil(ops)))
        pairs += zip(_spectrum(ops), _replaced_spectrum(ops))
        pairs += [(derivative_matrix(ops, u), _replaced_derivative_matrix(ops, u))
                  for u in (0.5, 0.3)]
        u = np.vstack([ops.upsilon_diag, rng.uniform(0.05, 1.0, (2, ops.upsilon_diag.size))])
        pairs += [(_cholesky(ops, p, u), _replaced_cholesky(ops, p, u)) for p in (TCP, UDP)]
        for got, ref in pairs:
            assert np.array_equal(got, ref)


def test_newton_rounds_equal_the_per_candidate_loop(monkeypatch, pendulum, mixed):
    # one array round against the per-candidate eigenvalues and slopes, and
    # the polish at the earlier 1e-15 stop, which runs most candidates
    # through all 8 rounds, both bit for bit (the 1e-12 polish is covered by
    # test_candidates_equal_the_replaced_per_candidate_loop)
    from nclab import analysis
    monkeypatch.setattr(analysis, "_POLISH_STOP", 1e-15)
    rng = np.random.default_rng(2025)
    for ops in [ops_of(pendulum), ops_of(mixed)] + [
            ops_of(random_scenario(rng, n_max=3, m_max=3, n_horizon_max=6)) for _ in range(8)]:
        t, h_diag = analysis._pencil(ops)
        lam = _pencil_lambdas(t, h_diag)
        r = np.sqrt(1.0 + lam[lam >= -1.0])
        us = np.array([u for u in np.concatenate([1.0 / (1.0 + r), 1.0 / (1.0 - r[r != 1.0])])
                       if 0.0 < u < 1.0])
        ref = np.array([_replaced_newton_round(u, t, h_diag) for u in us]).reshape(-1, 2)
        got = analysis._newton_round(us, t, h_diag)
        assert np.column_stack(got).tobytes() == ref.tobytes()
        ref = np.array([_replaced_polish_root(u, t, h_diag, 1e-15) for u in us])
        assert analysis._polish_roots(us, t, h_diag).tobytes() == ref.tobytes()


@pytest.mark.parametrize("name, matrices", [("pendulum", 563), ("mixed", 20)])
def test_the_polish_stop_keeps_the_printed_digits_and_saves_rounds(name, matrices, request,
                                                                   monkeypatch):
    # ``maxdiff`` (with --scalar on mixed) prints every valid candidate at 9
    # digits; the 1e-12 stop prints those of the 1e-15 per-candidate loop,
    # and the stacked eigh takes 563 matrices on pendulum instead of 633 at
    # the 1e-15 stop, and on mixed one round per candidate instead of 122
    from nclab import analysis
    ops = ops_of(request.getfixturevalue(name))
    counted = []
    eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        if np.ndim(a) == 3:  # the polish's stacked rounds
            counted.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(analysis.np.linalg, "eigh", counting_eigh)
    got = determinant_root_candidates(ops)
    monkeypatch.undo()
    old = _replaced_candidates(ops, stop=1e-15)
    assert [(c.valid, c.eigcond) for c in got] == [(c.valid, c.eigcond) for c in old]
    printed = [[f"{c.value:.9g}" for c in cands if c.valid] for cands in (got, old)]
    assert printed[0] == printed[1]
    assert sum(counted) == matrices


def _spectral_traces(ops, us):
    from nclab.analysis import _fmat_traces, _spectrum
    return _fmat_traces(_spectrum(ops), us)


def test_spectral_trace_matches_the_derivative_matrix():
    rng = np.random.default_rng(31)
    for _ in range(12):
        ops = ops_of(random_scenario(rng, n_max=3, m_max=3, n_horizon_max=6))
        us = rng.uniform(0.01, 0.99, 5)
        ref = np.array([np.trace(derivative_matrix(ops, u)) for u in us])
        np.testing.assert_allclose(_spectral_traces(ops, us), ref, rtol=1e-10, atol=0.0)


def test_trace_bound_rejects_only_what_the_eigenvalues_reject(pendulum):
    # the bound |tr fmat| / Nm > 2 EIGCOND_RTOL scale against the eigenvalue
    # decision on every polished candidate; the toy's root is left open
    from nclab.analysis import EIGCOND_RTOL
    rng = np.random.default_rng(32)
    cases = [ops_of(random_scenario(rng, n_max=3, m_max=3, n_horizon_max=6))
             for _ in range(12)]
    rejected = open_ = 0
    for ops in cases + [ops_of(toy_scenario(mu=0.5, x=1.0)), ops_of(pendulum)]:
        scale = np.linalg.norm(derivative_matrix(ops, 0.5), 2)
        us = [c.value for c in determinant_root_candidates(ops) if 0.0 < c.value < 1.0]
        for u, tr in zip(us, _spectral_traces(ops, us)):
            radius = np.max(np.abs(np.linalg.eigvals(derivative_matrix(ops, u))))
            if abs(tr) / ops.psi.shape[0] > 2.0 * EIGCOND_RTOL * scale:
                rejected += 1
                assert radius > EIGCOND_RTOL * scale
            else:
                open_ += 1
    assert rejected > 50 and open_ >= 1


def test_monotonic_sweep_decreasing(pendulum, mixed):
    ops = ops_of(pendulum)
    grid = [np.array([v]) for v in np.arange(0.1, 0.95, 0.1)]
    costs = monotonic_sweep(ops, grid, TCP, pendulum.eval_state)
    assert np.all(np.diff(costs) < 0)
    opsm = ops_of(mixed)
    grid2 = [np.array([t, t]) for t in np.arange(0.2, 0.85, 0.1)]
    for p in (TCP, UDP):
        costs2 = monotonic_sweep(opsm, grid2, p, mixed.eval_state)
        assert np.all(np.diff(costs2) < 0)


def test_monotonic_sweep_rejects_unordered_grid():
    scn = toy_scenario()
    with pytest.raises(ValueError, match="strictly increasing"):
        monotonic_sweep(ops_of(scn), [[0.5], [0.5]], TCP, [1.0])


def test_toy_tcp_at_one_third_costs_what_udp_costs_at_one_half():
    ops = ops_of(toy_scenario(mu=0.5, x=1.0))
    j_tcp = expected_cost(ops, TCP, [1.0], upsilon=1.0 / 3.0).total
    j_udp = expected_cost(ops, UDP, [1.0], upsilon=0.5).total
    assert j_tcp == pytest.approx(j_udp, rel=1e-9)


def test_sweep_csv_format(tmp_path):
    path = tmp_path / "sweep.csv"
    mus = [np.array([0.2, 0.3]), np.array([0.4, 0.5])]
    write_sweep_csv(path, mus, [5.0, 4.0], [6.0, 4.5])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "mu_1,mu_2,j_tcp,j_udp,gap"
    assert len(lines) == 3
    assert lines[1].split(",")[-1] == "1"

    # edge values in every column, one and two channels, against a per-cell reference
    jt, ju = np.array(CSV_EDGE_VALUES), np.array(CSV_EDGE_VALUES[::-1])
    for mus in (np.array(CSV_EDGE_VALUES), np.resize(CSV_EDGE_VALUES, (6, 2))):
        write_sweep_csv(path, mus, jt, ju)
        cols = mus.reshape(6, -1)
        header = ",".join([f"mu_{i+1}" for i in range(cols.shape[1])] + ["j_tcp", "j_udp", "gap"])
        rows = [",".join(f"{v:.9g}" for v in [*mu, t, u, u - t])
                for mu, t, u in zip(cols.tolist(), jt.tolist(), ju.tolist())]
        assert path.read_text() == "\n".join([header, *rows]) + "\n"
    gz = tmp_path / "sweep.csv.gz"  # plain text whatever the name
    write_sweep_csv(gz, mus, jt, ju)
    assert gz.read_text() == path.read_text()


@pytest.mark.parametrize("call, message", [
    (lambda ops, x: monotonic_sweep(ops, [0.5], TCP, x), "grid needs at least two points"),
], ids=["one_point_sweep"])
def test_analysis_refuses_degenerate_requests(call, message):
    scn = toy_scenario(mu=0.5, x=1.0)
    with pytest.raises(ValueError, match=message):
        call(ops_of(scn), scn.eval_state)
