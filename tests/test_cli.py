import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from nclab import Protocol, expected_cost, fixture_path, load_scenario
from nclab.cli import run

from conftest import edited_fixture, ops_of

ALLOCATE = ["--alpha", "119", "--beta", "0.05,1", "--resolution", "0.1"]


@pytest.fixture(scope="module")
def pend_path():
    return str(fixture_path("pendulum"))


@pytest.fixture(scope="module")
def mixed_path():
    return str(fixture_path("mixed"))


def test_cost_command_matches_library(capsys, pend_path):
    rc = run(["cost", "--scenario", pend_path, "--protocol", "tcp", "--upsilon", "0.9"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    scn = load_scenario(pend_path)
    rep = expected_cost(ops_of(scn), Protocol.TCP_LIKE, scn.eval_state, upsilon=0.9)
    assert doc["total"] == pytest.approx(rep.total, rel=1e-8)
    assert doc["constant_term"] == pytest.approx(rep.constant_term, rel=1e-8)
    assert set(doc) == {"protocol", "total", "constant_term", "reduction_term"}


def test_cost_output_is_byte_stable(capsys, pend_path):
    run(["cost", "--scenario", pend_path, "--protocol", "udp"])
    first = capsys.readouterr().out
    run(["cost", "--scenario", pend_path, "--protocol", "udp"])
    second = capsys.readouterr().out
    assert first == second


def test_eigs_command(capsys, mixed_path):
    rc = run(["eigs", "--scenario", mixed_path, "--protocol", "udp"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["eigenvalues"]) == 2
    assert {"re", "im"} == set(doc["eigenvalues"][0])


def test_gap_command(capsys, mixed_path):
    rc = run(["gap", "--scenario", mixed_path])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap"] == pytest.approx(doc["j_udp"] - doc["j_tcp"], rel=1e-6)
    assert doc["gap"] > 0


def test_synthesize_command(capsys, mixed_path):
    rc = run(["synthesize", "--scenario", mixed_path, "--protocol", "tcp"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["k_first"]) == 2
    assert len(doc["k"]) == 20


def test_maxdiff_requires_scalar_flag_on_multichannel(capsys, mixed_path):
    rc = run(["maxdiff", "--scenario", mixed_path])
    assert rc == 2
    err = capsys.readouterr().err
    assert "scalar" in err.lower() or "shared" in err.lower()


def test_maxdiff_with_scalar_flag(capsys, mixed_path):
    rc = run(["maxdiff", "--scenario", mixed_path, "--scalar"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert 0 < doc["maximizer"] < 1
    assert doc["method"] in ("analytic_roots", "grid_fallback")


def test_sweep_row_count(tmp_path, capsys, pend_path):
    out = tmp_path / "sweep.csv"
    rc = run(["sweep", "--scenario", pend_path, "--points", "17", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 17
    assert lines[0] == "mu_1,j_tcp,j_udp,gap"


def test_sweep_multichannel_full_grid(tmp_path, mixed_path):
    out = tmp_path / "sweep2.csv"
    rc = run(["sweep", "--scenario", mixed_path, "--points", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 25
    assert lines[0] == "mu_1,mu_2,j_tcp,j_udp,gap"


def test_simulate_writes_deterministic_csv(tmp_path, capsys, mixed_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rc = run(["simulate", "--scenario", mixed_path, "--protocol", "udp",
              "--seed", "42", "--out", str(out1)])
    assert rc == 0
    run(["simulate", "--scenario", mixed_path, "--protocol", "udp",
         "--seed", "42", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["seed"] == 42


def test_simulate_receding_mode(tmp_path, capsys, mixed_path):
    out = tmp_path / "rh.csv"
    rc = run(["simulate", "--scenario", mixed_path, "--protocol", "tcp",
              "--mode", "receding", "--steps", "25", "--seed", "1",
              "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().split("\n")) == 26


def test_montecarlo_command(capsys, mixed_path):
    rc = run(["montecarlo", "--scenario", mixed_path, "--protocol", "udp",
              "--replicates", "500", "--seed", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["replicates"] == 500
    assert doc["stderr"] > 0


@pytest.mark.parametrize("fixture", ["pendulum", "mixed"])
@pytest.mark.parametrize("protocol", ["tcp", "udp"])
def test_montecarlo_threads_flag_changes_no_byte(capsys, fixture, protocol):
    # --threads is still accepted and does nothing; 4000 replicates span
    # more than one chunk on both fixtures
    argv = ["montecarlo", "--scenario", str(fixture_path(fixture)), "--protocol", protocol,
            "--replicates", "4000", "--seed", "9"]
    assert run(argv) == 0
    plain = capsys.readouterr().out
    assert run(argv + ["--threads", "2"]) == 0
    assert capsys.readouterr().out == plain


def test_nclab_seed_env_override(tmp_path, capsys, monkeypatch, mixed_path):
    # --seed beats NCLAB_SEED, which beats the scenario's sim.seed
    monkeypatch.delenv("NCLAB_SEED", raising=False)
    scenario_seed = load_scenario(mixed_path).sim.seed
    env_seed, flag_seed = scenario_seed + 1, scenario_seed + 2

    def simulate(*seed):
        assert run(["simulate", "--scenario", mixed_path, "--protocol", "udp",
                    "--out", str(tmp_path / "trajectory.csv"), *seed]) == 0
        return json.loads(capsys.readouterr().out)["seed"]

    def montecarlo(*seed):
        assert run(["montecarlo", "--scenario", mixed_path, "--protocol", "udp",
                    "--replicates", "20", *seed]) == 0
        return capsys.readouterr().out

    explicit = {s: montecarlo("--seed", str(s)) for s in (scenario_seed, env_seed, flag_seed)}
    assert len(set(explicit.values())) == 3  # each seed prints its own statistics
    assert simulate() == scenario_seed
    assert montecarlo() == explicit[scenario_seed]
    monkeypatch.setenv("NCLAB_SEED", str(env_seed))
    assert simulate() == env_seed
    assert montecarlo() == explicit[env_seed]
    assert simulate("--seed", str(flag_seed)) == flag_seed
    assert montecarlo("--seed", str(flag_seed)) == explicit[flag_seed]


def test_allocate_command(capsys, mixed_path):
    scn = load_scenario(fixture_path("mixed"))
    alpha = expected_cost(ops_of(scn), Protocol.UDP_LIKE, scn.eval_state,
                          upsilon=np.array([0.9, 0.9])).total
    rc = run(["allocate", "--scenario", str(fixture_path("mixed")), "--protocol", "udp",
              "--alpha", f"{alpha}", "--beta", "1,1", "--resolution", "0.1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["m_star"]) == 2
    assert doc["comm_cost"] <= 2.0


def test_allocate_beta_count_is_a_usage_error(capsys, mixed_path, pend_path):
    for path, beta, m in ((mixed_path, "1,1,1", 2), (mixed_path, "1", 2), (pend_path, "1,1", 1)):
        rc = run(["allocate", "--scenario", path, "--protocol", "udp", "--alpha", "1e9",
                  "--beta", beta])
        assert rc == 2
        assert f"scenario has {m} channels" in capsys.readouterr().err


def test_frontier_out_evaluates_the_grid_once(tmp_path, capsys, monkeypatch, mixed_path):
    from nclab import allocation

    lines, writing = [], []

    def guarded(fn):
        def call(*args, **kwargs):
            assert not writing, "the frontier CSV writer evaluated a cost"
            return fn(*args, **kwargs)
        return call

    counted = allocation._line_resolvents

    def counting(ops, point, fixed=None, channel=None):
        lines.append((np.array(fixed), channel))
        return counted(ops, point, fixed, channel)

    monkeypatch.setattr(allocation, "_line_resolvents", guarded(counting))
    for name in ("expected_cost", "_point_costs"):
        monkeypatch.setattr(allocation, name, guarded(getattr(allocation, name)))
    write = allocation.write_frontier_csv

    def writer(*args):
        writing.append(True)
        write(*args)
        writing.pop()

    monkeypatch.setattr(allocation, "write_frontier_csv", writer)
    frontier = tmp_path / "frontier.csv"
    assert run(["allocate", "--scenario", mixed_path, "--protocol", "udp", *ALLOCATE,
                "--frontier-out", str(frontier)]) == 0
    # resolution 0.1: one grid call with one line per value of mu_1, which
    # covers all 10^2 points, then one line per priced channel, dearest
    # first, through the grid optimum with the other channel fixed
    assert len(lines) == 3
    assert np.array_equal(lines[0][0], np.round(np.arange(1, 11) * 0.1, 12)[:, np.newaxis])
    assert lines[0][1] is None
    assert [channel for _, channel in lines[1:]] == [1, 0]
    assert [fixed.shape for fixed, _ in lines[1:]] == [(1, 1), (1, 1)]
    assert len(frontier.read_text().splitlines()) == 1 + 100
    assert json.loads(capsys.readouterr().out)["frontier_size"] >= 1


def test_invalid_scenario_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"plant\": {}}")
    rc = run(["cost", "--scenario", str(bad), "--protocol", "tcp"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exits_2(capsys, pend_path):
    rc = run(["cost", "--scenario", pend_path, "--protocol", "tcp",
              "--upsilon", "1.5"])
    assert rc == 2


def test_unknown_command_exits_2(capsys):
    rc = run(["frobnicate"])
    assert rc == 2


TOP_USAGE = ("usage: nclab [-h]\n"
             "             {synthesize,cost,gap,eigs,sweep,maxdiff,simulate,montecarlo,allocate}\n"
             "             ...\n")
COST_USAGE = ("usage: nclab cost [-h] --scenario SCENARIO --protocol {tcp,udp}\n"
              "                  [--upsilon UPSILON] [--out OUT]\n")


@pytest.mark.parametrize("argv, rc, out, err", [
    ([], 2, "", TOP_USAGE + "nclab: error: the following arguments are required: command\n"),
    (["bogus"], 2, "", TOP_USAGE + "nclab: error: argument command: invalid choice: 'bogus'"),
    (["--help"], 0, TOP_USAGE, ""),
    (["cost", "--help"], 0, COST_USAGE, ""),
    (["cost", "--scenario", "{pendulum}"], 2, "",
     COST_USAGE + "nclab cost: error: the following arguments are required: --protocol\n"),
    (["cost", "--scenario", "{pendulum}", "--protocol", "xyz"], 2, "",
     COST_USAGE + "nclab cost: error: argument --protocol: invalid choice: 'xyz'"),
    # a command's unrecognized option is reported with that command's usage
    (["cost", "--scenario", "{pendulum}", "--protocol", "udp", "--bogus", "x"], 2, "",
     COST_USAGE + "nclab cost: error: unrecognized arguments: --bogus x\n"),
], ids=["no command", "unknown command", "help", "command help", "missing option",
        "bad choice", "unrecognized option"])
def test_usage_paths_print_the_parser_text(capsys, monkeypatch, pend_path, argv, rc, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
    argv = [pend_path if a == "{pendulum}" else a for a in argv]
    given = list(argv)
    assert run(given) == rc
    assert given == argv
    printed = capsys.readouterr()
    assert printed.out.startswith(out) and printed.err.startswith(err)
    assert bool(printed.out) == (rc == 0) and "Traceback" not in printed.err


@pytest.mark.parametrize("argv, rc", [
    (["cost", "--scenario", "{pendulum}", "--protocol", "udp"], 0),
    (["simulate", "--scenario", "{pendulum}", "--protocol", "udp", "--out", "{out}"], 0),
    (["sweep", "--scenario", "{pendulum}", "--points", "1", "--out", "{out}"], 2),
], ids=["cost", "seeded from NCLAB_SEED", "usage error"])
def test_run_leaves_the_callers_argv_unchanged(tmp_path, capsys, monkeypatch, pend_path, argv, rc):
    monkeypatch.setenv("NCLAB_SEED", "3")
    argv = [{"{pendulum}": pend_path, "{out}": str(tmp_path / "x.csv")}.get(a, a) for a in argv]
    given = list(argv)
    assert run(given) == rc
    assert given == argv


def test_sweep_matches_per_point_costs(tmp_path, mixed_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--scenario", mixed_path, "--points", "4", "--out", str(out)]) == 0
    scn = load_scenario(mixed_path)
    ops = ops_of(scn)
    pts = np.linspace(0.01, 0.99, 4)  # the default --start/--stop
    rows = out.read_text().strip().split("\n")[1:]
    mus = [(a, b) for a in pts for b in pts]
    assert len(rows) == len(mus)
    for line, mu in zip(rows, mus):
        cells = line.split(",")
        for p, cell in ((Protocol.TCP_LIKE, cells[2]), (Protocol.UDP_LIKE, cells[3])):
            ref = expected_cost(ops, p, scn.eval_state, upsilon=np.array(mu)).total
            assert cell == f"{ref:.9g}"


@pytest.mark.parametrize("fixture, flags", [("mixed", ["--scalar"]), ("pendulum", [])])
def test_shared_mean_sweep_matches_per_point_costs(tmp_path, fixture, flags):
    out = tmp_path / "sweep.csv"
    path = str(fixture_path(fixture))
    assert run(["sweep", "--scenario", path, *flags, "--points", "7", "--out", str(out)]) == 0
    scn = load_scenario(path)
    ops = ops_of(scn)
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 7
    for line, mu in zip(rows, np.linspace(0.01, 0.99, 7)):
        cells = line.split(",")
        assert cells[:scn.m] == scn.m * [f"{mu:.9g}"]
        for p, cell in ((Protocol.TCP_LIKE, cells[-3]), (Protocol.UDP_LIKE, cells[-2])):
            assert cell == f"{expected_cost(ops, p, scn.eval_state, upsilon=mu).total:.9g}"


@pytest.mark.parametrize("points", ["0", "1", "-3"])
def test_sweep_rejects_fewer_than_two_points(tmp_path, capsys, mixed_path, points):
    out = tmp_path / "sweep.csv"
    rc = run(["sweep", "--scenario", mixed_path, "--points", points, "--out", str(out)])
    assert rc == 2
    assert "--points" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_oversized_grid_before_evaluating(tmp_path, capsys, monkeypatch,
                                                        mixed_path):
    from nclab import cli

    def no_eval(*args, **kwargs):
        raise AssertionError("evaluated an oversized sweep")

    monkeypatch.setattr(cli, "line_resolvents", no_eval)
    out = tmp_path / "sweep.csv"
    points = str(int(cli.MAX_SWEEP_POINTS ** 0.5) + 1)  # squared over two channels
    rc = run(["sweep", "--scenario", mixed_path, "--points", points, "--out", str(out)])
    assert rc == 2
    assert "limit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "1.5", "-4", ""])
def test_nclab_seed_must_be_a_nonnegative_integer(capsys, monkeypatch, mixed_path, value):
    monkeypatch.setenv("NCLAB_SEED", value)
    rc = run(["cost", "--scenario", mixed_path, "--protocol", "tcp"])
    assert rc == 2
    assert "NCLAB_SEED" in capsys.readouterr().err


def _scenario_file(tmp_path, mixed_path, edit):
    doc = json.loads(open(mixed_path).read())
    edit(doc["weights"])
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_null_horizon_is_a_scenario_error(tmp_path, capsys, mixed_path):
    path = _scenario_file(tmp_path, mixed_path, lambda w: w.update(horizon=None))
    assert run(["cost", "--scenario", path, "--protocol", "tcp"]) == 1
    assert "horizon" in capsys.readouterr().err


def _sigma_w_file(tmp_path, mixed_path, sigma_w):
    doc = json.loads(open(mixed_path).read())
    doc["plant"]["sigma_w"] = sigma_w
    path = tmp_path / "noise.json"
    path.write_text(json.dumps(doc))
    return str(path)


# zero, rank one, and a smallest eigenvalue of -1e-13 times the largest entry
@pytest.mark.parametrize("sigma_w", [[[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]],
                                     [[1.0, 0.0], [0.0, -1e-13]]])
def test_positive_semidefinite_sigma_w_is_accepted(tmp_path, capsys, mixed_path, sigma_w):
    path = _sigma_w_file(tmp_path, mixed_path, sigma_w)
    assert run(["cost", "--scenario", path, "--protocol", "udp"]) == 0
    assert run(["simulate", "--scenario", path, "--protocol", "udp",
                "--out", str(tmp_path / "traj.csv")]) == 0


@pytest.mark.parametrize("sigma_w", [[[1.0, 0.0], [0.0, -1e-11]], [[1.0, 2.0], [2.0, 1.0]]])
def test_indefinite_sigma_w_is_a_scenario_error(tmp_path, capsys, mixed_path, sigma_w):
    path = _sigma_w_file(tmp_path, mixed_path, sigma_w)
    assert run(["cost", "--scenario", path, "--protocol", "udp"]) == 1
    assert "sigma_w not positive semidefinite" in capsys.readouterr().err


def test_missing_q_weight_is_a_scenario_error(tmp_path, capsys, mixed_path):
    path = _scenario_file(tmp_path, mixed_path, lambda w: w.pop("q"))
    assert run(["cost", "--scenario", path, "--protocol", "tcp"]) == 1
    assert "weights is missing q" in capsys.readouterr().err


def test_fractional_horizon_is_rejected(tmp_path, capsys, mixed_path):
    path = _scenario_file(tmp_path, mixed_path, lambda w: w.update(horizon=2.7))
    assert run(["cost", "--scenario", path, "--protocol", "tcp"]) == 1
    assert "horizon" in capsys.readouterr().err
    path = _scenario_file(tmp_path, mixed_path, lambda w: w.update(horizon=-1))
    assert run(["cost", "--scenario", path, "--protocol", "tcp"]) == 1
    assert "horizon must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["plant", "channel", "weights", "sim"])
@pytest.mark.parametrize("value", [0, None, True, [1], "x"])
def test_non_object_sections_are_scenario_errors(tmp_path, capsys, mixed_path, section, value):
    doc = json.loads(open(mixed_path).read())
    doc[section] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    assert run(["cost", "--scenario", str(path), "--protocol", "tcp"]) == 1
    assert f"{section} must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["montecarlo", "--protocol", "udp", "--replicates", "0"], "--replicates"),
    (["montecarlo", "--protocol", "udp", "--replicates", "1"], "--replicates"),
    (["montecarlo", "--protocol", "udp", "--threads", "0"], "--threads"),
    (["simulate", "--protocol", "udp", "--mode", "receding", "--steps", "0"], "--steps"),
    (["simulate", "--protocol", "udp", "--mode", "receding", "--steps", "-2"], "--steps"),
    (["simulate", "--protocol", "udp", "--mode", "open", "--steps", "50"], "--steps"),
    (["simulate", "--protocol", "udp", "--steps", "50"], "--steps"),
    (["sweep", "--points", "1"], "--points"),
    (["sweep", "--start", "0"], "--start"),
    (["sweep", "--stop", "1.5"], "--stop"),
    (["allocate", "--protocol", "udp", "--alpha", "nan", "--beta", "0.05,1"], "--alpha"),
    (["allocate", "--protocol", "udp", "--alpha=inf", "--beta", "0.05,1"], "--alpha"),
    (["simulate", "--protocol", "udp", "--seed", "-5"], "--seed must be a nonnegative integer"),
    (["montecarlo", "--protocol", "udp", "--seed", "-5"], "--seed must be a nonnegative integer"),
    (["montecarlo", "--protocol", "udp", "--replicates", "1000000000000000"], "--replicates"),
    (["simulate", "--protocol", "udp", "--mode", "receding", "--steps", "1000000000000000"],
     "--steps"),
    (["allocate", "--protocol", "udp", "--alpha", "119", "--beta", "nan,1"], "--beta"),
    (["allocate", "--protocol", "udp", "--alpha", "119", "--beta", "inf,1"], "--beta"),
    (["allocate", "--protocol", "udp", "--alpha", "119", "--beta", "a,b"], "--beta"),
    (["allocate", "--protocol", "udp", "--alpha", "119", "--beta", "1,,1"], "--beta"),
    (["allocate", "--protocol", "udp", "--alpha", "119", "--beta=-0.05,1"], "--beta"),
    (["allocate", "--protocol", "udp", "--alpha", "119", "--resolution", "0"], "--resolution"),
    (["allocate", "--protocol", "udp", "--alpha", "119", "--resolution", "0.6"], "--resolution"),
    (["allocate", "--protocol", "udp", "--alpha", "119", "--resolution=-0.01"], "--resolution"),
    (["allocate", "--protocol", "udp", "--alpha", "119", "--resolution", "nan"], "--resolution"),
])
def test_count_flags_are_checked_before_any_work(tmp_path, capsys, monkeypatch, mixed_path,
                                                  argv, flag):
    from nclab import cli

    def refuse(*args, **kwargs):
        raise AssertionError("loaded the scenario before rejecting the flags")

    monkeypatch.setattr(cli, "load_scenario", refuse)
    out = tmp_path / "t.csv"
    extra = ["--out", str(out)] if argv[0] in ("simulate", "sweep") else []
    assert run(argv[:1] + ["--scenario", mixed_path] + argv[1:] + extra) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_count_flags_are_honoured(tmp_path, capsys, mixed_path):
    assert run(["montecarlo", "--scenario", mixed_path, "--protocol", "udp",
                "--replicates", "2", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["replicates"] == 2
    out = tmp_path / "rh.csv"
    assert run(["simulate", "--scenario", mixed_path, "--protocol", "udp",
                "--mode", "receding", "--steps", "1", "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 1


@pytest.mark.parametrize("argv", [
    ["synthesize", "--protocol", "tcp"], ["cost", "--protocol", "tcp"], ["gap"],
    ["eigs", "--protocol", "tcp"], ["sweep", "--points", "3"], ["maxdiff", "--scalar"],
    ["simulate", "--protocol", "tcp"], ["allocate", "--protocol", "udp", *ALLOCATE],
])
def test_threads_is_only_a_montecarlo_flag(tmp_path, capsys, mixed_path, argv):
    out = ["--out", str(tmp_path / "x.csv")] if argv[0] in ("sweep", "simulate") else []
    assert run(argv[:1] + ["--scenario", mixed_path] + argv[1:] + out) == 0
    capsys.readouterr()
    assert run(argv[:1] + ["--scenario", mixed_path] + argv[1:] + out + ["--threads", "2"]) == 2
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--points", "3"], ["maxdiff", "--scalar"], ["allocate", "--protocol", "udp", *ALLOCATE],
])
def test_upsilon_is_refused_where_it_changes_nothing(tmp_path, capsys, mixed_path, argv):
    out = ["--out", str(tmp_path / "x.csv")] if argv[0] == "sweep" else []
    assert run(argv[:1] + ["--scenario", mixed_path] + argv[1:] + out + ["--upsilon", "0.5"]) == 2
    assert "--upsilon" in capsys.readouterr().err


def test_allocate_rejects_oversized_grid_before_building_it(tmp_path, capsys, monkeypatch,
                                                            mixed_path):
    from nclab import allocation

    def no_grid(*args, **kwargs):
        raise AssertionError("built an oversized allocation grid")

    monkeypatch.setattr(allocation, "grid_points", no_grid)
    frontier = tmp_path / "frontier.csv"
    rc = run(["allocate", "--scenario", mixed_path, "--protocol", "udp", *ALLOCATE,
              "--resolution", "0.0009", "--frontier-out", str(frontier)])  # 1111^2 points
    assert rc == 2
    assert "1234321 grid points" in capsys.readouterr().err
    assert not frontier.exists()


@pytest.mark.parametrize("key, cap", [("replicates", 10 ** 7), ("steps", 10 ** 6)])
def test_sim_counts_are_capped(tmp_path, capsys, mixed_path, key, cap):
    from nclab import cli

    assert getattr(cli, f"MAX_{key.upper()}") == cap
    doc = json.loads(open(mixed_path).read())
    path = tmp_path / "edited.json"
    for value, rc in ((cap, 0), (cap + 1, 1), (10 ** 15, 1)):
        doc["sim"] = {key: value}
        path.write_text(json.dumps(doc))
        assert run(["cost", "--scenario", str(path), "--protocol", "tcp"]) == rc
        captured = capsys.readouterr()
        if rc:
            assert f"sim.{key} must be <= {cap}" in captured.err


@pytest.mark.parametrize("horizon", [10 ** 6 + 1, 2 ** 40, 2 ** 70])
def test_huge_horizon_is_a_validation_error(tmp_path, capsys, mixed_path, horizon):
    path = _scenario_file(tmp_path, mixed_path, lambda w: w.update(horizon=horizon))
    assert run(["cost", "--scenario", path, "--protocol", "tcp"]) == 1
    assert "horizon must be >= 1 and <= 1000000" in capsys.readouterr().err


def _fresh_run(argv):
    """``run`` with a newly built parser, as in a new process."""
    from nclab import cli

    cli._parser.cache_clear()
    return run(argv)


def test_repeated_runs_share_one_parser_and_no_state(tmp_path, capsys, pend_path, mixed_path):
    from nclab import cli

    cost = ["cost", "--scenario", pend_path, "--protocol", "udp"]
    assert _fresh_run(cost) == 0
    plain = capsys.readouterr().out
    parser = cli._parser()
    assert run(cost + ["--upsilon", "0.5"]) == 0
    assert capsys.readouterr().out != plain
    assert run(cost) == 0
    assert capsys.readouterr().out == plain

    # a usage error from argparse and one from the command, then valid commands
    assert run(["cost", "--scenario", pend_path, "--protocol", "xyz"]) == 2
    assert run(cost + ["--upsilon", "1.5"]) == 2
    capsys.readouterr()
    assert run(cost) == 0
    assert capsys.readouterr().out == plain
    assert cli._parser() is parser

    out = tmp_path / "sweep.csv"
    sweep = ["sweep", "--scenario", mixed_path, "--points", "5", "--out", str(out)]
    assert _fresh_run(sweep) == 0
    full = out.read_text()
    assert run(sweep + ["--scalar"]) == 0
    scalar = out.read_text()
    assert len(scalar.splitlines()) == 1 + 5 and len(full.splitlines()) == 1 + 25
    assert run(sweep) == 0
    assert out.read_text() == full

    assert run(["--help"]) == 0
    usage = capsys.readouterr().out
    for name in ("synthesize", "cost", "gap", "eigs", "sweep", "maxdiff", "simulate",
                 "montecarlo", "allocate"):
        assert name in usage


def _rewrite(path, doc):
    """Write ``doc`` over the scenario file ``path`` and give the file back
    its modification time, so that only its content tells the two apart."""
    st = os.stat(path)
    Path(path).write_text(json.dumps(doc))
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


def test_a_scenario_file_rewritten_in_place_is_read_again(tmp_path, capsys):
    from nclab import scenario_from_dict

    path = tmp_path / "mixed.json"
    first = json.loads(fixture_path("mixed").read_text())
    doubled = edited_fixture("mixed", lambda v: 2.0 * v, ["weights.q"])
    path.write_text(json.dumps(first))
    size = path.stat().st_size
    cost = ["cost", "--scenario", str(path), "--protocol", "udp"]
    assert run(cost) == 0
    before = capsys.readouterr().out
    # the same path, size and modification time, and q[0][0] = 2 for 1
    _rewrite(path, doubled)
    assert path.stat().st_size == size
    assert run(cost) == 0
    after = capsys.readouterr().out
    scn = scenario_from_dict(doubled)
    want = expected_cost(ops_of(scn), Protocol.UDP_LIKE, scn.eval_state).total
    assert after != before
    assert json.loads(after)["total"] == pytest.approx(want, rel=1e-8)
    # back to the first content, and that is the first output again
    _rewrite(path, first)
    assert run(cost) == 0
    assert capsys.readouterr().out == before


def test_a_rewrite_to_a_refused_file_gives_the_load_error(tmp_path, capsys):
    from nclab import ScenarioError

    path = tmp_path / "mixed.json"
    path.write_text(fixture_path("mixed").read_text())
    cost = ["cost", "--scenario", str(path), "--protocol", "udp"]
    assert run(cost) == 0
    capsys.readouterr()
    path.write_text('{"plant": ')
    with pytest.raises(ScenarioError) as refused:
        load_scenario(path)
    assert "is not valid JSON" in str(refused.value)
    assert run(cost) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {refused.value}\n")
    path.unlink()
    assert run(cost) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot read {path}: ")


def test_overrides_leave_the_kept_scenario_as_the_file_gives_it(tmp_path, capsys, monkeypatch,
                                                                 mixed_path):
    monkeypatch.delenv("NCLAB_SEED", raising=False)
    cost = ["cost", "--scenario", mixed_path, "--protocol", "udp"]
    assert run(cost) == 0
    plain = capsys.readouterr().out
    assert run(cost + ["--upsilon", "0.5"]) == 0
    assert capsys.readouterr().out != plain
    assert run(cost) == 0
    assert capsys.readouterr().out == plain

    seed = load_scenario(mixed_path).sim.seed

    def simulate():
        assert run(["simulate", "--scenario", mixed_path, "--protocol", "udp",
                    "--out", str(tmp_path / "trajectory.csv")]) == 0
        return json.loads(capsys.readouterr().out)["seed"]

    monkeypatch.setenv("NCLAB_SEED", str(seed + 1))
    assert simulate() == seed + 1
    monkeypatch.delenv("NCLAB_SEED")
    assert simulate() == seed
    assert load_scenario(mixed_path).sim.seed == seed


def _counted(monkeypatch):
    """Spies on ``validate_scenario`` and ``build_prediction_operators``:
    the number of calls of each so far."""
    from nclab import prediction, scenario

    calls = {"validate": 0, "build": 0}
    for module, name, key in ((scenario, "validate_scenario", "validate"),
                              (prediction, "build_prediction_operators", "build")):
        def spy(*args, _fn=getattr(module, name), _key=key):
            calls[_key] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, spy)
    return calls


def test_commands_on_one_file_validate_and_build_once(tmp_path, capsys, monkeypatch, mixed_path):
    monkeypatch.delenv("NCLAB_SEED", raising=False)
    calls = _counted(monkeypatch)
    for argv in (["cost", "--protocol", "udp"], ["cost", "--protocol", "tcp"], ["gap"],
                 ["simulate", "--protocol", "udp", "--out", str(tmp_path / "open.csv")],
                 ["montecarlo", "--protocol", "tcp", "--replicates", "20"]):
        assert run([argv[0], "--scenario", mixed_path, *argv[1:]]) == 0
    assert calls == {"validate": 1, "build": 1}
    # NCLAB_SEED reaches the seeded commands as their seed, on the kept scenario
    monkeypatch.setenv("NCLAB_SEED", "5")
    for _ in range(2):
        for argv in (["simulate", "--protocol", "udp", "--out", str(tmp_path / "env.csv")],
                     ["montecarlo", "--protocol", "tcp", "--replicates", "20"]):
            assert run([argv[0], "--scenario", mixed_path, *argv[1:]]) == 0
    assert calls == {"validate": 1, "build": 1}
    # an override makes a scenario of its own, with its own operators
    assert run(["cost", "--scenario", mixed_path, "--protocol", "udp", "--upsilon", "0.5"]) == 0
    assert calls == {"validate": 1, "build": 2}


def test_at_most_two_scenarios_are_kept_least_recently_loaded_first(tmp_path, monkeypatch):
    from nclab import scenario

    calls = _counted(monkeypatch)
    paths = {}
    for name, horizon in (("a", 4), ("b", 5), ("c", 6)):
        paths[name] = tmp_path / f"{name}.json"
        doc = json.loads(fixture_path("mixed").read_text())
        doc["weights"]["horizon"] = doc["sim"]["steps"] = horizon
        paths[name].write_text(json.dumps(doc))

    def load(*names):
        for name in names:
            assert load_scenario(paths[name]).horizon == 4 + "abc".index(name)
        return calls["validate"], len(scenario._kept)

    assert load("a", "b") == (2, 2)
    assert load("a", "b", "a") == (2, 2)  # hits, with a the last loaded
    assert load("c") == (3, 2)            # b goes, a and c stay
    assert load("a", "c") == (3, 2)
    assert load("b") == (4, 2)            # a goes
    assert load("a") == (5, 2)


def test_operator_size_cap_is_a_clean_error(tmp_path, capsys, mixed_path):
    path = _scenario_file(tmp_path, mixed_path, lambda w: w.update(horizon=5000))
    assert run(["cost", "--scenario", path, "--protocol", "tcp"]) == 1
    err = capsys.readouterr().err
    assert "operator-size cap of 4096" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("protocol", ["tcp", "udp"])
@pytest.mark.parametrize("name, weight, i", [("pendulum", "omega", 1), ("mixed", "q", 0)])
def test_weight_near_the_float_limit_is_a_clean_error(tmp_path, capsys, name, weight, i,
                                                      protocol):
    # a finite entry of 1e308 passes validation: the symmetric part is halved
    # before the sum, which would overflow.  The cost is then not finite, and
    # cost and simulate exit 1 with an error instead of printing NaN or Infinity
    def edit(weights):
        weights[weight][i][i] = 1e308

    path = _scenario_file(tmp_path, str(fixture_path(name)), edit)
    load_scenario(path)
    for argv in (["cost"], ["simulate", "--seed", "1", "--out", str(tmp_path / "sim.csv")]):
        with np.errstate(all="ignore"):
            assert run(argv + ["--scenario", path, "--protocol", protocol]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def _refuses_cleanly(capsys, argv) -> str:
    """Run ``argv``: exit 1 with an error line, empty stdout, and neither a
    traceback nor a RuntimeWarning on the way.  Returns stderr."""
    import warnings
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return err


def test_csv_commands_refuse_a_cell_that_is_not_finite(tmp_path, capsys, mixed_path):
    # with q[0][0] = 1e308 every cost of mixed is infinite; sweep wrote
    # rows such as 0.01,0.01,inf,inf,nan and exited 0, and simulate wrote
    # its trajectory before refusing the summary line.  No file is written
    def edit(weights):
        weights["q"][0][0] = 1e308

    path = _scenario_file(tmp_path, mixed_path, edit)
    out = tmp_path / "out.csv"
    for argv, named in ((["sweep", "--points", "3"], "column j_tcp"),
                        (["sweep", "--points", "3", "--scalar"], "column j_tcp"),
                        (["simulate", "--protocol", "tcp", "--seed", "1"], "realized cost"),
                        (["simulate", "--protocol", "udp", "--mode", "receding", "--steps", "3"],
                         "realized cost")):
        err = _refuses_cleanly(capsys, argv + ["--scenario", path, "--out", str(out)])
        assert named in err and not out.exists()


def test_json_commands_name_the_result_that_is_not_finite(tmp_path, capsys, mixed_path):
    # with q[0][0] = 1e308 the operators are finite but every cost of mixed
    # is infinite; cost, gap and montecarlo printed the JSON encoder's
    # complaint, and montecarlo a RuntimeWarning before it
    def edit(weights):
        weights["q"][0][0] = 1e308

    path = _scenario_file(tmp_path, mixed_path, edit)
    for argv, named in ((["cost", "--protocol", "tcp"], "total"),
                        (["cost", "--protocol", "udp"], "total"),
                        (["gap"], "j_tcp"),
                        (["montecarlo", "--protocol", "tcp", "--replicates", "50"], "mean_cost"),
                        (["montecarlo", "--protocol", "udp", "--replicates", "50"], "mean_cost")):
        err = _refuses_cleanly(capsys, argv + ["--scenario", path])
        assert f"the result {named} is not finite" in err and "JSON compliant" not in err


@pytest.mark.parametrize("argv, target", [
    (["cost", "--protocol", "tcp", "--out"], "missing"),
    (["synthesize", "--protocol", "udp", "--out"], "missing"),
    (["sweep", "--points", "3", "--out"], "missing"),
    (["simulate", "--protocol", "tcp", "--out"], "missing"),
    (["allocate", "--protocol", "udp", *ALLOCATE, "--frontier-out"], "missing"),
    (["cost", "--protocol", "tcp", "--out"], "directory"),
    (["sweep", "--points", "3", "--out"], "directory"),
])
def test_an_unwritable_output_path_is_a_clean_error(tmp_path, capsys, mixed_path, argv, target):
    # these ended in a FileNotFoundError or IsADirectoryError traceback
    path, reason = {"missing": (tmp_path / "missing" / "f.json", "No such file or directory"),
                    "directory": (tmp_path, "Is a directory")}[target]
    err = _refuses_cleanly(capsys, argv + [str(path), "--scenario", mixed_path])
    assert err == f"error: cannot write {path}: {reason}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["synthesize", "--protocol", "tcp", "--out"], ["cost", "--protocol", "tcp", "--out"],
    ["gap", "--out"], ["eigs", "--protocol", "tcp", "--out"], ["sweep", "--out"],
    ["maxdiff", "--scalar", "--out"], ["simulate", "--protocol", "tcp", "--out"],
    ["montecarlo", "--protocol", "udp", "--out"],
    ["allocate", "--protocol", "udp", *ALLOCATE, "--out"],
    ["allocate", "--protocol", "udp", *ALLOCATE, "--frontier-out"],
])
def test_an_empty_output_path_is_a_usage_error(tmp_path, capsys, monkeypatch, mixed_path, argv):
    # cost printed to stdout, allocate wrote no frontier, and sweep and
    # simulate ended in "error: cannot write : No such file or directory"
    from nclab import cli

    def refuse(*args, **kwargs):
        raise AssertionError("loaded the scenario before refusing the path")

    monkeypatch.setattr(cli, "load_scenario", refuse)
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["", "--scenario", mixed_path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: {argv[-1]} must name a file, got an empty path\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [["cost", "--protocol", "udp"], ["maxdiff"]])
def test_a_closed_stdout_pipe_ends_quietly(pend_path, command):
    # the reader of stdout has gone before the command prints; this printed
    # a BrokenPipeError traceback from _emit, or "Exception ignored" at exit
    import nclab

    env = dict(os.environ)
    src = str(Path(nclab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-c", "from nclab.cli import main; main()",
                               *command, "--scenario", pend_path],
                              stdout=write, stderr=subprocess.PIPE, env=env, text=True,
                              timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_montecarlo_averages_costs_that_sum_past_the_float_range(tmp_path, capsys, mixed_path):
    # with q[0][0] = 1e306 every replicate cost of mixed is 1.6e307, and fifty
    # of them sum past the float range: math.fsum raised OverflowError and
    # montecarlo ended in a traceback.  The mean is still 1.6e307
    import warnings

    def edit(weights):
        weights["q"][0][0] = 1e306

    path = _scenario_file(tmp_path, mixed_path, edit)
    for protocol in ("tcp", "udp"):
        docs = []
        for replicates in ("5", "50"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(["montecarlo", "--protocol", protocol, "--replicates", replicates,
                            "--scenario", path]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["mean_cost"] == docs[1]["mean_cost"] == 1.6e307
        assert docs[0]["stderr"] == docs[1]["stderr"] == 0.0


def test_allocate_names_a_cost_that_is_not_finite(tmp_path, capsys, mixed_path):
    # an infinite cost at perfect channels was blamed on the budget
    def edit(weights):
        weights["q"][0][0] = 1e308

    path = _scenario_file(tmp_path, mixed_path, edit)
    err = _refuses_cleanly(capsys, ["allocate", "--scenario", path, "--protocol", "udp",
                                    "--alpha", "1e300", "--beta", "0.05,1"])
    assert "cost at all-ones channel means is not finite" in err and "budget" not in err


# Every command, with the quantity a refusal of its result must name.  The
# CI packaging step runs the same commands through the installed console
# script on mixed with q[0][0] = 1e308 and with the state times 1e154.
_NEAR_THE_FLOAT_LIMIT = [
    ("synthesize", ["synthesize", "--protocol", "tcp"], "the result k"),
    ("eigs", ["eigs", "--protocol", "udp"], "the result eigenvalues"),
    ("maxdiff-scalar", ["maxdiff", "--scalar"],
     "the result (maximizer|gap_at_max|analytic_best|valid_candidates)"),
    ("sweep", ["sweep", "--points", "3", "--out"], "column (j_tcp|j_udp|gap)"),
    ("sweep-scalar", ["sweep", "--points", "3", "--scalar", "--out"], "column (j_tcp|j_udp|gap)"),
    ("simulate-open", ["simulate", "--protocol", "udp", "--seed", "1", "--out"],
     "the realized cost"),
    ("simulate-receding",
     ["simulate", "--protocol", "tcp", "--mode", "receding", "--steps", "3", "--out"],
     "the realized cost"),
    ("cost", ["cost", "--protocol", "tcp"], "the result (total|constant_term|reduction_term)"),
    ("gap", ["gap"], "the result (j_tcp|j_udp|gap)"),
    ("montecarlo", ["montecarlo", "--protocol", "udp", "--replicates", "50"],
     "the result (mean_cost|stderr)"),
    ("allocate", ["allocate", "--protocol", "udp", "--alpha", "1e300"],
     "the cost at all-ones channel means|the result (m_star|m_grid|comm_cost)"),
]

# Scenario edits near the ends of the float range: the first entry of each
# place is set to value(entry).  The last field is the refusal an edit may
# meet besides a result that is not finite: load_scenario names an input
# the edit makes infinite, and a Gram system that rounding leaves
# indefinite is refused as singular.
_EDITS = [
    ("q=1e308", lambda v: 1e308, ["weights.q"], None),
    ("state*1e154", lambda v: v * 1e154, ["plant.x0_mean", "eval_state"], None),
    ("state*1e308", lambda v: v * 1e308, ["plant.x0_mean", "eval_state"],
     "x0_mean has non-finite entries"),
    ("omega*1e200", lambda v: v * 1e200, ["weights.omega"], "singular protocol Gram system: "),
    ("psi*1e308", lambda v: v * 1e308, ["weights.psi"], "psi_steps has non-finite entries"),
    ("psi*1e-300", lambda v: v * 1e-300, ["weights.psi"], "singular protocol Gram system: "),
    ("b*1e-300", lambda v: v * 1e-300, ["plant.b"], None),
    ("psi*1e154", lambda v: v * 1e154, ["weights.psi"], None),
    ("psi*1e200", lambda v: v * 1e200, ["weights.psi"], None),
    ("psi*1e300", lambda v: v * 1e300, ["weights.psi"], None),
    ("omega*1e300", lambda v: v * 1e300, ["weights.omega"], "singular protocol Gram system: "),
]
# maxdiff --scalar on mixed may also refuse what an edit takes past the
# float range: an Omega_d entry that underflows to 0, a root pencil T, H
# whose bound on P(u) and P'(u) overflows, or the derivative matrix at 1/2
_PENCIL = r"root pencil: 2 \(max\|T\| \+ max\|H\|\) is not finite"
_MAXDIFF_REFUSALS = {
    "b*1e-300": "root pencil: an entry of Omega_d is 0",
    "psi*1e154": _PENCIL, "psi*1e200": _PENCIL, "psi*1e300": _PENCIL, "psi*1e308": _PENCIL,
    "omega*1e300": "the derivative matrix at 1/2 is not finite",
}

# every command on mixed and, but for maxdiff --scalar and allocate, on
# pendulum, under every edit; mixed with q[0][0] = 1e308 keeps the command's id
_FLOAT_RANGE_CASES = [
    pytest.param(argv, "|".join(filter(None, [
                     f"({named}) .*not finite", refused,
                     _MAXDIFF_REFUSALS.get(edit) if argv[0] == "maxdiff" else None])),
                 fixture, value, places,
                 id=command if (fixture, edit) == ("mixed", "q=1e308")
                 else f"{command}-{fixture}-{edit}")
    for edit, value, places, refused in _EDITS
    for fixture in ("mixed", "pendulum")
    for command, argv, named in _NEAR_THE_FLOAT_LIMIT
    if fixture == "mixed" or argv[0] not in ("maxdiff", "allocate")
]


def _edited_fixture(tmp_path, fixture, value, places) -> str:
    """A file holding ``edited_fixture(fixture, value, places)``."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(edited_fixture(fixture, value, places)))
    return str(path)


@pytest.mark.parametrize("argv, refusal, fixture, value, places", _FLOAT_RANGE_CASES)
def test_every_command_ends_in_a_finite_answer_or_a_named_error(tmp_path, capsys, argv, refusal,
                                                                fixture, value, places):
    # with warnings as errors, a run exits 0 with finite output, or exits 1
    # with one error line that names the quantity, nothing on stdout and no
    # CSV written
    import re
    import warnings

    path = _edited_fixture(tmp_path, fixture, value, places)
    out = tmp_path / "out.csv"
    argv = argv + [str(out)] if argv[-1] == "--out" else argv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run(argv + ["--scenario", path])
    stdout, err = capsys.readouterr()
    if rc == 0:
        assert err == ""
        if stdout:
            json.loads(stdout, parse_constant=lambda c: pytest.fail(f"{c} printed"))
        if out.exists():
            cells = [c for row in out.read_text().splitlines()[1:] for c in row.split(",")]
            assert all(np.isfinite(float(c)) for c in cells)
    else:
        assert rc == 1 and stdout == "" and not out.exists()
        assert err.count("\n") == 1, err
        assert re.match(f"error: ({refusal})", err), err


@pytest.mark.parametrize("edit", list(_MAXDIFF_REFUSALS))
def test_maxdiff_names_the_pencil_or_derivative_past_the_float_range(tmp_path, capsys, edit):
    # maxdiff --scalar on mixed with b[0][0] times 1e-300, psi[0][0] times
    # 1e154 up to 1e308 or omega[0][0] times 1e300 ended in scipy's "array
    # must not contain infs or NaNs", "SVD did not converge" or, for psi
    # times 1e154, exit 0 after a RuntimeWarning from the Newton slope
    import re
    import warnings

    _, value, places, _ = next(e for e in _EDITS if e[0] == edit)
    path = _edited_fixture(tmp_path, "mixed", value, places)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["maxdiff", "--scalar", "--scenario", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and re.fullmatch(f"error: {_MAXDIFF_REFUSALS[edit]}\n", err), err


def test_a_penalty_near_the_float_limit_keeps_finite_gains_and_costs(tmp_path, capsys,
                                                                     mixed_path):
    # with psi[0][0] = 1e308 the symmetrization of S = Y G overflowed: a
    # RuntimeWarning, then gains of exactly 0.0 for channel 1.  They are
    # about 1.6e-307, as the oracle's first-stage gain.  At mean 0.5 the
    # penalty psi/u overflows to inf, which factors as a zero input: the
    # cost printed a RuntimeWarning before the oracle's value
    import warnings

    from conftest import lossy_riccati_oracle, noise_trace_oracle

    def edit(weights):
        weights["psi"][0][0] = 1e308

    path = _scenario_file(tmp_path, mixed_path, edit)
    scn = load_scenario(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["synthesize", "--protocol", "tcp", "--scenario", path]) == 0
        k_first = np.array(json.loads(capsys.readouterr().out)["k_first"])
        for protocol in ("tcp", "udp"):
            assert run(["cost", "--protocol", protocol, "--upsilon", "0.5",
                        "--scenario", path]) == 0
            _, p0 = lossy_riccati_oracle(scn, protocol, 0.5)
            x = scn.eval_state
            ref = float(x @ scn.weights.q @ x) + float(x @ p0 @ x) + noise_trace_oracle(scn)
            total = json.loads(capsys.readouterr().out)["total"]
            assert total == pytest.approx(ref, rel=1e-8)
    assert np.all(np.isfinite(k_first)) and np.all(k_first[0] != 0.0)
    gains, _ = lossy_riccati_oracle(scn, "tcp")
    assert np.allclose(k_first, gains[0], rtol=1e-8, atol=0.0)


def test_csv_writer_names_the_first_column_that_is_not_finite(tmp_path):
    from nclab._csv import write_csv
    path = tmp_path / "t.csv"
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="column b holds"):
            write_csv(path, ["a", "b", "c"], [[1.0, 2.0, 3.0], [1.0, bad, bad]])
        assert not path.exists()


def test_operators_that_are_not_finite_are_named(tmp_path, capsys, pend_path):
    # with omega[1][1] = 1e308 the pendulum build overflows; cost printed a
    # dozen RuntimeWarnings and then the JSON encoder's complaint
    def edit(weights):
        weights["omega"][1][1] = 1e308

    path = _scenario_file(tmp_path, pend_path, edit)
    for argv in (["cost", "--protocol", "tcp"], ["maxdiff"]):
        err = _refuses_cleanly(capsys, argv + ["--scenario", path])
        assert "prediction operators: Omega_g is not finite" in err


# The OpenBLAS policy is process-wide, so each case runs in a fresh
# interpreter.  The child finds the two bundled libraries by its own lookup,
# not by the one in nclab.cli, and reads their thread counts.
_OPENBLAS = [path for package, pattern in ((np, "numpy.libs/libscipy_openblas64_*.so"),
                                            (scipy, "scipy.libs/libscipy_openblas-*.so"))
             for path in glob.glob(os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                                                pattern))]
_BLAS_COUNTS = """
libs = [ctypes.CDLL(path) for path in sys.argv[1:3]]
getters = [libs[0].scipy_openblas_get_num_threads64_, libs[1].scipy_openblas_get_num_threads]
setters = [libs[0].scipy_openblas_set_num_threads64_, libs[1].scipy_openblas_set_num_threads]
def counts():
    return [get() for get in getters]
"""
_BLAS_PRELUDE = """
import ctypes, json, sys
import numpy, scipy.linalg
""" + _BLAS_COUNTS
needs_openblas = pytest.mark.skipif(len(_OPENBLAS) != 2,
                                    reason="needs the OpenBLAS libraries of the numpy and scipy wheels")


def _child(code: str, *args: str, cwd=None, **env: str) -> dict:
    """Run ``code`` in a fresh interpreter that imports nclab from this
    checkout, with none of OpenBLAS's thread variables set but those in
    ``env``; returns the JSON document it prints last."""
    import nclab

    child_env = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(nclab.__file__).resolve().parents[1])
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, child_env.get("PYTHONPATH")]))
    child_env.update(env)
    proc = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                          env=child_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _blas_child(body: str, *args: str, **env: str) -> dict:
    """``_child`` of ``body`` after the prelude, which has scipy load its
    OpenBLAS before anything else runs."""
    return _child(_BLAS_PRELUDE + body, *_OPENBLAS, *args, **env)


_RUN_COST_TWICE = """
import contextlib, io
from nclab import _openblas, cli
before = counts()
if sys.argv[4] == "no library":
    _openblas._OPENBLAS_LIBRARIES = [(p, "absent-*.so", s) for p, _, s in _openblas._OPENBLAS_LIBRARIES]
elif sys.argv[4] == "no symbol":
    _openblas._OPENBLAS_LIBRARIES = [(p, g, "_absent") for p, g, _ in _openblas._OPENBLAS_LIBRARIES]
looked_up = []
find = _openblas.setters
def counting():
    looked_up.append(1)
    return find()
_openblas.setters = counting
out, rcs = io.StringIO(), []
with contextlib.redirect_stdout(out):
    for _ in range(2):
        rcs.append(cli.run(["cost", "--scenario", sys.argv[3], "--protocol", "udp"]))
print(json.dumps({"before": before, "counts": counts(), "rcs": rcs,
                  "lookups": len(looked_up), "stdout": out.getvalue()}))
"""


@needs_openblas
def test_cli_runs_openblas_on_one_thread_once_per_process(pend_path):
    doc = _blas_child(_RUN_COST_TWICE, pend_path, "found")
    assert doc["counts"] == [1, 1]
    assert doc["rcs"] == [0, 0] and doc["lookups"] == 1


@needs_openblas
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"])
def test_openblas_thread_variables_win_over_the_policy(pend_path, variable):
    doc = _blas_child(_RUN_COST_TWICE, pend_path, "found", **{variable: "2"})
    assert doc["counts"] == doc["before"]
    assert doc["rcs"] == [0, 0] and doc["lookups"] == 0


@needs_openblas
def test_importing_nclab_leaves_the_blas_threads_alone():
    doc = _blas_child("""
for set_threads in setters:
    set_threads(2)
before = counts()
import nclab, nclab.cli
print(json.dumps({"before": before, "counts": counts()}))
""")
    assert doc["counts"] == doc["before"]


@needs_openblas
def test_one_thread_policy_holds_for_openblas_that_scipy_loads_later(pend_path):
    # the policy sets scipy's library up through ctypes before scipy.linalg
    # is imported; scipy then maps no second copy, so the count set then is
    # the one scipy's BLAS calls run with
    doc = _child("""
import contextlib, ctypes, io, json, os, sys
from nclab import cli
before = "scipy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.run(["cost", "--scenario", sys.argv[3], "--protocol", "udp"])
""" + _BLAS_COUNTS + """
with open("/proc/self/maps") as maps:
    scipy_library = os.path.realpath(sys.argv[2])
    copies = sum(" r-xp " in line and line.rstrip().endswith(scipy_library) for line in maps)
print(json.dumps({"before": before, "after": "scipy.linalg" in sys.modules, "rc": rc,
                  "copies": copies, "counts": counts()}))
""", *_OPENBLAS, pend_path)
    assert doc == {"before": False, "after": True, "rc": 0, "copies": 1, "counts": [1, 1]}


def test_importing_nclab_loads_no_scipy(tmp_path, monkeypatch, mixed_path, pend_path):
    # nor does --help, a usage error or a refusal before any computation,
    # nor a sweep along the shared-mean line, which has no fixed indices to
    # eliminate: a single-channel sweep and any sweep --scalar
    sweeps = [["sweep", "--scenario", pend_path, "--points", "99", "--out", "pendulum.csv"],
              ["sweep", "--scenario", mixed_path, "--scalar", "--out", "scalar.csv"]]
    capped = _scenario_file(tmp_path, mixed_path, lambda w: w.update(horizon=5000))
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    fresh.mkdir()
    here.mkdir()
    doc = _child("""
import contextlib, io, json, sys
import nclab, nclab.cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
for name in ("pendulum", "mixed"):
    nclab.load_scenario(nclab.fixture_path(name))
imported = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    rcs = [nclab.cli.run(["--help"]),
           nclab.cli.run(["sweep", "--scenario", sys.argv[1], "--points", "1", "--out", "x.csv"]),
           nclab.cli.run(["cost", "--scenario", sys.argv[2], "--protocol", "tcp"])]
    refused = scipy_modules()
    rcs += [nclab.cli.run(argv) for argv in json.loads(sys.argv[3])]
print(json.dumps({"imported": imported, "rcs": rcs, "refused": refused,
                  "swept": scipy_modules()}))
""", mixed_path, capped, json.dumps(sweeps), cwd=fresh)
    assert doc == {"imported": [], "rcs": [0, 2, 1, 0, 0], "refused": [], "swept": []}
    monkeypatch.chdir(here)
    for argv in sweeps:
        assert run(argv) == 0
        assert (fresh / argv[-1]).read_bytes() == (here / argv[-1]).read_bytes()


_FIRST_RUN = """
import contextlib, io, json, sys
from nclab import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = cli.run(sys.argv[1:])
print(json.dumps({"rc": rc, "stdout": out.getvalue(),
                  "special": "scipy.special" in sys.modules}))
"""
_COMMANDS = {
    "synthesize": ["--protocol", "udp"],
    "cost": ["--protocol", "tcp"],
    "gap": [],
    "eigs": ["--protocol", "tcp"],
    "sweep": ["--points", "3", "--out", "sweep.csv"],
    "maxdiff": ["--scalar"],
    "simulate": ["--protocol", "udp", "--seed", "3", "--out", "trajectory.csv"],
    "montecarlo": ["--protocol", "udp", "--replicates", "20"],
    "allocate": ["--protocol", "udp", *ALLOCATE, "--frontier-out", "frontier.csv"],
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_command_runs_as_the_first_thing_a_process_does(tmp_path, monkeypatch, capsys,
                                                             mixed_path, command):
    # scipy's submodules load inside the functions that call them, which
    # this test session has loaded long before; a fresh process is the
    # command line's case.  Only the simulator loads scipy.special
    argv = [command, "--scenario", mixed_path, *_COMMANDS[command]]
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    here.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(here)
    assert run(argv) == 0
    doc = _child(_FIRST_RUN, *argv, cwd=fresh)
    assert doc == {"rc": 0, "stdout": capsys.readouterr().out,
                   "special": command in ("simulate", "montecarlo")}
    files = sorted(p.name for p in here.iterdir())
    assert files == sorted(p.name for p in fresh.iterdir())
    for name in files:
        assert (fresh / name).read_bytes() == (here / name).read_bytes()


@needs_openblas
@pytest.mark.parametrize("lookup", ["no library", "no symbol"])
def test_missing_openblas_changes_no_output(capsys, pend_path, lookup):
    assert run(["cost", "--scenario", pend_path, "--protocol", "udp"]) == 0
    expected = capsys.readouterr().out
    doc = _blas_child(_RUN_COST_TWICE, pend_path, lookup)
    assert doc["rcs"] == [0, 0] and doc["lookups"] == 1
    assert doc["stdout"] == 2 * expected
    assert doc["counts"] == doc["before"]


_MAXDIFF_THREADS = """
import contextlib, io, threading
from nclab import _openblas, analysis, cli
_openblas._cpus = lambda: 2
seen = []
decide = analysis._decide_chunk
def recording(*args):
    seen.append(threading.get_ident())
    return decide(*args)
analysis._decide_chunk = recording
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = cli.run(["maxdiff", "--scenario", sys.argv[3]])
print(json.dumps({"rc": rc, "counts": counts(), "threads": len(set(seen)),
                  "stdout": out.getvalue()}))
"""


@needs_openblas
def test_maxdiff_polishes_on_one_thread_while_openblas_runs_two(pend_path):
    # the command line leaves OpenBLAS on one thread, so two CPUs polish on
    # two threads; with OPENBLAS_NUM_THREADS=2 the polish stays serial.
    # Same bytes either way
    parallel = _blas_child(_MAXDIFF_THREADS, pend_path)
    serial = _blas_child(_MAXDIFF_THREADS, pend_path, OPENBLAS_NUM_THREADS="2")
    assert parallel["rc"] == serial["rc"] == 0
    assert parallel["counts"][0] == 1 and parallel["threads"] == 2
    assert serial["counts"][0] == 2 and serial["threads"] == 1
    assert parallel["stdout"] == serial["stdout"]
