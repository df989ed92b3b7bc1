import json

import numpy as np
import pytest

from nclab import Protocol, expected_cost, fixture_path, load_scenario
from nclab.cli import run

from conftest import ops_of


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


def test_nclab_seed_env_override(capsys, monkeypatch, mixed_path):
    monkeypatch.setenv("NCLAB_SEED", "777")
    rc = run(["simulate", "--scenario", mixed_path, "--protocol", "tcp",
              "--out", "/tmp/nclab_env_test.csv"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary["seed"] == 777


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

    monkeypatch.setattr(cli, "expected_costs", no_eval)
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


def test_missing_q_weight_is_a_scenario_error(tmp_path, capsys, mixed_path):
    path = _scenario_file(tmp_path, mixed_path, lambda w: w.pop("q"))
    assert run(["cost", "--scenario", path, "--protocol", "tcp"]) == 1
    assert "weights is missing q" in capsys.readouterr().err


def test_fractional_horizon_is_rejected(tmp_path, capsys, mixed_path):
    path = _scenario_file(tmp_path, mixed_path, lambda w: w.update(horizon=2.7))
    assert run(["cost", "--scenario", path, "--protocol", "tcp"]) == 1
    assert "horizon" in capsys.readouterr().err
