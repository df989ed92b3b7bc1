"""Command-line front end.

Single-value commands print JSON to stdout; grid and trajectory commands
write CSV files.  Exit codes: 0 success, 1 validation/domain error, 2 usage
error.  All numbers are printed with 9 significant digits, so output is
byte-identical across runs for identical inputs and seeds.  The environment
variable NCLAB_SEED (a nonnegative integer) overrides the scenario's
simulation seed.  ``sweep`` and ``allocate`` evaluate their grids with one
batched cost call per protocol; a sweep needs at least two points per channel
and at most MAX_SWEEP_POINTS grid points in all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import allocation, analysis, simulator
from .controller import (Protocol, closed_loop_eigenvalues, expected_cost,
                         expected_costs, synthesize)
from .prediction import build_prediction_operators
from .scenario import (ChannelModel, Scenario, ScenarioError, SimOptions,
                       load_scenario)

__all__ = ["main", "run"]


# Largest number of grid points one sweep may evaluate.
MAX_SWEEP_POINTS = 10 ** 6


class UsageError(Exception):
    pass


def _fmt(x) -> object:
    """Round floats to 9 significant digits for stable text output."""
    if isinstance(x, float):
        return float(f"{x:.9g}")
    if isinstance(x, complex):
        return {"re": float(f"{x.real:.9g}"), "im": float(f"{x.imag:.9g}")}
    if isinstance(x, np.ndarray):
        return [_fmt(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_fmt(v) for v in x]
    if isinstance(x, dict):
        return {k: _fmt(v) for k, v in x.items()}
    return x


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(_fmt(doc), indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load(args) -> Scenario:
    scn = load_scenario(args.scenario)
    seed_env = os.environ.get("NCLAB_SEED")
    if seed_env is not None:
        bad = UsageError(f"NCLAB_SEED must be a nonnegative integer, got {seed_env!r}")
        try:
            seed = int(seed_env)
        except ValueError:
            raise bad from None
        if seed < 0:
            raise bad
        sim = SimOptions(steps=scn.sim.steps, replicates=scn.sim.replicates, seed=seed)
        scn = Scenario(plant=scn.plant, channel=scn.channel, weights=scn.weights,
                       eval_state=scn.eval_state, sim=sim)
    if getattr(args, "upsilon", None) is not None:
        t = float(args.upsilon)
        if not 0.0 < t <= 1.0:
            raise UsageError("--upsilon must lie in (0,1]")
        channel = ChannelModel(means=np.full(scn.m, t), beta=scn.channel.beta)
        scn = Scenario(plant=scn.plant, channel=channel, weights=scn.weights,
                       eval_state=scn.eval_state, sim=scn.sim)
    return scn


def _protocol(args) -> Protocol:
    return Protocol.parse(args.protocol)


def cmd_synthesize(args) -> int:
    scn = _load(args)
    ops = build_prediction_operators(scn.plant, scn.weights, scn.channel)
    law = synthesize(ops, _protocol(args))
    _emit({"protocol": law.protocol.value,
           "k_first": law.k_first,
           "k": law.k}, args.out)
    return 0


def cmd_cost(args) -> int:
    scn = _load(args)
    ops = build_prediction_operators(scn.plant, scn.weights, scn.channel)
    rep = expected_cost(ops, _protocol(args), scn.eval_state)
    _emit({"protocol": args.protocol, "total": rep.total,
           "constant_term": rep.constant_term,
           "reduction_term": rep.reduction_term}, args.out)
    return 0


def cmd_gap(args) -> int:
    scn = _load(args)
    ops = build_prediction_operators(scn.plant, scn.weights, scn.channel)
    rep = analysis.cost_gap(ops, scn.eval_state)
    _emit({"j_tcp": rep.j_tcp, "j_udp": rep.j_udp, "gap": rep.gap}, args.out)
    return 0


def cmd_eigs(args) -> int:
    scn = _load(args)
    ops = build_prediction_operators(scn.plant, scn.weights, scn.channel)
    law = synthesize(ops, _protocol(args))
    eigs = closed_loop_eigenvalues(law, scn.plant)
    _emit({"protocol": args.protocol, "eigenvalues": list(eigs)}, args.out)
    return 0


def cmd_sweep(args) -> int:
    scn = _load(args)
    scalar = scn.m == 1 or args.scalar
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    total = args.points if scalar else args.points ** scn.m
    if total > MAX_SWEEP_POINTS:
        raise UsageError(f"sweep of {args.points} points per channel over {scn.m} channels "
                         f"is {total} grid points; the limit is {MAX_SWEEP_POINTS}")
    ops = build_prediction_operators(scn.plant, scn.weights, scn.channel)
    pts = np.linspace(args.start, args.stop, args.points)
    if np.any(pts <= 0.0) or np.any(pts > 1.0):
        raise UsageError("sweep range must lie in (0,1]")
    if scalar:
        mus = np.repeat(pts[:, np.newaxis], scn.m, axis=1)
    else:
        mus = allocation.grid_points(pts, scn.m)
    jt = expected_costs(ops, Protocol.TCP_LIKE, scn.eval_state, mus)
    ju = expected_costs(ops, Protocol.UDP_LIKE, scn.eval_state, mus)
    analysis.write_sweep_csv(args.out, mus, jt, ju)
    return 0


def cmd_maxdiff(args) -> int:
    scn = _load(args)
    if scn.m > 1 and not args.scalar:
        raise UsageError(
            "maxdiff analyzes a single shared channel; this scenario has "
            f"{scn.m} channels. Pass --scalar to treat them as one shared channel."
        )
    ops = build_prediction_operators(scn.plant, scn.weights, scn.channel)
    rep = analysis.maximal_gap(ops, scn.eval_state)
    _emit({
        "maximizer": rep.maximizer,
        "gap_at_max": rep.gap_at_max,
        "method": rep.method,
        "analytic_best": rep.analytic_best,
        "num_candidates": len(rep.candidates),
        "valid_candidates": [c.value.real for c in rep.candidates if c.valid],
    }, args.out)
    return 0


def cmd_simulate(args) -> int:
    scn = _load(args)
    seed = scn.sim.seed if args.seed is None else args.seed
    steps = args.steps or (scn.sim.steps or scn.horizon)
    if args.mode == "open":
        rec = simulator.open_loop_rollout(scn, _protocol(args), seed)
    else:
        rec = simulator.receding_horizon_sim(scn, _protocol(args), steps, seed)
    simulator.write_trajectory_csv(args.out, rec, scn)
    print(json.dumps(_fmt({"realized_cost": rec.realized_cost, "seed": rec.seed,
                           "steps": int(rec.inputs.shape[0]), "out": args.out})))
    return 0


def cmd_montecarlo(args) -> int:
    scn = _load(args)
    seed = scn.sim.seed if args.seed is None else args.seed
    replicates = args.replicates or scn.sim.replicates
    stats = simulator.monte_carlo_cost(scn, _protocol(args), replicates, seed,
                                       threads=args.threads)
    _emit({"protocol": args.protocol, "mean_cost": stats.mean_cost,
           "stderr": stats.stderr, "replicates": stats.replicates,
           "per_replicate_seeds": stats.per_replicate_seeds}, args.out)
    return 0


def cmd_allocate(args) -> int:
    scn = _load(args)
    ops = build_prediction_operators(scn.plant, scn.weights, scn.channel)
    if args.beta is not None:
        beta = np.array([float(v) for v in args.beta.split(",")])
    elif scn.channel.beta is not None:
        beta = scn.channel.beta
    else:
        beta = np.ones(scn.m)
    rep = allocation.optimize_allocation(ops, _protocol(args), args.alpha, beta,
                                         scn.eval_state, resolution=args.resolution)
    if args.frontier_out:
        allocation.write_frontier_csv(args.frontier_out, ops, _protocol(args),
                                      args.alpha, beta, scn.eval_state,
                                      resolution=args.resolution)
    _emit({"m_star": rep.m_star, "m_grid": rep.m_grid, "comm_cost": rep.comm_cost,
           "alpha": rep.alpha, "protocol": rep.protocol.value,
           "grid_resolution": rep.grid_resolution,
           "frontier_size": len(rep.frontier)}, args.out)
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nclab",
                                description="LQG/MPC synthesis and analysis over lossy actuation channels")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, protocol=True, upsilon=True, out_default=None, out_csv=False):
        sp = sub.add_parser(name)
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        if protocol:
            sp.add_argument("--protocol", required=True, choices=["tcp", "udp"])
        if upsilon:
            sp.add_argument("--upsilon", type=float, default=None,
                            help="override all channel means with a shared value")
        if out_csv:
            sp.add_argument("--out", required=out_default is None,
                            default=out_default, help="output CSV path")
        else:
            sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
        sp.add_argument("--threads", type=int, default=None,
                        help="cap on worker threads")
        sp.set_defaults(fn=fn)
        return sp

    add("synthesize", cmd_synthesize)
    add("cost", cmd_cost)
    add("gap", cmd_gap, protocol=False)
    add("eigs", cmd_eigs)

    sp = add("sweep", cmd_sweep, protocol=False, out_csv=True)
    sp.add_argument("--points", type=int, default=99, help="grid points per channel")
    sp.add_argument("--start", type=float, default=0.01)
    sp.add_argument("--stop", type=float, default=0.99)
    sp.add_argument("--scalar", action="store_true",
                    help="sweep one shared mean even for multichannel scenarios")

    sp = add("maxdiff", cmd_maxdiff, protocol=False)
    sp.add_argument("--scalar", action="store_true",
                    help="treat all channels as one shared channel")

    sp = add("simulate", cmd_simulate, out_csv=True)
    sp.add_argument("--mode", choices=["open", "receding"], default="open")
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)

    sp = add("montecarlo", cmd_montecarlo)
    sp.add_argument("--replicates", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)

    sp = add("allocate", cmd_allocate)
    sp.add_argument("--alpha", type=float, required=True, help="control-cost budget")
    sp.add_argument("--beta", default=None, help="comma-separated channel prices")
    sp.add_argument("--resolution", type=float, default=0.01)
    sp.add_argument("--frontier-out", default=None, help="write the full grid CSV here")
    return p


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
