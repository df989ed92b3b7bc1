"""Command-line front end.

Single-value commands print JSON to stdout, or to the file ``--out`` names;
grid and trajectory commands write CSV files.  Exit codes: 0 success, 1
validation/domain error, 2 usage error.  All numbers are printed with 9
significant digits, so output is byte-identical across runs for identical
inputs and seeds.  The JSON comes out as ``json.dumps(indent=2)`` lays it
out, from this module's own writer (``_emit``): json's indent encoder runs
in pure Python, and printing took more time than computing on ``pendulum``.
Every document is flat: each field is a string, an integer, a boolean,
null, a float, or a float or complex array, and nothing nests deeper.
The writer rounds all of an array's floats by one ``%.9g`` and keeps each
text, which is what json prints for the rounded float once an integer gets
its ``.0``; only a text with an exponent is printed again by
``float.__repr__`` (``_numbers`` gives the reason).  A scalar float takes
the same route, and a complex number prints as ``{"re", "im"}``.
The environment variable NCLAB_SEED (a nonnegative integer) overrides the
scenario's simulation seed, and ``--seed`` overrides both.  ``sweep`` and
``allocate`` evaluate their grids line by line with one ``line_resolvents``
call per protocol, and ``--frontier-out`` prints the costs ``allocate`` found
without evaluating any; a sweep needs at least two points per channel, and
neither grid may exceed MAX_SWEEP_POINTS grid points in all.
Each command has its own parser: ``run`` hands the arguments after the
command name to it, so a usage error names that command (``usage: nclab
cost ...``); a missing or unknown command and the top-level ``--help`` go
to the top-level parser.
Every CSV cell is printed as ``%.9g``.
``--upsilon`` is offered only by the commands whose output it changes;
``montecarlo`` accepts ``--threads`` (at least 1), which has no effect.
``run`` puts OpenBLAS on one thread before any command runs, and
``maxdiff`` polishes its candidates on the CPUs that OpenBLAS leaves idle,
with no option; ``_openblas`` describes both rules.  Importing this module
loads no scipy module: each scipy submodule loads inside the first call
that needs it, after ``run`` has set the thread count of scipy's library,
and the count holds.
Each command reads its scenario through ``load_scenario`` and its
prediction operators through ``Scenario.operators``: a later command in
the same process on a file with unchanged text reuses the scenario and its
operators (one of the last two files loaded; ``scenario`` describes the
rule), so ``run`` repeated in one process skips the parse, the validation
and the operator build.  A fresh process gains nothing.  ``NCLAB_SEED``
keeps the scenario: it reaches ``simulate`` and ``montecarlo`` as their
seed.  ``--upsilon`` makes a new scenario, which builds its own operators.
A CSV column or JSON field that is not finite is named in an error (exit 1),
and nothing is printed or written; the JSON writer checks every field
before it formats any.  So is an output path that cannot be written
(``error: cannot write <path>: <reason>``), such as one in a missing
directory or a directory.  An empty ``--out`` or ``--frontier-out`` is a
usage error (exit 2), refused before the scenario loads.  When the reader
of stdout has gone (``nclab ... | head -1``), ``main`` exits 1 with nothing
on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import _openblas, allocation, analysis, simulator
from ._csv import write_text
from .controller import (Protocol, closed_loop_eigenvalues, expected_cost,
                         line_resolvents, synthesize)
from .scenario import MAX_REPLICATES, MAX_STEPS, Scenario, ScenarioError, load_scenario

__all__ = ["main", "run"]


# Largest number of grid points one sweep or allocation grid may evaluate.
# MAX_REPLICATES and MAX_STEPS (from scenario, which checks sim.replicates and
# sim.steps against them) bound --replicates and --steps likewise.
MAX_SWEEP_POINTS = 10 ** 6


class UsageError(Exception):
    pass


def _numbers(values: list) -> list[str]:
    """The JSON texts of the finite floats ``values``, each ``float.__repr__``
    of the float rounded to 9 significant digits (which is what json
    prints), all rounded by one ``%``.  A text in fixed notation is repr's
    once an integer gets its ``.0``: a decimal of at most 15 significant
    digits is the shortest text of the double it reads as, and both formats
    print exponents -4 to 8 in fixed notation.  Only a text with an exponent
    (below 1e-4, from 1e9 up, subnormal) is printed again by repr."""
    texts = ("%.9g," * len(values) % tuple(values)).split(",")[:-1]
    return [float.__repr__(float(t)) if "e" in t else t if "." in t else t + ".0"
            for t in texts]


def _block(open_: str, items: list[str], close: str, level: int) -> str:
    """``items`` between brackets, one per line, as ``json.dumps(indent=2)``
    lays out a container at nesting depth ``level``."""
    if not items:
        return open_ + close
    pad = "\n" + "  " * (level + 1)
    return open_ + pad + ("," + pad).join(items) + "\n" + "  " * level + close


def _complex(re: str, im: str, level: int) -> str:
    return _block("{", ['"re": ' + re, '"im": ' + im], "}", level)


def _nested(shape: tuple, level: int) -> str:
    """The nested JSON lists of an array of ``shape``, with ``%s`` for each item."""
    inner = "%s" if len(shape) == 1 else _nested(shape[1:], level + 1)
    return _block("[", [inner] * shape[0], "]", level)


def _array(a: np.ndarray, level: int) -> str:
    """The JSON text of the finite float or complex array ``a`` at nesting
    depth ``level``."""
    flat = a.ravel()
    if a.dtype.kind == "f":
        items = _numbers(flat.tolist())
    else:
        inner = level + a.ndim
        items = [_complex(re, im, inner) for re, im in
                 zip(_numbers(flat.real.tolist()), _numbers(flat.imag.tolist()))]
    return _nested(a.shape, level) % tuple(items)


def _emit(doc: dict, out: str | None) -> None:
    """Print the flat document ``doc`` as JSON, or write it to the file
    ``out``, in the layout of ``json.dumps(indent=2)``.  Each field is a float
    or complex array, a float (rounded to 9 significant digits), or a string,
    integer, boolean or None; a field that is not finite is refused by name
    before any field is formatted."""
    for name, value in doc.items():
        if (isinstance(value, float) and not math.isfinite(value)
                or isinstance(value, np.ndarray) and not np.isfinite(value).all()):
            raise ValueError(f"the result {name} is not finite; nothing was printed")
    fields = []
    for name, value in doc.items():
        if isinstance(value, np.ndarray):
            item = _array(value, 1)
        elif isinstance(value, float):
            item = _numbers([value])[0]
        else:
            item = json.dumps(value)
        fields.append(f"{json.dumps(name)}: {item}")
    text = _block("{", fields, "}", 0) + "\n"
    if out:
        write_text(out, [text])
    else:
        sys.stdout.write(text)


def _load(args) -> Scenario:
    """The scenario of ``--scenario``, with ``--upsilon`` applied.  Every
    command checks NCLAB_SEED; a seeded command given no ``--seed`` takes
    it as its seed, so the loaded scenario and its operators are reused."""
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
        if "seed" in args and args.seed is None:
            args.seed = seed
    if getattr(args, "upsilon", None) is not None:
        t = float(args.upsilon)
        if not 0.0 < t <= 1.0:
            raise UsageError("--upsilon must lie in (0,1]")
        scn = replace(scn, channel=replace(scn.channel, means=np.full(scn.m, t)))
    return scn


def _protocol(args) -> Protocol:
    return Protocol.parse(args.protocol)


def _check_grid(what: str, per_channel: int, channels: int) -> None:
    total = per_channel ** channels
    if total > MAX_SWEEP_POINTS:
        raise UsageError(f"{what} of {per_channel} points per channel over {channels} channels "
                         f"is {total} grid points; the limit is {MAX_SWEEP_POINTS}")


def _check_paths(args) -> None:
    """Refuse an empty ``--out`` or ``--frontier-out`` before any work."""
    for option in ("out", "frontier_out"):
        if getattr(args, option, None) == "":
            raise UsageError(f"--{option.replace('_', '-')} must name a file, got an empty path")


def cmd_synthesize(args) -> int:
    scn = _load(args)
    law = synthesize(scn.operators, _protocol(args))
    _emit({"protocol": law.protocol.value,
           "k_first": law.k_first,
           "k": law.k}, args.out)
    return 0


def cmd_cost(args) -> int:
    scn = _load(args)
    rep = expected_cost(scn.operators, _protocol(args), scn.eval_state)
    _emit({"protocol": args.protocol, "total": rep.total,
           "constant_term": rep.constant_term,
           "reduction_term": rep.reduction_term}, args.out)
    return 0


def cmd_gap(args) -> int:
    scn = _load(args)
    rep = analysis.cost_gap(scn.operators, scn.eval_state)
    _emit({"j_tcp": rep.j_tcp, "j_udp": rep.j_udp, "gap": rep.gap}, args.out)
    return 0


def cmd_eigs(args) -> int:
    scn = _load(args)
    law = synthesize(scn.operators, _protocol(args))
    eigs = closed_loop_eigenvalues(law, scn.plant)
    _emit({"protocol": args.protocol, "eigenvalues": eigs}, args.out)
    return 0


def cmd_sweep(args) -> int:
    if args.points < 2:
        raise UsageError("--points must be at least 2")
    if not (0.0 < args.start <= 1.0 and 0.0 < args.stop <= 1.0):
        raise UsageError("--start and --stop must lie in (0,1]")
    scn = _load(args)
    scalar = scn.m == 1 or args.scalar
    _check_grid("sweep", args.points, 1 if scalar else scn.m)
    ops = scn.operators
    pts = np.linspace(args.start, args.stop, args.points)
    if scalar:
        fixed, mus = None, np.repeat(pts[:, np.newaxis], scn.m, axis=1)
    else:
        fixed, mus = allocation.grid_points(pts, scn.m - 1), allocation.grid_points(pts, scn.m)
    jt, ju = (line_resolvents(ops, p, scn.eval_state, fixed).costs(pts).ravel()
              for p in (Protocol.TCP_LIKE, Protocol.UDP_LIKE))
    analysis.write_sweep_csv(args.out, mus, jt, ju)
    return 0


def cmd_maxdiff(args) -> int:
    scn = _load(args)
    if scn.m > 1 and not args.scalar:
        raise UsageError(
            "maxdiff analyzes a single shared channel; this scenario has "
            f"{scn.m} channels. Pass --scalar to treat them as one shared channel."
        )
    rep = analysis.maximal_gap(scn.operators, scn.eval_state)
    _emit({
        "maximizer": rep.maximizer,
        "gap_at_max": rep.gap_at_max,
        "method": rep.method,
        "analytic_best": rep.analytic_best,
        "num_candidates": len(rep.candidates),
        "valid_candidates": np.array([c.value for c in rep.candidates if c.valid], dtype=float),
    }, args.out)
    return 0


def _check_seed(args) -> None:
    if args.seed is not None and args.seed < 0:
        raise UsageError("--seed must be a nonnegative integer")


def cmd_simulate(args) -> int:
    if args.steps is not None:
        if args.mode == "open":
            raise UsageError("--steps applies to --mode receding; an open-loop run spans the horizon")
        if args.steps < 1:
            raise UsageError("--steps must be at least 1")
        if args.steps > MAX_STEPS:
            raise UsageError(f"--steps must be at most {MAX_STEPS}")
    _check_seed(args)
    scn = _load(args)
    seed = scn.sim.seed if args.seed is None else args.seed
    if args.mode == "open":
        rec = simulator.open_loop_rollout(scn, _protocol(args), seed)
    else:
        steps = args.steps if args.steps is not None else (scn.sim.steps or scn.horizon)
        rec = simulator.receding_horizon_sim(scn, _protocol(args), steps, seed)
    if not np.isfinite(rec.realized_cost):
        raise ValueError("the realized cost is not finite; no CSV was written")
    simulator.write_trajectory_csv(args.out, rec)
    print(f'{{"realized_cost": {_numbers([rec.realized_cost])[0]}, "seed": {rec.seed}, '
          f'"steps": {rec.inputs.shape[0]}, "out": {json.dumps(args.out)}}}')
    return 0


def cmd_montecarlo(args) -> int:
    if args.replicates is not None and not 2 <= args.replicates <= MAX_REPLICATES:
        raise UsageError(f"--replicates must lie in [2, {MAX_REPLICATES}]")
    if args.threads is not None and args.threads < 1:
        raise UsageError("--threads must be at least 1")
    _check_seed(args)
    scn = _load(args)
    seed = scn.sim.seed if args.seed is None else args.seed
    replicates = scn.sim.replicates if args.replicates is None else args.replicates
    stats = simulator.monte_carlo_cost(scn, _protocol(args), replicates, seed)
    _emit({"protocol": args.protocol, "mean_cost": stats.mean_cost,
           "stderr": stats.stderr, "replicates": stats.replicates,
           "per_replicate_seeds": stats.per_replicate_seeds}, args.out)
    return 0


def cmd_allocate(args) -> int:
    if not np.isfinite(args.alpha):
        raise UsageError("--alpha must be a finite number")
    if not 0.0 < args.resolution <= 0.5:
        raise UsageError("--resolution must lie in (0, 0.5]")
    beta = None
    if args.beta is not None:
        try:
            beta = np.array([float(v) for v in args.beta.split(",")])
        except ValueError:
            raise UsageError(f"--beta must be comma-separated numbers, got {args.beta!r}") from None
        if not np.all(np.isfinite(beta) & (beta >= 0.0)):
            raise UsageError("--beta entries must be finite and nonnegative")
    scn = _load(args)
    _check_grid("allocation grid", allocation.grid_size(args.resolution), scn.m)
    if beta is None:
        beta = np.ones(scn.m) if scn.channel.beta is None else scn.channel.beta
    elif beta.shape != (scn.m,):
        raise UsageError(f"--beta gives {beta.size} prices; the scenario has {scn.m} channels")
    ops = scn.operators
    rep = allocation.optimize_allocation(ops, _protocol(args), args.alpha, beta,
                                         scn.eval_state, resolution=args.resolution)
    if args.frontier_out:
        allocation.write_frontier_csv(args.frontier_out, ops, rep)
    _emit({"m_star": rep.m_star, "m_grid": rep.m_grid, "comm_cost": rep.comm_cost,
           "alpha": rep.alpha, "protocol": rep.protocol.value,
           "grid_resolution": rep.grid_resolution,
           "frontier_size": len(rep.frontier)}, args.out)
    return 0


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser by name, built
    once per process: ``parse_args`` makes a fresh namespace on every call,
    so nothing carries over between runs."""
    p = argparse.ArgumentParser(prog="nclab",
                                description="LQG/MPC synthesis and analysis over lossy actuation channels")
    sub = p.add_subparsers(dest="command", required=True)
    commands = {}

    def add(name, fn, protocol=True, upsilon=True, out_csv=False):
        sp = commands[name] = sub.add_parser(name)
        sp.add_argument("--scenario", required=True, help="scenario JSON file")
        if protocol:
            sp.add_argument("--protocol", required=True, choices=["tcp", "udp"])
        if upsilon:
            sp.add_argument("--upsilon", type=float, default=None,
                            help="override all channel means with a shared value")
        if out_csv:
            sp.add_argument("--out", required=True, help="output CSV path")
        else:
            sp.add_argument("--out", default=None, help="write JSON here instead of stdout")
        sp.set_defaults(fn=fn)
        return sp

    add("synthesize", cmd_synthesize)
    add("cost", cmd_cost)
    add("gap", cmd_gap, protocol=False)
    add("eigs", cmd_eigs)

    sp = add("sweep", cmd_sweep, protocol=False, upsilon=False, out_csv=True)
    sp.add_argument("--points", type=int, default=99, help="grid points per channel")
    sp.add_argument("--start", type=float, default=0.01)
    sp.add_argument("--stop", type=float, default=0.99)
    sp.add_argument("--scalar", action="store_true",
                    help="sweep one shared mean even for multichannel scenarios")

    sp = add("maxdiff", cmd_maxdiff, protocol=False, upsilon=False)
    sp.add_argument("--scalar", action="store_true",
                    help="treat all channels as one shared channel")

    sp = add("simulate", cmd_simulate, out_csv=True)
    sp.add_argument("--mode", choices=["open", "receding"], default="open")
    sp.add_argument("--steps", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)

    sp = add("montecarlo", cmd_montecarlo)
    sp.add_argument("--replicates", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=int, default=None, help="has no effect")

    sp = add("allocate", cmd_allocate, upsilon=False)
    sp.add_argument("--alpha", type=float, required=True, help="control-cost budget")
    sp.add_argument("--beta", default=None, help="comma-separated channel prices")
    sp.add_argument("--resolution", type=float, default=0.01)
    sp.add_argument("--frontier-out", default=None, help="write the full grid CSV here")
    return p, commands


def run(argv=None) -> int:
    _openblas.one_thread()
    top, commands = _parser()
    argv = sys.argv[1:] if argv is None else argv
    # a command's arguments go straight to its own parser; only a missing or
    # unknown command, or the top-level --help, reaches the top-level one
    command = commands.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else top.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _check_paths(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ScenarioError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError:
        # the reader of stdout has gone: point stdout at devnull, so that the
        # flush at exit fails no more, and exit 1 without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)
