"""Seeded inputs and the fixed command mix of each workload.

Every command is an argv list for ``nclab.cli.run``.  Scenario paths and
output paths are written as placeholders (``{pendulum}``, ``{mixed}``,
``{out:<name>}``) so that a command has one canonical key for the reference
outputs; ``resolve`` turns a command into a runnable argv.

Why each workload exists:

* ``pendulum-analysis`` - the pendulum fixture (n=4, m=1, N=80): every
  command rebuilds 80x80-block operators and ``maxdiff`` spends most of its
  time in the determinant-root candidates, so ``prediction`` and
  ``analysis`` do the work and ``simulator`` does none.
* ``mixed-grid`` - the mixed fixture (n=2, m=2, N=10): a 2-D sweep and two
  allocations make ~3x10^4 small ``expected_cost`` calls per pass while
  operator builds take ~1 ms, so per-point solve cost and grid search
  dominate.
* ``montecarlo`` - both fixtures x both protocols through ``simulate``
  (open and receding) and ``montecarlo`` with and without ``--threads 2``,
  so ``simulator`` dominates.

A workload whose mix lacks a command kind gets the small ``coverage``
commands for that kind, on the mixed fixture, so that every end-to-end
metric exists on every workload.  They are repeated so that each is sampled
a few times per pass, because a handful of samples of a command that takes
milliseconds is too few for a steady median on a shared machine.

numpy is imported inside the functions that need it, so that importing this
module does not move numpy's import out of the timed set-up.
"""

from __future__ import annotations

QUERY = ("synthesize", "cost", "gap", "eigs")
KINDS = ("query", "maxdiff", "sweep", "allocate", "simulate", "montecarlo")
MC_REPLICATES = 5000
COVERAGE_REPLICATES = 1000
ALLOCATE = ["--alpha", "119", "--beta", "0.05,1"]


def kind(argv: list[str]) -> str:
    return "query" if argv[0] in QUERY else argv[0]


def sim_seeds(seed: int) -> dict[str, int]:
    """Seeds handed to ``simulate``/``montecarlo``, derived from the
    workload seed."""
    import numpy as np
    rng = np.random.default_rng([seed, 2])
    return dict(zip(("open", "receding", "mc"),
                    (int(v) for v in rng.integers(1, 2**31 - 1, size=3))))


def _queries(fixture: str) -> list[list[str]]:
    cmds = [[c, "--scenario", fixture, "--protocol", p]
            for p in ("tcp", "udp") for c in ("synthesize", "cost", "eigs")]
    return cmds + [["gap", "--scenario", fixture]]


def _coverage(seeds: dict[str, int], kinds: set[str]) -> list[list[str]]:
    mc = ["montecarlo", "--scenario", "{mixed}", "--protocol", "udp",
          "--replicates", str(COVERAGE_REPLICATES), "--seed", str(seeds["mc"])]
    by_kind = {
        "maxdiff": [["maxdiff", "--scenario", "{mixed}", "--scalar"]],
        "sweep": [["sweep", "--scenario", "{mixed}", "--scalar", "--points", "99",
                   "--out", "{out:cov-sweep.csv}"]],
        "allocate": [["allocate", "--scenario", "{mixed}", "--protocol", "udp",
                      *ALLOCATE, "--resolution", "0.05",
                      "--frontier-out", "{out:cov-frontier.csv}"]],
        "simulate": 2 * [["simulate", "--scenario", "{mixed}", "--protocol", "udp",
                          "--seed", str(seeds["open"]), "--out", "{out:cov-open.csv}"],
                         ["simulate", "--scenario", "{mixed}", "--protocol", "udp",
                          "--mode", "receding", "--steps", "200",
                          "--seed", str(seeds["receding"]), "--out", "{out:cov-receding.csv}"]],
        "montecarlo": [mc, mc + ["--threads", "2"]],
    }
    return [c for k in KINDS if k in kinds for c in by_kind[k]]


def _spread(*groups: list[list[str]]) -> list[list[str]]:
    """Merge the groups so that each one's commands are evenly spaced over
    the pass.  Machine speed drifts over seconds, so a kind sampled at one
    moment of every pass would see the drift rather than the program."""
    placed = [((i + 0.5) / len(g), j, c) for j, g in enumerate(groups) for i, c in enumerate(g)]
    return [c for _, _, c in sorted(placed, key=lambda p: p[:2])]


def mix(workload: str, seed: int) -> list[list[str]]:
    """One pass of the workload's fixed command mix."""
    seeds = sim_seeds(seed)
    if workload == "pendulum-analysis":
        heavy = [["maxdiff", "--scenario", "{pendulum}"],
                 ["sweep", "--scenario", "{pendulum}", "--points", "99",
                  "--out", "{out:sweep.csv}"]]
        groups, repeat = [heavy, _queries("{pendulum}")], 2
    elif workload == "mixed-grid":
        heavy = [["sweep", "--scenario", "{mixed}", "--points", "99", "--out", "{out:sweep.csv}"],
                 ["allocate", "--scenario", "{mixed}", "--protocol", "udp", *ALLOCATE,
                  "--frontier-out", "{out:frontier.csv}"],
                 ["allocate", "--scenario", "{mixed}", "--protocol", "tcp", *ALLOCATE]]
        groups = [heavy, 5 * _queries("{mixed}"),
                  4 * [["maxdiff", "--scenario", "{mixed}", "--scalar"]]]
        repeat = 4
    elif workload == "montecarlo":
        heavy, sims = [], []
        for fixture in ("{pendulum}", "{mixed}"):
            for p in ("tcp", "udp"):
                mc = ["montecarlo", "--scenario", fixture, "--protocol", p,
                      "--replicates", str(MC_REPLICATES), "--seed", str(seeds["mc"])]
                heavy += [mc, mc + ["--threads", "2"]]
                sims += [
                    ["simulate", "--scenario", fixture, "--protocol", p,
                     "--seed", str(seeds["open"]), "--out", "{out:open.csv}"],
                    ["simulate", "--scenario", fixture, "--protocol", p,
                     "--mode", "receding", "--steps", "200",
                     "--seed", str(seeds["receding"]), "--out", "{out:receding.csv}"]]
        # simulate is short, so it is repeated as often as the queries; the
        # udp Monte Carlo means are checked against the closed-form costs
        costs = [["cost", "--scenario", "{pendulum}", "--protocol", "udp"],
                 ["cost", "--scenario", "{mixed}", "--protocol", "udp"],
                 ["cost", "--scenario", "{mixed}", "--protocol", "udp"]]
        groups = [heavy, 4 * sims, 4 * costs]
        repeat = 4
    else:
        raise ValueError(f"unknown workload {workload!r}")
    missing = set(KINDS) - {kind(c) for g in groups for c in g}
    return _spread(*groups, repeat * _coverage(seeds, missing))


def key(argv: list[str]) -> str:
    """Canonical command text, the key of the reference outputs."""
    return " ".join(argv)


def resolve(argv: list[str], files: dict[str, str], out_dir) -> tuple[list[str], dict[str, str]]:
    """Runnable argv and the output files it writes ({name: path})."""
    outs, real = {}, []
    for a in argv:
        if a.startswith("{out:"):
            name = a[5:-1]
            outs[name] = str(out_dir / name)
            a = outs[name]
        elif a in files:
            a = files[a]
        real.append(a)
    return real, outs
