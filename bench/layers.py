"""Per-layer metrics and the ROADMAP baseline table, from a traced run.

Times named ``*_ms``/``*_us``/``*_s`` without ``self`` are inclusive means
per call.  Counts are per pass of the workload's mix.  ``*.self_s`` is the
layer's self time per pass (span durations minus their children), and
``*.share`` is that self time over the traced wall time.  Spans on worker
threads count calls but not self time (see ``spans``).
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from spans import HARNESS, LAYERS, layer_self_times, self_times


PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_ms": "ms", "scenario.load_ms": "ms", "scenario.loads": "count",
    "prediction.build_ms": "ms", "prediction.builds": "count", "prediction.share": "ratio",
    "prediction.operator_mb": "MB",
    "controller.expected_cost_us": "us", "controller.expected_cost_calls": "count",
    "controller.synthesize_ms": "ms", "controller.gram_dim": "count",
    "controller.cholesky_gflop": "GFLOP", "controller.share": "ratio",
    "analysis.maximal_gap_s": "s", "analysis.root_candidates_s": "s",
    "analysis.candidates_total": "count", "analysis.candidates_polished": "count",
    "analysis.candidates_passing": "count", "analysis.candidate_yield": "ratio",
    "analysis.scalar_gap_calls": "count", "analysis.grid_fallbacks": "count",
    "allocation.optimize_s": "s", "allocation.frontier_csv_s": "s",
    "allocation.cost_evals": "count", "allocation.bisection_evals": "count",
    "allocation.frontier_yield": "ratio",
    "simulator.mc_s": "s", "simulator.us_per_replicate": "us",
    "simulator.seed_us_per_replicate": "us", "simulator.seed_share": "ratio",
    "simulator.rollout_ms": "ms", "simulator.receding_ms": "ms",
    "simulator.threads2_speedup": "ratio",
    "trace.overhead_share": "ratio",
}


def _shape(obj) -> tuple[int, int, int]:
    return (obj.n, obj.m, obj.horizon)


def _operator_bytes(ops) -> int:
    return sum(v.nbytes for v in vars(ops).values() if isinstance(v, np.ndarray))


def _candidates(cands) -> tuple[int, int, int]:
    polished = sum(1 for c in cands if c.real and 0.0 < c.value.real < 1.0)
    passing = sum(1 for c in cands if c.valid and c.eigcond)
    return len(cands), polished, passing


def _mc(args, kwargs, result):
    replicates = args[2] if len(args) > 2 else kwargs["replicates"]
    return (_shape(args[0]), int(replicates), kwargs.get("threads") or 1)


def _allocation(args, kwargs, result):
    k = round(1.0 / result.grid_resolution)
    return (_shape(args[0]), len(result.frontier), k ** len(result.m_star))


INSPECTORS = {
    "prediction.build_prediction_operators":
        lambda a, k, r: (_shape(r), _operator_bytes(r)),
    "controller.expected_cost": lambda a, k, r: (_shape(a[0]),),
    "controller.synthesize": lambda a, k, r: (_shape(a[0]),),
    "analysis.maximal_gap": lambda a, k, r: (_shape(a[0]), r.method),
    "analysis.determinant_root_candidates":
        lambda a, k, r: (_shape(a[0]),) + _candidates(r),
    "allocation.optimize_allocation": _allocation,
    "allocation.write_frontier_csv": lambda a, k, r: (_shape(a[1]),),
    "simulator.monte_carlo_cost": _mc,
    "simulator.open_loop_rollout": lambda a, k, r: (_shape(a[0]),),
    "simulator.receding_horizon_sim": lambda a, k, r: (_shape(a[0]),),
}

# ROADMAP baseline rows: (label, span name, scale to unit, unit,
# {shape: table value in that unit}).  Shapes are (n, m, N).
MIXED, PENDULUM = (2, 2, 10), (4, 1, 80)
BASELINE = [
    ("build_prediction_operators", "prediction.build_prediction_operators", 1e3, "ms",
     {MIXED: 1.2, PENDULUM: 67.0}),
    ("expected_cost, one point", "controller.expected_cost", 1e6, "us",
     {MIXED: 87.0, PENDULUM: 326.0}),
    ("maximal_gap", "analysis.maximal_gap", 1.0, "s", {MIXED: 0.052, PENDULUM: 0.95}),
]


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _mean_duration(spans: list) -> float:
    return _mean([s[3] - s[2] for s in spans])


class TraceSummary:
    """Indexes the spans of one traced run."""

    def __init__(self, main: list, workers: list, passes: int, commands: int):
        self.main, self.workers = main, workers
        self.passes, self.commands = passes, commands
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(main):
            self.by_name[s[0]].append(i)
        self.wall = sum(s[3] - s[2] for s in main if s[4] < 0)
        self.layer_self = layer_self_times(main)

    def spans(self, name: str) -> list:
        """Spans of ``name``; inspected calls that raised are left out."""
        spans = [self.main[i] for i in self.by_name.get(name, [])]
        return [s for s in spans if s[5] is not None] if name in INSPECTORS else spans

    def durations(self, name: str) -> list[float]:
        return [s[3] - s[2] for s in self.spans(name)]

    def main_shape(self, name: str) -> list:
        """Spans of ``name`` on the largest scenario it ran on (by N*m, then
        n), which is the workload's own rather than a coverage command's."""
        spans = self.spans(name)
        shape = max((s[5][0] for s in spans), key=lambda x: (x[1] * x[2], x[0]), default=None)
        return [s for s in spans if s[5][0] == shape]

    def per_pass(self, count: float) -> float:
        return count / self.passes

    def children(self, parent_name: str, child_name: str) -> list:
        parents = set(self.by_name.get(parent_name, []))
        return [self.main[i] for i in self.by_name.get(child_name, [])
                if self.main[i][4] in parents]

    def under(self, ancestor_name: str, name: str) -> list:
        """Spans named ``name`` with an ancestor named ``ancestor_name``."""
        out = []
        for i in self.by_name.get(name, []):
            p = self.main[i][4]
            while p >= 0 and self.main[p][0] != ancestor_name:
                p = self.main[p][4]
            if p >= 0:
                out.append(self.main[i])
        return out

    def check_nesting(self) -> list[str]:
        """Self times are >= 0 and sum to the root spans' duration."""
        problems = []
        st = self_times(self.main)
        worst = min(st, default=0.0)
        if worst < -1e-9:
            problems.append(f"negative self time {worst:.3g} s")
        total = sum(st)
        if abs(total - self.wall) > 1e-9 * max(1.0, len(st)):
            problems.append(f"self times sum to {total:.9f} s, root spans to {self.wall:.9f} s")
        return problems


def metrics(t: TraceSummary, untraced: dict) -> dict[str, float]:
    """Per-layer metrics.  ``untraced`` holds the untraced passes' wall time
    and the unthreaded/threaded Monte Carlo latencies.  Per-call means are
    taken over the largest scenario a function ran on, so the small coverage
    commands do not dilute the workload's own."""
    out: dict[str, float] = {}
    ls = t.layer_self
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.per_pass(ls.get(layer, 0.0))
    out["cli.self_ms"] = 1e3 * ls.get("cli", 0.0) / t.commands
    out["scenario.load_ms"] = 1e3 * _mean(t.durations("scenario.load_scenario"))
    out["scenario.loads"] = t.per_pass(len(t.spans("scenario.load_scenario")))

    builds = t.spans("prediction.build_prediction_operators")
    out["prediction.build_ms"] = 1e3 * _mean_duration(t.main_shape(
        "prediction.build_prediction_operators"))
    out["prediction.builds"] = t.per_pass(len(builds))
    out["prediction.share"] = ls.get("prediction", 0.0) / t.wall
    out["prediction.operator_mb"] = max((s[5][1] for s in builds), default=0) / 1e6

    solves = t.spans("controller.expected_cost") + t.spans("controller.synthesize")
    dims = [s[5][0][1] * s[5][0][2] for s in solves]
    out["controller.expected_cost_us"] = 1e6 * _mean_duration(t.main_shape("controller.expected_cost"))
    out["controller.expected_cost_calls"] = t.per_pass(len(t.spans("controller.expected_cost")))
    out["controller.synthesize_ms"] = 1e3 * _mean_duration(t.main_shape("controller.synthesize"))
    out["controller.gram_dim"] = max(dims, default=0)
    out["controller.cholesky_gflop"] = t.per_pass(sum(d ** 3 / 3.0 for d in dims)) / 1e9
    out["controller.share"] = ls.get("controller", 0.0) / t.wall

    cands = t.spans("analysis.determinant_root_candidates")
    total, polished, passing = (sum(s[5][j] for s in cands) for j in (1, 2, 3))
    out["analysis.maximal_gap_s"] = _mean_duration(t.main_shape("analysis.maximal_gap"))
    out["analysis.root_candidates_s"] = _mean_duration(
        t.main_shape("analysis.determinant_root_candidates"))
    out["analysis.candidates_total"] = t.per_pass(total)
    out["analysis.candidates_polished"] = t.per_pass(polished)
    out["analysis.candidates_passing"] = t.per_pass(passing)
    out["analysis.candidate_yield"] = passing / polished if polished else 0.0
    out["analysis.scalar_gap_calls"] = t.per_pass(len(t.spans("analysis.scalar_cost_gap")))
    out["analysis.grid_fallbacks"] = t.per_pass(
        sum(1 for s in t.spans("analysis.maximal_gap") if s[5][1] == "grid_fallback"))

    allocs = t.spans("allocation.optimize_allocation")
    grid = sum(s[5][2] for s in allocs)
    out["allocation.optimize_s"] = _mean_duration(t.main_shape("allocation.optimize_allocation"))
    out["allocation.frontier_csv_s"] = _mean_duration(t.main_shape("allocation.write_frontier_csv"))
    out["allocation.cost_evals"] = t.per_pass(
        len(t.under("allocation.optimize_allocation", "controller.expected_cost")))
    out["allocation.bisection_evals"] = t.per_pass(
        len(t.children("allocation.optimize_allocation", "allocation.is_feasible")) - len(allocs))
    out["allocation.frontier_yield"] = sum(s[5][1] for s in allocs) / grid if grid else 0.0

    mcs = t.main_shape("simulator.monte_carlo_cost")
    replicates = sum(s[5][1] for s in mcs)
    seeds = ([s[3] - s[2] for s in t.workers if s[0] == "simulator.replicate_seed"]
             + t.durations("simulator.replicate_seed"))
    serial_mc = sum(s[3] - s[2] for s in t.spans("simulator.monte_carlo_cost") if s[5][2] == 1)
    serial_seed = sum(s[3] - s[2] for s in t.under("simulator.monte_carlo_cost",
                                                  "simulator.replicate_seed"))
    out["simulator.mc_s"] = _mean_duration(mcs)
    out["simulator.us_per_replicate"] = 1e6 * sum(s[3] - s[2] for s in mcs) / replicates
    out["simulator.seed_us_per_replicate"] = 1e6 * _mean(seeds)
    out["simulator.seed_share"] = serial_seed / serial_mc
    out["simulator.rollout_ms"] = 1e3 * _mean_duration(t.main_shape("simulator.open_loop_rollout"))
    out["simulator.receding_ms"] = 1e3 * _mean_duration(
        t.main_shape("simulator.receding_horizon_sim"))
    out["simulator.threads2_speedup"] = untraced["mc_serial_s"] / untraced["mc_threads2_s"]

    out["trace.overhead_share"] = t.wall / untraced["wall_s"] - 1.0
    return out


def layer_table(t: TraceSummary) -> list[str]:
    rows = [f"{'layer':<11} {'self s/pass':>11} {'share':>7}"]
    for layer in LAYERS + (HARNESS,):
        v = t.layer_self.get(layer, 0.0)
        rows.append(f"{layer:<11} {t.per_pass(v):>11.4f} {v / t.wall:>7.1%}")
    total = sum(t.layer_self.values())
    rows.append(f"{'sum':<11} {t.per_pass(total):>11.4f} {total / t.wall:>7.1%}"
                f"   (traced wall {t.per_pass(t.wall):.4f} s/pass)")
    return rows


def _by_shape(spans: list, shape) -> list:
    return [s for s in spans if s[5][0] == shape]


def baseline(t: TraceSummary) -> list[tuple]:
    """Rows (label, fixture, measured, table value, unit) for every baseline
    row this workload exercised."""
    rows = []
    names = {MIXED: "mixed", PENDULUM: "pendulum"}
    for label, span, scale, unit, table in BASELINE:
        for shape, value in table.items():
            d = [s[3] - s[2] for s in _by_shape(t.spans(span), shape)]
            if d:
                rows.append((label, names[shape], scale * statistics.median(d), value, unit))
    for shape, (table_total, table_seed) in {MIXED: (56.0, None), PENDULUM: (87.0, 23.0)}.items():
        ids = {i for i in t.by_name.get("simulator.monte_carlo_cost", [])
               if t.main[i][5][0] == shape and t.main[i][5][2] == 1}
        reps = sum(t.main[i][5][1] for i in ids)
        if not reps:
            continue
        rows.append(("Monte Carlo, per replicate", names[shape],
                     1e6 * sum(t.main[i][3] - t.main[i][2] for i in ids) / reps, table_total, "us"))
        seed = sum(s[3] - s[2] for s in t.spans("simulator.replicate_seed") if s[4] in ids)
        rows.append(("  of which replicate_seed", names[shape], 1e6 * seed / reps,
                     table_seed, "us"))
    grids = [s for s in t.spans("allocation.optimize_allocation") if s[5][2] == 10_000]
    if grids:
        rows.append(("allocation, 10^4-point grid (optimize_allocation)", "mixed",
                     statistics.median(s[3] - s[2] for s in grids), 0.87, "s"))
    return rows


def baseline_table(rows: list[tuple]) -> list[str]:
    out = [f"{'ROADMAP baseline row':<52} {'fixture':<9} {'traced':>10} {'table':>10} unit  note"]
    for label, fixture, got, table, unit in rows:
        if table is None:
            out.append(f"{label:<52} {fixture:<9} {got:>10.4g} {'-':>10} {unit}")
            continue
        ratio = got / table
        note = f"x{ratio:.2f}" + ("  differs by more than 2x" if not 0.5 <= ratio <= 2.0 else "")
        out.append(f"{label:<52} {fixture:<9} {got:>10.4g} {table:>10.4g} {unit:<5} {note}")
    return out
