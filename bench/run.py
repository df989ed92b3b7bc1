#!/usr/bin/env python3
"""nclab benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --selftest    # short self-check of the harness
    python3 bench/run.py --record      # re-record the reference outputs

Run it from the repository root; it imports nclab from ``src/`` of the same
checkout and writes only under ``.bench_run/``.  One client drives the
public entry point ``nclab.cli.run(argv)`` in-process and sends each command
only after the previous one returned (a closed loop with one client).  The
workload's fixed command mix (``workloads.py``) is repeated in whole passes
until ``--seconds`` have elapsed, and every command's outputs are checked
(``check.py``).

``--trace 0`` reports the end-to-end metrics, with every timing scaled to a
reference machine speed by probes taken before, during and after it
(``speed.py``), because the shared hosts this runs on drift in speed by more
than any bound.  ``--trace 1`` alternates untraced and traced passes of
the same mix and reports per-layer metrics from spans recorded around every
public nclab function (``spans.py``, ``layers.py``).  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a human-readable
report, also written to ``.bench_run/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import check
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
SETUP_CHILDREN = 6          # setup_s is the median of these plus the run's own set-up
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
WORKLOADS = ("pendulum-analysis", "mixed-grid", "montecarlo")
DEFAULT_SEED = 1

END_TO_END = {
    "setup_s": "s", "cmds_per_s": "1/s", "query_p50_ms": "ms", "query_tail_ms": "ms",
    "maxdiff_s": "s", "sweep_evals_per_s": "1/s", "allocate_s": "s",
    "mc_replicates_per_s": "1/s", "simulate_p50_ms": "ms", "peak_rss_mb": "MB",
}


def setup() -> float:
    """Import nclab from this checkout and load both fixtures.  Returns the
    seconds taken, scaled to the reference machine speed."""
    before = speed.probe()
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import nclab
    if not Path(nclab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"nclab imported from {nclab.__file__}, not from this checkout")
    for name in ("pendulum", "mixed"):
        nclab.load_scenario(nclab.fixture_path(name))
    elapsed = time.perf_counter() - t0
    return speed.scaled(elapsed, before, speed.probe())


def scenario_files() -> dict[str, str]:
    """Scenario placeholder -> path, for ``workloads.resolve``."""
    import nclab
    return {"{pendulum}": str(nclab.fixture_path("pendulum")),
            "{mixed}": str(nclab.fixture_path("mixed"))}


def setup_in_child() -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-sample"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


class Client:
    """One closed-loop client: it issues the next command when the previous
    one has returned, times it, and checks its outputs.  With ``probe`` set,
    ``latencies`` are scaled to the reference machine speed (``speed.py``)
    and ``raw`` keeps the measured ones; without it the two are the same."""

    def __init__(self, cli, files: dict, out_dir: Path, reference: dict,
                 record: dict | None = None, probe: bool = False):
        self.cli, self.files, self.out_dir = cli, files, out_dir
        self.reference, self.record, self.probe = reference, record, probe
        self.invariants = check.Invariants()
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.argv: dict[str, list[str]] = {}
        self.outcome: Counter = Counter()
        self.failures: list[tuple[str, list[str]]] = []

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    def issue(self, argv: list[str]) -> None:
        real, outs = workloads.resolve(argv, self.files, self.out_dir)
        for path in outs.values():
            Path(path).unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()

        def call():
            try:
                return self.cli.run(real)
            except Exception:  # a crash is a failed command, not a failed run
                traceback.print_exc()
                return -1

        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.probe:
                rc, elapsed, scaled = speed.timed(call)
            else:
                t0 = time.perf_counter()
                rc = call()
                elapsed = scaled = time.perf_counter() - t0
        key = workloads.key(argv)
        self.raw[key].append(elapsed)
        self.latencies[key].append(scaled)
        self.argv[key] = argv
        # simulate echoes its --out path, which differs between runs
        got = {"rc": rc, "stdout": out.getvalue().replace(str(self.out_dir), "{out_dir}"),
               "files": {name: Path(p).read_text() for name, p in outs.items()
                         if Path(p).exists()}}
        try:
            problems = self.invariants.check(argv, {**got, "stderr": err.getvalue()})
        except (KeyError, ValueError, TypeError, IndexError, StopIteration) as exc:
            problems = [f"malformed output: {exc!r}"]
        if key in self.reference:
            status = check.compare(self.reference[key], got)
            if status == "mismatch":
                problems.append("differs from the reference outputs")
        elif self.record is not None and not problems:
            self.record[key] = got
            status = "recorded"
        else:
            status = "unreferenced"
        self.outcome[status] += 1
        if problems:
            self.failures.append((key, problems))

    def run_pass(self, commands) -> None:
        for argv in commands:
            self.issue(argv)

    def of_kind(self, kind: str) -> dict[str, list[float]]:
        return {k: v for k, v in self.latencies.items() if workloads.kind(self.argv[k]) == kind}


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the highest ladder
    percentile with at least ten samples beyond it; the median when fewer
    than twenty samples exist."""
    n = len(values)
    for p in TAIL_LADDER:
        beyond = int(n * (100.0 - p) / 100.0)
        if beyond >= 10 or p == 50.0:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1] \
                if n > 1 else values[0]
            return cut, p, beyond


def end_to_end(client: Client, fixture_m: dict, setup_samples: list[float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics of an untraced run.  A median latency of a
    command kind is each distinct command's median, averaged over the
    distinct commands of that kind: the mixes hold commands of very
    different cost, and a median pooled over them would sit on the edge
    between two of them."""
    def mean_of_medians(kind: str) -> float:
        return statistics.fmean(statistics.median(v) for v in client.of_kind(kind).values())

    def arg(argv, flag):
        return argv[argv.index(flag) + 1]

    # the tail is taken over query latencies rescaled to a common median, so
    # that it measures how far queries stray and not where the mix's
    # commands of different cost happen to meet
    query_p50 = mean_of_medians("query")
    queries = [x * query_p50 / statistics.median(v)
               for v in client.of_kind("query").values() for x in v]
    tail_value, tail_p, beyond = tail(queries)
    sweep_evals = sweep_time = 0.0
    for key, v in client.of_kind("sweep").items():
        argv = client.argv[key]
        m = 1 if "--scalar" in argv else fixture_m[arg(argv, "--scenario")]
        sweep_evals += 2 * int(arg(argv, "--points")) ** m * len(v)
        sweep_time += sum(v)
    replicates = mc_time = 0.0
    for key, v in client.of_kind("montecarlo").items():
        replicates += int(arg(client.argv[key], "--replicates")) * len(v)
        mc_time += sum(v)
    total_time = sum(sum(v) for v in client.latencies.values())
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "cmds_per_s": client.attempted / total_time,
        "query_p50_ms": 1e3 * query_p50,
        "query_tail_ms": 1e3 * tail_value,
        "maxdiff_s": mean_of_medians("maxdiff"),
        "sweep_evals_per_s": sweep_evals / sweep_time,
        "allocate_s": mean_of_medians("allocate"),
        "mc_replicates_per_s": replicates / mc_time,
        "simulate_p50_ms": 1e3 * mean_of_medians("simulate"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    notes = [f"query_tail_ms is p{tail_p:g} of {len(queries)} query latencies, each "
             f"rescaled by query_p50_ms over its command's median ({beyond} beyond it)",
             f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup_samples)}"]
    return metrics, notes


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "nclab").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(ROOT)).encode() + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})"
    except (KeyError, TypeError, ValueError) as exc:
        blas = f"unknown ({exc!r})"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "workload_seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


def measured_passes(run_pass, seconds: float):
    """Run whole passes while the next one, if as long as the last, still
    ends within ``seconds`` of measured time; always at least one.  Yields
    after each pass; time spent by the caller in between is not measured."""
    measured = 0.0
    while True:
        t0 = time.perf_counter()
        run_pass()
        last = time.perf_counter() - t0
        measured += last
        yield
        if measured + last > seconds:
            return


def traced_passes(nclab, make_client, commands, seconds: float):
    """Pairs of one untraced and one traced pass for ``seconds``."""
    import layers
    plain, traced = make_client(), make_client()
    tracer = spans.Tracer()
    plain_wall, passes = 0.0, 0

    def run_plain():
        nonlocal plain_wall
        t0 = time.perf_counter()
        plain.run_pass(commands)
        plain_wall += time.perf_counter() - t0

    def run_traced():
        patches = spans.install(tracer, nclab, layers.INSPECTORS)
        try:
            with tracer.span("pass"):
                traced.run_pass(commands)
        finally:
            spans.uninstall(patches)

    def pair():
        # alternate which side goes first, so neither always follows the other
        nonlocal passes
        for run in (run_plain, run_traced) if passes % 2 == 0 else (run_traced, run_plain):
            run()
        passes += 1

    make_client().run_pass(commands)  # a whole untimed pass, so both sides start warm

    for _ in measured_passes(pair, seconds):
        pass
    mc = plain.of_kind("montecarlo")
    untraced = {
        "wall_s": plain_wall,
        "mc_serial_s": sum(sum(v) for k, v in mc.items() if "--threads" not in plain.argv[k]),
        "mc_threads2_s": sum(sum(v) for k, v in mc.items() if "--threads" in plain.argv[k]),
    }
    summary = layers.TraceSummary(tracer.main_spans(), tracer.worker_spans(), passes,
                                  traced.attempted)
    return plain, traced, tracer, summary, untraced


def bench(args) -> int:
    run_dir = RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out_dir = run_dir / "out"
    out_dir.mkdir(parents=True)
    try:
        setup_samples = [setup()]
        import nclab
        from nclab import cli
        files = scenario_files()
        fixture_m = {ph: nclab.load_scenario(path).m for ph, path in files.items()}
        reference = check.load_reference(Path(args.reference or check.REFERENCE))
        commands = workloads.mix(args.workload, args.seed)

        def make_client(probe=False):
            return Client(cli, files, out_dir, reference, probe=probe)

        # warm-up: one command of each kind on the fixtures, unchecked and untimed
        first_of_kind = {}
        for argv in commands:
            first_of_kind.setdefault(workloads.kind(argv), argv)
        make_client().run_pass(first_of_kind.values())
        lines = [f"nclab benchmark: workload={args.workload} seed={args.seed} "
                 f"seconds={args.seconds} trace={args.trace}",
                 "env " + json.dumps(environment(args.seed))]
        if args.trace:
            import layers
            plain, traced, tracer, summary, untraced = traced_passes(
                nclab, make_client, commands, args.seconds)
            clients = [plain, traced]
            metrics = layers.metrics(summary, untraced)
            units = layers.PER_LAYER
            problems = summary.check_nesting()
            spans_path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz"
            tracer.write(spans_path)
            lines += [f"passes: {summary.passes} untraced + {summary.passes} traced, "
                      f"{len(commands)} commands each; spans written to "
                      f"{spans_path.relative_to(ROOT)}"]
            lines += layers.layer_table(summary)
            lines += layers.baseline_table(layers.baseline(summary))
            lines += [f"span nesting: {'ok' if not problems else '; '.join(problems)}"]
        else:
            client = make_client(probe=True)
            passes = 0
            # set-up samples are taken between passes, so that they see the
            # same drift in machine speed as the passes do
            for _ in measured_passes(lambda: client.run_pass(commands), args.seconds):
                passes += 1
                if len(setup_samples) <= SETUP_CHILDREN:
                    setup_samples.append(setup_in_child())
            while len(setup_samples) <= SETUP_CHILDREN:
                setup_samples.append(setup_in_child())
            clients = [client]
            metrics, notes = end_to_end(client, fixture_m, setup_samples)
            units = END_TO_END
            problems = []
            lines += [f"passes: {passes}, {len(commands)} commands each"] + notes
            lines += [f"probe reference {1e3 * speed.REFERENCE_S:g} ms; per command: samples x "
                      f"median scaled / raw ms"]
            lines += [f"{len(v):>4} x {1e3 * statistics.median(v):>10.3f} / "
                      f"{1e3 * statistics.median(client.raw[key]):>10.3f} ms  {key}"
                      for key, v in client.latencies.items()]
        attempted = sum(c.attempted for c in clients)
        failures = [f for c in clients for f in c.failures]
        outcome = sum((c.outcome for c in clients), Counter())
        lines.append(f"failed_share: {len(failures)}/{attempted} = {len(failures) / attempted:.4g}"
                     f" (reference: {outcome['identical']} identical, "
                     f"{outcome['equal9']} equal at 9 digits, {outcome['mismatch']} differ, "
                     f"{outcome['unreferenced']} not in the reference)")
        for key, why in failures[:20]:
            lines.append(f"FAILED {key}: {'; '.join(why)}")
        lines += [f"{name} = {metrics[name]:.6g} {unit}" for name, unit in units.items()]
        result = {"correct": not failures and not problems, "attempted": attempted,
                  "failed": len(failures),
                  "metrics": {name: {"value": metrics[name], "unit": unit}
                              for name, unit in units.items()}}
        report = RUN_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.txt"
        report.write_text("\n".join(lines + [json.dumps(result)]) + "\n")
        print("\n".join(lines))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def record() -> int:
    """Run one pass of every workload at the default seed and store every
    command's outputs as the reference.  Refuses if any invariant fails."""
    run_dir = RUN_DIR / f"record-{os.getpid()}"
    (run_dir / "out").mkdir(parents=True)
    try:
        setup()
        from nclab import cli
        files = scenario_files()
        ref: dict = {}
        for name in WORKLOADS:
            client = Client(cli, files, run_dir / "out", {}, record=ref)
            client.run_pass(workloads.mix(name, DEFAULT_SEED))
            if client.failures:
                print(f"{name}: invariants fail, nothing recorded: {client.failures}",
                      file=sys.stderr)
                return 1
        check.save_reference(ref)
        print(f"recorded {len(ref)} commands to {check.REFERENCE.relative_to(ROOT)}")
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reference", help="reference outputs to compare against "
                                       "(default: bench/reference.json.gz)")
    p.add_argument("--record", action="store_true", help=record.__doc__.split(".")[0])
    p.add_argument("--selftest", action="store_true", help="check the harness itself")
    p.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_sample:
        print(setup())
        return 0
    if args.record:
        return record()
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        p.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
