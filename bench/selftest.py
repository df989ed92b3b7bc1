"""Short self-check of the harness: ``python3 bench/run.py --selftest``.

Runs one pass of every workload with tracing off and on, and checks that

* the last line carries exactly the result keys and every named metric,
  with its unit and a finite value, and that no command failed;
* spans nest: every self time is >= 0 and the self times sum to the root
  spans' duration (recomputed from the written span file);
* corrupting one reference output makes a command fail;
* outside a checkout with nclab sources the benchmark exits non-zero
  without printing a result.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import shutil
import subprocess
import sys
from collections import defaultdict

import check
import layers
from run import DEFAULT_SEED, END_TO_END, ROOT, RUN_DIR, WORKLOADS

RUN = ROOT / "bench" / "run.py"


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600, check=False)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_result(result: dict, units: dict) -> list[str]:
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        bad.append(f"correct={result['correct']} failed={result['failed']} "
                   f"attempted={result['attempted']}")
    if set(result["metrics"]) != set(units):
        bad.append(f"metrics differ from the named set: {sorted(set(units) ^ set(result['metrics']))}")
    for name, unit in units.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not math.isfinite(got.get("value", math.nan)):
            bad.append(f"{name}: {got}")
    return bad


def _check_spans(path) -> list[str]:
    spans = defaultdict(list)
    with gzip.open(path, "rt") as fh:
        for row in csv.DictReader(fh):
            spans[row["thread"]].append((row["name"], float(row["start_s"]),
                                         float(row["end_s"]), int(row["parent"])))
    main = next(s for s in spans.values() if any(x[0] == "harness.pass" for x in s))
    child = [0.0] * len(main)
    for name, t0, t1, parent in main:
        if parent >= 0:
            child[parent] += t1 - t0
    self_times = [t1 - t0 - c for (name, t0, t1, parent), c in zip(main, child)]
    root = sum(t1 - t0 for name, t0, t1, parent in main if parent < 0)
    bad = []
    if min(self_times) < -1e-6:  # the file keeps nanoseconds
        bad.append(f"negative self time {min(self_times)}")
    if abs(sum(self_times) - root) > 1e-6 * len(main):
        bad.append(f"self times sum to {sum(self_times)}, root spans to {root}")
    return bad


def main() -> int:
    failures = 0

    def report(what: str, bad: list[str]) -> None:
        nonlocal failures
        failures += bool(bad)
        print(f"{'FAIL' if bad else 'ok  '} {what}" + "".join(f"\n     {b}" for b in bad),
              flush=True)

    seed = str(DEFAULT_SEED)
    for w in WORKLOADS:
        for trace, units in (("0", END_TO_END), ("1", layers.PER_LAYER)):
            try:
                bad = _check_result(_result(_run("--workload", w, "--seed", seed,
                                                  "--seconds", "0", "--trace", trace)), units)
            except (AssertionError, ValueError, KeyError, IndexError) as exc:
                bad = [repr(exc)]
            report(f"{w} --trace {trace}: every metric emitted with its unit, no failures", bad)
        report(f"{w}: spans nest and self times sum to the root",
               _check_spans(RUN_DIR / f"spans-{w}-seed{seed}.csv.gz"))

    ref = check.load_reference()
    key = "gap --scenario {pendulum}"
    doc = json.loads(ref[key]["stdout"])
    doc["gap"] *= 1.001
    ref[key]["stdout"] = json.dumps(doc, indent=2) + "\n"
    corrupt = RUN_DIR / "selftest-reference.json.gz"
    check.save_reference(ref, corrupt)
    result = _result(_run("--workload", "pendulum-analysis", "--seed", seed, "--seconds", "0",
                          "--reference", str(corrupt)))
    report("a corrupted reference output raises failed_share above 0",
           [] if result["failed"] > 0 and not result["correct"] else [f"{result}"])

    bare = RUN_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "mixed-grid",
                           "--seed", seed, "--seconds", "1", "--trace", "0"], cwd=bare,
                          capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    report("without nclab sources the benchmark exits non-zero and prints no result",
           [] if proc.returncode != 0 and '"metrics"' not in proc.stdout
           else [f"exit {proc.returncode}: {proc.stdout[-300:]}"])
    print("selftest " + ("passed" if not failures else f"failed ({failures} checks)"))
    return 1 if failures else 0
