"""Output checks behind ``failed_share``.

A command fails if ``cli.run`` raises or exits non-zero, breaks an
invariant that holds at any seed, or differs from the reference outputs
recorded at the default seed.  Outputs are compared byte for byte first;
when the bytes differ, parsed numbers are compared at the printed precision
of 9 significant digits (one unit in the ninth digit is allowed, so a
rounding flip does not count).
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json.gz"
MC_STDERRS = 5.0  # udp Monte Carlo mean vs closed form; 5 sigma is ~6e-7 per check


def load_reference(path=REFERENCE) -> dict:
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(ref: dict, path=REFERENCE) -> None:
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(ref, sort_keys=True, indent=0).encode())


def close9(a: float, b: float) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    scale = max(abs(a), abs(b))
    return abs(a - b) <= 1.000001 * 10.0 ** (math.floor(math.log10(scale)) - 8)


def _same_json(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return close9(float(a), float(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_json(x, y) for x, y in zip(a, b))
    return a == b


def _cell_equal(a: str, b: str) -> bool:
    if a == b:
        return True
    try:
        return close9(float(a), float(b))
    except ValueError:
        return False


def _same_csv(a: str, b: str) -> bool:
    ra, rb = a.splitlines(), b.splitlines()
    if len(ra) != len(rb) or ra[:1] != rb[:1]:
        return False
    for la, lb in zip(ra[1:], rb[1:]):
        ca, cb = la.split(","), lb.split(",")
        if len(ca) != len(cb) or not all(_cell_equal(x, y) for x, y in zip(ca, cb)):
            return False
    return True


def compare(ref: dict, got: dict) -> str:
    """'identical', 'equal9' or 'mismatch' for one command's outputs."""
    if ref == got:
        return "identical"
    if ref["rc"] != got["rc"] or ref["files"].keys() != got["files"].keys():
        return "mismatch"
    try:
        ok = ref["stdout"] == got["stdout"] or _same_json(
            json.loads(ref["stdout"]), json.loads(got["stdout"]))
    except json.JSONDecodeError:
        ok = False
    ok = ok and all(_same_csv(ref["files"][k], got["files"][k]) for k in ref["files"])
    return "equal9" if ok else "mismatch"


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _arg(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


class Invariants:
    """Checks that hold at any seed.  Remembers closed-form udp costs and
    unthreaded Monte Carlo outputs per scenario for later commands."""

    def __init__(self):
        self.udp_cost: dict[str, float] = {}
        self.mc_stdout: dict[str, str] = {}

    def check(self, argv: list[str], got: dict) -> list[str]:
        if got["rc"] != 0:
            return [f"exit code {got['rc']}: {got['stderr'].strip()[:200]}"]
        cmd, scenario = argv[0], _arg(argv, "--scenario")
        doc = json.loads(got["stdout"]) if cmd != "sweep" else None
        bad = []
        if cmd == "cost":
            c, r, t = doc["constant_term"], doc["reduction_term"], doc["total"]
            if abs(t - (c - r)) > 2e-8 * max(abs(c), abs(r), abs(t)):
                bad.append(f"total {t} != constant_term {c} - reduction_term {r}")
            if r < 0.0:
                bad.append(f"negative reduction_term {r}")
            if doc["protocol"] == "udp":
                self.udp_cost[scenario] = t
        elif cmd == "gap":
            if doc["gap"] < 0.0 or doc["j_udp"] < doc["j_tcp"]:
                bad.append(f"gap {doc['gap']} < 0 or j_udp {doc['j_udp']} < j_tcp {doc['j_tcp']}")
        elif cmd in ("synthesize", "eigs"):
            values = doc["k"] if cmd == "synthesize" else doc["eigenvalues"]
            if not values:
                bad.append("empty result")
        elif cmd == "sweep":
            rows = _rows(next(iter(got["files"].values())))
            points = int(_arg(argv, "--points"))
            m = sum(1 for k in rows[0] if k.startswith("mu_"))
            if len(rows) != (points if "--scalar" in argv else points ** m):
                bad.append(f"sweep has {len(rows)} rows")
            for row in rows:
                if float(row["gap"]) < 0.0 or float(row["j_udp"]) < float(row["j_tcp"]):
                    bad.append(f"negative gap in sweep row {row}")
                    break
        elif cmd == "maxdiff":
            if not 0.0 < doc["maximizer"] < 1.0 or doc["gap_at_max"] < 0.0:
                bad.append(f"maximizer {doc['maximizer']} or gap {doc['gap_at_max']} out of range")
        elif cmd == "allocate":
            beta = [float(v) for v in _arg(argv, "--beta").split(",")]
            cost = sum(b * mu for b, mu in zip(beta, doc["m_star"]))
            if abs(cost - doc["comm_cost"]) > 1e-8 * max(1.0, abs(cost)):
                bad.append(f"comm_cost {doc['comm_cost']} != beta . m_star {cost}")
            if any(not 0.0 < s <= g for s, g in zip(doc["m_star"], doc["m_grid"])):
                bad.append(f"m_star {doc['m_star']} not within (0, m_grid {doc['m_grid']}]")
            if doc["frontier_size"] < 1:
                bad.append("empty frontier")
            if got["files"]:
                k = round(1.0 / float(_arg(argv, "--resolution", "0.01")))
                rows = _rows(next(iter(got["files"].values())))
                if len(rows) != k ** len(beta):
                    bad.append(f"frontier CSV has {len(rows)} rows")
        elif cmd == "simulate":
            rows = _rows(next(iter(got["files"].values())))
            total = sum(float(r["stage_cost"]) for r in rows)
            scale = sum(abs(float(r["stage_cost"])) for r in rows)
            if abs(total - doc["realized_cost"]) > 1e-7 * max(scale, 1e-300):
                bad.append(f"stage costs sum to {total}, realized_cost {doc['realized_cost']}")
            steps = _arg(argv, "--steps")
            if steps is not None and doc["steps"] != int(steps):
                bad.append(f"{doc['steps']} steps, asked for {steps}")
        elif cmd == "montecarlo":
            if doc["stderr"] <= 0.0 or doc["replicates"] != int(_arg(argv, "--replicates")):
                bad.append(f"stderr {doc['stderr']} or replicates {doc['replicates']} wrong")
            threaded = "--threads" in argv
            base = " ".join(argv[:argv.index("--threads")] if threaded else argv)
            if threaded:
                if base in self.mc_stdout and self.mc_stdout[base] != got["stdout"]:
                    bad.append("--threads 2 changed the Monte Carlo result")
            else:
                self.mc_stdout[base] = got["stdout"]
            if doc["protocol"] == "udp" and scenario in self.udp_cost:
                ref = self.udp_cost[scenario]
                if abs(doc["mean_cost"] - ref) > MC_STDERRS * doc["stderr"]:
                    bad.append(f"udp mean {doc['mean_cost']} is more than {MC_STDERRS} "
                               f"stderr {doc['stderr']} from closed form {ref}")
        return bad
