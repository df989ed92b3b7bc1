"""Experiment descriptions: plant, channel, weights, and simulation options.

A scenario file is a JSON document with lower_snake_case keys::

    {
      "plant":   {"a": [[...]], "b": [[...]], "sigma_w": [[...]],
                  "x0_mean": [...]},
      "channel": {"mu": [...] | "mu_schedule": [[...]], "beta": [...]},
      "weights": {"q": [[...]], "omega": [[...]] | "omega_steps": [[[...]]],
                  "psi": [[...]] | "psi_steps": [[[...]]], "horizon": N},
      "eval_state": [...],
      "sim":     {"steps": int, "replicates": int, "seed": int}
    }

Matrices are row-major nested arrays of decimal numbers.  ``omega``/``psi``
give a single per-step penalty replicated over the horizon; the ``*_steps``
variants give one matrix per step.  ``eval_state`` defaults to ``x0_mean``.
Scenario values are immutable after construction (all arrays are read-only)
and safe to share across threads.  A scenario builds its prediction
operators (``Scenario.operators``) once, on first use.  ``load_scenario``
keeps the last ``_KEPT`` (two) scenarios it built, keyed by the file's full
text: a file read again with the same text skips the parse, the build and
the validation, and returns the same scenario, operators included.  A file
whose text changed takes the full path; a refused file is never kept.  Only
later loads in the same process gain: a fresh process starts empty.
"""

from __future__ import annotations

import functools
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "PlantModel",
    "ChannelModel",
    "WeightSpec",
    "SimOptions",
    "Scenario",
    "ScenarioError",
    "ParseError",
    "ValidationError",
    "load_scenario",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "validate_scenario",
]

SYMMETRY_RTOL = 1e-12
# sigma_w may be singular: its smallest eigenvalue must be at least
# -PSD_RTOL times its largest absolute entry (so sigma_w = 0 is accepted).
PSD_RTOL = 1e-12

# Largest Monte Carlo replicate count and simulated step count (horizon
# included: an open-loop run spans it) a scenario or a command may ask for.
MAX_REPLICATES = 10 ** 7
MAX_STEPS = 10 ** 6
# Largest stacked dimension N·max(n, m): it keeps one dense (N·n)² or (N·m)²
# float64 prediction operator at 128 MiB or less.
MAX_STACKED_DIM = 4096

# load_scenario keeps this many scenarios, least recently loaded first
_KEPT = 2
_kept: dict[str, Scenario] = {}
_kept_lock = threading.Lock()


class ScenarioError(Exception):
    """Base class for scenario loading/validation failures."""


class ParseError(ScenarioError):
    """The file is not valid JSON or is missing required keys."""


class ValidationError(ScenarioError):
    """A scenario invariant is violated; the message names the first one."""


def _array(x, name: str, ndim: int) -> np.ndarray:
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{name} is not numeric") from exc
    if a.ndim != ndim:
        raise ParseError(f"{name} must have {ndim} dimension(s), got {a.ndim}")
    a.setflags(write=False)
    return a


def _integer(x, name: str) -> int:
    """A whole number given as a JSON integer (or an integral decimal)."""
    whole = isinstance(x, int) or (isinstance(x, float) and x.is_integer())
    if isinstance(x, bool) or not whole:
        raise ParseError(f"{name} must be an integer, got {x!r}")
    return int(x)


@dataclass(frozen=True)
class PlantModel:
    """Discrete-time linear plant x+ = A x + B diag(v) u + w."""

    a: np.ndarray        # (n, n) dynamics
    b: np.ndarray        # (n, m) control
    sigma_w: np.ndarray  # (n, n) process-noise covariance
    x0_mean: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class ChannelModel:
    """Per-actuator Bernoulli delivery probabilities.

    ``means`` is either (m,) for a stationary channel or (N, m) for a
    per-step schedule.  ``beta`` holds optional nonnegative per-channel
    communication prices.
    """

    means: np.ndarray
    beta: np.ndarray | None = None

    @property
    def is_scheduled(self) -> bool:
        return self.means.ndim == 2

    @property
    def m(self) -> int:
        return self.means.shape[-1]

    def step_means(self, steps: int) -> np.ndarray:
        """(steps, m) delivery means of steps 0..steps-1; a schedule's last
        row holds past its end."""
        if self.is_scheduled:
            return self.means[np.minimum(np.arange(steps), self.means.shape[0] - 1)]
        return np.broadcast_to(self.means, (steps, self.m))


@dataclass(frozen=True)
class WeightSpec:
    """Quadratic penalties: Q on the measured state, per-step state and
    input penalties over a horizon of ``horizon`` steps."""

    q: np.ndarray                 # (n, n)
    omega_steps: np.ndarray       # (N, n, n)
    psi_steps: np.ndarray         # (N, m, m)
    horizon: int


@dataclass(frozen=True)
class SimOptions:
    steps: int = 0          # 0 means "use the horizon"
    replicates: int = 10000
    seed: int = 0


@dataclass(frozen=True)
class Scenario:
    plant: PlantModel
    channel: ChannelModel
    weights: WeightSpec
    eval_state: np.ndarray
    sim: SimOptions = field(default_factory=SimOptions)

    @property
    def n(self) -> int:
        return self.plant.n

    @property
    def m(self) -> int:
        return self.plant.m

    @property
    def horizon(self) -> int:
        return self.weights.horizon

    @functools.cached_property
    def operators(self):
        """The read-only ``PredictionOperators`` of this scenario, built on
        first use (a scenario is immutable, so they never go stale)."""
        from .prediction import build_prediction_operators  # prediction imports scenario

        return build_prediction_operators(self.plant, self.weights, self.channel)


def _symmetric(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a (K, d, d) stack: symmetric to SYMMETRY_RTOL of its
    largest entry."""
    scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
    return np.abs(stack - stack.swapaxes(1, 2)).max(axis=(1, 2)) <= SYMMETRY_RTOL * scale


def _smallest_eigenvalues(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per matrix of a (K, d, d) stack: whether it is symmetric
    (``_symmetric``), and the smallest eigenvalue of its symmetric part
    (halved before the sum, which would overflow near 1e308) where it is
    (NaN elsewhere), from one batched ``eigvalsh`` over the symmetric ones."""
    ok = _symmetric(stack)
    low = np.full(len(stack), np.nan)
    sym = stack[ok]
    low[ok] = np.linalg.eigvalsh(0.5 * sym + 0.5 * sym.swapaxes(1, 2)).min(axis=1)
    return ok, low


def _diagonal(stack: np.ndarray) -> np.ndarray:
    """Per matrix of a (K, d, d) stack: no off-diagonal entry above
    SYMMETRY_RTOL of its largest entry."""
    scale = np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
    off = np.where(np.eye(stack.shape[1], dtype=bool), 0.0, np.abs(stack)).max(axis=(1, 2))
    return ~(off > SYMMETRY_RTOL * scale)


def _distinct(stack: np.ndarray) -> np.ndarray:
    """The matrices of a (K, d, d) stack that need checking: a stack that
    repeats one matrix with stride 0 (a weight given once for every step)
    gives that matrix alone."""
    return stack[:1] if stack.ndim and stack.strides[0] == 0 else stack


def _stacked_dim_error(N: int, n: int, m: int) -> str | None:
    d = N * max(n, m)
    if d > MAX_STACKED_DIM:
        return (f"horizon × max(n, m) is {N} × {max(n, m)} = {d}, "
                f"above the operator-size cap of {MAX_STACKED_DIM}")
    return None


def validate_scenario(s: Scenario) -> list[str]:
    """Return every violated invariant (empty list when the scenario is valid).

    Diagnostic only: never raises.  ``load_scenario`` raises a
    ``ValidationError`` with the first entry of this list.
    """
    v: list[str] = []
    p, c, w = s.plant, s.channel, s.weights
    n, m, N = p.a.shape[0], p.b.shape[1] if p.b.ndim == 2 else 0, w.horizon

    if p.a.ndim != 2 or p.a.shape[0] != p.a.shape[1]:
        v.append("a must be square")
        return v  # dimensions are unusable; later checks would be noise
    if n < 1 or m < 1:
        v.append("n and m must be >= 1")

    omega, psi = _distinct(w.omega_steps), _distinct(w.psi_steps)
    arrays = [("a", p.a), ("b", p.b), ("sigma_w", p.sigma_w), ("x0_mean", p.x0_mean),
              ("q", w.q), ("omega_steps", omega), ("psi_steps", psi),
              ("eval_state", s.eval_state), ("channel means", c.means)]
    if c.beta is not None:
        arrays.append(("channel.beta", c.beta))
    if not np.isfinite(np.concatenate([arr for _, arr in arrays], axis=None)).all():
        v.extend(f"{name} has non-finite entries" for name, arr in arrays
                 if not np.isfinite(arr).all())

    # dimension coherence, naming both fields
    if p.b.shape[0] != n:
        v.append(f"dimension mismatch: b has {p.b.shape[0]} rows but a is {n}x{n}")
    if p.sigma_w.shape != (n, n):
        v.append(f"dimension mismatch: sigma_w is {p.sigma_w.shape} but a is {n}x{n}")
    if p.x0_mean.shape != (n,):
        v.append(f"dimension mismatch: x0_mean has length {p.x0_mean.shape[0]} but a is {n}x{n}")
    if s.eval_state.shape != (n,):
        v.append(f"dimension mismatch: eval_state has length {s.eval_state.shape[0]} but a is {n}x{n}")
    if c.means.shape[-1] != m:
        v.append(f"dimension mismatch: channel means cover {c.means.shape[-1]} channels but b has {m} columns")
    if w.q.shape != (n, n):
        v.append(f"dimension mismatch: q is {w.q.shape} but a is {n}x{n}")
    if w.omega_steps.shape != (N, n, n):
        v.append(f"dimension mismatch: omega_steps is {w.omega_steps.shape}, expected ({N}, {n}, {n})")
    if w.psi_steps.shape != (N, m, m):
        v.append(f"dimension mismatch: psi_steps is {w.psi_steps.shape}, expected ({N}, {m}, {m})")
    if c.beta is not None and c.beta.shape != (m,):
        v.append(f"dimension mismatch: beta has length {c.beta.shape[0]} but b has {m} columns")
    if v:
        return v

    if not 1 <= N <= MAX_STEPS:
        v.append(f"horizon must be >= 1 and <= {MAX_STEPS}")
    if (err := _stacked_dim_error(N, n, m)) is not None:
        v.append(err)
    if c.is_scheduled and c.means.shape[0] != N:
        v.append("channel schedule length ≠ N")
    if np.any(c.means <= 0.0) or np.any(c.means > 1.0):
        v.append("channel mean must lie in (0,1]")
    if c.beta is not None and np.any(c.beta < 0.0):
        v.append("beta must be nonnegative")

    # One batched check of every n x n matrix: sigma_w, q, the omega steps
    # and, when m = n, the psi steps; a weight given once is one matrix.
    square = [p.sigma_w[np.newaxis], w.q[np.newaxis], omega] + ([psi] if m == n else [])
    sym, low = _smallest_eigenvalues(np.concatenate(square))
    psi_low = low[2 + len(omega):] if m == n else _smallest_eigenvalues(psi)[1]
    if not sym[0]:
        v.append("sigma_w asymmetric")
    elif low[0] < -PSD_RTOL * np.abs(p.sigma_w).max():
        v.append("sigma_w not positive semidefinite")
    if not low[1] > 0.0:
        v.append("q not symmetric positive definite")
    # The optimal-law formulas require the input penalty to commute with the
    # channel-mean diagonal, so per-step psi must itself be diagonal.
    for msg, ok in (("omega step {} not symmetric positive definite",
                     low[2:2 + len(omega)] > 0.0),
                    ("psi step {} not symmetric positive definite", psi_low > 0.0),
                    ("psi step {} must be diagonal", _diagonal(psi))):
        if not ok.all():
            v.append(msg.format(np.flatnonzero(~ok)[0]))

    if s.sim.replicates < 2:
        v.append("sim.replicates must be >= 2")
    if s.sim.replicates > MAX_REPLICATES:
        v.append(f"sim.replicates must be <= {MAX_REPLICATES}")
    if s.sim.steps < 0:
        v.append("sim.steps must be >= 0")
    if s.sim.steps > MAX_STEPS:
        v.append(f"sim.steps must be <= {MAX_STEPS}")
    if s.sim.seed < 0:
        v.append("sim.seed must be a nonnegative integer")
    return v


def _steps_from(block, steps_key: str, single, N: int) -> np.ndarray:
    if steps_key in block and single in block:
        raise ParseError(f"weights must give either {single} or {steps_key}, not both")
    if steps_key in block:
        arr = _array(block[steps_key], f"weights.{steps_key}", 3)
        return arr
    if single in block:
        one = _array(block[single], f"weights.{single}", 2)
        return np.broadcast_to(one, (N,) + one.shape)  # read-only, stride 0
    raise ParseError(f"weights is missing {single} (or {steps_key})")


def _section(doc: dict, key: str, required: bool = True) -> dict:
    if key not in doc:
        if required:
            raise ParseError(f"missing top-level section: {key!r}")
        return {}
    if not isinstance(doc[key], dict):
        raise ParseError(f"{key} must be a JSON object")
    return doc[key]


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and validate a Scenario from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError("a scenario must be a JSON object")
    plant_doc = _section(doc, "plant")
    channel_doc = _section(doc, "channel")
    weights_doc = _section(doc, "weights")
    sim_doc = _section(doc, "sim", required=False)

    for key in ("a", "b", "sigma_w", "x0_mean"):
        if key not in plant_doc:
            raise ParseError(f"plant is missing {key}")
    plant = PlantModel(
        a=_array(plant_doc["a"], "plant.a", 2),
        b=_array(plant_doc["b"], "plant.b", 2),
        sigma_w=_array(plant_doc["sigma_w"], "plant.sigma_w", 2),
        x0_mean=_array(plant_doc["x0_mean"], "plant.x0_mean", 1),
    )

    if ("mu" in channel_doc) == ("mu_schedule" in channel_doc):
        raise ParseError("channel must give exactly one of mu or mu_schedule")
    if "mu" in channel_doc:
        means = _array(channel_doc["mu"], "channel.mu", 1)
    else:
        means = _array(channel_doc["mu_schedule"], "channel.mu_schedule", 2)
    beta = None
    if channel_doc.get("beta") is not None:
        beta = _array(channel_doc["beta"], "channel.beta", 1)
    channel = ChannelModel(means=means, beta=beta)

    for key in ("q", "horizon"):
        if key not in weights_doc:
            raise ParseError(f"weights is missing {key}")
    N = _integer(weights_doc["horizon"], "weights.horizon")
    if not 1 <= N <= MAX_STEPS:
        raise ValidationError(f"horizon must be >= 1 and <= {MAX_STEPS}")
    if (err := _stacked_dim_error(N, plant.a.shape[0], plant.b.shape[1])) is not None:
        raise ValidationError(err)
    weights = WeightSpec(
        q=_array(weights_doc["q"], "weights.q", 2),
        omega_steps=_steps_from(weights_doc, "omega_steps", "omega", N),
        psi_steps=_steps_from(weights_doc, "psi_steps", "psi", N),
        horizon=N,
    )

    if doc.get("eval_state") is not None:
        eval_state = _array(doc["eval_state"], "eval_state", 1)
    else:
        eval_state = plant.x0_mean

    sim = SimOptions(
        steps=_integer(sim_doc.get("steps", 0), "sim.steps"),
        replicates=_integer(sim_doc.get("replicates", 10000), "sim.replicates"),
        seed=_integer(sim_doc.get("seed", 0), "sim.seed"),
    )

    scn = Scenario(plant=plant, channel=channel, weights=weights,
                   eval_state=eval_state, sim=sim)
    violations = validate_scenario(scn)
    if violations:
        raise ValidationError(violations[0])
    return scn


def load_scenario(path) -> Scenario:
    """Load, validate, and normalize a scenario file; a file whose full text
    is that of one of the last two loaded returns that scenario (module
    docstring)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    with _kept_lock:
        scn = _kept.pop(text, None)
    if scn is None:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ParseError(f"{path} must contain a JSON object")
        scn = scenario_from_dict(doc)
    with _kept_lock:
        _kept[text] = scn
        while len(_kept) > _KEPT:
            del _kept[next(iter(_kept))]
    return scn


def scenario_to_dict(s: Scenario) -> dict:
    doc = {
        "plant": {
            "a": s.plant.a.tolist(),
            "b": s.plant.b.tolist(),
            "sigma_w": s.plant.sigma_w.tolist(),
            "x0_mean": s.plant.x0_mean.tolist(),
        },
        "channel": {},
        "weights": {
            "q": s.weights.q.tolist(),
            "omega_steps": s.weights.omega_steps.tolist(),
            "psi_steps": s.weights.psi_steps.tolist(),
            "horizon": s.weights.horizon,
        },
        "eval_state": s.eval_state.tolist(),
        "sim": {
            "steps": s.sim.steps,
            "replicates": s.sim.replicates,
            "seed": s.sim.seed,
        },
    }
    key = "mu_schedule" if s.channel.is_scheduled else "mu"
    doc["channel"][key] = s.channel.means.tolist()
    if s.channel.beta is not None:
        doc["channel"]["beta"] = s.channel.beta.tolist()
    return doc


def save_scenario(s: Scenario, path) -> None:
    """Write a scenario as JSON; load_scenario(save_scenario(s)) round-trips
    every numeric field exactly (floats serialize via repr)."""
    Path(path).write_text(json.dumps(scenario_to_dict(s), indent=2) + "\n")
