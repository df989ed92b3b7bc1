"""Experiment descriptions: plant, channel, weights, and simulation options.

A scenario file is a JSON document with lower_snake_case keys::

    {
      "plant":   {"a": [[...]], "b": [[...]], "sigma_w": [[...]],
                  "x0_mean": [...], "x0_cov": [[...]]},
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
and safe to share across threads.
"""

from __future__ import annotations

import json
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


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class PlantModel:
    """Discrete-time linear plant x+ = A x + B diag(v) u + w."""

    a: np.ndarray        # (n, n) dynamics
    b: np.ndarray        # (n, m) control
    sigma_w: np.ndarray  # (n, n) process-noise covariance
    x0_mean: np.ndarray  # (n,)
    x0_cov: np.ndarray   # (n, n)

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


def _check_symmetric(a: np.ndarray) -> bool:
    scale = max(float(np.max(np.abs(a))), 1.0)
    return bool(np.max(np.abs(a - a.T)) <= SYMMETRY_RTOL * scale)


def _check_spd(a: np.ndarray) -> bool:
    if not _check_symmetric(a):
        return False
    return bool(np.min(np.linalg.eigvalsh(0.5 * (a + a.T))) > 0.0)


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

    for name, arr in (("a", p.a), ("b", p.b), ("sigma_w", p.sigma_w),
                      ("x0_mean", p.x0_mean), ("x0_cov", p.x0_cov),
                      ("q", w.q), ("omega_steps", w.omega_steps),
                      ("psi_steps", w.psi_steps), ("eval_state", s.eval_state),
                      ("channel means", c.means)):
        if not np.all(np.isfinite(arr)):
            v.append(f"{name} has non-finite entries")

    # dimension coherence, naming both fields
    if p.b.shape[0] != n:
        v.append(f"dimension mismatch: b has {p.b.shape[0]} rows but a is {n}x{n}")
    if p.sigma_w.shape != (n, n):
        v.append(f"dimension mismatch: sigma_w is {p.sigma_w.shape} but a is {n}x{n}")
    if p.x0_mean.shape != (n,):
        v.append(f"dimension mismatch: x0_mean has length {p.x0_mean.shape[0]} but a is {n}x{n}")
    if p.x0_cov.shape != (n, n):
        v.append(f"dimension mismatch: x0_cov is {p.x0_cov.shape} but a is {n}x{n}")
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

    if N < 1:
        v.append("horizon must be >= 1")
    if c.is_scheduled and c.means.shape[0] != N:
        v.append("channel schedule length ≠ N")
    if np.any(c.means <= 0.0) or np.any(c.means > 1.0):
        v.append("channel mean must lie in (0,1]")
    if c.beta is not None and np.any(c.beta < 0.0):
        v.append("beta must be nonnegative")

    if not _check_symmetric(p.sigma_w):
        v.append("sigma_w asymmetric")
    elif not _check_spd(p.sigma_w):
        v.append("sigma_w not positive definite")
    if not _check_symmetric(p.x0_cov):
        v.append("x0_cov asymmetric")
    elif not _check_spd(p.x0_cov):
        v.append("x0_cov not positive definite")
    if not _check_spd(w.q):
        v.append("q not symmetric positive definite")
    for k in range(N):
        if not _check_spd(w.omega_steps[k]):
            v.append(f"omega step {k} not symmetric positive definite")
            break
    for k in range(N):
        if not _check_spd(w.psi_steps[k]):
            v.append(f"psi step {k} not symmetric positive definite")
            break
    # The optimal-law formulas require the input penalty to commute with the
    # channel-mean diagonal, so per-step psi must itself be diagonal.
    for k in range(N):
        off = w.psi_steps[k] - np.diag(np.diag(w.psi_steps[k]))
        if np.max(np.abs(off)) > SYMMETRY_RTOL * max(np.max(np.abs(w.psi_steps[k])), 1.0):
            v.append(f"psi step {k} must be diagonal")
            break

    if s.sim.replicates < 2:
        v.append("sim.replicates must be >= 2")
    if s.sim.steps < 0:
        v.append("sim.steps must be >= 0")
    if s.sim.seed < 0:
        v.append("sim.seed must be a nonnegative integer")
    return v


def _steps_from(block, steps_key: str, single, N: int, name: str) -> np.ndarray:
    if steps_key in block and single in block:
        raise ParseError(f"weights must give either {single} or {steps_key}, not both")
    if steps_key in block:
        arr = _array(block[steps_key], f"weights.{steps_key}", 3)
        return arr
    if single in block:
        one = _array(block[single], f"weights.{single}", 2)
        out = np.repeat(one[np.newaxis, :, :], N, axis=0)
        out.setflags(write=False)
        return out
    raise ParseError(f"weights is missing {single} (or {steps_key})")


def scenario_from_dict(doc: dict) -> Scenario:
    """Build and validate a Scenario from a parsed JSON document."""
    try:
        plant_doc = doc["plant"]
        channel_doc = doc["channel"]
        weights_doc = doc["weights"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing top-level section: {exc}") from exc

    for key in ("a", "b", "sigma_w", "x0_mean", "x0_cov"):
        if key not in plant_doc:
            raise ParseError(f"plant is missing {key}")
    plant = PlantModel(
        a=_array(plant_doc["a"], "plant.a", 2),
        b=_array(plant_doc["b"], "plant.b", 2),
        sigma_w=_array(plant_doc["sigma_w"], "plant.sigma_w", 2),
        x0_mean=_array(plant_doc["x0_mean"], "plant.x0_mean", 1),
        x0_cov=_array(plant_doc["x0_cov"], "plant.x0_cov", 2),
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
    weights = WeightSpec(
        q=_array(weights_doc["q"], "weights.q", 2),
        omega_steps=_steps_from(weights_doc, "omega_steps", "omega", N, "omega"),
        psi_steps=_steps_from(weights_doc, "psi_steps", "psi", N, "psi"),
        horizon=N,
    )

    if doc.get("eval_state") is not None:
        eval_state = _array(doc["eval_state"], "eval_state", 1)
    else:
        eval_state = plant.x0_mean

    sim_doc = doc.get("sim", {})
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
    """Load, validate, and normalize a scenario file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path} must contain a JSON object")
    return scenario_from_dict(doc)


def scenario_to_dict(s: Scenario) -> dict:
    doc = {
        "plant": {
            "a": s.plant.a.tolist(),
            "b": s.plant.b.tolist(),
            "sigma_w": s.plant.sigma_w.tolist(),
            "x0_mean": s.plant.x0_mean.tolist(),
            "x0_cov": s.plant.x0_cov.tolist(),
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
