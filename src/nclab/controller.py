"""Optimal finite-horizon laws and exact expected costs for both protocols.

Writing Y for the stacked channel-mean diagonal, the protocol Gram matrices
are

    acknowledged (TCP-like):    G = Omega_g Y + Psi
    unacknowledged (UDP-like):  G = Omega_g Y + Psi + (I ∘ Omega_g)(I - Y)

and the optimal stacked input is U*(x) = -K x with K = G^{-1} Omega_gp.
G is asymmetric as written, so K is obtained from the equivalent symmetric
positive-definite system (Y G) K = Y Omega_gp, which admits a Cholesky
factorization.  The optimal expected cost is

    J*(x) = x'(Q + Omega_p) x + tr(Sigma_W Omega_l) - x' Omega_gp' Y G^{-1} Omega_gp x,

evaluated through the same symmetric solve: with S = Y G = L L', the
reduction term is |L^{-1} Y Omega_gp x|^2, a nonnegative quadratic form.

There is one Gram-solve path.  It assembles and factors S for a stack of B
channel-mean diagonals at once (``expected_costs``); ``expected_cost`` and
``synthesize`` are batches of one, so a sweep or a grid and a single query
give the same numbers for the same means.

The acknowledgment itself has no runtime effect on the law under perfect
state feedback: transmission realizations enter only the estimator error,
so the two protocols differ solely through G.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtrsm as _dtrsm

from .prediction import PredictionOperators
from .scenario import PlantModel

# Byte budget of one chunk of (N m)^2 Gram matrices in a batched evaluation.
_CHUNK_BYTES = 1 << 20

__all__ = [
    "Protocol",
    "ControlLaw",
    "CostReport",
    "synthesize",
    "expected_cost",
    "expected_costs",
    "error_quadratic_expectation",
    "bernoulli_quadratic_expectation",
    "optimal_sequence",
    "closed_loop_eigenvalues",
]


class Protocol(enum.Enum):
    TCP_LIKE = "tcp"
    UDP_LIKE = "udp"

    @classmethod
    def parse(cls, tag: str) -> "Protocol":
        try:
            return cls(tag.lower())
        except ValueError:
            raise ValueError(f"unknown protocol {tag!r}; expected 'tcp' or 'udp'") from None


@dataclass(frozen=True)
class ControlLaw:
    protocol: Protocol
    g: np.ndarray        # (Nm, Nm) protocol Gram matrix
    k: np.ndarray        # (Nm, n) stacked gain, U*(x) = -K x
    k_first: np.ndarray  # (m, n) first block of k


@dataclass(frozen=True)
class CostReport:
    total: float
    constant_term: float   # x'(Q+Omega_p)x + tr(Sigma_W Omega_l)
    reduction_term: float  # x'Omega_gp' Y G^{-1} Omega_gp x, >= 0


def _gram(ops: PredictionOperators, protocol: Protocol, upsilon: np.ndarray) -> np.ndarray:
    g = ops.omega_g * upsilon[np.newaxis, :] + ops.psi
    if protocol is Protocol.UDP_LIKE:
        g = g + np.diag(np.diag(ops.omega_d) * (1.0 - upsilon))
    return g


def _cholesky(ops: PredictionOperators, protocol: Protocol, u: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of S = Y G, symmetric positive definite, for a
    (B, N*m) stack of channel-mean diagonals."""
    s = (u[:, :, np.newaxis] * ops.omega_g) * u[:, np.newaxis, :] + u[:, :, np.newaxis] * ops.psi
    if protocol is Protocol.UDP_LIKE:
        i = np.arange(u.shape[1])
        s[:, i, i] += u * np.diag(ops.omega_d) * (1.0 - u)
    s = 0.5 * (s + s.transpose(0, 2, 1))
    try:
        return np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular protocol Gram system: {exc}") from exc


def _trsolve(factor: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve L w = rhs, or L' w = rhs when ``transpose``, for each member of
    a stack of lower Cholesky factors L and (Nm, k) right-hand sides.

    L is C-ordered, so L.T is L' in Fortran order and BLAS reads it
    uncopied.  BLAS trsm rather than LAPACK trtrs (which scipy's
    solve_triangular calls): OpenBLAS's trtrs may hand even a 20x20 system
    with two right-hand sides to its worker threads, and waking them took
    milliseconds per solve on a loaded 2-CPU machine.
    """
    out = np.empty(rhs.shape)
    for b in range(factor.shape[0]):
        out[b] = _dtrsm(1.0, factor[b].T, rhs[b], lower=0, trans_a=0 if transpose else 1)
    return out


def _constant_term(ops: PredictionOperators, x: np.ndarray) -> float:
    """x'(Q + Omega_p)x + tr(Sigma_W Omega_l), the cost with no input."""
    return float(x @ (ops.q + ops.omega_p) @ x) + ops.noise_trace


def _reductions(ops: PredictionOperators, protocol: Protocol, x: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Reduction terms b' S^{-1} b = |L^{-1} b|^2, b = Y Omega_gp x, for a
    validated stack from ``_resolve_stack``.  Rows are expanded to stacked
    diagonals and factored in chunks of about _CHUNK_BYTES of Gram matrices,
    so that memory stays flat in the number of rows."""
    nm = ops.horizon * ops.m
    f = ops.omega_gp @ x
    rows = max(1, _CHUNK_BYTES // (8 * nm * nm))
    out = np.empty(u.shape[0])
    for lo in range(0, u.shape[0], rows):
        chunk = np.tile(u[lo:lo + rows], (1, nm // u.shape[1]))
        w = _trsolve(_cholesky(ops, protocol, chunk), (chunk * f)[:, :, np.newaxis])
        out[lo:lo + rows] = np.einsum("bij,bij->b", w, w)
    return out


def _resolve_stack(ops: PredictionOperators, upsilon) -> np.ndarray:
    """Validated (B, w) stack of channel means with w = 1 (one shared mean
    per row), m (stationary per-channel means) or N*m (full stacked
    diagonal); a (B,) stack counts as w = 1.  Tiling a row N*m/w times gives
    its stacked diagonal."""
    nm = ops.horizon * ops.m
    u = np.asarray(upsilon, dtype=float)
    if u.ndim == 1:
        u = u[:, np.newaxis]
    if u.ndim != 2 or u.shape[1] not in (1, ops.m, nm):
        raise ValueError(f"upsilon override has shape {u.shape[1:]}; expected scalar, "
                         f"({ops.m},) or ({nm},)")
    if not np.all((u > 0.0) & (u <= 1.0)):
        raise ValueError("channel mean must lie in (0,1]")
    return u


def _resolve_upsilon(ops: PredictionOperators, upsilon) -> np.ndarray:
    if upsilon is None:
        return ops.upsilon_diag
    row = _resolve_stack(ops, np.asarray(upsilon, dtype=float)[np.newaxis])[0]
    return np.tile(row, ops.horizon * ops.m // row.shape[0])


def synthesize(ops: PredictionOperators, protocol: Protocol, upsilon=None) -> ControlLaw:
    """Solve for the stacked gain of one protocol.

    ``upsilon`` optionally overrides the channel means baked into ``ops``
    (scalar: shared by all channels and steps; length-m vector: stationary
    per-channel; length N*m: full stacked diagonal).
    """
    u = _resolve_upsilon(ops, upsilon)
    factor = _cholesky(ops, protocol, u[np.newaxis])
    w = _trsolve(factor, (u[:, np.newaxis] * ops.omega_gp)[np.newaxis])
    k = _trsolve(factor, w, transpose=True)[0]
    return ControlLaw(protocol=protocol, g=_gram(ops, protocol, u),
                      k=k, k_first=k[: ops.m, :])


def expected_cost(ops: PredictionOperators, protocol: Protocol, x: np.ndarray,
                  upsilon=None) -> CostReport:
    """Exact expected optimal cost at measured state x."""
    u = _resolve_upsilon(ops, upsilon)
    x = np.asarray(x, dtype=float)
    constant = _constant_term(ops, x)
    reduction = float(_reductions(ops, protocol, x, u[np.newaxis])[0])
    return CostReport(total=constant - reduction, constant_term=constant,
                      reduction_term=reduction)


def expected_costs(ops: PredictionOperators, protocol: Protocol, x: np.ndarray,
                   upsilon) -> np.ndarray:
    """Exact expected optimal costs at measured state x for a stack of
    channel-mean overrides, one row per evaluation point: shape (B,) for a
    shared mean, (B, m) for stationary per-channel means, or (B, N*m) for
    full stacked diagonals.  Row b equals
    ``expected_cost(ops, protocol, x, upsilon[b]).total``.
    """
    u = _resolve_stack(ops, upsilon)
    x = np.asarray(x, dtype=float)
    return _constant_term(ops, x) - _reductions(ops, protocol, x, u)


def error_quadratic_expectation(ops: PredictionOperators, protocol: Protocol,
                                u_seq: np.ndarray, upsilon=None) -> float:
    """E[E' Omega E] for the prediction error of one protocol at a fixed
    planned input sequence.

    Acknowledged: tr(Omega_l Sigma_W), independent of the inputs.
    Unacknowledged: adds U' Y (I ∘ Omega_g)(I - Y) U, the price of planning
    against the channel mean instead of its realization.
    """
    base = ops.noise_trace
    if protocol is Protocol.TCP_LIKE:
        return base
    u = _resolve_upsilon(ops, upsilon)
    u_seq = np.asarray(u_seq, dtype=float)
    d = np.diag(ops.omega_d)
    return base + float(np.sum(u * d * (1.0 - u) * u_seq * u_seq))


def bernoulli_quadratic_expectation(omega_g: np.ndarray, upsilon_diag: np.ndarray,
                                    u_seq: np.ndarray) -> float:
    """E[U' Y' Omega_g Y U] over an independent Bernoulli diagonal Y with
    mean diag(upsilon_diag):  U'Y Omega_g Y U + U'Y(I ∘ Omega_g)(I-Y)U."""
    u_seq = np.asarray(u_seq, dtype=float)
    ub = np.asarray(upsilon_diag, dtype=float)
    yu = ub * u_seq
    mean_part = float(yu @ omega_g @ yu)
    var_part = float(np.sum(ub * (1.0 - ub) * np.diag(omega_g) * u_seq * u_seq))
    return mean_part + var_part


def optimal_sequence(law: ControlLaw, x: np.ndarray) -> np.ndarray:
    """Stacked optimal input sequence -K x (length N*m)."""
    return -(law.k @ np.asarray(x, dtype=float))


def closed_loop_eigenvalues(law: ControlLaw, plant: PlantModel) -> np.ndarray:
    """Eigenvalues of A - B K_first, sorted by descending real part, then
    descending imaginary part (a deterministic order for golden tests)."""
    acl = plant.a - plant.b @ law.k_first
    try:
        eig = np.linalg.eigvals(acl)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"eigenvalue solver failed: {exc}") from exc
    order = np.lexsort((-eig.imag, -eig.real))
    return eig[order]
