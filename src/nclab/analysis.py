"""Protocol cost-gap analysis.

The cost gap between operating without and with acknowledgments is

    gap(x) = J_udp(x) - J_tcp(x) = red_tcp(x) - red_udp(x) >= 0,

computed directly from the two reduction terms so the shared constant
terms cancel exactly.  For a scalar (shared) channel mean y in (0, 1) the
gap has the closed form

    gap(y) = y (1 - y) * f' GG(y) Omega_d GF(y) f,        f = Omega_gp x,

with the resolvent maps GF(y) = (y Omega_g + Psi)^{-1} and
GG(y) = (y Omega_h + Omega_d + Psi)^{-1}.  Its derivative in y is the
quadratic form of

    fmat(y) = GG(y) [ (1-2y) Omega_d
                      - y(1-y) (Omega_h GG(y) Omega_d + Omega_d GF(y) Omega_g) ] GF(y),

whose determinant vanishes at 2Nm analytic candidate points
1 / (1 ± sqrt(1 + lambda_i)), where lambda_i are the generalized
eigenvalues of

    T v = lambda H v,   T = Omega_g Od^{-1} (Omega_g + Psi) + Psi Od^{-1} Omega_h,
                        H = Psi Od^{-1} (Omega_d + Psi).

A candidate is only a critical point of the gap when the whole derivative
matrix is annihilated there (Rayleigh-quotient condition); on stacked
multichannel systems that filter typically rejects every candidate and the
maximizer falls back to a grid + golden-section search.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .controller import Protocol, expected_cost, expected_costs
from .prediction import PredictionOperators

__all__ = [
    "GapReport",
    "RootCandidate",
    "MaxDiffReport",
    "cost_gap",
    "scalar_cost_gap",
    "gap_derivative",
    "root_lambdas",
    "determinant_root_candidates",
    "derivative_matrix",
    "maximal_gap",
    "monotonic_sweep",
    "iso_cost_transmission",
    "write_sweep_csv",
]

EIGCOND_RTOL = 1e-8
GRID_POINTS = 1000
REFINE_TOL = 1e-8


@dataclass(frozen=True)
class GapReport:
    j_tcp: float
    j_udp: float
    gap: float


@dataclass(frozen=True)
class RootCandidate:
    value: complex          # real-valued candidates carry zero imaginary part
    lam: float              # generating eigenvalue
    real: bool
    in_unit: bool           # real and within [0, 1]
    eigcond: bool           # derivative matrix annihilated at the candidate
    valid: bool             # real and in_unit


@dataclass(frozen=True)
class MaxDiffReport:
    lambdas: np.ndarray
    candidates: list[RootCandidate]
    maximizer: float
    gap_at_max: float
    method: str                      # "analytic_roots" | "grid_fallback"
    analytic_best: float | None = field(default=None)  # best unfiltered root


def cost_gap(ops: PredictionOperators, x: np.ndarray, upsilon=None) -> GapReport:
    """Exact protocol cost gap at the operators' channel means."""
    tcp = expected_cost(ops, Protocol.TCP_LIKE, x, upsilon=upsilon)
    udp = expected_cost(ops, Protocol.UDP_LIKE, x, upsilon=upsilon)
    return GapReport(j_tcp=tcp.total, j_udp=udp.total,
                     gap=tcp.reduction_term - udp.reduction_term)


def _check_scalar_upsilon(u: float) -> float:
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError("upsilon outside (0,1)")
    return u


def scalar_cost_gap(ops: PredictionOperators, upsilon: float, x: np.ndarray) -> float:
    """Gap for a single shared channel mean, via the trace form."""
    u = _check_scalar_upsilon(upsilon)
    f = ops.omega_gp @ np.asarray(x, dtype=float)
    gf_f = np.linalg.solve(u * ops.omega_g + ops.psi, f)
    gg_df = np.linalg.solve(u * ops.omega_h + ops.omega_d + ops.psi, ops.omega_d @ gf_f)
    return u * (1.0 - u) * float(f @ gg_df)


def gap_derivative(ops: PredictionOperators, upsilon: float, x: np.ndarray) -> float:
    """d gap / d upsilon at a shared channel mean."""
    u = _check_scalar_upsilon(upsilon)
    og, od, oh, psi = ops.omega_g, ops.omega_d, ops.omega_h, ops.psi
    f = ops.omega_gp @ np.asarray(x, dtype=float)
    gf_i = u * og + psi
    gg_i = u * oh + od + psi
    a = np.linalg.solve(gf_i, f)             # GF f
    bvec = np.linalg.solve(gg_i, f)          # GG f
    term = (1.0 - 2.0 * u) * float(bvec @ od @ a)
    term -= u * (1.0 - u) * float(bvec @ oh @ np.linalg.solve(gg_i, od @ a))
    term -= u * (1.0 - u) * float(bvec @ od @ np.linalg.solve(gf_i, og @ a))
    return term


def derivative_matrix(ops: PredictionOperators, upsilon: float) -> np.ndarray:
    """fmat(y): the gap derivative equals f' fmat(y) f with f = Omega_gp x."""
    u = float(upsilon)
    og, od, oh, psi = ops.omega_g, ops.omega_d, ops.omega_h, ops.psi
    gf = np.linalg.inv(u * og + psi)
    gg = np.linalg.inv(u * oh + od + psi)
    inner = (1.0 - 2.0 * u) * od - u * (1.0 - u) * (oh @ gg @ od + od @ gf @ og)
    return gg @ inner @ gf


def _pencil(ops: PredictionOperators) -> tuple[np.ndarray, np.ndarray]:
    d = np.diag(ops.omega_d)
    od_inv = np.diag(1.0 / d)
    t = ops.omega_g @ od_inv @ (ops.omega_g + ops.psi) + ops.psi @ od_inv @ ops.omega_h
    t = 0.5 * (t + t.T)
    h_diag = np.diag(ops.psi) * (d + np.diag(ops.psi)) / d
    return t, h_diag


def root_lambdas(ops: PredictionOperators) -> np.ndarray:
    """Generalized eigenvalues of (T, H), ascending."""
    t, h_diag = _pencil(ops)
    lam = scipy.linalg.eigh(t, np.diag(h_diag), eigvals_only=True)
    return np.sort(lam)


def _polish_root(u: float, t: np.ndarray, h_diag: np.ndarray) -> float:
    """Newton steps on the smallest eigenvalue of the quadratic pencil
    P(u) = u^2 T + 2u H - H; eigensolver error in the generating lambda is
    amplified for extreme candidates, so roots are refined in place."""
    for _ in range(8):
        p = (u * u) * t + np.diag((2.0 * u - 1.0) * h_diag)
        vals, vecs = np.linalg.eigh(p)
        j = int(np.argmin(np.abs(vals)))
        w = vecs[:, j]
        slope = float(w @ (2.0 * u * t + np.diag(2.0 * h_diag)) @ w)
        if slope == 0.0:
            break
        step = float(vals[j]) / slope
        nxt = u - step
        if not 0.0 < nxt < 1.0:
            break
        u = nxt
        if abs(step) <= 1e-15 * max(u, 1e-6):
            break
    return u


def determinant_root_candidates(ops: PredictionOperators) -> list[RootCandidate]:
    """All 2Nm candidate channel means where the derivative matrix is
    singular; complex and out-of-range values are flagged invalid."""
    lams = root_lambdas(ops)
    t, h_diag = _pencil(ops)
    scale = np.linalg.norm(derivative_matrix(ops, 0.5), 2)
    out: list[RootCandidate] = []
    for lam in lams:
        disc = 1.0 + lam
        if disc < 0.0:
            root = complex(0.0, np.sqrt(-disc))
            pair = (1.0 / (1.0 + root), 1.0 / (1.0 - root))
        else:
            r = np.sqrt(disc)
            pair = (complex(1.0 / (1.0 + r)),
                    complex(np.inf) if r == 1.0 else complex(1.0 / (1.0 - r)))
        for value in pair:
            is_real = value.imag == 0.0 and np.isfinite(value.real)
            eigcond = False
            if is_real and 0.0 < value.real < 1.0:
                value = complex(_polish_root(value.real, t, h_diag))
                eigs = np.linalg.eigvals(derivative_matrix(ops, value.real))
                eigcond = bool(np.max(np.abs(eigs)) <= EIGCOND_RTOL * scale)
            in_unit = bool(is_real and 0.0 <= value.real <= 1.0)
            out.append(RootCandidate(value=value, lam=float(lam), real=bool(is_real),
                                     in_unit=in_unit, eigcond=eigcond,
                                     valid=bool(is_real and in_unit)))
    return out


def _grid_maximize(gap, lo: float = 1e-6, hi: float = 1.0 - 1e-6) -> float:
    """Grid scan + golden-section refinement of a scalar gap function."""
    grid = np.linspace(lo, hi, GRID_POINTS)
    vals = np.array([gap(u) for u in grid])
    i = int(np.argmax(vals))
    a = grid[max(i - 1, 0)]
    b = grid[min(i + 1, GRID_POINTS - 1)]
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = gap(c), gap(d)
    while b - a > REFINE_TOL:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = gap(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = gap(d)
    return 0.5 * (a + b)


def maximal_gap(ops: PredictionOperators, x: np.ndarray) -> MaxDiffReport:
    """Shared-channel mean of maximal protocol cost gap.

    Analytic path: among determinant-root candidates in [0, 1] that satisfy
    the annihilation condition, pick the one with the largest gap.  When no
    candidate passes (the usual case for stacked multichannel systems), a
    1000-point grid with golden-section refinement locates the maximum and
    the report records ``method="grid_fallback"``.
    """
    x = np.asarray(x, dtype=float)
    cands = determinant_root_candidates(ops)
    lams = np.array(sorted({c.lam for c in cands}))

    def gap(u: float) -> float:
        if not 0.0 < u < 1.0:
            return 0.0
        return scalar_cost_gap(ops, u, x)

    interior = [c.value.real for c in cands if c.valid]
    analytic_best = max(interior, key=gap) if interior else None

    passing = [c.value.real for c in cands if c.valid and c.eigcond]
    if passing:
        best = max(passing, key=gap)
        method = "analytic_roots"
    else:
        best = _grid_maximize(gap)
        method = "grid_fallback"
    return MaxDiffReport(lambdas=lams, candidates=cands, maximizer=float(best),
                         gap_at_max=gap(float(best)), method=method,
                         analytic_best=analytic_best)


def monotonic_sweep(ops: PredictionOperators, grid, protocol: Protocol,
                    x: np.ndarray) -> np.ndarray:
    """Expected costs along a strictly increasing sequence of per-channel
    mean vectors; the optimal cost strictly decreases along the sequence."""
    mus = [np.atleast_1d(np.asarray(mu, dtype=float)) for mu in grid]
    if len(mus) < 2:
        raise ValueError("grid needs at least two points")
    mus = np.array(mus)
    if not np.all(mus[1:] > mus[:-1]):
        raise ValueError("grid not strictly increasing (entrywise)")
    return expected_costs(ops, protocol, x, mus)


def iso_cost_transmission(ops: PredictionOperators, m1: float, x: np.ndarray,
                          rtol: float = 1e-9) -> float:
    """Shared TCP mean t* whose cost equals the UDP cost at shared mean m1.

    Because the gap is positive below a perfect channel and costs decrease
    in the means, t* < m1 whenever m1 < 1: acknowledged operation tolerates
    more loss at equal cost.  Bisection on (0, m1].
    """
    m1 = float(m1)
    if not 0.0 < m1 <= 1.0:
        raise ValueError("channel mean must lie in (0,1]")
    target = expected_cost(ops, Protocol.UDP_LIKE, x, upsilon=m1).total

    def resid(t: float) -> float:
        return expected_cost(ops, Protocol.TCP_LIKE, x, upsilon=t).total - target

    hi = m1
    r_hi = resid(hi)
    if abs(r_hi) <= rtol * abs(target):
        return hi
    if r_hi > 0.0:
        raise ValueError("no root bracketed: TCP cost at m1 exceeds the UDP target")
    lo = m1
    while True:
        lo *= 0.5
        if resid(lo) > 0.0:
            break
        if lo < 1e-300:
            raise ValueError("no root bracketed below m1")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        r = resid(mid)
        if abs(r) <= rtol * abs(target):
            return mid
        if r > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def write_sweep_csv(path, mus, j_tcp, j_udp) -> None:
    """CSV rows ``mu_1[,mu_2,...],j_tcp,j_udp,gap``."""
    mus = np.asarray(mus, dtype=float).reshape(len(mus), -1)
    header = [f"mu_{i+1}" for i in range(mus.shape[1])] + ["j_tcp", "j_udp", "gap"]
    lines = [",".join(header)]
    for mu, jt, ju in zip(mus.tolist(), np.asarray(j_tcp, dtype=float).tolist(),
                          np.asarray(j_udp, dtype=float).tolist()):
        cells = [f"{v:.9g}" for v in mu] + [f"{jt:.9g}", f"{ju:.9g}", f"{ju - jt:.9g}"]
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
