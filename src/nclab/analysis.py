"""Protocol cost-gap analysis.

The cost gap between operating without and with acknowledgments is

    gap(x) = J_udp(x) - J_tcp(x) = red_tcp(x) - red_udp(x) >= 0,

computed directly from the two reduction terms so the shared constant
terms cancel exactly.  For a scalar (shared) channel mean y in [0, 1] the
gap is

    gap(y) = y (1 - y) * f' GG(y) Omega_d GF(y) f,        f = Omega_gp x,

with the resolvent maps GF(y) = (y Omega_g + Psi)^{-1} and
GG(y) = (y Omega_h + Omega_d + Psi)^{-1}, Omega_h = Omega_g - Omega_d
(formed where needed by ``_omega_h``).  Psi and Omega_d are held as vectors,
and a product with one is a broadcast scaling with the dense product's bits
(M * (1.0 / d) for M Omega_d^{-1}).  Psi and Omega_d + Psi are diagonal and
positive, so each resolvent comes from one symmetric-definite
eigendecomposition (Golub and Van Loan, Matrix Computations, sec. 8.7):

    Omega_g V = Psi V diag(lam),              V' Psi V = I,
    Omega_h W = (Omega_d + Psi) W diag(kap),  W' (Omega_d + Psi) W = I,

and the whole curve is

    gap(y) = y (1 - y) sum_ij b_i C_ij a_j / ((1 + y kap_i)(1 + y lam_j)),

with a = V' f, b = W' f and C = W' Omega_d V (``_gap_curve``).  Every gap
value of the maximizer is read from that one curve; no point needs a
solve.  The derivative in y is f' fmat(y) f with

    fmat(y) = GG(y) [ (1-2y) Omega_d
                      - y(1-y) (Omega_h GG(y) Omega_d + Omega_d GF(y) Omega_g) ] GF(y)
            = W X(y) V',
    X_ij(y) = C_ij [(1-2y) - y(1-y) (kap_i/(1+y kap_i) + lam_j/(1+y lam_j))]
              / ((1 + y kap_i)(1 + y lam_j)),

so the derivative is b' X(y) a and tr fmat(y) = sum_ij X_ij (V'W)_ji, each
O((Nm)^2) per point from the same two decompositions (``_spectrum``).
The determinant of fmat vanishes at 2Nm analytic candidate points
1 / (1 ± sqrt(1 + lambda_i)), where lambda_i are the generalized
eigenvalues of

    T v = lambda H v,   T = Omega_g Od^{-1} (Omega_g + Psi) + Psi Od^{-1} Omega_h,
                        H = Psi Od^{-1} (Omega_d + Psi).

T + H = (Omega_g + Psi) Od^{-1} (Omega_g + Psi) and H are positive definite,
so 1 + lambda = v'(T + H) v / v'H v > 0: every candidate is real, inf where
lambda = 0, and NaN only where rounding takes 1 + lambda below 0 (four
lambdas on ``mixed`` with omega[0][0] x 1e200).

A candidate is only a critical point of the gap when the whole derivative
matrix is annihilated there (Rayleigh-quotient condition); on stacked
multichannel systems that filter typically rejects every candidate and the
maximizer falls back to a grid + golden-section search.

The candidates are Newton-polished (``_polish_roots``).  Each round is one
array step over the candidates still moving: one stacked ``eigh`` of their
pencils, which is the same LAPACK call per matrix, and one stacked product
for the slopes, which reads each eigenvector with the stride a single
candidate's product reads it.  So the iterates are those of a per-candidate
loop bit for bit.  A candidate stops once its Newton step is at most
1e-12 max(u, 1e-6) (``_POLISH_STOP``), three decades below the 9 digits
the command line prints: once a candidate has converged, the ``eigh``
rounding keeps its steps between 1e-15 and 1e-12 relative, so a tighter
stop runs every round without changing a printed digit, and a looser one
moves printed digits (at 1e-10, 5 ``pendulum`` candidates print
differently).

The chunks of candidates do not depend on each other, so they are
polished on ``_openblas.spare_cpus()`` threads, at most one per chunk
(``_openblas`` gives the rule).  Each chunk holds as many candidates as
fit ``controller._CHUNK_BYTES`` of pencils and slope matrices, and at
least one.  The results are stored by chunk, and each matrix goes through
the same LAPACK call as in a serial loop, so the candidates are the same
bits on any number of threads.

The annihilation test asks whether the spectral radius of fmat is at most
``EIGCOND_RTOL`` times its 2-norm at y = 1/2.  The radius is at least
|tr fmat| / Nm, so a trace above twice that threshold times Nm rejects a
candidate without eigenvalues; only a candidate the bound leaves open goes
through ``np.linalg.eigvals``.  On ``pendulum`` and ``mixed`` the bound decides
every candidate with a margin above 10^5.

The polish and the fallback's ``REFINE_TOL`` bracket are not the best
available methods: the raw candidates are already roots to working
precision, and Brent's method on the exact derivative would fix more
digits.  Both stay because the recorded ``maxdiff`` outputs (9 significant
digits) pin the values they produce; the candidates are ill-conditioned
past about 7 digits (Tisseur and Meerbergen, SIAM Review 2001), so another
correct method prints different ones.  Removing the polish or switching
to Brent's method belongs with a benchmark change that re-records the
``maxdiff`` reference entries (the ROADMAP item "``maxdiff``: no Newton
polish, no polish threads, and Brent's method instead of the golden
section").
"""

from __future__ import annotations

import contextvars
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _openblas
from ._csv import write_csv
from .controller import Protocol, _chunks, expected_cost, expected_costs, line_resolvents
from .prediction import PredictionOperators

__all__ = [
    "GapReport",
    "RootCandidate",
    "MaxDiffReport",
    "cost_gap",
    "scalar_cost_gap",
    "gap_derivative",
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
# Relative distance to the UDP target at which iso_cost_transmission returns m1.
ISO_COST_RTOL = 1e-9
# Relative step at which the Newton polish stops a candidate.
_POLISH_STOP = 1e-12


@dataclass(frozen=True)
class GapReport:
    j_tcp: float
    j_udp: float
    gap: float


@dataclass(frozen=True)
class RootCandidate:
    """1 / (1 ± sqrt(1 + lambda)); NaN and inf as the module docstring says."""
    value: float
    eigcond: bool           # derivative matrix annihilated at the candidate
    valid: bool             # within [0, 1]
    # a finite value; the benchmark's layer metrics count candidates by it
    real = property(lambda self: bool(np.isfinite(self.value)))


@dataclass(frozen=True)
class MaxDiffReport:
    candidates: list[RootCandidate]
    maximizer: float
    gap_at_max: float
    method: str                      # "analytic_roots" | "grid_fallback"
    analytic_best: float | None      # best unfiltered root


def cost_gap(ops: PredictionOperators, x: np.ndarray, upsilon=None) -> GapReport:
    """Exact protocol cost gap at the operators' channel means."""
    tcp = expected_cost(ops, Protocol.TCP_LIKE, x, upsilon=upsilon)
    udp = expected_cost(ops, Protocol.UDP_LIKE, x, upsilon=upsilon)
    return GapReport(j_tcp=tcp.total, j_udp=udp.total,
                     gap=tcp.reduction_term - udp.reduction_term)


def _omega_h(ops: PredictionOperators) -> np.ndarray:
    """Omega_h = Omega_g - Omega_d: Omega_g with a zero diagonal."""
    oh = ops.omega_g.copy()
    oh.reshape(-1)[::len(oh) + 1] = 0.0
    return oh


def _spectrum(ops: PredictionOperators):
    """The two symmetric-definite pencils of the module docstring, as
    (lam, V, kap, W, C).  Scaling by Psi^(-1/2) and (Omega_d+Psi)^(-1/2)
    makes each pencil one symmetric eigenproblem: V = Psi^(-1/2) Q and
    W = (Omega_d+Psi)^(-1/2) P with Q, P its orthogonal eigenvectors."""
    s_f = 1.0 / np.sqrt(ops.psi)
    s_g = 1.0 / np.sqrt(ops.omega_d + ops.psi)
    lam, q = np.linalg.eigh(s_f[:, None] * ops.omega_g * s_f)
    kap, p = np.linalg.eigh(s_g[:, None] * _omega_h(ops) * s_g)
    v = s_f[:, None] * q
    w = s_g[:, None] * p
    return lam, v, kap, w, w.T @ (ops.omega_d[:, None] * v)


def _gap_curve(ops: PredictionOperators, x: np.ndarray, spectrum=None):
    """The shared-mean gap as a vectorized function of y in [0, 1] (module
    docstring), from ``spectrum`` when the caller has it."""
    f = ops.omega_gp @ np.asarray(x, dtype=float)
    lam, v, kap, w, c = _spectrum(ops) if spectrum is None else spectrum
    a = v.T @ f
    b = w.T @ f

    def gap(y):
        y = np.asarray(y, dtype=float)
        yc = y[..., None]
        quad = np.sum(((b / (1.0 + yc * kap)) @ c) * (a / (1.0 + yc * lam)), axis=-1)
        return y * (1.0 - y) * quad

    return gap


def _derivative_form(lam, kap, g, y, left, right):
    """sum_ij left_i X_ij(y) g_ij right_j for each y of a vector, where
    fmat(y) = W X(y) V' (module docstring); the three terms of X are each a
    bilinear form in g, so no n x n matrix is built per point."""
    y = np.asarray(y, dtype=float)
    rk = 1.0 / (1.0 + y[:, None] * kap)
    rl = 1.0 / (1.0 + y[:, None] * lam)
    lk, rr = left * rk, right * rl

    def form(lhs, rhs):
        return np.sum((lhs @ g) * rhs, axis=-1)

    return ((1.0 - 2.0 * y) * form(lk, rr)
            - y * (1.0 - y) * (form(lk * kap * rk, rr) + form(lk, rr * lam * rl)))


def _fmat_traces(spectrum, y) -> np.ndarray:
    """tr fmat(y) = sum_ij X_ij(y) (V'W)_ji for each y of a vector."""
    lam, v, kap, w, c = spectrum
    return _derivative_form(lam, kap, c * (w.T @ v), y, 1.0, 1.0)


def _check_scalar_upsilon(u: float) -> float:
    u = float(u)
    if not 0.0 < u < 1.0:
        raise ValueError("upsilon outside (0,1)")
    return u


def scalar_cost_gap(ops: PredictionOperators, upsilon: float, x: np.ndarray) -> float:
    """Gap for a single shared channel mean, from the spectral curve."""
    u = _check_scalar_upsilon(upsilon)
    return float(_gap_curve(ops, x)(u))


def gap_derivative(ops: PredictionOperators, upsilon: float, x: np.ndarray) -> float:
    """d gap / d upsilon at a shared channel mean: f' fmat(y) f = b' X(y) a
    with a = V' f and b = W' f (module docstring)."""
    u = _check_scalar_upsilon(upsilon)
    f = ops.omega_gp @ np.asarray(x, dtype=float)
    lam, v, kap, w, c = _spectrum(ops)
    return float(_derivative_form(lam, kap, c, [u], w.T @ f, v.T @ f)[0])


def derivative_matrix(ops: PredictionOperators, upsilon: float) -> np.ndarray:
    """fmat(y): the gap derivative equals f' fmat(y) f with f = Omega_gp x."""
    u = float(upsilon)
    og, od, oh, psi = ops.omega_g, ops.omega_d, _omega_h(ops), ops.psi
    gf, gg, diag = u * og, u * oh, slice(None, None, len(og) + 1)  # flat diagonal
    gf.reshape(-1)[diag] += psi
    gg.reshape(-1)[diag] = od + psi
    gf, gg = np.linalg.inv(gf), np.linalg.inv(gg)
    inner = -(u * (1.0 - u)) * (oh @ gg * od + od[:, None] * gf @ og)
    inner.reshape(-1)[diag] += (1.0 - 2.0 * u) * od
    return gg @ inner @ gf


def _pencil(ops: PredictionOperators) -> tuple[np.ndarray, np.ndarray]:
    """T and the diagonal of H.  Refused where an Omega_d entry is 0, as
    when it underflows, and where 2 (max|T| + max|H|) is not finite: that
    bounds every entry of P(u) = u^2 T + (2u - 1) H and P'(u) = 2u T + 2H
    on (0, 1)."""
    d, psi = ops.omega_d, ops.psi
    if not np.all(d != 0.0):
        raise ValueError("root pencil: an entry of Omega_d is 0")
    # a pencil past the float range is refused below, by name
    with np.errstate(over="ignore", invalid="ignore"):
        og_psi = ops.omega_g.copy()
        og_psi.reshape(-1)[::len(psi) + 1] += psi
        t = (ops.omega_g * (1.0 / d)) @ og_psi + (psi * (1.0 / d))[:, None] * _omega_h(ops)
        t, h_diag = 0.5 * (t + t.T), psi * (d + psi) / d
        bound = 2.0 * (np.max(np.abs(t)) + np.max(np.abs(h_diag)))
    if not np.isfinite(bound):
        raise ValueError("root pencil: 2 (max|T| + max|H|) is not finite")
    return t, h_diag


def _pencil_lambdas(t: np.ndarray, h_diag: np.ndarray) -> np.ndarray:
    from scipy.linalg import eigh

    return eigh(t, np.diag(h_diag), eigvals_only=True)  # ascending


def _newton_round(u: np.ndarray, t: np.ndarray, h_diag: np.ndarray):
    """For each candidate u: the eigenvalue of least modulus of the pencil
    P(u) = u^2 T + 2u H - H, from one stacked ``eigh``, and its slope
    w' P'(u) w in its eigenvector w, from one stacked product."""
    diag = np.arange(len(h_diag))
    p = (u * u)[:, None, None] * t
    p[:, diag, diag] += (2.0 * u - 1.0)[:, None] * h_diag
    vals, vecs = np.linalg.eigh(p)
    rows = np.arange(len(u))
    j = np.argmin(np.abs(vals), axis=1)
    # each w as a strided column, as w @ P'(u) @ w of one candidate reads
    # it, so that BLAS takes the same kernels and the slopes the same bits
    vecs[:, :, 0] = vecs[rows, :, j]
    w = vecs[:, :, :1]
    dp = (2.0 * u)[:, None, None] * t
    dp[:, diag, diag] += 2.0 * h_diag
    return vals[rows, j], (w.swapaxes(1, 2) @ dp @ w)[:, 0, 0]


def _polish_roots(us, t: np.ndarray, h_diag: np.ndarray) -> np.ndarray:
    """Newton steps on the smallest eigenvalue of the quadratic pencil
    P(u) = u^2 T + 2u H - H; eigensolver error in the generating lambda is
    amplified for extreme candidates, so roots are refined in place.  Each
    round is one ``_newton_round`` over the candidates still moving.  A
    candidate stops when its slope is 0, when its next iterate leaves
    (0, 1), or once its step is at most ``_POLISH_STOP`` max(u, 1e-6)
    (module docstring)."""
    us = np.array(us, dtype=float)
    active = np.arange(len(us))
    for _ in range(8):
        if not active.size:
            break
        u = us[active]
        val, slope = _newton_round(u, t, h_diag)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = val / slope
        nxt = u - step
        ok = (slope != 0.0) & (0.0 < nxt) & (nxt < 1.0)
        us[active[ok]] = nxt[ok]
        active = active[ok & (np.abs(step) > _POLISH_STOP * np.maximum(nxt, 1e-6))]
    return us


def _decide_chunk(ops, spectrum, scale, t, h_diag, us):
    """Polish one chunk of candidates and test each for annihilation: by the
    trace bound as one mask, and where that leaves it open by its eigenvalues
    (a derivative matrix past the float range is not annihilated)."""
    us = _polish_roots(us, t, h_diag)
    bound = np.abs(_fmat_traces(spectrum, us)) / len(h_diag) > 2.0 * EIGCOND_RTOL * scale
    flags = np.zeros(len(us), dtype=bool)
    open_ = np.flatnonzero(~bound)
    with np.errstate(over="ignore", invalid="ignore"):  # not finite: not annihilated
        fmats = [derivative_matrix(ops, u) for u in us[open_]]
    flags[open_] = [np.all(np.isfinite(fmat)) and np.max(np.abs(np.linalg.eigvals(fmat)))
                    <= EIGCOND_RTOL * scale for fmat in fmats]
    return us, flags


def determinant_root_candidates(ops: PredictionOperators, *,
                                spectrum=None) -> list[RootCandidate]:
    """The 2Nm channel means 1 / (1 ± sqrt(1 + lambda)) where the derivative
    matrix is singular; NaN, inf and values outside [0, 1] are invalid.  A
    candidate in (0, 1) is polished, then tested for annihilation by the
    trace bound and, where that leaves it open, by its eigenvalues (module
    docstring).  The candidates go in chunks of at most
    ``controller._CHUNK_BYTES``, polished on ``_openblas.spare_cpus()``
    threads and at most one per chunk.  ``spectrum`` is ``_spectrum(ops)``,
    when the caller has it."""
    t, h_diag = _pencil(ops)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
        half = derivative_matrix(ops, 0.5)
    if not np.all(np.isfinite(half)):
        raise ValueError("the derivative matrix at 1/2 is not finite")
    scale = np.linalg.norm(half, 2)
    with np.errstate(divide="ignore", invalid="ignore"):  # lambda = 0: inf; 1 + lambda < 0: NaN
        r = np.sqrt(1.0 + _pencil_lambdas(t, h_diag))
        values = np.column_stack([1.0 / (1.0 + r), 1.0 / (1.0 - r)]).ravel()
    eigcond = np.zeros(values.size, dtype=bool)
    inside = np.flatnonzero((0.0 < values) & (values < 1.0))
    # a candidate takes its pencil and its slope matrix
    chunks = [inside[rows] for rows in _chunks(inside.size, 2 * 8 * t.size)]
    if spectrum is None:
        spectrum = _spectrum(ops)

    def decide(chunk):
        return _decide_chunk(ops, spectrum, scale, t, h_diag, values[chunk])

    workers = min(len(chunks), _openblas.spare_cpus())
    if workers > 1:
        # each chunk runs in its own copy of the caller's context, so it
        # keeps the caller's numpy error state
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(lambda context, chunk: context.run(decide, chunk),
                                    [contextvars.copy_context() for _ in chunks], chunks))
    else:
        results = map(decide, chunks)
    if chunks:
        values[inside], eigcond[inside] = map(np.concatenate, zip(*results))
    return [RootCandidate(value=value, eigcond=flag, valid=0.0 <= value <= 1.0)
            for value, flag in zip(values.tolist(), eigcond.tolist())]


def _grid_maximize(gap) -> float:
    """Grid scan + golden-section refinement of a vectorized gap function."""
    grid = np.linspace(1e-6, 1.0 - 1e-6, GRID_POINTS)
    i = int(np.argmax(gap(grid)))
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
    the report records ``method="grid_fallback"``.  Every gap value comes
    from one spectral curve (``_gap_curve``); valid candidates and the grid
    lie in (0, 1], where the curve needs no guard (it is 0 at 1).
    """
    spectrum = _spectrum(ops)
    cands = determinant_root_candidates(ops, spectrum=spectrum)
    interior = [c.value for c in cands if c.valid]
    passing = [c.value for c in cands if c.valid and c.eigcond]
    # the command line refuses a gap that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        gap = _gap_curve(ops, x, spectrum)
        analytic_best = max(interior, key=gap) if interior else None
        if passing:
            best = max(passing, key=gap)
            method = "analytic_roots"
        else:
            best = _grid_maximize(gap)
            method = "grid_fallback"
        gap_at_max = float(gap(best))
    return MaxDiffReport(candidates=cands, maximizer=float(best), gap_at_max=gap_at_max,
                         method=method, analytic_best=analytic_best)


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


def iso_cost_transmission(ops: PredictionOperators, m1: float, x: np.ndarray) -> float:
    """Shared TCP mean t* whose cost equals the UDP cost at shared mean m1.

    Because the gap is positive below a perfect channel and costs decrease
    in the means, t* < m1 whenever m1 < 1: acknowledged operation tolerates
    more loss at equal cost.  m1 itself is returned when its TCP cost is
    within ISO_COST_RTOL of the target.  Otherwise, on the shared-mean TCP line
    (``line_resolvents``), the TCP reduction term at t = 1/s is
    offset + sum_i h_i^2 / (lam_i + s): decreasing and convex in s.  Newton's
    method from s = 1/m1, left of the root, then rises monotonically onto the
    s at which it equals the reduction the target leaves.
    """
    m1 = float(m1)
    if not 0.0 < m1 <= 1.0:
        raise ValueError("channel mean must lie in (0,1]")
    target = expected_cost(ops, Protocol.UDP_LIKE, x, upsilon=m1).total
    line = line_resolvents(ops, Protocol.TCP_LIKE, x)
    lam, h2 = line.lam[0], line.h2[0]
    need = line.constant - line.offset[0] - target
    s = 1.0 / m1
    excess = float(np.sum(h2 / (lam + s))) - need  # the UDP cost minus the TCP cost
    if abs(excess) <= ISO_COST_RTOL * abs(target):
        return m1
    if excess < 0.0:
        raise ValueError("no root bracketed: TCP cost at m1 exceeds the UDP target")
    while True:
        w = h2 / (lam + s)
        step = (float(np.sum(w)) - need) / float(np.sum(w / (lam + s)))
        if not step > 4.0 * np.finfo(float).eps * s:
            return float(1.0 / s)
        s += step


def write_sweep_csv(path, mus, j_tcp, j_udp) -> None:
    """CSV rows ``mu_1[,mu_2,...],j_tcp,j_udp,gap``, every cell ``%.9g``."""
    mus = np.asarray(mus, dtype=float).reshape(len(mus), -1)
    j_tcp, j_udp = np.asarray(j_tcp, dtype=float), np.asarray(j_udp, dtype=float)
    header = [f"mu_{i+1}" for i in range(mus.shape[1])] + ["j_tcp", "j_udp", "gap"]
    with np.errstate(invalid="ignore"):  # write_csv refuses a gap that is not finite
        gap = j_udp - j_tcp
    write_csv(path, header, np.column_stack([mus, j_tcp, j_udp, gap]))
