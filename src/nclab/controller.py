"""Optimal finite-horizon laws and closed-form planning costs for both protocols.

Writing Y for the stacked channel-mean diagonal, the protocol Gram matrices
are

    acknowledged (TCP-like):    G = Omega_g Y + Psi
    unacknowledged (UDP-like):  G = Omega_g Y + Psi + (I ∘ Omega_g)(I - Y)

and the optimal stacked input is U*(x) = -K x with K = G^{-1} Omega_gp.
G is asymmetric as written, so ``synthesize`` obtains K from the equivalent
symmetric positive-definite system (Y G) K = Y Omega_gp, which admits a
Cholesky factorization.  The optimal planning cost (see ``expected_cost``)
is

    J*(x) = x'(Q + Omega_p) x + tr(Sigma_W Omega_l) - x' Omega_gp' Y G^{-1} Omega_gp x.

Psi and Omega_d = I ∘ Omega_g are diagonal, so Y G = Y (Omega_g + D) Y with
the diagonal

    D = Psi / u                      (acknowledged)
    D = (Psi + Omega_d) / u - Omega_d   (unacknowledged),

u the stacked channel means, and the reduction term is f'(Omega_g + D)^{-1} f
with f = Omega_gp x.  The two protocols differ only in the split
D = D0 + E/u (``_diagonal_split``).  One routine (``_factor``) adds a
diagonal to a stack of matrices and factors it by Cholesky, reading only the
lower triangle (LAPACK potrf), so nothing is symmetrized: ``synthesize``
factors Y G, whose diagonal term Y D Y is u (E + u D0), and the costs factor
Omega_g + D.  Costs are evaluated in that form, one way for a single point
and for a grid, on a setup (``_point_costs``) that holds what the points of
one state share, the constant term, f and (D0, E), which a caller with many
points builds once:

* a point factors Omega_g + D; ``expected_cost`` is a batch of one of
  ``expected_costs``;
* on a line of points along which only one channel's mean u moves (or one
  mean shared by every channel), D = D0 + E/u with E diagonal and supported
  on the moving indices.  ``line_resolvents`` eliminates the fixed indices
  by one Cholesky factor, scales the Schur complement by E^(-1/2) and takes
  one symmetric eigendecomposition (Golub and Van Loan, sec. 8.7), after
  which each point of the line costs sum_i h_i^2 / (lam_i + 1/u): the
  low-rank resolvent update of Hager, "Updating the inverse of a matrix",
  SIAM Review 1989.  A point is the line with nothing moving.

The acknowledgment itself has no runtime effect on the law under perfect
state feedback: transmission realizations enter only the estimator error,
so the two protocols differ solely through G.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .prediction import PredictionOperators
from .scenario import PlantModel

# Byte budget of one chunk of a batched evaluation: Gram matrices and line
# terms here, the gap maximizer's pencils (``analysis``) and the Monte Carlo
# replicates' states and inputs (``simulator``).
_CHUNK_BYTES = 1 << 20

__all__ = [
    "Protocol",
    "ControlLaw",
    "CostReport",
    "synthesize",
    "expected_cost",
    "expected_costs",
    "LineResolvents",
    "line_resolvents",
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
    k: np.ndarray        # (Nm, n) stacked gain, U*(x) = -K x
    k_first: np.ndarray  # (m, n) first block of k


@dataclass(frozen=True)
class CostReport:
    total: float
    constant_term: float   # x'(Q+Omega_p)x + tr(Sigma_W Omega_l)
    reduction_term: float  # x'Omega_gp' Y G^{-1} Omega_gp x, >= 0


def _chunks(count: int, item_bytes: int) -> list[slice]:
    """The slices that cover range(count) in order, each with as many items
    of ``item_bytes`` as fit _CHUNK_BYTES, and at least one."""
    rows = max(1, _CHUNK_BYTES // item_bytes)
    return [slice(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


def _factor(a: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a + diag(d) for a (B, n, n) stack ``a`` and
    (B, n) diagonals ``d``, which are added to a's diagonals in place through
    the strided view.  numpy's Cholesky (LAPACK potrf) reads only the lower
    triangle, so ``a`` need not be symmetric above it.  A member that is not
    positive definite is refused as a singular protocol Gram system."""
    a.reshape(a.shape[0], -1)[:, ::a.shape[1] + 1] += d
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"singular protocol Gram system: {exc}") from exc


def _cholesky(ops: PredictionOperators, protocol: Protocol, u: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of S = Y G = Y (Omega_g + D) Y, symmetric
    positive definite, for a (B, N*m) stack of channel-mean diagonals: the
    diagonal of Y D Y is u (E + u D0) (``_diagonal_split``)."""
    d0, e = _diagonal_split(ops, protocol)
    s = (u[:, :, np.newaxis] * ops.omega_g) * u[:, np.newaxis, :]
    return _factor(s, u * (e + u * d0))


def _trsolve(factor: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """Solve L w = rhs, or L' w = rhs when ``transpose``, for each member of
    a stack of lower Cholesky factors L and (Nm, k) right-hand sides.

    L is C-ordered, so L.T is L' in Fortran order and BLAS reads it
    uncopied.  BLAS trsm rather than scipy's ``solve_triangular`` (LAPACK
    trtrs behind argument checks and copies): with one OpenBLAS thread on a
    2-vCPU Xeon, mixed's 99 fixed 10x10 blocks with 11 right-hand sides
    took 0.3-0.55 ms against 2.0-3.1 ms, with the same bits.
    """
    from scipy.linalg.blas import dtrsm

    out = np.empty(rhs.shape)
    for b in range(factor.shape[0]):
        out[b] = dtrsm(1.0, factor[b].T, rhs[b], lower=0, trans_a=0 if transpose else 1)
    return out


def _diagonal_split(ops: PredictionOperators, protocol: Protocol) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals (D0, E) with D(u) = D0 + E/u, so that Y G = Y (Omega_g + D) Y."""
    if protocol is Protocol.TCP_LIKE:
        return np.zeros(ops.psi.size), ops.psi
    return -ops.omega_d, ops.psi + ops.omega_d


def _fixed_solve(block: np.ndarray, d: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """L^-1 rhs for each row of ``d``, where L L' = block + diag(d) is the
    Cholesky factor of the Omega_g + D block of the fixed stacked indices."""
    factor = _factor(np.repeat(block[np.newaxis], d.shape[0], axis=0), d)
    return _trsolve(factor, np.repeat(rhs[np.newaxis], d.shape[0], axis=0))


@dataclass(frozen=True)
class _PointCosts:
    """Planning costs at one (operators, protocol, state), point by point.

    Built once by ``_point_costs``, it holds what every channel-mean point
    shares: the constant term, f = Omega_gp x and the split D(u) = D0 + E/u.
    ``expected_cost``, ``expected_costs`` and the allocation's single-point
    costs evaluate their points through it, so every point cost takes one
    arithmetic path, and ``line_resolvents`` reads its lines' shares from it.
    """

    omega_g: np.ndarray
    constant: float      # x'(Q+Omega_p)x + tr(Sigma_W Omega_l)
    f: np.ndarray        # (N m, 1) right-hand side Omega_gp x
    d0: np.ndarray       # (N m,) D0 of D(u) = D0 + E/u
    e: np.ndarray        # (N m,) E

    def reductions(self, u: np.ndarray) -> np.ndarray:
        """Reduction terms f'(Omega_g + D)^{-1} f = |L^-1 f|^2 for a
        validated stack from ``_resolve_stack``: each row is a line with
        every index fixed.  Rows are expanded to stacked diagonals and
        factored in chunks of about _CHUNK_BYTES of Gram matrices, so that
        memory stays flat in the number of rows."""
        nm = self.f.shape[0]
        out = np.empty(u.shape[0])
        for rows in _chunks(u.shape[0], 8 * nm * nm):
            chunk = np.tile(u[rows], (1, nm // u.shape[1]))
            w = _fixed_solve(self.omega_g, self.d0 + self.e / chunk, self.f)
            out[rows] = np.einsum("bij,bij->b", w, w)
        return out

    def totals(self, u: np.ndarray) -> np.ndarray:
        """Planning costs of the rows of a validated stack (see ``reductions``)."""
        return self.constant - self.reductions(u)


def _point_costs(ops: PredictionOperators, protocol: Protocol, x) -> _PointCosts:
    """The setup of one (operators, protocol, state).  Its callers ignore
    overflow and invalid values (see ``expected_cost``)."""
    x = np.asarray(x, dtype=float)
    d0, e = _diagonal_split(ops, protocol)
    constant = float(x @ (ops.q + ops.omega_p) @ x) + ops.noise_trace
    return _PointCosts(omega_g=ops.omega_g, constant=constant,
                       f=(ops.omega_gp @ x)[:, np.newaxis], d0=d0, e=e)


@dataclass(frozen=True)
class LineResolvents:
    """Planning costs along L lines of channel means (see ``line_resolvents``).

    On line l the reduction term at moving mean u is
    ``offset[l] + sum_i h2[l, i] / (lam[l, i] + 1/u)`` and the cost is
    ``constant`` minus it; ``lam`` is ascending in each row.
    """

    constant: float       # x'(Q+Omega_p)x + tr(Sigma_W Omega_l)
    offset: np.ndarray    # (L,) reduction share of the fixed indices
    lam: np.ndarray       # (L, r) eigenvalues of the scaled Schur complement
    h2: np.ndarray        # (L, r) squared weights of f on its eigenvectors

    @np.errstate(over="ignore", invalid="ignore")  # refused where a cost is printed
    def costs(self, means) -> np.ndarray:
        """(L, k) costs at the moving means ``means`` (k,), each in (0, 1]:
        row l, column j is line l's cost at means[j].  Raises LinAlgError
        when a point's Gram system is not positive definite.  The terms
        h2 / (lam + 1/u) of a chunk of lines (about _CHUNK_BYTES) are formed
        in one (r, L, k) pass; they are positive, so they are added into the
        offset in index order, one in-place add per term."""
        t = 1.0 / _check_means(means)
        if self.lam.size and t.size and not np.all(self.lam[:, 0] + t.min() > 0.0):
            raise np.linalg.LinAlgError("singular protocol Gram system: "
                                        "a line point is not positive definite")
        red = np.repeat(self.offset[:, np.newaxis], t.size, axis=1)
        for rows in _chunks(len(red), 8 * max(1, self.lam.shape[1] * t.size)):
            term = self.lam.T[:, rows, np.newaxis] + t
            np.divide(self.h2.T[:, rows, np.newaxis], term, out=term)
            chunk = red[rows]
            for row in term:
                chunk += row
        return np.subtract(self.constant, red, out=red)


def _check_means(means) -> np.ndarray:
    u = np.asarray(means, dtype=float)
    if not np.all((u > 0.0) & (u <= 1.0)):
        raise ValueError("channel mean must lie in (0,1]")
    return u


def line_resolvents(ops: PredictionOperators, protocol: Protocol, x: np.ndarray,
                    fixed=None) -> LineResolvents:
    """Resolvents of the protocol's planning cost along lines of stationary
    channel means, for evaluation with ``LineResolvents.costs``.

    ``fixed`` (L, m-1) holds the means of the first m-1 channels on each of
    L lines, whose last channel's mean moves; ``fixed=None`` is the single
    line on which one mean is shared by every channel (for m = 1 the two
    coincide).  ``line_resolvents(ops, p, x, fixed).costs(v)[l, j]`` equals
    ``expected_cost(ops, p, x, upsilon=[*fixed[l], v[j]]).total``.

    Per chunk of lines (about _CHUNK_BYTES of (N m)^2 matrices) the fixed
    indices are eliminated with one batched Cholesky factor, and the N x N
    Schur complement of the moving channel (N m x N m on the shared line),
    scaled by E^(-1/2), is diagonalized with one batched ``eigh``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # as for expected_cost
        point = _point_costs(ops, protocol, x)
    return _line_resolvents(ops, point, fixed)


def _line_resolvents(ops: PredictionOperators, point: _PointCosts, fixed=None) -> LineResolvents:
    """``line_resolvents`` on the setup ``point`` of its protocol and state."""
    nm, m = ops.horizon * ops.m, ops.m
    f, d0, e = point.f[:, 0], point.d0, point.e
    if fixed is None:
        fixed_means, moving = np.ones((1, 0)), np.arange(nm)
    else:
        fixed_means = np.asarray(fixed, dtype=float)
        if fixed_means.ndim != 2 or fixed_means.shape[1] != m - 1:
            raise ValueError(f"fixed means have shape {fixed_means.shape}; expected (L, {m - 1})")
        _check_means(fixed_means)
        moving = np.arange(m - 1, nm, m)
    rest = np.setdiff1d(np.arange(nm), moving)
    if not np.all(e[moving] > 0.0):
        raise np.linalg.LinAlgError("singular protocol Gram system: "
                                    "the moving channel's input penalty is not positive")
    scale = 1.0 / np.sqrt(e[moving])
    lines = fixed_means.shape[0]
    offset = np.zeros(lines)
    lam, h2 = np.empty((lines, moving.size)), np.empty((lines, moving.size))
    og = ops.omega_g
    block = og[np.ix_(rest, rest)]
    rhs = np.column_stack([og[np.ix_(rest, moving)], f[rest]])
    base = og[np.ix_(moving, moving)] + np.diag(d0[moving])
    for rows in _chunks(lines, 8 * nm * nm):
        size = rows.stop - rows.start
        schur = np.broadcast_to(base, (size,) + base.shape)
        g = np.broadcast_to(f[moving], (size, moving.size))
        if rest.size:
            with np.errstate(over="ignore"):  # an infinite penalty factors as a zero input
                d = d0[rest] + e[rest] / fixed_means[rows][:, rest % m]
            z = _fixed_solve(block, d, rhs)
            z, w = z[:, :, :-1], z[:, :, -1]
            offset[rows] = np.einsum("bi,bi->b", w, w)
            schur, g = schur - z.transpose(0, 2, 1) @ z, g - np.einsum("bij,bi->bj", z, w)
        mat, v = scale[:, np.newaxis] * schur * scale, g * scale
        lam[rows], q = np.linalg.eigh(mat)
        h2[rows] = np.einsum("bij,bi->bj", q, v)
        with np.errstate(over="ignore"):  # the command line refuses a cost that is not finite
            np.square(h2[rows], out=h2[rows])
    return LineResolvents(constant=point.constant, offset=offset, lam=lam, h2=h2)


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
    return _check_means(u)


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
    return ControlLaw(protocol=protocol, k=k, k_first=k[: ops.m, :])


# A cost that is not finite (the constant term, f or the reduction past the
# float range) is refused where it is printed, and a penalty E/u past the
# float range factors as a zero input.
@np.errstate(over="ignore", invalid="ignore")
def expected_cost(ops: PredictionOperators, protocol: Protocol, x: np.ndarray,
                  upsilon=None) -> CostReport:
    """Optimal value of the protocol's planning objective at measured
    state x, in closed form.

    Unacknowledged: the expected realized cost of the optimal open-loop
    sequence.  Acknowledged: the planning cost, which takes the state term
    along the mean trajectory as if every delivery were learnt in time to
    act on it.  It is a lower bound on the expected realized cost of any
    policy that uses x and the acknowledgments, re-planning ones included,
    and no such policy attains it while a delivered input is random.
    """
    u = _resolve_upsilon(ops, upsilon)
    point = _point_costs(ops, protocol, x)
    reduction = float(point.reductions(u[np.newaxis])[0])
    return CostReport(total=point.constant - reduction, constant_term=point.constant,
                      reduction_term=reduction)


@np.errstate(over="ignore", invalid="ignore")  # as for expected_cost
def expected_costs(ops: PredictionOperators, protocol: Protocol, x: np.ndarray,
                   upsilon) -> np.ndarray:
    """Optimal planning costs (see ``expected_cost``) at measured state x
    for a stack of channel-mean overrides, one row per evaluation point:
    shape (B,) for a shared mean, (B, m) for stationary per-channel means,
    or (B, N*m) for full stacked diagonals.  Row b equals
    ``expected_cost(ops, protocol, x, upsilon[b]).total``.
    """
    u = _resolve_stack(ops, upsilon)
    return _point_costs(ops, protocol, x).totals(u)


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
    return base + float(np.sum(u * ops.omega_d * (1.0 - u) * u_seq * u_seq))


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
