"""Horizon-stacked prediction operators and derived weight products.

With plant matrices A (n x n) and B (n x m) and horizon N, the stacked
trajectory obeys

    X_stack = Phi x + Gamma Y U_stack + Lambda W_stack,

where block row i of Phi is A^(i+1), Gamma has block (i, j) = A^(i-j) B for
i >= j, Lambda has block (i, j) = A^(i-j) for i >= j (identity diagonal),
and Y is the diagonal 0/1 transmission matrix over the horizon.  With Omega
the block-diagonal stack of the per-step state penalties, the weight
products consumed downstream are

    Omega_p  = Phi' Omega Phi          Omega_g  = Gamma' Omega Gamma
    Omega_gp = Gamma' Omega Phi        Omega_d  = I ∘ Omega_g, its diagonal

Omega = diag(Omega_0, ..., Omega_(N-1)) is never formed.  Block row i of
Omega Gamma and of Omega Phi, and block column i of Phi' Omega, is Omega_i
times the matching block of Gamma, Phi or Phi', so each is one batched
product of the (N, n, n) weight stack.  The outer products Gamma'(Omega
Gamma), Gamma'(Omega Phi) and (Phi' Omega) Phi stay one dense product
each, summed in the order a dense Omega gave them: the printed maxdiff
candidates depend on Omega_g to the last bit.  Omega_g is the only
(N m)^2 array of the result: Psi (whose steps are diagonal) and Omega_d
are kept as their (N m,) diagonals, and the analysis forms Omega_g with a
zero diagonal, Omega_h = Omega_g - Omega_d, where it needs it.

Lambda is not built either.  The noise part of block j of the stacked
state is sum_(l<=j) A^(j-l) w_l, with covariance

    P_j = sum_(l<=j) A^l Sigma_W A'^l,

so the noise cost tr(Lambda' Omega Lambda Sigma_W_stacked) is stored as
the number sum_j tr(Omega_j P_j): one batched product over the powers of A
and a cumulative sum.

Gamma is block Toeplitz: block (i, j) depends on i - j alone.  It is read
as a strided view of the stack of the N blocks A^k B placed behind N-1
zero blocks, and that view is copied once into C order.  Gamma and
Omega Gamma are the build's largest transients, and both are released
before Omega_g is symmetrized.

Powers of A are accumulated incrementally (A^(i+1) = A * A^i, one ``np.dot``
into a preallocated stack per power) so repeated builds are bit-for-bit
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import ChannelModel, PlantModel, ScenarioError, WeightSpec

__all__ = ["PredictionOperators", "build_prediction_operators"]


@dataclass(frozen=True)
class PredictionOperators:
    """What the solvers and the gap analysis read for one
    plant/weights/channel combination.

    ``upsilon_diag`` is the diagonal of the stacked channel-mean matrix
    (length N*m, entries in (0, 1]).  ``q`` is carried along so cost
    evaluations need no extra argument.  ``noise_trace`` is
    tr(Omega_l Sigma_W_stacked), the irreducible noise cost.  Every array
    is read-only, so one instance (``Scenario.operators``) can be shared by
    every command that reads the scenario.
    """

    upsilon_diag: np.ndarray   # (N m,)
    psi: np.ndarray            # (N m,), the diagonal of Psi
    q: np.ndarray              # (n, n)
    omega_p: np.ndarray        # (n, n)
    omega_g: np.ndarray        # (N m, N m)
    omega_gp: np.ndarray       # (N m, n)
    omega_d: np.ndarray        # (N m,), the diagonal of Omega_g
    noise_trace: float
    n: int
    m: int
    horizon: int


def _gamma(powers: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gamma (N n, N m) from the powers A^0..A^(N-1) and B, in C order.

    Block (i, j) is padded[N-1+i-j]: A^(i-j) B for i >= j and one of the N-1
    zero blocks above.  The view steps back one block per block column.  It
    is copied once, into C order, because a non-contiguous Gamma (the
    reshape keeps a view for m = 1) takes another BLAS path through
    Gamma'(Omega Phi) and changes the last bits of Omega_gp.
    """
    N, n = powers.shape[:2]
    m = b.shape[1]
    padded = np.zeros((2 * N - 1, n, m))
    np.matmul(powers, b, out=padded[N - 1:])
    step, row, col = padded.strides
    toeplitz = np.lib.stride_tricks.as_strided(padded[N - 1:], (N, n, N, m),
                                               (step, row, -step, col), writeable=False)
    return np.ascontiguousarray(toeplitz.reshape(N * n, N * m))


def build_prediction_operators(
    plant: PlantModel, weights: WeightSpec, channel: ChannelModel
) -> PredictionOperators:
    A, B = plant.a, plant.b
    n, m = plant.n, plant.m
    N = weights.horizon
    if B.shape[0] != n:
        raise ValueError(f"dimension mismatch: b has {B.shape[0]} rows but a is {n}x{n}")
    if channel.m != m:
        raise ValueError(
            f"dimension mismatch: channel means cover {channel.m} channels but b has {m} columns"
        )
    if channel.is_scheduled and channel.means.shape[0] != N:
        raise ValueError("channel schedule length ≠ N")

    # the arithmetic runs with overflow unreported: an operator that is not
    # finite is refused below by name, with every bit of the others kept
    with np.errstate(over="ignore", invalid="ignore"):
        # powers[i] = A^i, built by repeated multiplication
        powers = np.empty((N + 1, n, n))
        powers[0] = np.eye(n)
        for i in range(N):
            np.dot(A, powers[i], out=powers[i + 1])

        phi = powers[1:].reshape(N * n, n)
        gamma = _gamma(powers[:N], B)

        # the products with Omega, one step weight per block (module docstring)
        omega = weights.omega_steps
        omega_gp = gamma.T @ np.matmul(omega, powers[1:]).reshape(N * n, n)
        omega_g = gamma.T @ np.matmul(omega, gamma.reshape(N, n, N * m)).reshape(N * n, N * m)
        del gamma  # released before Omega_g is symmetrized
        omega_g = 0.5 * (omega_g + omega_g.T)  # enforce exact symmetry
        phi_omega = np.matmul(powers[1:].transpose(0, 2, 1), omega)
        phi_omega = phi_omega.transpose(1, 0, 2).reshape(n, N * n)
        omega_p = phi_omega @ phi

        # sum_j tr(Omega_j P_j), with P_j = sum_(l<=j) A^l Sigma_W A'^l the
        # covariance of the noise part of block j of the stacked state
        cov = np.cumsum(powers[:N] @ plant.sigma_w @ powers[:N].transpose(0, 2, 1), axis=0)
        noise_trace = float(np.sum(omega * cov.transpose(0, 2, 1)))
    for name, value in (("Omega_g", omega_g), ("Omega_gp", omega_gp), ("Omega_p", omega_p),
                        ("the noise trace", noise_trace)):
        if not np.all(np.isfinite(value)):
            raise ScenarioError(f"prediction operators: {name} is not finite; the weights, "
                                f"the plant or the noise are too large for floating point "
                                f"over a horizon of {N}")

    arrays = dict(
        upsilon_diag=channel.step_means(N).reshape(-1),
        psi=np.diagonal(weights.psi_steps, axis1=1, axis2=2).flatten(),
        q=np.array(weights.q, dtype=float),
        omega_p=omega_p,
        omega_g=omega_g,
        omega_gp=omega_gp,
        omega_d=omega_g.diagonal().copy(),
    )
    for a in arrays.values():
        a.setflags(write=False)
    return PredictionOperators(**arrays, noise_trace=noise_trace, n=n, m=m, horizon=N)
