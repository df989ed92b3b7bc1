"""Horizon-stacked prediction operators and derived weight products.

With plant matrices A (n x n) and B (n x m) and horizon N, the stacked
trajectory obeys

    X_stack = Phi x + Gamma Y U_stack + Lambda W_stack,

where block row i of Phi is A^(i+1), Gamma has block (i, j) = A^(i-j) B for
i >= j, Lambda has block (i, j) = A^(i-j) for i >= j (identity diagonal),
and Y is the diagonal 0/1 transmission matrix over the horizon.  The weight
products consumed downstream are

    Omega_p  = Phi' Omega Phi          Omega_g  = Gamma' Omega Gamma
    Omega_gp = Gamma' Omega Phi        Omega_l  = Lambda' Omega Lambda
    Omega_d  = I ∘ Omega_g  (off-diagonal entries zeroed)
    Omega_h  = Omega_g - Omega_d

Powers of A are accumulated incrementally (A^(i+1) = A * A^i) so repeated
builds are bit-for-bit reproducible.  Everything is dense; desk-scale
problems (N*n up to a few hundred) do not justify sparse storage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .scenario import ChannelModel, PlantModel, WeightSpec

__all__ = ["PredictionOperators", "build_prediction_operators"]


@dataclass(frozen=True)
class PredictionOperators:
    """Stacked operators for one plant/weights/channel combination.

    ``upsilon_diag`` is the diagonal of the stacked channel-mean matrix
    (length N*m, entries in (0, 1]).  ``q`` is carried along so cost
    evaluations need no extra argument.
    """

    phi: np.ndarray            # (N n, n)
    gamma: np.ndarray          # (N n, N m)
    lam: np.ndarray            # (N n, N n)
    upsilon_diag: np.ndarray   # (N m,)
    sigma_w_stacked: np.ndarray  # (N n, N n)
    omega: np.ndarray          # (N n, N n)
    psi: np.ndarray            # (N m, N m)
    q: np.ndarray              # (n, n)
    omega_p: np.ndarray        # (n, n)
    omega_g: np.ndarray        # (N m, N m)
    omega_gp: np.ndarray       # (N m, n)
    omega_l: np.ndarray        # (N n, N n)
    omega_d: np.ndarray        # (N m, N m), diagonal
    omega_h: np.ndarray        # (N m, N m), zero diagonal
    n: int
    m: int
    horizon: int

    @property
    def noise_trace(self) -> float:
        """tr(Omega_l Sigma_W_stacked), the irreducible noise cost."""
        return float(np.sum(self.omega_l * self.sigma_w_stacked))


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

    # powers[i] = A^i, built by repeated multiplication
    powers = [np.eye(n)]
    for _ in range(N):
        powers.append(A @ powers[-1])

    phi = np.vstack(powers[1:])
    gamma = np.zeros((N * n, N * m))
    lam = np.zeros((N * n, N * n))
    for i in range(N):
        for j in range(i + 1):
            gamma[i * n:(i + 1) * n, j * m:(j + 1) * m] = powers[i - j] @ B
            lam[i * n:(i + 1) * n, j * n:(j + 1) * n] = powers[i - j]

    omega = scipy.linalg.block_diag(*weights.omega_steps)
    psi = scipy.linalg.block_diag(*weights.psi_steps)
    sigma_w_stacked = scipy.linalg.block_diag(*([plant.sigma_w] * N))

    omega_gamma = omega @ gamma
    omega_g = gamma.T @ omega_gamma
    omega_g = 0.5 * (omega_g + omega_g.T)  # enforce exact symmetry
    omega_d = np.diag(np.diag(omega_g))

    return PredictionOperators(
        phi=phi,
        gamma=gamma,
        lam=lam,
        upsilon_diag=channel.step_means(N).reshape(-1),
        sigma_w_stacked=sigma_w_stacked,
        omega=omega,
        psi=psi,
        q=np.array(weights.q, dtype=float),
        omega_p=phi.T @ omega @ phi,
        omega_g=omega_g,
        omega_gp=gamma.T @ (omega @ phi),
        omega_l=lam.T @ omega @ lam,
        omega_d=omega_d,
        omega_h=omega_g - omega_d,
        n=n,
        m=m,
        horizon=N,
    )
