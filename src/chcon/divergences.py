"""Distances and divergences between density operators."""

from __future__ import annotations

import math

import numpy as np

from . import linalg as la
from .channels import ChannelError, DensityState
from .config import SUPP_TOL


def _as_matrix(state) -> np.ndarray:
    if isinstance(state, DensityState):
        return state.matrix
    return np.asarray(state, dtype=complex)


def _check_dims(rho: np.ndarray, sigma: np.ndarray):
    if rho.shape != sigma.shape:
        raise ChannelError(f"state dimension mismatch: {rho.shape} vs {sigma.shape}")


def trace_distance(rho, sigma) -> float:
    """1-norm distance ||rho - sigma||_1, in [0, 2]."""
    rho, sigma = _as_matrix(rho), _as_matrix(sigma)
    _check_dims(rho, sigma)
    return float(np.abs(np.linalg.eigvalsh(la.herm_part(rho - sigma))).sum())


def chi2_divergence(rho, sigma) -> float:
    """Tr(rho sigma^{-1/2} rho sigma^{-1/2}) - 1 with the generalized inverse.

    Returns ``math.inf`` when the support of rho is not contained in the
    support of sigma (detected at relative eigenvalue threshold ``SUPP_TOL``).
    """
    rho, sigma = _as_matrix(rho), _as_matrix(sigma)
    _check_dims(rho, sigma)
    w, v = np.linalg.eigh(la.herm_part(sigma))
    top = max(float(w[-1]), 0.0)
    keep = w > SUPP_TOL * top
    rho_eig = la.dag(v) @ rho @ v
    outside = float(np.real(np.trace(rho_eig[~keep][:, ~keep]))) if (~keep).any() else 0.0
    if outside > 10.0 * SUPP_TOL:
        return math.inf
    r = rho_eig[keep][:, keep]
    s = w[keep]
    weight = 1.0 / np.sqrt(np.outer(s, s))
    val = float(np.real(np.sum(np.abs(r) ** 2 * weight))) - 1.0
    return max(val, 0.0)


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity F(rho, sigma) = ||sqrt(rho) sqrt(sigma)||_1^2.

    In debug mode every call cross-checks the Fuchs-van de Graaf relation in
    its normalized form, (1/2)||rho - sigma||_1 <= sqrt(1 - F).  (Statements
    of the inequality with the unnormalized 1-norm on the left fail already
    for orthogonal pure states, so the normalized form is the one asserted.)
    """
    rho, sigma = _as_matrix(rho), _as_matrix(sigma)
    _check_dims(rho, sigma)
    root = la.sqrtm_psd(rho)
    inner = la.sqrtm_psd(root @ sigma @ root)
    val = float(np.real(np.trace(inner)) ** 2)
    val = min(max(val, 0.0), 1.0)
    if __debug__:
        td = 0.5 * trace_distance(rho, sigma)
        assert td <= math.sqrt(max(1.0 - val, 0.0)) + 1e-7, (
            "Fuchs-van de Graaf cross-check failed: "
            f"half-trace-distance {td} vs sqrt(1-F) {math.sqrt(max(1.0 - val, 0.0))}"
        )
    return val
