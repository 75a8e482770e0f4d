"""Seeded random generators for channels and states used by property suites.

Every sampler takes a ``numpy.random.Generator``; helpers derive independent
child streams from (seed, index) pairs so multi-start searches stay
deterministic regardless of scheduling.
"""

from __future__ import annotations

import numpy as np

from . import linalg as la
from .channels import (
    KrausChannel,
    amplitude_damping,
    compose,
    depolarizing,
    unitary_channel,
)

# Draws each non-unital sampler makes before giving up.
NONUNITAL_TRIES = 200
# POVM outcomes of a random measure-and-prepare channel.
EB_OUTCOMES = 4


def rng_from(seed: int, *indices: int) -> np.random.Generator:
    return np.random.default_rng([int(seed) & (2**64 - 1), *[int(i) for i in indices]])


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases.conj()


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(
    rng: np.random.Generator, dim: int, rank: int | None = None, count: int | None = None
) -> np.ndarray:
    """Hilbert-Schmidt random state (full-rank when rank is None or dim), or
    a (count, dim, dim) stack of them drawn in one call."""
    r = dim if rank is None else rank
    shape = (dim, r) if count is None else (count, dim, r)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = g @ la.dag(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_full_rank_density(
    rng: np.random.Generator, dim: int, floor: float = 1e-3, count: int | None = None
) -> np.ndarray:
    """Random state mixed with the identity to keep eigenvalues bounded away
    from zero (chi-square denominators stay finite)."""
    rho = random_density(rng, dim, count=count)
    return (1.0 - floor) * rho + floor * np.eye(dim) / dim


def random_channel(rng: np.random.Generator, dim: int, env_dim: int | None = None) -> KrausChannel:
    """Haar-random Stinespring isometry with the chosen environment, traced
    out; env_dim defaults to a uniform pick in {2, ..., dim^2}."""
    if env_dim is None:
        env_dim = int(rng.integers(2, dim * dim + 1))
    g = rng.standard_normal((dim * env_dim, dim)) + 1j * rng.standard_normal((dim * env_dim, dim))
    q, _ = np.linalg.qr(g)
    v = q[:, :dim]
    ops = [v[e::env_dim, :] for e in range(env_dim)]
    return KrausChannel.from_kraus(ops)


def random_unital_qubit_channel(
    rng: np.random.Generator, max_weight: float = 1.0 - 1e-3
) -> KrausChannel:
    """Random unital qubit channel U (sum_i w_i P_i rho P_i) V with Dirichlet
    Pauli weights; rejects nearly-unitary draws (max weight above the cap)."""
    while True:
        w = rng.dirichlet(np.ones(4))
        if w.max() <= max_weight:
            break
    u = haar_unitary(rng, 2)
    v = haar_unitary(rng, 2)
    ops = [np.sqrt(wi) * (u @ p @ v) for wi, p in zip(w, la.PAULIS)]
    return KrausChannel.from_kraus(ops)


def random_nonunital_qubit_channel(
    rng: np.random.Generator, min_nonunitality: float = 1e-3
) -> KrausChannel:
    for _ in range(NONUNITAL_TRIES):
        ch = random_channel(rng, 2)
        acc = sum(k @ la.dag(k) for k in ch.kraus)
        if np.linalg.norm(acc - np.eye(2), 2) >= min_nonunitality:
            return ch
    raise RuntimeError("failed to sample a non-unital qubit channel")


def random_near_identity_qubit_channel(
    rng: np.random.Generator, strength: float
) -> KrausChannel:
    """Qubit channel close to the identity: small random Pauli mixing plus a
    small random amplitude damping, conjugated by near-identity unitaries."""
    p = strength * rng.uniform(0.0, 1.0)
    gamma = strength * rng.uniform(0.0, 1.0)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u = la.expi(strength * la.herm_part(h))
    ch = compose(amplitude_damping(gamma), depolarizing(p))
    return compose(unitary_channel(u), ch)


def random_eb_qubit_channel(rng: np.random.Generator) -> KrausChannel:
    """Random measure-and-prepare (entanglement breaking) qubit channel.

    Measures in a Haar-random basis refined by a random POVM mixing and
    prepares random pure states; Kraus operators are rank one by
    construction.
    """
    basis = haar_unitary(rng, 2)
    weights = rng.dirichlet(np.ones(EB_OUTCOMES))
    ops = []
    for i in range(EB_OUTCOMES):
        meas = basis[:, i % 2]
        prep = random_pure(rng, 2)
        ops.append(np.sqrt(weights[i] * 2.0 / 1.0) * np.outer(prep, meas.conj()))
    # Normalize to trace preservation: sum K^dag K = sum w_i |m_i><m_i| * 2
    # is not the identity in general, so whiten it.
    acc = sum(la.dag(k) @ k for k in ops)
    w, v = np.linalg.eigh(acc)
    if w[0] <= 1e-12:
        return random_eb_qubit_channel(rng)
    whiten = (v * (1.0 / np.sqrt(w))) @ la.dag(v)
    return KrausChannel.from_kraus([k @ whiten for k in ops])
