"""Dense linear-algebra helpers for small (dim <= 16) quantum objects."""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, PAULI_X, PAULI_Y, PAULI_Z)


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a read-only complex copy (value types are immutable)."""
    out = np.array(a, dtype=complex)
    out.setflags(write=False)
    return out


def herm_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + dag(a))


def herm_residual(a: np.ndarray) -> float:
    return float(np.linalg.norm(a - dag(a), 2))


def min_eig(a: np.ndarray) -> float:
    """Smallest eigenvalue of (the Hermitian part of) ``a``."""
    return float(np.linalg.eigvalsh(herm_part(a))[0])


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values; uses eigenvalues when ``a`` is Hermitian."""
    if herm_residual(a) < 1e-12 * max(1.0, np.linalg.norm(a)):
        return float(np.abs(np.linalg.eigvalsh(herm_part(a))).sum())
    return float(np.linalg.svd(a, compute_uv=False).sum())


def is_unitary(u: np.ndarray, tol: float) -> bool:
    d = u.shape[0]
    return u.shape == (d, d) and np.linalg.norm(dag(u) @ u - np.eye(d), 2) <= tol


def partial_trace(rho: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every tensor factor not listed in ``keep``.

    ``dims`` are the factor dimensions in tensor order; the result keeps the
    factors in their original relative order.
    """
    n = len(dims)
    keep = tuple(keep)
    t = rho.reshape(*dims, *dims)
    # Contract the traced factors pairwise (ket index i, bra index i + n).
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(sorted(traced)):
        off = i - count  # earlier contractions removed one ket and one bra axis
        nk = t.ndim // 2
        t = np.trace(t, axis1=off, axis2=off + nk)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def partial_transpose(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose the second tensor factor of a (dim_a * dim_b) square matrix,
    or of every matrix in a stack of them."""
    t = rho.reshape(*rho.shape[:-2], dim_a, dim_b, dim_a, dim_b)
    return t.swapaxes(-3, -1).reshape(rho.shape)


def simplex_shift(y: np.ndarray, ascending: bool = False):
    """The shift theta with ``(y - theta)_+`` the Euclidean projection of a
    real vector onto the probability simplex, or the shifts ``(P,)`` of the
    rows of a ``(P, m)`` array, each computed as for that row alone.
    ``ascending`` says the entries (of each row) are already in ascending
    order, as eigenvalues from ``eigh`` are, and skips the sort.

    theta is (sum of the k largest entries - 1) / k for the last k at which
    the k-th largest entry exceeds that ratio.
    """
    rows = y.reshape(-1, y.shape[-1])
    u = (rows if ascending else np.sort(rows, axis=-1))[:, ::-1]
    idx = np.arange(1, u.shape[-1] + 1)
    ratio = (u.cumsum(axis=-1) - 1.0) / idx
    cond = u > ratio
    cond[:, 0] = True  # mathematically guaranteed; guards float collapse at huge scales
    theta = ratio[np.arange(len(u)), (cond * idx).argmax(axis=-1)]
    return theta if y.ndim > 1 else theta[0]


def density_project(a: np.ndarray) -> np.ndarray:
    """Frobenius projection onto {rho >= 0, Tr rho = 1}: the eigenvalues
    projected onto the probability simplex."""
    w, v = np.linalg.eigh(herm_part(a))
    w = np.clip(w - simplex_shift(w, ascending=True), 0.0, None)
    return (v * w) @ dag(v)


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD matrix via eigendecomposition."""
    w, v = np.linalg.eigh(herm_part(a))
    w = np.sqrt(np.clip(w, 0.0, None))
    return (v * w) @ dag(v)


def expi(h: np.ndarray) -> np.ndarray:
    """The unitary exp(i h) of a Hermitian matrix, from its eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ dag(v)


def su2_from_rotation(r: np.ndarray) -> np.ndarray:
    """SU(2) element whose Bloch-sphere conjugation action equals ``r``.

    ``r`` must be in SO(3); the result is fixed up to global sign, resolved
    towards a non-negative real trace.  The unit quaternion (w, x, y, z) of
    ``r`` comes from Shepperd's method: each of 1 + tr r and 1 + 2 r_kk - tr r
    is four times a squared component, and the largest of them, with sums
    and differences of off-diagonal entries, gives the quaternion times four
    times that component, which is then normalized.
    """
    r = np.asarray(r, dtype=float)
    tr = np.trace(r)
    k = int(np.argmax([tr, r[0, 0], r[1, 1], r[2, 2]]))
    if k == 0:
        q = np.array([1.0 + tr, r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    else:
        i = k - 1
        j, l = (i + 1) % 3, (i + 2) % 3
        q = np.empty(4)
        q[0] = r[l, j] - r[j, l]
        q[1 + i] = 1.0 + 2.0 * r[i, i] - tr
        q[1 + j] = r[j, i] + r[i, j]
        q[1 + l] = r[l, i] + r[i, l]
    w, x, y, z = q / np.linalg.norm(q)
    u = w * I2 - 1j * (x * PAULI_X + y * PAULI_Y + z * PAULI_Z)
    if np.real(np.trace(u)) < 0:
        u = -u
    return u


def bloch_state(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return 0.5 * (I2 + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z)


def pure_state_from_bloch(r) -> np.ndarray:
    """Unit vector of the qubit pure state with unit Bloch vector ``r``."""
    r = np.asarray(r, dtype=float)
    r = r / np.linalg.norm(r)
    w, v = np.linalg.eigh(bloch_state(r))
    return v[:, int(np.argmax(w))]
