"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's own computation paths:
matrix products by explicit triple loops, symmetric means through an
eigenvalue solver, determinants through LU, point sets through exhaustive
coefficient-box scans, and sums through math.fsum.
"""

import math
from itertools import product

import numpy as np
import pytest

from detsums.errors import DependentBasis
from detsums.lattice import MatrixLattice, build_lattice


def random_complex(rng: np.random.Generator, n: int, T: int) -> np.ndarray:
    return rng.standard_normal((n, T)) + 1j * rng.standard_normal((n, T))


def random_small_lattice(rng: np.random.Generator, k: int, n: int = 2,
                         T: int = 2) -> MatrixLattice:
    """Rank-k lattice of n x T matrices with small Gaussian-integer entries."""
    while True:
        basis = []
        for _ in range(k):
            B = rng.integers(-2, 3, (n, T)) + 1j * rng.integers(-2, 3, (n, T))
            basis.append(B.astype(complex))
        try:
            lat = build_lattice(basis)
        except DependentBasis:
            continue
        # skewed bases inflate the oracle's coefficient box; skip them
        if np.linalg.cond(lat.gram_real) < 100.0:
            return lat


def random_paired_lattice(rng: np.random.Generator, pairs: int, n: int = 2,
                          T: int = 2) -> MatrixLattice:
    """Z[i]-paired lattice (B_0, i B_0, B_1, i B_1, ...) of rank 2 * pairs with
    small Gaussian-integer entries."""
    while True:
        basis = []
        for _ in range(pairs):
            B = (rng.integers(-2, 3, (n, T)) + 1j * rng.integers(-2, 3, (n, T))).astype(complex)
            basis.extend([B, 1j * B])
        try:
            lat = build_lattice(basis)
        except DependentBasis:
            continue
        if np.linalg.cond(lat.gram_real) < 100.0:
            return lat


def _r8(n: int) -> int:
    """Jacobi: the number of ways to write n as a sum of eight squares."""
    return 16 * sum((-1) ** (n + d) * d ** 3 for d in range(1, n + 1) if n % d == 0)


def naive_matmul_gram(X: np.ndarray) -> np.ndarray:
    """X @ X* by explicit loops."""
    n, T = X.shape
    G = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0j
            for t in range(T):
                acc += X[i, t] * np.conj(X[j, t])
            G[i, j] = acc
    return G


def eig_symmetric_means(X: np.ndarray) -> np.ndarray:
    """Symmetric means from an eigenvalue solver (independent of minors)."""
    lam = np.linalg.eigvalsh(X @ X.conj().T)
    lam = np.clip(lam, 0.0, None)
    n = lam.size
    # e_k via the coefficient recurrence of prod (x + lam_j).
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    for value in lam:
        coeffs[1:] = coeffs[1:] + value * coeffs[:-1].copy()
    return np.array([coeffs[k] / math.comb(n, k) for k in range(1, n + 1)])


def lu_shifted_det(X: np.ndarray, c: float) -> float:
    n = X.shape[0]
    return float(np.linalg.det(np.eye(n) + c * (X @ X.conj().T)).real)


def coefficient_box(lat: MatrixLattice, radius: float) -> np.ndarray:
    """Provable per-coordinate bounds: |z_i| <= radius * sqrt((G^-1)_ii)."""
    Ginv = np.linalg.inv(lat.gram_real)
    bounds = [int(math.floor(radius * math.sqrt(Ginv[i, i]) + 1e-9))
              for i in range(lat.k)]
    return bounds


_BOX_CACHE: dict = {}


def box_scan_coeffs(lat: MatrixLattice, radius: float) -> list:
    """All nonzero coefficient vectors with ||X||_F <= radius, by full scan."""
    # Keyed by the basis, not id(lat): lattices built per hypothesis example
    # are freed, and a new one can reuse the old id.
    key = (lat.basis.tobytes(), lat.basis.shape, radius)
    if key in _BOX_CACHE:
        return _BOX_CACHE[key]
    bounds = coefficient_box(lat, radius)
    rad_sq = radius * radius * (1.0 + 1e-9)
    out = []
    for z in product(*[range(-b, b + 1) for b in bounds]):
        if all(v == 0 for v in z):
            continue
        X = lat.realize(z)
        if float(np.sum(np.abs(X) ** 2)) <= rad_sq:
            out.append(z)
    _BOX_CACHE[key] = out
    return out


def box_scan_sum(lat: MatrixLattice, radius: float, term, skip_singular=False) -> float:
    """fsum of term(X, norm_sq) over the box-scanned ball; term may return None
    to drop a point (singular handling)."""
    vals = []
    for z in box_scan_coeffs(lat, radius):
        X = lat.realize(z)
        norm_sq = float(np.sum(np.abs(X) ** 2))
        v = term(X, norm_sq)
        if v is None:
            if not skip_singular:
                raise AssertionError("oracle hit a singular point unexpectedly")
            continue
        vals.append(v)
    return math.fsum(vals)


def cvp_box_oracle(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exhaustive closest-vector search over a provable box around Babai.

    Any optimum satisfies ||A(z - z_babai)|| <= 2 * babai distance, which the
    dual Gram turns into per-coordinate bounds.
    """
    d, k = A.shape
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    R = R * signs[:, None]
    Q = Q * signs[None, :]
    yp = Q.T @ y
    zb = np.zeros(k, dtype=np.int64)
    for i in range(k - 1, -1, -1):
        t = yp[i] - R[i, i + 1:] @ zb[i + 1:]
        zb[i] = round(t / R[i, i])
    babai_dist = float(np.linalg.norm(A @ zb - y))
    G = A.T @ A
    Ginv = np.linalg.inv(G)
    widths = [int(math.floor(2.0 * babai_dist * math.sqrt(Ginv[i, i]) + 1e-9)) + 1
              for i in range(k)]
    best = None
    best_dist = math.inf
    for dz in product(*[range(-w, w + 1) for w in widths]):
        z = zb + np.array(dz)
        dist = float(np.linalg.norm(A @ z - y))
        if dist < best_dist:
            best_dist = dist
            best = z.copy()
    return best


@pytest.fixture(scope="session")
def golden_lattice():
    from detsums.codes import golden_code
    return golden_code()


@pytest.fixture(scope="session")
def zi_lattice():
    from detsums.codes import gaussian_diagonal
    return gaussian_diagonal(1)


@pytest.fixture(scope="session")
def nf_lattice():
    from detsums.codes import diagonal_nf_code
    return diagonal_nf_code(2)
