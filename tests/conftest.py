"""Shared fixtures and independent oracles.

The oracles deliberately avoid the library's own computation paths:
matrix products by explicit triple loops, symmetric means through an
eigenvalue solver, determinants through LU, point sets through exhaustive
coefficient-box scans, and sums through math.fsum.  ``ball_points`` is
not an oracle: it is the library's own walk, expanded to the whole ball.
"""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from detsums.errors import DependentBasis
from detsums.lattice import (MatrixLattice, build_lattice, coefficient_blocks,
                             orbit_images)


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


# X -> X @ E maps the golden code to itself (E = [[0, 1], [i, 0]], E^2 = iI).
GOLDEN_E = np.array([[0.0, 1.0], [1j, 0.0]])


def random_golden_shaped_lattice(rng: np.random.Generator, halves: int) -> MatrixLattice:
    """Rank-4 * halves lattice laid out like the golden code: diagonal
    Gaussian-integer matrices B_j, then (B_0, i B_0, ..., B_0 E, i B_0 E, ...).
    Diagonal and antidiagonal halves are orthogonal; the basis is
    Z[i]-paired, so ``orbit_size`` is 4."""
    while True:
        first = []
        for _ in range(halves):
            B = np.diag(rng.integers(-2, 3, 2) + 1j * rng.integers(-2, 3, 2)).astype(complex)
            first.extend([B, 1j * B])
        try:
            lat = build_lattice(first + [B @ GOLDEN_E for B in first])
        except DependentBasis:
            continue
        # rank 8 at a condition number near 100 makes boxes of 4e7 points
        if np.linalg.cond(lat.gram_real) < 20.0:
            return lat


def golden_shaped_lattices():
    """Hypothesis strategy: ``random_golden_shaped_lattice`` at rank 4 and 8."""
    return st.builds(lambda seed, halves: random_golden_shaped_lattice(
        np.random.default_rng(seed), halves),
        st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2]))


# 4 zeta(2) G, the sum of |z|^-4 over the nonzero Gaussian integers: the
# Dedekind zeta function of Q(i) factors as zeta(s) L(s, chi_-4), the four
# units give each ideal four generators, so the sum is 4 zeta(2) beta(2) with
# zeta(2) = pi^2 / 6 and beta(2) = G = 0.915965594177219... (Catalan's
# constant).  Evaluated to 30 digits with mpmath, then rounded.  The part
# beyond radius R is about the integral of r^-4 over the plane outside the
# disc of radius R, pi / R^2.
ZI_INVERSE_FOURTH = 6.02681203969194


def _r8(n: int) -> int:
    """Jacobi: the number of ways to write n as a sum of eight squares."""
    return 16 * sum((-1) ** (n + d) * d ** 3 for d in range(1, n + 1) if n % d == 0)


def ball_points(lat: MatrixLattice, radius: float, *,
                dedup_signs: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(coeffs, norm_sq) of every nonzero point of L(radius), or of one of
    each +/-X pair with ``dedup_signs``: the orbit walk of
    ``coefficient_blocks``, each block expanded by ``orbit_images``."""
    coeffs, norms = [np.zeros((0, lat.k), dtype=np.int64)], [np.zeros(0)]
    for block, norm_sq in coefficient_blocks(lat, radius):
        block = orbit_images(lat, block, dedup_signs=dedup_signs)
        coeffs.append(block)
        norms.append(np.tile(norm_sq, len(block) // len(norm_sq)))
    return np.concatenate(coeffs), np.concatenate(norms)


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

# Box points the oracles hold at once.
_BOX_CHUNK = 1 << 16


def _box_chunks(bounds):
    """Every integer vector z with |z_i| <= bounds[i], in the order of
    ``itertools.product`` over the ranges, as (B, k) arrays of at most
    ``_BOX_CHUNK`` rows."""
    sizes = tuple(2 * int(b) + 1 for b in bounds)
    total = math.prod(sizes)
    for start in range(0, total, _BOX_CHUNK):
        idx = np.arange(start, min(start + _BOX_CHUNK, total))
        yield np.stack(np.unravel_index(idx, sizes), axis=1) - np.asarray(bounds)


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
    for z in _box_chunks(bounds):
        X = np.tensordot(z.astype(float), lat.basis, axes=(1, 0))
        inside = (np.sum(np.abs(X) ** 2, axis=(1, 2)) <= rad_sq) & np.any(z != 0, axis=1)
        out.extend(map(tuple, z[inside].tolist()))
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


def min_abs_det_box(lat: MatrixLattice, coeff_bound: int) -> float:
    """Minimum of |det X| over the nonzero points with coefficients in
    [-coeff_bound, coeff_bound]^k, by LU determinants over the whole box."""
    best = math.inf
    for z in _box_chunks([coeff_bound] * lat.k):
        z = z[np.any(z != 0, axis=1)]
        if z.size:
            X = np.tensordot(z.astype(float), lat.basis, axes=(1, 0))
            best = min(best, float(np.abs(np.linalg.det(X)).min()))
    return best


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
    for dz in _box_chunks(widths):
        z = zb + dz
        dist = np.linalg.norm(z @ A.T - y, axis=1)
        i = int(np.argmin(dist))        # the first minimum, in product order
        if dist[i] < best_dist:
            best_dist = float(dist[i])
            best = z[i].copy()
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
