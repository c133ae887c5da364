"""Small dense complex matrix arithmetic.

Everything here works on plain ``numpy`` arrays.  The central quantities are
the Gram product ``X @ X*``, the elementary symmetric polynomials
e = (e_1, ..., e_n) of its eigenvalues, and the shifted determinant, a
polynomial in c with coefficients e:

    det(I + c X X*) = 1 + e_1 c + e_2 c^2 + ... + e_n c^n
                    = 1 + c (e_1 + c (e_2 + ... + c e_n))

``_shifted_from_esp`` evaluates it by Horner's rule, the second line.  Every
e_i is nonnegative, so for ``c >= 0`` each step adds nonnegative terms and
nothing cancels.  The symmetric means are p_i = e_i / C(n, i).  The batched
kernel ``_esp_batch`` reads the first and last coefficients straight off X:
``e_1 = ||X||_F^2`` and, for square X, ``e_n = |det X|^2``.  For the 2 x 2
codes that is all of it,

    det(I + c X X*) = 1 + c ||X||_F^2 + c^2 |det X|^2,

with no Gram matrix formed.  The middle coefficients (n >= 3), and e_n of a
non-square X, come from principal minors of the Gram matrix.  Every kernel
takes a (B, n, T) stack; a single matrix is a stack of one.  No iterative
eigensolver is involved, which keeps results deterministic.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

__all__ = [
    "as_complex_matrix",
    "gram_batch",
    "symmetric_means_batch",
    "shifted_det_batch",
    "det_batch",
    "det_gram_batch",
]

# Negative round-off in a symmetric mean p_i is clamped to zero when its
# magnitude is below _CLAMP_REL * p_1**i; anything larger is a real bug.
_CLAMP_REL = 1e-12


def as_complex_matrix(entries) -> np.ndarray:
    """Validate and return a finite 2-D complex128 matrix."""
    X = np.asarray(entries, dtype=np.complex128)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {X.shape}")
    if X.shape[0] < 1 or X.shape[1] < 1:
        raise ValueError(f"matrix must be at least 1x1, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix entries must be finite")
    return X


def gram_batch(Xb: np.ndarray) -> np.ndarray:
    """Hermitian positive-semidefinite products ``X @ X*`` of a (B, n, T) stack."""
    G = np.einsum("bij,bkj->bik", Xb, Xb.conj())
    # Symmetrize so the stored triangles are exact conjugates of each other.
    return (G + np.conj(np.swapaxes(G, 1, 2))) / 2.0


def det_batch(Mb: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices, closed forms for n <= 3."""
    n = Mb.shape[-1]
    if n == 1:
        return Mb[:, 0, 0].copy()
    if n == 2:
        return Mb[:, 0, 0] * Mb[:, 1, 1] - Mb[:, 0, 1] * Mb[:, 1, 0]
    if n == 3:
        a, b, c = Mb[:, 0, 0], Mb[:, 0, 1], Mb[:, 0, 2]
        d, e, f = Mb[:, 1, 0], Mb[:, 1, 1], Mb[:, 1, 2]
        g, h, i = Mb[:, 2, 0], Mb[:, 2, 1], Mb[:, 2, 2]
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return np.linalg.det(Mb)


def _det_gram(Xb: np.ndarray, G: np.ndarray | None = None) -> np.ndarray:
    """det(X X*) per matrix: |det X|^2 when square, else det of the Gram."""
    if Xb.shape[1] == Xb.shape[2]:
        d = det_batch(Xb)
        return d.real * d.real + d.imag * d.imag
    return np.real(det_batch(gram_batch(Xb) if G is None else G))


def _esp_batch(Xb: np.ndarray) -> np.ndarray:
    """Elementary symmetric polynomials e_1..e_n of the Gram eigenvalues of a
    (B, n, T) stack, shape (B, n), nonnegative.

    e_1 = ||X||_F^2 and, for square X, e_n = |det X|^2 need no Gram matrix;
    the rest are principal-minor sums of it, with round-off clamped.
    """
    B, n, T = Xb.shape
    flat = np.ascontiguousarray(Xb).reshape(B, -1).view(np.float64)
    e = np.empty((B, n))
    e[:, 0] = np.einsum("ij,ij->i", flat, flat)
    if n == 1:
        return e
    if n == 2 and T == 2:
        e[:, 1] = _det_gram(Xb)
        return e
    G = gram_batch(Xb)
    for size in range(2, n):
        total = np.zeros(B)
        for subset in combinations(range(n), size):
            idx = np.asarray(subset)
            total += np.real(det_batch(G[:, idx[:, None], idx[None, :]]))
        e[:, size - 1] = total
    e[:, n - 1] = _det_gram(Xb, G)
    binoms = np.array([math.comb(n, i) for i in range(1, n + 1)], dtype=float)
    thr = _CLAMP_REL * binoms * (e[:, :1] / n) ** np.arange(1, n + 1)
    if np.any(e < -thr):
        raise ValueError("symmetric mean is negative beyond round-off; input is not PSD")
    return np.maximum(e, 0.0)


def det_gram_batch(Xb: np.ndarray) -> np.ndarray:
    """det(X X*) for a stack of matrices; real and clamped at zero."""
    return np.maximum(_det_gram(Xb), 0.0)


def symmetric_means_batch(Xb: np.ndarray) -> np.ndarray:
    """Symmetric means p_1..p_n of the Gram eigenvalues of a (B, n, T) stack,
    shape (B, n), nonnegative: p_1 = ||X||_F^2 / n and p_n = det(X X*)."""
    n = Xb.shape[1]
    return _esp_batch(Xb) / np.array([math.comb(n, i) for i in range(1, n + 1)], dtype=float)


def shifted_det_batch(Xb: np.ndarray, c: float) -> np.ndarray:
    """det(I + c X X*) for c >= 0 over a (B, n, T) stack:
    1 + e_1 c + ... + e_n c^n, by Horner's rule on nonnegative terms."""
    if c < 0:
        raise ValueError("shift c must be nonnegative")
    return _shifted_from_esp(_esp_batch(Xb), c)


def _shifted_from_esp(e: np.ndarray, c: float) -> np.ndarray:
    """1 + e_1 c + ... + e_n c^n for each row of an ``_esp_batch`` result."""
    value = e[:, -1] * c
    for i in range(e.shape[1] - 2, -1, -1):
        value += e[:, i]
        value *= c
    return value + 1.0


# A point counts as singular when det(X X*) is at round-off scale relative to
# its own trace: det <= 1e-12 * (||X||^2 / n)^n.  The sums and the
# determinant scan both decide singularity with this one rule.
_SINGULAR_REL = 1e-12


def _singular_mask(det_g: np.ndarray, norm_sq: np.ndarray, n: int) -> np.ndarray:
    return det_g <= _SINGULAR_REL * (norm_sq / n) ** n
