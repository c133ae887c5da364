"""Concrete lattice constructions.

Three families are provided:

* ``golden_code`` -- the classic rank-8 lattice in M_2(C) built on the ring of
  integers of Q(i, sqrt 5); every nonzero point has |det| >= 1/sqrt(5).
* ``diagonal_nf_code`` -- diagonal embeddings of Z[i][phi] (phi the golden
  ratio) into M_n(C) through the two real embeddings of phi; the determinant
  of any nonzero point is a nonzero Gaussian integer, so det(X X*) >= 1.
* ``gaussian_diagonal`` -- diagonal matrices with independent Gaussian-integer
  entries.  It contains singular points (for n >= 2) and serves as a cheap
  negative control for determinant-weighted sums.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedDegree
from .lattice import (DEFAULT_BUDGET, MatrixLattice, build_lattice, esp_blocks,
                      lattice_from_json, rescale_lattice)
from .linalg import _singular_mask
from .schema import OBJECT, STRING, JsonFields, json_field

__all__ = [
    "CodeSpec",
    "golden_code",
    "diagonal_nf_code",
    "gaussian_diagonal",
    "resolve_code",
    "normalize_unit_min_norm",
    "diagonal_nf_norm",
    "min_abs_det_ball",
]

_SQRT5 = math.sqrt(5.0)
_PHI = (1.0 + _SQRT5) / 2.0        # golden ratio, root of x^2 = x + 1
_PHI_BAR = 1.0 - _PHI              # its algebraic conjugate


def _golden_word(a: complex, b: complex, c: complex, d: complex) -> np.ndarray:
    alpha = 1.0 + 1j * (1.0 - _PHI)
    alpha_bar = 1.0 + 1j * (1.0 - _PHI_BAR)
    s = 1.0 / _SQRT5
    return s * np.array([
        [alpha * (a + b * _PHI), alpha * (c + d * _PHI)],
        [1j * alpha_bar * (c + d * _PHI_BAR), alpha_bar * (a + b * _PHI_BAR)],
    ])


def golden_code(normalization: str = "raw") -> MatrixLattice:
    """Rank-8 lattice in M_2(C) with nonvanishing determinant.

    Basis matrices come from setting one of the four symbol slots to 1 or i.
    The construction is unitary up to the global 1/sqrt(5), so the real Gram
    matrix is the identity and the shortest nonzero vector has norm 1.
    """
    basis = []
    for slot in range(4):
        for unit in (1.0, 1j):
            args = [0.0, 0.0, 0.0, 0.0]
            args[slot] = unit
            basis.append(_golden_word(*args))
    return _apply_normalization(build_lattice(basis), normalization)


def diagonal_nf_code(n: int = 2, normalization: str = "raw") -> MatrixLattice:
    """Rank-2n lattice of diagonal matrices diag(s_1(x), ..., s_n(x)).

    Only n = 2 is implemented: x ranges over Z[i][phi] and the two embeddings
    send phi to phi and to 1 - phi.  det(X) is then the relative norm of x, a
    Gaussian integer, so det(X X*) = |N(x)|^2 >= 1 for x != 0.
    """
    if n != 2:
        raise UnsupportedDegree(f"diagonal number-field code implemented for n=2 only, got {n}")
    basis = [
        np.diag([1.0 + 0j, 1.0 + 0j]),
        np.diag([1j, 1j]),
        np.diag([_PHI + 0j, _PHI_BAR + 0j]),
        np.diag([1j * _PHI, 1j * _PHI_BAR]),
    ]
    return _apply_normalization(build_lattice(basis), normalization)


def gaussian_diagonal(n: int, normalization: str = "raw") -> MatrixLattice:
    """Rank-2n lattice {diag(z_1, ..., z_n) : z_i Gaussian integers}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    basis = []
    for slot in range(n):
        for unit in (1.0 + 0j, 1j):
            D = np.zeros((n, n), dtype=complex)
            D[slot, slot] = unit
            basis.append(D)
    return _apply_normalization(build_lattice(basis), normalization)


def normalize_unit_min_norm(lat: MatrixLattice) -> MatrixLattice:
    """Rescale so the shortest nonzero vector has Frobenius norm 1."""
    return rescale_lattice(lat, 1.0 / math.sqrt(lat.min_norm_sq))


def _apply_normalization(lat: MatrixLattice, normalization: str) -> MatrixLattice:
    if normalization == "raw":
        return lat
    if normalization == "unit-minnorm":
        return normalize_unit_min_norm(lat)
    raise ValueError(f"unknown normalization {normalization!r}")


def diagonal_nf_norm(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """Exact relative norm of x = u + v*phi with Gaussian-integer u, v.

    Since phi^2 = phi + 1, the product of the two embeddings collapses to
    N(x) = u^2 + u v - v^2, evaluated here in exact integer arithmetic.
    Equals the resultant of (v y + u) with (y^2 - y - 1) up to sign.
    """
    a, b = u
    c, d = v
    uu = (a * a - b * b, 2 * a * b)
    vv = (c * c - d * d, 2 * c * d)
    uv = (a * c - b * d, a * d + b * c)
    return (uu[0] + uv[0] - vv[0], uu[1] + uv[1] - vv[1])


def min_abs_det_ball(lat: MatrixLattice, radius: float, *,
                     budget: int = DEFAULT_BUDGET) -> tuple[float, bool]:
    """Minimum of |det(X)| over L(radius), the square root of the least e_n =
    |det X|^2 of ``esp_blocks``, and whether some point of the ball is
    singular by the sums' rule (``linalg._singular_mask``), which is relative
    to the point's own norm and so does not depend on the lattice's scale.
    Every row has a positive weight, and the points it stands for share its
    e: the orbit of a walk row (|det(uX)| = |det X| for every unit u of
    modulus one), or the points of a cell of the golden code's table.  So the minimum over the
    rows is the minimum over the ball, whatever the weights.  Raises
    ValueError when the ball holds no nonzero point."""
    if lat.n != lat.T:
        raise ValueError("determinant scan needs square matrices")
    best, singular = math.inf, False
    for norm_sq, e, _ in esp_blocks(lat, radius, budget=budget):
        best = min(best, float(e[:, -1].min()))
        singular = singular or bool(_singular_mask(e[:, -1], norm_sq, lat.n).any())
    if best == math.inf:
        raise ValueError(
            f"determinant scan radius {radius!r} is below the minimum norm "
            f"{math.sqrt(lat.min_norm_sq)!r}: the ball holds no nonzero point")
    return math.sqrt(best), singular


@dataclass(frozen=True)
class CodeSpec(JsonFields):
    """Declarative description of a lattice construction."""

    # golden | diagonal-nf | gaussian-diagonal | custom
    kind: str = json_field("kind", STRING)
    params: dict = json_field("params", OBJECT, default_factory=dict)
    normalization: str = json_field("normalization", STRING, default="raw")

    def resolve(self) -> MatrixLattice:
        return resolve_code(self)


def resolve_code(spec: CodeSpec) -> MatrixLattice:
    if spec.kind == "golden":
        return golden_code(spec.normalization)
    if spec.kind == "diagonal-nf":
        return diagonal_nf_code(_degree(spec, 2), spec.normalization)
    if spec.kind == "gaussian-diagonal":
        return gaussian_diagonal(_degree(spec, 1), spec.normalization)
    if spec.kind == "custom":
        if "basis" not in spec.params:
            raise ValueError("code kind 'custom' needs params.basis")
        lat = lattice_from_json(spec.params["basis"])
        return _apply_normalization(lat, spec.normalization)
    raise ValueError(f"unknown code kind {spec.kind!r}")


def _degree(spec: CodeSpec, default: int) -> int:
    """``params.n`` of a diagonal construction: an integer >= 1."""
    n = spec.params.get("n", default)
    if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
        raise ValueError(f"code params.n must be an integer >= 1, got {n!r}")
    return int(n)
