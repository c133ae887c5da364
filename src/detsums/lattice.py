"""Matrix lattices and sphere enumeration.

A rank-k lattice in n x T complex matrices is handled through the real
vectorization of its basis: each basis matrix maps to R^(2nT) by interleaving
real and imaginary parts, so the Frobenius norm becomes the Euclidean norm
and point enumeration reduces to a classic depth-first sphere walk over the
Cholesky factor of the k x k real Gram matrix.

The walker is organized around blocks: instead of yielding points one by one
it expands whole frontiers of partial coefficient vectors with vectorized
interval arithmetic, emitting ``(coeffs, norm_sq)`` arrays.  That keeps the
per-point cost at a handful of numpy flops, which matters for rank-8 balls
holding 10^7..10^8 points.

The walk emits one point of each orbit of the units that map the lattice to
itself, and ``MatrixLattice.orbit_size`` says how large those orbits are.
Every lattice is symmetric, so a partial vector whose chosen coefficients are
all zero takes only nonnegative values at the next level (and positive ones
at the last): one of each +/-z pair, never the zero vector.  This is the
Fincke-Pohst walk of Agrell et al., "Closest point search in lattices" (IEEE
T-IT 2002), restricted to a symmetric body.  A Z[i]-paired basis, laid out as
(B_0, i B_0, B_1, i B_1, ...), is also closed under X -> iX, which turns each
coefficient pair (a, b) into (-b, a); there the walk keeps the point of each
orbit {X, iX, -X, -iX} whose highest nonzero pair has a > 0 and b >= 0, with
one more flag carried from the odd level of each pair down to its even level.
Every built-in code is Z[i]-paired, so its walk covers a quarter of the ball.

The walk has two views.  ``coefficient_blocks`` yields each row's
coefficients and norm; ``orbit_images`` expands a block's orbits again when a
caller wants the whole ball, and ``realize_block`` turns coefficient rows
into matrices.  ``esp_blocks`` yields each row's norm, its e, the
elementary symmetric polynomials of the eigenvalues of X X*, which is all
that every sum term needs, and its weight, the points the row stands for:
``orbit_size`` on a walk, whose blocks it realizes as they come into one
buffer it holds for the length of the call.

On the golden code e is exact up to fixed scales, and no walk of the whole
ball is needed.  Write X = X_A + X_B, the parts on the first (A) and second
(B) half of the basis matrices.  The real Gram matrix is the identity, so
||X||^2 = N_A + N_B with integer half norms; the A-half basis matrices are
diagonal and the B-half ones anti-diagonal, so det X = det X_A + det X_B;
and (2 - i) det X_A is a Gaussian integer g_A (likewise for B).  The ball's
multiset of (||X||^2, 5 |det X|^2) = (N_A + N_B, |g_A + g_B|^2) is then a
convolution of two small histograms, one per full half ball, keyed by
(N, g) (``_half_histograms``).  Both half Gram blocks are the identity, so
one walk gives both half balls.  ``esp_blocks`` yields its cells, each once and
weighted by the points it holds (``_cell_table``), on every lattice that
passes the same checks; any other takes the walk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded, DependentBasis, DimensionMismatch
from .linalg import _esp_batch, _singular_mask, as_complex_matrix, det_batch
from .schema import INTEGER

__all__ = [
    "MatrixLattice",
    "build_lattice",
    "rescale_lattice",
    "lattice_from_json",
    "lattice_to_json",
    "coefficient_blocks",
    "esp_blocks",
    "realize_block",
    "orbit_images",
    "shell_counts",
    "predicted_point_count",
    "PointBudget",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 2 ** 31

# Relative slack on the squared radius so that shells sitting exactly on the
# boundary (norm^2 an integer, radius sqrt of an integer) are always included.
_RADIUS_TOL = 1e-9

# Tolerance of the cell table's checks (``_half_histograms``): the relative
# error of an integral real Gram matrix and of a zero mixed determinant term,
# and the distance of each scaled half determinant from a Gaussian integer.
_CELL_TOL = 1e-9

# The most cells of a dense (N, |g|^2) table (``_cell_table``), 32 MB: a
# lattice whose integral norms reach further, say the golden code scaled by
# 1e5, takes the walk.
_MAX_CELLS = 1 << 22

# The one block size of the walk and the cell table: the most children a
# level expands at once (``_windows``), and so the most rows of a block.
# Blocks this size keep the walk's temporaries, and a block's matrices and
# terms, in cache.
_MAX_CHILDREN = 1 << 13

# Internal budget for the shortest-vector search at build time.
_MIN_NORM_BUDGET = 10 ** 7


@dataclass(frozen=True)
class MatrixLattice:
    """Immutable rank-k lattice of n x T complex matrices."""

    n: int
    T: int
    k: int
    basis: np.ndarray       # (k, n, T) complex128
    gram_real: np.ndarray   # (k, k) float64, Re tr(B_i B_j*)
    min_norm_sq: float
    chol_upper: np.ndarray  # upper triangular U with U.T @ U = gram_real
    real_basis: np.ndarray  # (k, 2nT) float64, interleaved Re/Im of each basis matrix

    def __post_init__(self):
        for arr in (self.basis, self.gram_real, self.chol_upper, self.real_basis):
            arr.setflags(write=False)

    @property
    def covolume(self) -> float:
        return float(np.prod(np.diag(self.chol_upper)))

    @property
    def orbit_size(self) -> int:
        """Points in each orbit the walk emits one point of: 2 (the sign
        pair +/-X) unless the basis is Z[i]-paired, basis[2j+1] == 1j *
        basis[2j] bit for bit, so that X -> iX maps the lattice to itself;
        then 4.
        """
        if self.k % 2 or not np.array_equal(self.basis[1::2], 1j * self.basis[0::2]):
            return 2
        return 4

    def realize(self, coeffs: Sequence[int]) -> np.ndarray:
        z = np.asarray(coeffs, dtype=float)
        return np.tensordot(z, self.basis, axes=(0, 0))


def _vectorize_real(Y: np.ndarray) -> np.ndarray:
    """Rows are the interleaved real vectorizations of the matrices Y[b]."""
    flat = Y.reshape(Y.shape[0], -1)
    out = np.empty((flat.shape[0], 2 * flat.shape[1]))
    out[:, 0::2] = flat.real
    out[:, 1::2] = flat.imag
    return out


def build_lattice(basis: Sequence[np.ndarray]) -> MatrixLattice:
    """Validate a basis and assemble the lattice with its cached geometry.

    Raises DimensionMismatch for inconsistent shapes and DependentBasis when
    the real Gram matrix is numerically singular (condition above 1e12).
    """
    if len(basis) == 0:
        raise DimensionMismatch("basis must be nonempty")
    mats = [as_complex_matrix(B) for B in basis]
    n, T = mats[0].shape
    for B in mats:
        if B.shape != (n, T):
            raise DimensionMismatch(f"basis shapes differ: {B.shape} vs {(n, T)}")
    stack = np.stack(mats)
    k = len(mats)
    V = _vectorize_real(stack)
    G = V @ V.T
    G = (G + G.T) / 2.0
    eigs = np.linalg.eigvalsh(G)
    if eigs[0] <= 0 or eigs[0] < 1e-12 * eigs[-1]:
        raise DependentBasis(
            f"basis is numerically dependent over R (eig ratio {eigs[0]:.3e}/{eigs[-1]:.3e})"
        )
    U = np.linalg.cholesky(G).T
    min_norm_sq = _shortest_nonzero_norm_sq(G, U)
    return MatrixLattice(n=n, T=T, k=k, basis=stack, gram_real=G,
                         min_norm_sq=min_norm_sq, chol_upper=U, real_basis=V)


def rescale_lattice(lat: MatrixLattice, factor: float) -> MatrixLattice:
    """Lattice with every basis matrix multiplied by ``factor``."""
    if factor <= 0:
        raise ValueError("scale factor must be positive")
    return build_lattice(list(lat.basis * factor))


def _shortest_nonzero_norm_sq(G: np.ndarray, U: np.ndarray) -> float:
    # The shortest basis vector bounds the minimum, so a single walk at that
    # radius is guaranteed to see a shortest vector.
    best = float(np.min(np.diag(G)))
    for _, norm_sq in _walk(U, _bound_sq(math.sqrt(best)),
                            budget=PointBudget(_MIN_NORM_BUDGET)):
        best = min(best, float(norm_sq.min()))
    if best <= 0:
        raise DependentBasis("lattice has a numerically zero nonzero vector")
    return best


# ---------------------------------------------------------------------------
# Sphere enumeration
# ---------------------------------------------------------------------------

def _ball_volume(k: int, radius: float) -> float:
    return math.pi ** (k / 2.0) / math.gamma(k / 2.0 + 1.0) * radius ** k


def _bound_sq(radius: float) -> float:
    """Squared radius with the boundary slack; the walk and every binning of
    its norms compare against this one value."""
    return radius * radius * (1.0 + _RADIUS_TOL)


def _radius_grid(radii: Sequence[float]) -> list[float]:
    """The radii as floats; ValueError unless nonempty, positive and strictly increasing."""
    radii = list(radii)
    if not radii or not radii[0] > 0 or any(not b > a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must be nonempty, positive and strictly increasing, "
                         f"got {radii!r}")
    return [float(r) for r in radii]


def predicted_point_count(lat: MatrixLattice, radius: float) -> float:
    """Volume heuristic for |L(radius)|, padded for surface effects."""
    vol = _ball_volume(lat.k, radius) / lat.covolume
    return 1.5 * vol + 1024.0


class PointBudget:
    """Cap on the lattice points one enumeration may produce.

    It counts the points of the full ball, the origin included, so the walk
    charges ``orbit_size`` points per row it emits, and the cell table the
    points of each window of key pairs.
    """

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 1                   # the origin

    def charge(self, points: int) -> None:
        self.used += points
        if self.used > self.limit:
            raise BudgetExceeded(
                f"enumeration emitted more than budget={self.limit} points")


def _windows(counts: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Expand rows with ``counts`` children each, ``_MAX_CHILDREN`` children
    at a time: yields, window by window in order, the row index and the
    within-row offset of each child; a row's children may span windows."""
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if ends.size else 0
    for s in range(0, total, _MAX_CHILDREN):
        e = min(s + _MAX_CHILDREN, total)
        # The rows whose children meet [s, e), clipped to it.
        first, last = np.searchsorted(ends, [s, e - 1], side="right")
        sl = slice(first, last + 1)
        clipped = np.minimum(ends[sl], e) - np.maximum(starts[sl], s)
        yield (np.repeat(np.arange(first, last + 1), clipped),
               np.arange(s, e) - np.repeat(starts[sl], clipped))


def _walk(U: np.ndarray, rad_sq: float, *, budget: PointBudget | None = None,
          orbit: int = 2) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Depth-first block enumeration of 0 < z^T G z <= rad_sq, one point per orbit.

    Yields (coeffs, norm_sq) with coefficients in natural index order, as
    float64 (exact integers), one z of each +/-z pair: the one whose highest
    nonzero coefficient is positive.  A row whose higher coefficients are
    all zero has ``used`` exactly 0.0, so that is the mask.  With ``orbit`` 4 the coefficients form
    pairs (z[2j], z[2j+1]) = (a, b) on which X -> iX acts as (a, b) -> (-b, a),
    and the walk yields one z of each orbit of four: the one whose highest
    nonzero pair has a > 0 and b >= 0.  The odd level of a pair hands the
    even level below it a flag, "every higher pair is zero"; a flagged row
    whose b is nonzero (``used`` above 0.0) then takes a >= 1.

    Charges ``budget``, when given, ``orbit`` points per row.

    Frontiers do not carry their coefficient prefixes: each level keeps its
    values and the row of the parent they extend, and a leaf block gathers
    its coefficients along that path, into a (k, B) array whose transpose it
    yields: the layout ``realize_block`` multiplies as it is.  A level
    expands ``_MAX_CHILDREN`` children at a time (``_windows``) and passes
    all it keeps of them down at once, so a leaf block holds at most
    ``_MAX_CHILDREN`` rows.
    """
    k = U.shape[0]

    def expand(level: int, path: list, y: np.ndarray, used: np.ndarray,
               top_zero: np.ndarray | None):
        d = U[level, level]
        half = np.sqrt(np.maximum(rad_sq - used, 0.0)) / d
        center = -y[:, level] / d
        low = np.ceil(center - half - 1e-12)
        high = np.floor(center + half + 1e-12)
        zero = used == 0.0
        low = np.where(zero, np.maximum(low, 1.0 if level == 0 else 0.0), low)
        if top_zero is not None:
            low = np.where(top_zero & ~zero, np.maximum(low, 1.0), low)
        counts = np.maximum(high - low + 1.0, 0.0).astype(np.int64)
        for rows, offs in _windows(counts):
            zvals = low[rows] + offs
            seg = d * zvals + y[rows, level]
            new_used = used[rows] + seg * seg
            keep = new_used <= rad_sq
            rows = rows[keep]
            zvals = zvals[keep].astype(np.int64)
            new_used = new_used[keep]
            if rows.size == 0:
                continue
            if level == 0:
                coeffs = np.empty((k, rows.size))
                coeffs[0] = zvals
                idx = rows
                for j, (z, parent) in enumerate(reversed(path), start=1):
                    coeffs[j] = z[idx]
                    idx = parent[idx]
                if budget is not None:
                    budget.charge(orbit * rows.size)
                yield coeffs.T, new_used
                continue
            # An odd level tells the even level below it, the other half of
            # its pair, whether every higher pair is zero.
            child_top = zero[rows] if orbit == 4 and level % 2 == 1 else None
            new_y = y[rows, :level] + U[:level, level][None, :] * zvals[:, None]
            yield from expand(level - 1, path + [(zvals, rows)], new_y, new_used,
                              child_top)

    yield from expand(k - 1, [], np.zeros((1, k)), np.zeros(1), None)


def _half_histograms(lat: MatrixLattice, rad_sq: float) -> tuple | None:
    """The two full half balls of a 2 x 2 lattice as histograms of exact
    keys, or None unless the cell table (``_cell_table``) holds on this ball.

    It holds when
    - the real Gram matrix is integral with orthogonal halves, so ||X||^2 =
      N_A + N_B with integers N;
    - det X = det X_A + det X_B: the mixed term of det between the basis
      matrices of the two halves is zero;
    - w det is a Gaussian integer g, up to ``_CELL_TOL``, at every point of
      both half balls, with w = 1 / d_0 for d_0 the least nonsingular half
      determinant (``_singular_mask``), taken at the shortest point that has
      it.  On the golden code d_0 is a unit times (2 + i) / 5, so |g|^2 =
      5 |det X|^2;
    - the dense table has at most ``_MAX_CELLS`` cells.

    Each distinct half Gram block is walked once (one of each +/-A, whose
    det is the same), each half's determinants taken from its own basis
    matrices, its keys (N, Re g, Im g) counted by ``np.unique``, twice over,
    and the origin's key added once.  Returns ((norm, re, im, count) of the A half,
    the same of the B half, |d_0|^2), each half sorted by N.
    """
    if not (lat.n == lat.T == 2 and lat.k % 2 == 0):
        return None
    h = lat.k // 2
    G = lat.gram_real
    whole = np.rint(G)
    if np.abs(G - whole).max() > _CELL_TOL * np.abs(G).max() or whole[:h, h:].any():
        return None
    P, Q = lat.basis[:h, None], lat.basis[None, h:]
    mixed = (P[..., 0, 0] * Q[..., 1, 1] + P[..., 1, 1] * Q[..., 0, 0]
             - P[..., 0, 1] * Q[..., 1, 0] - P[..., 1, 0] * Q[..., 0, 1])
    sizes = np.sqrt(np.diag(G))
    if np.any(np.abs(mixed) > _CELL_TOL * np.outer(sizes[:h], sizes[h:])):
        return None
    halves, gram = [], None
    for part in (slice(0, h), slice(h, lat.k)):
        # Equal half Gram blocks, as on the golden code, have one ball.
        if gram is None or not np.array_equal(whole[part, part], gram):
            gram = whole[part, part]
            walked = list(_walk(np.linalg.cholesky(gram).T, rad_sq))
            coeffs = np.concatenate([np.zeros((0, h))] + [c for c, _ in walked])
            norm = np.rint(np.concatenate([np.zeros(0)] + [v for _, v in walked]))
        flat = coeffs @ lat.real_basis[part]
        halves.append((norm, det_batch(flat.view(np.complex128).reshape(-1, 2, 2))))
    norm = np.concatenate([v for v, _ in halves])
    det = np.concatenate([d for _, d in halves])
    det_sq = det.real * det.real + det.imag * det.imag
    regular = np.flatnonzero(~_singular_mask(det_sq, norm, 2))
    if not regular.size:
        return None
    # Of the least determinants, the one of the shortest point: a long point
    # may reach it through cancellation, which costs it digits.
    least = regular[det_sq[regular] <= det_sq[regular].min() * (1.0 + _CELL_TOL)]
    d_0 = det[least[np.argmin(norm[least])]]
    top = int(rad_sq)
    if (top + 1) * (top * top / (4.0 * abs(d_0) ** 2) + 2.0) > _MAX_CELLS:
        return None
    g = det / d_0
    parts = np.rint(g.view(np.float64))
    if np.abs(g.view(np.float64) - parts).max() > _CELL_TOL:
        return None
    # Pack (N, Re g, Im g) into one int64, N the most significant.  |det X|
    # <= ||X||^2 / 2 (AM-GM on the two eigenvalues of X X*), so |g| <=
    # N / (2 |d_0|) and each part of g lies in [-span, span).
    span = int(rad_sq / (2.0 * abs(d_0))) + 2
    keys = ((norm.astype(np.int64) * (2 * span) + parts[0::2].astype(np.int64) + span)
            * (2 * span) + parts[1::2].astype(np.int64) + span)
    origin = span * (2 * span) + span
    out = []
    for held in np.split(keys, [halves[0][0].size]):
        found, count = np.unique(np.append(held, origin), return_counts=True)
        count = 2 * count
        count[0] -= 1                   # the origin, the least key, once
        n_key, re_im = np.divmod(found, 4 * span * span)
        re, im = np.divmod(re_im, 2 * span)
        out.append((n_key, re - span, im - span, count))
    return out[0], out[1], float(abs(d_0) ** 2)


def _cell_table(hists: tuple, rad_sq: float, *, budget: PointBudget,
                ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(norm_sq, e, weight) blocks of the cells (N, |g|^2) of L(rad_sq),
    from the ``_half_histograms``: each cell once, in order of (N, |g|^2),
    weighted by the points it holds.

    det X = det X_A + det X_B, so g = g_A + g_B and the ball's histogram is
    the sum over the key pairs with N_A + N_B <= rad_sq of the product of
    their counts at (N_A + N_B, |g_A + g_B|^2).  The pairs are expanded in
    ``_windows``, each window added by one dense ``bincount`` over the cells,
    which hold |g|^2 <= |w|^2 N^2 / 4 per N, and the budget charged its exact
    points.  e = (N, |g|^2 |d_0|^2).
    """
    (a_n, a_re, a_im, a_count), (b_n, b_re, b_im, b_count), d_0_sq = hists
    top = int(rad_sq)
    # Cells of norm N sit at offset[N] + |g|^2, |g|^2 < width[N].
    width = np.floor(np.arange(top + 1) ** 2 / (4.0 * d_0_sq) * (1.0 + _CELL_TOL)
                     ).astype(np.int64) + 2
    offset = np.concatenate([[0], np.cumsum(width)])
    table = np.zeros(int(offset[-1]))
    for ia, ib in _windows(np.searchsorted(b_n, top - a_n, side="right")):
        weight = np.take(a_count, ia) * np.take(b_count, ib)
        if not ia[0] and not ib[0]:
            weight[0] = 0               # the pair of the origins
        re = np.take(a_re, ia) + np.take(b_re, ib)
        im = np.take(a_im, ia) + np.take(b_im, ib)
        cell = np.take(offset, np.take(a_n, ia) + np.take(b_n, ib)) + re * re + im * im
        budget.charge(int(weight.sum()))
        table += np.bincount(cell, weights=weight, minlength=table.size)
    cells = np.flatnonzero(table)
    e = np.empty((2, cells.size))
    e[0] = np.searchsorted(offset, cells, side="right") - 1
    e[1] = (cells - offset[e[0].astype(np.int64)]) * d_0_sq
    weight = table[cells]
    for s in range(0, cells.size, _MAX_CHILDREN):
        rows = slice(s, s + _MAX_CHILDREN)
        yield e[0, rows], e.T[rows], weight[rows]


def _times_i(coeffs: np.ndarray) -> np.ndarray:
    """Rows of iX on a Z[i]-paired basis: each pair (a, b) -> (-b, a)."""
    out = np.empty_like(coeffs)
    out[:, 0::2] = -coeffs[:, 1::2]
    out[:, 1::2] = coeffs[:, 0::2]
    return out


def orbit_images(lat: MatrixLattice, coeffs: np.ndarray, *,
                 dedup_signs: bool = False) -> np.ndarray:
    """Every point of the orbits of the rows of an orbit-walk block.

    The block is followed by its images: for ``orbit_size`` 4 i times the
    block, then the negatives of everything.  With ``dedup_signs`` the
    negatives are left out, which keeps one of each +/-z pair, the one whose
    highest nonzero coefficient is positive, as the half walk gives it (the
    block and its i-image already are).  Images of a row keep its norm.
    """
    if lat.orbit_size == 4:
        coeffs = np.concatenate([coeffs, _times_i(coeffs)])
    if dedup_signs:
        return coeffs
    return np.concatenate([coeffs, -coeffs])


def _checked_budget(lat: MatrixLattice, radius: float,
                    budget: int | PointBudget) -> PointBudget:
    """The ``PointBudget`` a walk of L(radius) charges, once the radius is
    checked and the predicted point count is within it."""
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius!r}")
    if not isinstance(budget, PointBudget):
        budget = PointBudget(budget)
    if predicted_point_count(lat, radius) > budget.limit:
        raise BudgetExceeded(
            f"predicted point count {predicted_point_count(lat, radius):.3e} "
            f"exceeds budget {budget.limit}")
    return budget


def coefficient_blocks(lat: MatrixLattice, radius: float, *,
                       budget: int | PointBudget = DEFAULT_BUDGET,
                       ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield the (coeffs, norm_sq) blocks of the orbit walk of L(radius).

    Coefficient rows are int64, in natural index order, one point of each
    orbit of ``orbit_size`` nonzero points (see ``_walk`` for which one);
    ``orbit_images`` expands a block to its orbits.  ``budget`` is a point
    cap or a ``PointBudget`` the walk charges.
    """
    budget = _checked_budget(lat, radius, budget)
    for coeffs, norm_sq in _walk(lat.chol_upper, _bound_sq(radius), budget=budget,
                                 orbit=lat.orbit_size):
        yield coeffs.astype(np.int64), norm_sq


def realize_block(lat: MatrixLattice, coeffs: np.ndarray, *,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Realize a (B, k) coefficient block as a (B, n, T) matrix stack.

    The product runs in real arithmetic on the interleaved basis, whose rows
    read back as complex entries.  Float coefficients are multiplied as they
    are, integer ones as float64 in their layout.  ``out`` is a caller-owned
    C-contiguous float64 array of shape (B, 2nT) that takes the product; the
    stack returned is then a view of it, valid until the caller writes to it
    again.  Without ``out`` the product is a fresh array.
    """
    flat = np.matmul(coeffs.astype(float, copy=False), lat.real_basis, out=out)
    return flat.view(np.complex128).reshape(-1, lat.n, lat.T)


def esp_blocks(lat: MatrixLattice, radius: float, *,
               budget: int | PointBudget = DEFAULT_BUDGET,
               ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (norm_sq, e, weight) blocks that cover L(radius), with the radius
    check, predicted-count guard and budget of ``coefficient_blocks``: e,
    shape (B, n), holds the elementary symmetric polynomials e_1 .. e_n of
    the eigenvalues of X X* (e_1 = ||X||^2; for square X, e_n = |det X|^2),
    and a row stands for ``weight`` points that share its e.

    Where the cell table holds (``_half_histograms``: the golden code, among
    others) the rows are its cells, each once (``_cell_table``).  Elsewhere
    they are the rows of ``coefficient_blocks``, in its order and with its
    norms, each weighted by ``orbit_size``, realized into the leading rows of
    one (``_MAX_CHILDREN``, 2nT) buffer the call holds, and given to
    ``_esp_batch``; e is a fresh array, and nothing keeps the realized block.
    Each call owns its buffer, so calls on separate threads share nothing.
    """
    budget = _checked_budget(lat, radius, budget)
    rad_sq = _bound_sq(radius)
    hists = _half_histograms(lat, rad_sq)
    if hists is not None:
        yield from _cell_table(hists, rad_sq, budget=budget)
        return
    orbit = lat.orbit_size
    # One product buffer for the whole call: a fresh array per block measured slower.
    product = np.empty((_MAX_CHILDREN, lat.real_basis.shape[1]))
    for coeffs, norm_sq in _walk(lat.chol_upper, rad_sq, budget=budget, orbit=orbit):
        X = realize_block(lat, coeffs, out=product[:norm_sq.size])
        yield norm_sq, _esp_batch(X), np.full(norm_sq.size, float(orbit))


def shell_counts(lat: MatrixLattice, radii: Sequence[float], *,
                 budget: int = DEFAULT_BUDGET) -> list[int]:
    """|L(M)| for each radius M in an increasing list, from one orbit walk."""
    radii = _radius_grid(radii)
    bounds = np.array([_bound_sq(r) for r in radii])
    counts = np.zeros(len(radii), dtype=np.int64)
    for _, norm_sq in coefficient_blocks(lat, radii[-1], budget=budget):
        counts += np.bincount(np.searchsorted(bounds, norm_sq), minlength=len(radii))
    return [lat.orbit_size * int(c) for c in np.cumsum(counts)]


# ---------------------------------------------------------------------------
# JSON basis format: {"n": int, "T": int, "basis": [[[re, im], ...], ...]}
# with one flat row-major entry list per basis matrix.
# ---------------------------------------------------------------------------

def lattice_from_json(source) -> MatrixLattice:
    """Load a lattice basis from a JSON file path or dict."""
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"basis JSON must be an object, got {doc!r}")
    try:
        n, T, entries = doc["n"], doc["T"], doc["basis"]
    except KeyError as exc:
        raise ValueError(f"basis JSON lacks the key {exc}") from None
    for name, value in (("n", n), ("T", T)):
        if not INTEGER.check(value) or value < 1:
            raise ValueError(f"basis JSON field {name!r} must be an integer >= 1, "
                             f"got {value!r}")
    if not isinstance(entries, list):
        raise ValueError(f"basis JSON field 'basis' must be a list, got {entries!r}")
    basis = []
    for j, flat in enumerate(entries):
        try:
            vals = np.array([complex(re, im) for re, im in flat])
        except (TypeError, ValueError):
            raise ValueError(f"basis JSON field 'basis' entry {j} must be a list "
                             "of [re, im] pairs") from None
        if vals.size != n * T:
            raise DimensionMismatch(
                f"basis entry list has {vals.size} entries, expected {n * T}")
        basis.append(vals.reshape(n, T))
    return build_lattice(basis)


def lattice_to_json(lat: MatrixLattice) -> dict:
    return {
        "n": lat.n,
        "T": lat.T,
        "basis": [
            [[float(v.real), float(v.imag)] for v in B.reshape(-1)]
            for B in lat.basis
        ],
    }
