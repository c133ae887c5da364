"""Sum families over enumerated lattice points.

Three families are supported, all over the nonzero points of L(M):

* ``shifted``      sum of det(I + c X X*)^(-m)
* ``approximate``  sum of |det(X)|^(-m)        (square lattices)
* ``mixed``        sum of ||X||_F^(-2i) * det(X X*)^(-(m-i))

Every family is even in X, and on a Z[i]-paired lattice invariant under
X -> iX as well: ||iX||_F = ||X||_F, |det iX| = |det X| and (iX)(iX)* = XX*.
So each sum is one pass over the orbit walk (one X of each orbit of
``orbit_size`` points: {X, -X}, or {X, iX, -X, -iX} on a paired lattice) and
``orbit_size`` times its total.  Terms are evaluated block-wise
on the walk; each block adds one partial sum per shell of the radius grid,
and the partials are merged with ``math.fsum``.  fsum is exactly rounded, so
totals do not depend on the order in which blocks arrive or on how
partitioned workers split the ball.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (BudgetExceeded, HypothesisViolated, ProofBoundExceeded,
                     SingularPoint)
from .lattice import (DEFAULT_BUDGET, MatrixLattice, PointBudget,
                      _bound_sq, coefficient_blocks, predicted_point_count,
                      realize_block, top_level_range)
from .linalg import det_batch, det_gram_batch, shifted_det_batch

__all__ = [
    "SumSpec",
    "SumCurve",
    "shifted_det_sum",
    "inverse_det_sum",
    "norm_det_sum",
    "evaluate_sum",
    "sum_curve",
    "MixedBoundCheck",
    "shifted_vs_mixed_bound",
    "DyadicBound",
    "dyadic_bound",
    "convergence_probe",
]

FAMILIES = ("shifted", "approximate", "mixed")

# A point counts as singular when det(X X*) is at round-off scale relative to
# its own trace: det <= 1e-12 * (||X||^2 / n)^n.
_SINGULAR_REL = 1e-12


@dataclass(frozen=True)
class SumSpec:
    """One member of a sum family.

    ``m`` is the outer exponent, ``c`` the shift (shifted family only) and
    ``i`` the split index of the mixed family (0 <= i <= m).
    """

    family: str
    m: float
    c: float = 0.0
    i: int | None = None
    skip_singular: bool = False

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.m <= 0:
            raise ValueError("exponent m must be positive")
        if self.family == "shifted" and self.c < 0:
            raise ValueError("shift c must be nonnegative")
        if self.family == "mixed":
            if self.i is None or not 0 <= self.i <= self.m:
                raise ValueError("mixed family needs split index 0 <= i <= m")

    def label(self) -> str:
        if self.family == "shifted":
            return f"shifted_m{self.m:g}_c{self.c:g}"
        if self.family == "approximate":
            return f"approximate_m{self.m:g}"
        return f"mixed_m{self.m:g}_i{self.i}"


@dataclass
class SumCurve:
    """Sum values of one family on an increasing radius grid."""

    spec: SumSpec
    radii: list[float]
    values: list[float]
    point_counts: list[int]

    def to_csv(self, path=None) -> str | None:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["M", "value", "pointCount"])
        for M, v, cnt in zip(self.radii, self.values, self.point_counts):
            w.writerow([repr(float(M)), repr(float(v)), cnt])
        text = buf.getvalue()
        if path is None:
            return text
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return None

    def to_json_dict(self) -> dict:
        return {
            "spec": {"family": self.spec.family, "m": self.spec.m, "c": self.spec.c,
                     "i": self.spec.i},
            "points": [
                {"M": float(M), "value": float(v), "pointCount": int(cnt)}
                for M, v, cnt in zip(self.radii, self.values, self.point_counts)
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SumCurve":
        """Read a curve; the ``compensation`` and ``dedupSigns`` keys of older
        files are ignored."""
        spec = SumSpec(family=doc["spec"]["family"], m=doc["spec"]["m"],
                       c=doc["spec"].get("c", 0.0), i=doc["spec"].get("i"))
        pts = doc["points"]
        return cls(spec=spec, radii=[p["M"] for p in pts],
                   values=[p["value"] for p in pts],
                   point_counts=[p["pointCount"] for p in pts])


def _singular_mask(det_g: np.ndarray, norm_sq: np.ndarray, n: int) -> np.ndarray:
    return det_g <= _SINGULAR_REL * (norm_sq / n) ** n


def _term_function(lat: MatrixLattice, spec: SumSpec) -> Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray | None]]:
    """Per-block evaluator (coeff block, norm_sq) -> (terms, keep mask).

    The mask is None when every point contributed; otherwise it marks the
    rows whose terms survived (skip_singular mode).
    """
    n = lat.n
    if spec.family == "shifted":
        def terms(coeffs, norm_sq):
            X = realize_block(lat, coeffs)
            return shifted_det_batch(X, spec.c) ** (-spec.m), None
        return terms

    if spec.family == "approximate":
        if lat.n != lat.T:
            raise ValueError("approximate family requires square matrices (n == T)")

        def terms(coeffs, norm_sq):
            X = realize_block(lat, coeffs)
            a = np.abs(det_batch(X))
            bad = _singular_mask(a * a, norm_sq, n)
            if not np.any(bad):
                return a ** (-spec.m), None
            if not spec.skip_singular:
                raise SingularPoint(
                    "enumerated a point with det(X) = 0; enable skip_singular to drop it")
            keep = ~bad
            return a[keep] ** (-spec.m), keep
        return terms

    i = int(spec.i)

    def terms(coeffs, norm_sq):
        X = realize_block(lat, coeffs)
        out = norm_sq ** (-float(i)) if i > 0 else np.ones(norm_sq.size)
        if i >= spec.m:
            return out, None
        det_g = det_gram_batch(X)
        bad = _singular_mask(det_g, norm_sq, n)
        keep = None
        if np.any(bad):
            if not spec.skip_singular:
                raise SingularPoint(
                    "enumerated a point with det(X X*) = 0; enable skip_singular to drop it")
            keep = ~bad
            out = out[keep]
            det_g = det_g[keep]
        return out * det_g ** (-(spec.m - i)), keep
    return terms


def _partition_ranges(lat: MatrixLattice, radius: float, n_jobs: int) -> list[tuple[int, int]]:
    """Split the walked range [0, hi] of the top coefficient into up to
    ``n_jobs`` contiguous ranges of about equal point counts.

    The slice at top coefficient t holds about w(t) = (R^2 - (d t)^2)^((k-1)/2)
    points.  The half walk keeps all of a slice with t > 0 and half of the
    t = 0 slice.  The quarter walk keeps about half of a slice with t > 0
    (the a of the top pair is positive) and a quarter of the t = 0 slice;
    those are the same weights up to a factor 1/2, so one split serves both.
    Each range ends at the slice whose cumulative weight is nearest its share.
    """
    hi = top_level_range(lat, radius)[1]
    d = lat.chol_upper[lat.k - 1, lat.k - 1]
    weight = np.maximum(radius * radius - (d * np.arange(hi + 1)) ** 2, 0.0) ** ((lat.k - 1) / 2.0)
    weight[0] /= 2.0
    cum = np.cumsum(weight)
    ends = [int(np.argmin(np.abs(cum - cum[-1] * j / n_jobs))) for j in range(1, n_jobs)]
    ranges, start = [], 0
    for end in ends + [hi]:
        if end >= start:
            ranges.append((start, end))
            start = end + 1
    return ranges


def _shell_partials(lat, radius, term_fn, bounds, budget, top_range):
    """Per-block partial sums and point counts of each shell, on one partition."""
    partials = []
    counts = np.zeros(len(bounds), dtype=np.int64)
    for coeffs, norm_sq in coefficient_blocks(lat, radius, orbits=True,
                                              budget=budget, top_range=top_range,
                                              skip_budget_check=True):
        t, keep = term_fn(coeffs, norm_sq)
        if keep is not None:
            norm_sq = norm_sq[keep]
        bins = np.searchsorted(bounds, norm_sq)
        partials.append(np.bincount(bins, weights=t, minlength=len(bounds)))
        counts += np.bincount(bins, minlength=len(bounds))
    return partials, counts


def _reduce(lat: MatrixLattice, spec: SumSpec, radii: list[float], budget: int,
            n_jobs: int) -> tuple[list[float], list[int]]:
    """Cumulative sum values and point counts on an increasing radius grid.

    One orbit walk to radii[-1], split into top-coefficient partitions on a
    thread pool when ``n_jobs > 1``; the partitions share one point budget.
    Every total is weighed by ``orbit_size``.
    """
    if any(b <= a for a, b in zip(radii, radii[1:])) or radii[0] <= 0:
        raise ValueError("radii must be positive and strictly increasing")
    term_fn = _term_function(lat, spec)
    if predicted_point_count(lat, radii[-1]) > budget:
        raise BudgetExceeded(
            f"predicted point count {predicted_point_count(lat, radii[-1]):.3e} "
            f"exceeds budget {budget}")
    bounds = np.array([_bound_sq(r) for r in radii])
    shared = PointBudget(budget)
    ranges = _partition_ranges(lat, radii[-1], n_jobs) if n_jobs > 1 else [None]

    def run(rng):
        return _shell_partials(lat, radii[-1], term_fn, bounds, shared, rng)

    if len(ranges) == 1:
        parts = [run(ranges[0])]
    else:
        with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
            parts = list(pool.map(run, ranges))
    partials = np.array([row for p in parts for row in p[0]]).reshape(-1, len(radii))
    orbit = lat.orbit_size
    values = [orbit * math.fsum(partials[:, :j + 1].ravel()) for j in range(len(radii))]
    counts = np.cumsum(sum(p[1] for p in parts))
    return values, [orbit * int(c) for c in counts]


def evaluate_sum(lat: MatrixLattice, spec: SumSpec, radius: float, *,
                 budget: int = DEFAULT_BUDGET, n_jobs: int = 1) -> tuple[float, int]:
    """Evaluate one sum over L(radius); returns (value, contributing points).

    With ``n_jobs > 1`` the top coefficient range is split into disjoint
    subranges processed on a thread pool; the merge is exactly rounded, so
    the result does not depend on the split or on completion order.
    """
    values, counts = _reduce(lat, spec, [float(radius)], budget, n_jobs)
    return values[0], counts[0]


def shifted_det_sum(lat: MatrixLattice, m: float, c: float, radius: float, *,
                    budget: int = DEFAULT_BUDGET, n_jobs: int = 1) -> float:
    """Sum of det(I + c X X*)^(-m) over the nonzero points of L(radius)."""
    spec = SumSpec(family="shifted", m=m, c=c)
    return evaluate_sum(lat, spec, radius, budget=budget, n_jobs=n_jobs)[0]


def inverse_det_sum(lat: MatrixLattice, m: float, radius: float, *,
                    skip_singular: bool = False, budget: int = DEFAULT_BUDGET,
                    n_jobs: int = 1) -> float:
    """Sum of |det X|^(-m) over L(radius); raises SingularPoint on det = 0."""
    spec = SumSpec(family="approximate", m=m, skip_singular=skip_singular)
    return evaluate_sum(lat, spec, radius, budget=budget, n_jobs=n_jobs)[0]


def norm_det_sum(lat: MatrixLattice, m: float, i: int, radius: float, *,
                 skip_singular: bool = False, budget: int = DEFAULT_BUDGET,
                 n_jobs: int = 1) -> float:
    """Sum of ||X||_F^(-2i) det(X X*)^(-(m-i)) over L(radius)."""
    spec = SumSpec(family="mixed", m=m, i=i, skip_singular=skip_singular)
    return evaluate_sum(lat, spec, radius, budget=budget, n_jobs=n_jobs)[0]


def sum_curve(lat: MatrixLattice, spec: SumSpec, radii: Sequence[float], *,
              budget: int = DEFAULT_BUDGET, n_jobs: int = 1) -> SumCurve:
    """Evaluate one family on an increasing radius grid with one enumeration.

    Terms are binned by the shell their norm falls into, and each value is
    the exactly rounded sum of the bins up to its radius.  With ``n_jobs > 1``
    the top coefficient range splits across workers; values match the
    sequential run.
    """
    radii = [float(r) for r in radii]
    values, counts = _reduce(lat, spec, radii, budget, n_jobs)
    return SumCurve(spec=spec, radii=radii, values=values, point_counts=counts)


@dataclass(frozen=True)
class MixedBoundCheck:
    lhs: float
    rhs: float
    holds: bool
    c_exponent: int


def shifted_vs_mixed_bound(lat: MatrixLattice, m: int, c: float, radius: float,
                           i: int, *, budget: int = DEFAULT_BUDGET) -> MixedBoundCheck:
    """Check sum det(I+cXX*)^-m <= c^-(i + n(m-i)) * mixed sum at split i."""
    lhs = shifted_det_sum(lat, m, c, radius, budget=budget)
    exponent = i + lat.n * (m - i)
    mixed = norm_det_sum(lat, m, i, radius, budget=budget)
    if c == 0.0:
        rhs = mixed if exponent == 0 else math.inf
    else:
        rhs = c ** (-exponent) * mixed
    return MixedBoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs * (1.0 + 1e-9),
                           c_exponent=exponent)


# ---------------------------------------------------------------------------
# Dyadic summing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DyadicBound:
    weighted_sum: float
    proof_bound: float
    regime: str               # convergent | logarithmic | polynomial
    prefix_count: int


def dyadic_bound(xs: Sequence[float], fs: Sequence[float], K: float, s: float,
                 t: float) -> DyadicBound:
    """Bound sum f(x)/x^t given the prefix hypothesis sum_{x<=M'} f <= K M'^s.

    The hypothesis is verified on the dyadic prefixes 2^0 .. 2^ceil(log2 M)
    (HypothesisViolated if any fails), and the returned proof bound is the
    explicit dyadic-partition constant

        2^t * K * sum_{j=1..ceil(log2 M)} 2^((s-t) j).

    The weighted sum is checked against it; a violation would mean numerical
    breakage and raises ProofBoundExceeded.
    """
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.shape != fs.shape or xs.ndim != 1 or xs.size == 0:
        raise ValueError("xs and fs must be equal-length nonempty 1-D sequences")
    if np.any(xs < 1.0 - 1e-12):
        raise ValueError("sample points must lie in [1, M]")
    if np.any(fs < 0):
        raise ValueError("f must be positive valued")
    M = float(xs.max())
    levels = max(1, math.ceil(math.log2(M) - 1e-12))
    order = np.argsort(xs, kind="stable")
    xs_sorted, fs_sorted = xs[order], fs[order]
    prefix = np.cumsum(fs_sorted)
    for j in range(0, levels + 1):
        cut = 2.0 ** j
        idx = np.searchsorted(xs_sorted, cut * (1.0 + 1e-12), side="right")
        total = prefix[idx - 1] if idx > 0 else 0.0
        cap = K * cut ** s
        if total > cap * (1.0 + 1e-9):
            raise HypothesisViolated(
                f"prefix sum {total:.6g} over x <= {cut:g} exceeds K*M^s = {cap:.6g}")
    weighted = float(math.fsum(fs_sorted / xs_sorted ** t))
    proof_bound = (2.0 ** t) * K * float(
        math.fsum(2.0 ** ((s - t) * j) for j in range(1, levels + 1)))
    if weighted > proof_bound * (1.0 + 1e-9):
        raise ProofBoundExceeded(
            f"weighted sum {weighted:.6g} exceeds proof bound {proof_bound:.6g}")
    if abs(t - s) <= 1e-12:
        regime = "logarithmic"
    elif t > s:
        regime = "convergent"
    else:
        regime = "polynomial"
    return DyadicBound(weighted_sum=weighted, proof_bound=proof_bound,
                       regime=regime, prefix_count=levels + 1)


def convergence_probe(lat: MatrixLattice, m: float, c: float,
                      radii: Sequence[float], *,
                      budget: int = DEFAULT_BUDGET) -> tuple[SumCurve, bool]:
    """Shifted sum on a dyadic radius grid plus a saturation verdict.

    Saturated means the last dyadic increment contributes less than 1% of the
    running total.  The lattice must have min norm >= 1 (rescale first if
    not); the radius grid must double at each step.
    """
    if lat.min_norm_sq < 1.0 - 1e-9:
        raise HypothesisViolated(
            f"convergence probe needs min norm >= 1, got {math.sqrt(lat.min_norm_sq):.6g}")
    radii = [float(r) for r in radii]
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    for a, b in zip(radii, radii[1:]):
        if abs(b / a - 2.0) > 1e-9:
            raise ValueError("radius grid must be dyadic (each entry twice the previous)")
    curve = sum_curve(lat, SumSpec(family="shifted", m=m, c=c), radii, budget=budget)
    increment = curve.values[-1] - curve.values[-2]
    saturated = bool(curve.values[-1] > 0 and increment < 0.01 * curve.values[-1])
    return curve, saturated
