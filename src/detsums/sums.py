"""Sum families over enumerated lattice points.

Three families are supported, all over the nonzero points of L(M):

* ``shifted``      sum of det(I + c X X*)^(-m)
* ``approximate``  sum of |det(X)|^(-m)        (square lattices)
* ``mixed``        sum of ||X||_F^(-2i) * det(X X*)^(-(m-i))

Every term is a function of e = (e_1, ..., e_n), the elementary symmetric
polynomials of the eigenvalues of X X* (e_1 = ||X||_F^2, e_n = det(X X*),
which is |det X|^2 for square X): det(I + c X X*) = 1 + c e_1 + ... + c^n e_n
by Horner's rule, |det X|^(-m) = e_n^(-m/2), and the mixed term is
e_1^(-i) e_n^(-(m-i)).

So each sum is one pass over the rows of ``lattice.esp_blocks``, each term
times the row's weight, the number of points that share its e.  On a walk
the weight is ``orbit_size``, since every term is unchanged when X is
multiplied by a unit scalar or on the right by a unitary matrix U
((XU)(XU)* = XX*): 2 for the orbit {X, -X}, and 4 for {X, iX, -X, -iX}
on a Z[i]-paired lattice.  These weights are powers of two, so they change
no bit of a walk's sums.  On the
golden code the rows are the exact cells (||X||^2, 5 |det X|^2) of the whole
ball, and the weight is the number of points in the cell.

``sum_curves`` is the one reduction: it evaluates every (spec, radius grid)
pair of a run in a single pass to the largest radius, on the calling thread.
e is the one per-row quantity; each block is binned once for every spec,
which adds one partial sum per block and shell of its own grid.
``math.fsum`` merges them exactly rounded, so totals do not depend on the
order in which blocks arrive.  On a walk a different walk radius moves the
block boundaries, so it can change their last bits; the cells of the golden
code come in the order of (||X||^2, |det X|^2) whatever the radius, so there
a value does not depend on it.
``sum_curve``, ``evaluate_sum`` and the named sums are its one-spec cases.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import HypothesisViolated, ProofBoundExceeded, SingularPoint
from .lattice import DEFAULT_BUDGET, MatrixLattice, _bound_sq, _radius_grid, esp_blocks
from .linalg import _shifted_from_esp, _singular_mask
from .schema import BOOLEAN, INTEGER, NUMBER, STRING, json_field

__all__ = [
    "SumSpec",
    "SumCurve",
    "shifted_det_sum",
    "inverse_det_sum",
    "norm_det_sum",
    "evaluate_sum",
    "sum_curve",
    "sum_curves",
    "MixedBoundCheck",
    "shifted_vs_mixed_bound",
    "DyadicBound",
    "dyadic_bound",
    "convergence_probe",
]

FAMILIES = ("shifted", "approximate", "mixed")


def _finite_real(x) -> bool:
    return isinstance(x, numbers.Real) and math.isfinite(x)


@dataclass(frozen=True)
class SumSpec:
    """One member of a sum family, with the JSON keys of its fields.

    ``m`` is the outer exponent, ``c`` the shift (shifted family only) and
    ``i`` the split index of the mixed family (0 <= i <= m).
    """

    family: str = json_field("family", STRING)
    m: float = json_field("m", NUMBER)
    c: float = json_field("c", NUMBER, default=0.0)
    i: int | None = json_field("i", INTEGER, default=None)
    skip_singular: bool = json_field("skipSingular", BOOLEAN, default=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not _finite_real(self.m) or not self.m > 0:
            raise ValueError(f"exponent m must be a finite positive number, got {self.m!r}")
        if not _finite_real(self.c) or not self.c >= 0:
            raise ValueError(f"shift c must be a finite nonnegative number, got {self.c!r}")
        if self.family == "mixed":
            if not isinstance(self.i, numbers.Integral) or not 0 <= self.i <= self.m:
                raise ValueError(f"mixed family needs an integer split index 0 <= i <= m, "
                                 f"got {self.i!r}")

    def label(self) -> str:
        if self.family == "shifted":
            return f"shifted_m{self.m:g}_c{self.c:g}"
        if self.family == "approximate":
            return f"approximate_m{self.m:g}"
        return f"mixed_m{self.m:g}_i{self.i}"


@dataclass
class SumCurve:
    """Sum values of one family on an increasing radius grid.

    ``point_counts`` are the points that contributed and ``singular_counts``
    the singular points ``skip_singular`` dropped, both cumulative per radius.
    """

    spec: SumSpec
    radii: list[float]
    values: list[float]
    point_counts: list[int]
    singular_counts: list[int]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["M", "value", "pointCount"])
        for M, v, cnt in zip(self.radii, self.values, self.point_counts):
            w.writerow([repr(float(M)), repr(float(v)), cnt])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "spec": {"family": self.spec.family, "m": self.spec.m, "c": self.spec.c,
                     "i": self.spec.i},
            "points": [{"M": float(M), "value": float(v), "pointCount": int(cnt),
                        "singularCount": int(sing)}
                       for M, v, cnt, sing in zip(self.radii, self.values,
                                                  self.point_counts, self.singular_counts)],
        }


def _bin_block(lat, union, plan, norm_sq, e, weight, counts, singular):
    """Add one block of ``esp_blocks`` to the union shell counts and to every
    spec's shell partials, each row times its weight.  The rows get one union
    shell, one singular verdict and one gather per distinct last radius; each
    spec adds the terms of its ball by its own shells.  As a function it
    frees the block's arrays before the walk makes the next block, which
    measured faster than holding them."""
    shell = np.searchsorted(union, norm_sq)
    counts += np.bincount(shell, weights=weight, minlength=union.size)
    judge = any(power for _, _, power, _, _, _ in plan)
    bad = _singular_mask(e[:, -1], norm_sq, lat.n) if judge else np.zeros(shell.size, bool)
    if bad.any():
        singular += np.bincount(shell[bad], weights=weight[bad], minlength=union.size)
    balls = {}
    for last in {int(end[-1]) for _, _, _, end, _, _ in plan}:
        keep = slice(None) if last == union.size - 1 else shell <= last
        balls[last] = (shell[keep], norm_sq[keep], e[keep], bad[keep], weight[keep])
    for spec, i, power, end, to_own, partials in plan:
        sh, ns, es, bd, wt = balls[end[-1]]
        if not ns.size:
            continue                    # no row of this block is in its ball
        t = _shifted_from_esp(es, spec.c) ** (-spec.m) if spec.family == "shifted" else 1.0
        if power:
            en = es[:, -1]
            if np.any(bd):
                if not spec.skip_singular:
                    raise SingularPoint(
                        f"enumerated a point with det(X X*) = 0 ({spec.family} "
                        "family); enable skip_singular to drop it")
                sh, ns, en, wt = sh[~bd], ns[~bd], en[~bd], wt[~bd]
            t = en ** (-power)
        if i:
            t = ns ** (-float(i)) * t
        partials.append(np.bincount(sh if to_own is None else to_own[sh], weights=t * wt,
                                    minlength=end.size))


def sum_curves(lat: MatrixLattice, jobs: Sequence[tuple[SumSpec, Sequence[float]]], *,
               budget: int = DEFAULT_BUDGET) -> list[SumCurve]:
    """Evaluate several sums, each on its own increasing radius grid, from one
    orbit walk to the largest radius.

    ``jobs`` is a list of ``(spec, radii)`` pairs; one curve comes back per
    pair, in order.  Each block is binned once for every spec (``_bin_block``),
    and each spec reads its terms from e on the rows of its own ball, so its
    singular points outside it are neither counted nor raised on.  Each value
    is the exactly rounded sum of the per-block shell partials up to its
    radius, each term weighted by its row's weight.
    """
    jobs = [(spec, _radius_grid(radii)) for spec, radii in jobs]
    if not jobs:
        return []
    for spec, _ in jobs:
        if spec.family == "approximate" and lat.n != lat.T:
            raise ValueError("approximate family requires square matrices (n == T)")
    bounds = [[_bound_sq(r) for r in radii] for _, radii in jobs]
    union = np.array(sorted(set().union(*bounds)))
    plan = []
    for (spec, _), b in zip(jobs, bounds):
        # A term is e_1^-i e_n^-power (times Horner on e if shifted).  Union
        # shell u holds union[u-1] < ||X||^2 <= union[u]; the spec's bounds
        # are union shells, and each union shell maps to the spec's own.
        i, power = ((int(spec.i), spec.m - int(spec.i)) if spec.family == "mixed" else
                    (0, spec.m / 2 if spec.family == "approximate" else 0))
        to_own = None if len(b) == union.size else np.searchsorted(b, union)
        plan.append((spec, i, power, np.searchsorted(union, b), to_own, []))
    # Weighted point counts, exact in float64 below 2^53.
    counts, singular = np.zeros(union.size), np.zeros(union.size)
    for norm_sq, e, weight in esp_blocks(lat, max(radii[-1] for _, radii in jobs),
                                         budget=budget):
        _bin_block(lat, union, plan, norm_sq, e, weight, counts, singular)
    counts, singular = np.cumsum(counts), np.cumsum(singular)
    curves = []
    for (spec, radii), (_, _, power, end, _, partials) in zip(jobs, plan):
        partials = np.array(partials).reshape(-1, end.size)
        values = [math.fsum(partials[:, :s + 1].ravel()) for s in range(end.size)]
        # A spec that divides by e_n drops (or raises on) the singular rows.
        dropped = singular[end] if power else np.zeros(end.size)
        curves.append(SumCurve(spec=spec, radii=radii, values=values,
                               point_counts=[int(c) for c in counts[end] - dropped],
                               singular_counts=[int(c) for c in dropped]))
    return curves


def sum_curve(lat: MatrixLattice, spec: SumSpec, radii: Sequence[float], *,
              budget: int = DEFAULT_BUDGET, n_jobs: int = 1) -> SumCurve:
    """One family on an increasing radius grid: ``sum_curves`` with one job.

    ``n_jobs`` (at least 1) does not change the walk, which runs once on the
    calling thread; the curve is the same for every value.
    """
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be at least 1, got {n_jobs}")
    return sum_curves(lat, [(spec, radii)], budget=budget)[0]


def evaluate_sum(lat: MatrixLattice, spec: SumSpec, radius: float, *,
                 budget: int = DEFAULT_BUDGET) -> tuple[float, int]:
    """Evaluate one sum over L(radius); returns (value, contributing points)."""
    curve = sum_curve(lat, spec, [radius], budget=budget)
    return curve.values[0], curve.point_counts[0]


def shifted_det_sum(lat: MatrixLattice, m: float, c: float, radius: float, *,
                    budget: int = DEFAULT_BUDGET) -> float:
    """Sum of det(I + c X X*)^(-m) over the nonzero points of L(radius)."""
    spec = SumSpec(family="shifted", m=m, c=c)
    return evaluate_sum(lat, spec, radius, budget=budget)[0]


def inverse_det_sum(lat: MatrixLattice, m: float, radius: float, *,
                    skip_singular: bool = False, budget: int = DEFAULT_BUDGET) -> float:
    """Sum of |det X|^(-m) over L(radius); raises SingularPoint on det = 0."""
    spec = SumSpec(family="approximate", m=m, skip_singular=skip_singular)
    return evaluate_sum(lat, spec, radius, budget=budget)[0]


def norm_det_sum(lat: MatrixLattice, m: float, i: int, radius: float, *,
                 skip_singular: bool = False, budget: int = DEFAULT_BUDGET) -> float:
    """Sum of ||X||_F^(-2i) det(X X*)^(-(m-i)) over L(radius)."""
    spec = SumSpec(family="mixed", m=m, i=i, skip_singular=skip_singular)
    return evaluate_sum(lat, spec, radius, budget=budget)[0]


@dataclass(frozen=True)
class MixedBoundCheck:
    lhs: float
    rhs: float
    holds: bool
    c_exponent: int


def shifted_vs_mixed_bound(lat: MatrixLattice, m: int, c: float, radius: float,
                           i: int, *, budget: int = DEFAULT_BUDGET) -> MixedBoundCheck:
    """Check sum det(I+cXX*)^-m <= c^-(i + n(m-i)) * mixed sum at split i,
    both sums from one walk."""
    lhs, mixed = (curve.values[0] for curve in sum_curves(
        lat, [(SumSpec(family="shifted", m=m, c=c), [radius]),
              (SumSpec(family="mixed", m=m, i=i), [radius])], budget=budget))
    exponent = i + lat.n * (m - i)
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
    radii = _radius_grid(radii)
    if len(radii) < 2:
        raise ValueError("need at least two radii")
    for a, b in zip(radii, radii[1:]):
        if abs(b / a - 2.0) > 1e-9:
            raise ValueError("radius grid must be dyadic (each entry twice the previous)")
    curve = sum_curve(lat, SumSpec(family="shifted", m=m, c=c), radii, budget=budget)
    increment = curve.values[-1] - curve.values[-2]
    saturated = bool(curve.values[-1] > 0 and increment < 0.01 * curve.values[-1])
    return curve, saturated
