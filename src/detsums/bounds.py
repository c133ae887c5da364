"""Growth-exponent fitting, shift-bound envelopes, DMT lines, SNR thresholds.

The envelope machinery turns a table of inverse-determinant growth exponents
s(l) (from ``sum_{L(M)} det(X X*)^-l <= K M^s(l)``) into the family of upper
bounds on the shifted sum, one per split index i:

    bound_i(c, M) = G_i * c^-(i + n(m-i)) * M^e * log(M)^q

where (e, q) follow the trichotomy of s(m-i) against 2i (and of the lattice
rank k against 2m for i = m).  The minimum over the entries is the usable
bound; constants G_i stay unknown, so comparisons anchor the shape at a
reference point.

DMT lines are kept as exact rational (slope, intercept) pairs so the
flagship identities can be checked without floating-point slack.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateFit, MissingExponent
from .sums import SumCurve

__all__ = [
    "GrowthFit",
    "growth_fit",
    "EnvelopeEntry",
    "BoundEnvelope",
    "shift_bound_envelope",
    "DmtCurve",
    "dmt_ml_bound",
    "dmt_naive_bound",
    "dmt_envelope",
    "full_multiplexing_bound",
    "pe_upper_bound",
    "snr_threshold_exponent",
    "snr_threshold",
]


# ---------------------------------------------------------------------------
# Growth fitting: log value = log_k + s*log M + t*log log M
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthFit:
    s: float          # exponent of M
    t: float          # exponent of log M
    log_k: float      # intercept, natural log of the constant
    residual: float   # rms residual in the log domain

    # |t| below this is reported as "no log factor".
    LOG_FACTOR_THRESHOLD = 0.25

    @property
    def has_log_factor(self) -> bool:
        return abs(self.t) >= self.LOG_FACTOR_THRESHOLD

    def to_dict(self) -> dict:
        return {"s": self.s, "t": self.t, "logK": self.log_k,
                "residual": self.residual, "hasLogFactor": self.has_log_factor}


def growth_fit(curve: SumCurve | tuple[Sequence[float], Sequence[float]]) -> GrowthFit:
    """Least-squares exponents from dyadic samples with M >= 2.

    Radii below 2 are ignored (log log M must stay positive); at least four
    usable samples are required.  DegenerateFit signals a rank-deficient
    design, e.g. fewer than three distinct radii.
    """
    if isinstance(curve, SumCurve):
        radii, values = curve.radii, curve.values
    else:
        radii, values = curve
    pts = [(float(M), float(v)) for M, v in zip(radii, values) if M >= 2.0 * (1 - 1e-12)]
    if len(pts) < 4:
        raise ValueError(f"growth fit needs >= 4 samples with M >= 2, got {len(pts)}")
    if any(v <= 0 for _, v in pts):
        raise ValueError("growth fit needs positive values")
    M = np.array([p[0] for p in pts])
    V = np.array([p[1] for p in pts])
    design = np.column_stack([np.ones(M.size), np.log(M), np.log(np.log(M))])
    if np.linalg.matrix_rank(design, tol=1e-10) < 3:
        raise DegenerateFit("design matrix is rank deficient; radii too repetitive")
    target = np.log(V)
    coef, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    resid = target - design @ coef
    return GrowthFit(s=float(coef[1]), t=float(coef[2]), log_k=float(coef[0]),
                     residual=float(np.sqrt(np.mean(resid ** 2))))


# ---------------------------------------------------------------------------
# Shift-bound envelope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvelopeEntry:
    split_index: int          # i
    shift_exp: int            # exponent a: bound decays as c^-a
    radius_exp: float         # exponent of M in the bound
    log_power: int            # 0 or 1
    regime: str               # constant | log | poly
    growth_exp_used: float | None   # s(m - i); None for the i = m entry

    def shape_value(self, c: float, M: float) -> float:
        v = c ** (-self.shift_exp) * M ** self.radius_exp
        if self.log_power:
            v *= math.log(M) ** self.log_power
        return v

    def to_dict(self) -> dict:
        return {"i": self.split_index, "cExponent": self.shift_exp,
                "MExponent": self.radius_exp, "logPower": self.log_power,
                "regime": self.regime, "s": self.growth_exp_used}


@dataclass(frozen=True)
class BoundEnvelope:
    n: int
    k: int
    m: int
    s_table: dict
    entries: tuple
    notes: tuple = ()

    def shape_value(self, c: float, M: float) -> float:
        return min(e.shape_value(c, M) for e in self.entries)

    def active_index(self, c: float, M: float) -> int:
        vals = [e.shape_value(c, M) for e in self.entries]
        return self.entries[int(np.argmin(vals))].split_index

    def to_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "m": self.m,
                "sTable": {str(l): v for l, v in sorted(self.s_table.items())},
                "entries": [e.to_dict() for e in self.entries],
                "notes": list(self.notes)}


def _entry_for_index(n: int, k: int, m: int, i: int, s_table: dict) -> EnvelopeEntry:
    shift_exp = i + n * (m - i)
    if i == m:
        # The point count itself grows like M^k, so the norm weighting
        # ||X||^-2m is compared against rank k.
        if k < 2 * m:
            return EnvelopeEntry(i, shift_exp, 0.0, 0, "constant", None)
        if k == 2 * m:
            return EnvelopeEntry(i, shift_exp, 0.0, 1, "log", None)
        return EnvelopeEntry(i, shift_exp, float(k - 2 * m), 0, "poly", None)
    l = m - i
    if l not in s_table:
        raise MissingExponent(f"growth table lacks s({l}) needed for split index i={i}")
    s = float(s_table[l])
    if abs(s - 2 * i) <= 1e-9:
        return EnvelopeEntry(i, shift_exp, 0.0, 1, "log", s)
    if s < 2 * i:
        return EnvelopeEntry(i, shift_exp, 0.0, 0, "constant", s)
    return EnvelopeEntry(i, shift_exp, s - 2 * i, 0, "poly", s)


def shift_bound_envelope(n: int, k: int, m: int, s_table: dict,
                         indices: Iterable[int] | None = None) -> BoundEnvelope:
    """Envelope of per-split upper bounds on the shifted determinant sum.

    ``s_table`` maps l = m - i to the growth exponent s(l) of the inverse
    determinant sum with power l.  ``indices`` selects which split indices to
    include (default: all of 0..m); any subset still yields a valid bound
    since each entry alone is one.
    """
    if indices is None:
        indices = range(0, m + 1)
    idx = sorted(set(int(i) for i in indices))
    if any(i < 0 or i > m for i in idx):
        raise ValueError("split indices must lie in 0..m")
    if not idx:
        raise ValueError("need at least one split index")
    entries = tuple(_entry_for_index(n, k, m, i, s_table) for i in idx)
    notes = []
    if m in idx and k == 2 * m:
        notes.append(
            f"entry i={m} carries a log(M) factor because the lattice rank k={k} "
            f"equals 2m; constant-only readings of this term understate it")
    return BoundEnvelope(n=n, k=k, m=m, s_table=dict(s_table), entries=entries,
                         notes=tuple(notes))


# ---------------------------------------------------------------------------
# DMT curves
# ---------------------------------------------------------------------------

def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, numbers.Integral):
        return Fraction(int(x))
    return Fraction(x)   # exact binary value of the float


@dataclass(frozen=True)
class DmtCurve:
    """Piecewise-linear lower bound d(r) = max(0, max_j (a_j + b_j r)).

    Segments hold exact rational (intercept, slope) pairs; evaluation clips
    at zero, which realizes the (.)^+ in every quoted DMT line.
    """

    segments: tuple            # ((intercept, slope), ...) as Fractions
    label: str = ""
    provenance: dict = field(default_factory=dict, compare=False)

    def evaluate(self, r: float) -> float:
        return max(0.0, max(float(a) + float(b) * r for a, b in self.segments))

    def evaluate_grid(self, grid: Sequence[float]) -> np.ndarray:
        g = np.asarray(grid, dtype=float)
        vals = np.max([float(a) + float(b) * g for a, b in self.segments], axis=0)
        return np.maximum(vals, 0.0)

    def zero_crossing(self) -> float:
        """Largest r at which the curve is still positive (inf if always)."""
        roots = [float(-a / b) for a, b in self.segments if b < 0]
        if not roots:
            return math.inf
        return max(roots)

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "segments": [
                {"intercept": [a.numerator, a.denominator],
                 "slope": [b.numerator, b.denominator]}
                for a, b in self.segments
            ],
            "provenance": dict(self.provenance),
        }

    def to_csv(self, grid: Sequence[float]) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["r", "d"])
        for r, d in zip(grid, self.evaluate_grid(grid)):
            w.writerow([repr(float(r)), repr(float(d))])
        return buf.getvalue()


def dmt_ml_bound(a, b, k: int, T: int) -> DmtCurve:
    """DMT line from a shifted-sum bound K c^-a M^b: d(r) = (a - rT(2a+b)/k)^+."""
    if k <= 0 or T <= 0:
        raise ValueError("k and T must be positive")
    af, bf = _frac(a), _frac(b)
    slope = -_frac(T) * (2 * af + bf) / _frac(k)
    return DmtCurve(segments=((af, slope),),
                    label=f"ml(a={a}, b={b}, k={k}, T={T})",
                    provenance={"op": "dmt_ml_bound", "a": float(a), "b": float(b),
                                "k": k, "T": T})


def dmt_naive_bound(a, k: int, T: int) -> DmtCurve:
    """DMT line under infinite-lattice decoding from a bound K c^-a:
    d(r) = (a (1 - 2rT/k))^+."""
    if k <= 0 or T <= 0:
        raise ValueError("k and T must be positive")
    af = _frac(a)
    slope = -2 * _frac(T) * af / _frac(k)
    return DmtCurve(segments=((af, slope),),
                    label=f"naive(a={a}, k={k}, T={T})",
                    provenance={"op": "dmt_naive_bound", "a": float(a), "k": k, "T": T})


def dmt_envelope(curves: Sequence[DmtCurve]) -> DmtCurve:
    """Pointwise maximum of DMT curves.

    Since evaluation already takes the max over segments, the envelope is the
    deduplicated union of all segments, canonically sorted; the operation is
    idempotent and does not depend on argument order.
    """
    if not curves:
        raise ValueError("need at least one curve")
    segs = sorted({seg for c in curves for seg in c.segments},
                  key=lambda ab: (-ab[0], -ab[1]))
    return DmtCurve(segments=tuple(segs),
                    label="max(" + ", ".join(c.label or "?" for c in curves) + ")",
                    provenance={"op": "dmt_envelope",
                                "of": [c.label for c in curves]})


def full_multiplexing_bound(n: int, T: int, n_r: int, k: int) -> DmtCurve | None:
    """Error-exponent line n_r (1 - r/n) for full-rank lattices with many
    receive antennas.  Returns None unless k = 2nT and n_r > nT + 1."""
    if k != 2 * n * T or n_r <= n * T + 1:
        return None
    curve = dmt_ml_bound(n_r, 0, 2 * n * T, T)
    return DmtCurve(segments=curve.segments,
                    label=f"full-multiplexing(n_r={n_r}, n={n}, T={T})",
                    provenance={"op": "full_multiplexing_bound", "n": n, "T": T,
                                "n_r": n_r, "k": k})


# ---------------------------------------------------------------------------
# Error-probability bound and SNR thresholds
# ---------------------------------------------------------------------------

def pe_upper_bound(K: float, d: float, t: float, M: float, rho: float) -> float:
    """Evaluate K * M^(d+t) * rho^-d."""
    if K <= 0 or M <= 0 or rho <= 0:
        raise ValueError("K, M, rho must be positive")
    return K * M ** (d + t) * rho ** (-d)


def snr_threshold_exponent(d, t) -> Fraction:
    """Exponent e such that diversity d needs rho >= const * M^e; e = (t+d)/d."""
    df = _frac(d)
    if df <= 0:
        raise ValueError("diversity exponent d must be positive")
    return (_frac(t) + df) / df


def snr_threshold(d, t, M: float) -> float:
    """Threshold M^((t+d)/d), up to the unknown constant."""
    if M <= 0:
        raise ValueError("M must be positive")
    return float(M ** float(snr_threshold_exponent(d, t)))
