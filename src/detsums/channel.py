"""Rayleigh block-fading Monte Carlo layer.

The channel is Y = sqrt(rho/n_t) * H * (theta X) + N with i.i.d. unit-variance
circular complex Gaussian H and N.  Codes are spherical sections of a lattice,
normalized so the average transmit energy is one per channel use
(E ||theta X||_F^2 = T).

Decoders:

* ``ml-exhaustive``  exact minimum-distance search over the finite code;
* ``naive-lattice``  closest point of the whole (infinite) lattice under the
  channel metric, found by sphere decoding seeded at the Babai point.

Randomness is counter-based: each (snr index, trial) pair owns a Philox
stream, keyed by the seed with the counter starting at [0, trial, snr index,
0].  ``simulate`` builds one Philox per run and, before each trial, resets its
counter to that trial's start with an empty buffer, which yields exactly the
stream a fresh per-trial Philox would.  A trial draws its codeword index, then
one vector of standard normals holding the real and imaginary parts of H and
of the noise.  Trials are drawn and decoded in fixed-size chunks.  With a
fixed code the (snr index, trial) rows of the whole grid form one sequence,
so a chunk may span SNR points, each row amplified by its own point's SNR;
in multiplexing mode the code changes per point and a chunk stays inside
one.  The naive decoder runs its QR, projection and Babai point on the whole
chunk at once (``_front_ends``) and then one Schnorr-Euchner search per
trial.  Every trial sees the same stream and the same arithmetic in any
chunk, so results are bit-identical however the trials are chunked.

Finite codes of a few thousand codewords are kept in a small by-value memo
(``_collect_code``), so repeated simulations of one fixed code build it once.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from .errors import (CodeTooLarge, DimensionMismatch, InsufficientStatistics,
                     RadiusOverflow)
from .lattice import (DEFAULT_BUDGET, MatrixLattice, _vectorize_real, coefficient_blocks,
                      orbit_images, realize_block)
from .schema import (BOOLEAN, INTEGER, NUMBER, NUMBERS, STRING, JsonFields,
                     json_field)
from .sums import SumSpec, sum_curves

__all__ = [
    "ChannelConfig",
    "FiniteCode",
    "SimResult",
    "coding_scheme",
    "fixed_code",
    "normalize_energy",
    "union_bound",
    "union_bounds",
    "simulate",
    "sphere_cvp",
    "naive_lattice_decode",
    "diversity_slope",
    "wilson_halfwidth",
]

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

DECODERS = ("ml-exhaustive", "naive-lattice")
ML_CODE_CAP = 4096          # the most codewords the ML decoder scores


@dataclass(frozen=True)
class ChannelConfig(JsonFields):
    """A simulation: exactly one of ``multiplexing_r`` (a code per SNR point)
    and ``fixed_radius`` (the code L(fixed_radius)) is set.  The walk budget
    is a keyword of ``simulate``; the ML cap is ``ML_CODE_CAP``."""

    n_t: int = json_field("n_t", INTEGER)
    n_r: int = json_field("n_r", INTEGER)
    T: int = json_field("T", INTEGER)
    snr_grid_db: tuple = json_field("snrGridDb", NUMBERS)
    trials_per_point: int = json_field("trialsPerPoint", INTEGER)
    seed: int = json_field("seed", INTEGER)
    decoder: str = json_field("decoder", STRING, default="ml-exhaustive")
    multiplexing_r: float | None = json_field("multiplexingR", NUMBER, default=None)
    fixed_radius: float | None = json_field("fixedRadius", NUMBER, default=None)
    # 0 gives the noiseless harness variant
    noise_scale: float = json_field("noiseScale", NUMBER, default=1.0)
    # keep the 1/(4 n_t) factor in the bound shift
    chernoff_scaling: bool = json_field("chernoffScaling", BOOLEAN, default=True)

    def __post_init__(self):
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        for name in ("n_r", "trials_per_point"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        scale = self.noise_scale
        if not isinstance(scale, numbers.Real) or not 0 <= scale < math.inf:
            raise ValueError(f"noise_scale must be a finite number >= 0, got {scale!r}")
        if not isinstance(self.chernoff_scaling, bool):
            raise ValueError(f"chernoff_scaling must be a boolean, "
                             f"got {self.chernoff_scaling!r}")
        grid = tuple(self.snr_grid_db)
        if not all(map(math.isfinite, grid)):
            raise ValueError(f"snr_grid_db must be finite, got {self.snr_grid_db!r}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_grid_db must be strictly increasing")
        object.__setattr__(self, "snr_grid_db", grid)
        if (self.multiplexing_r is None) == (self.fixed_radius is None):
            raise ValueError("set exactly one of multiplexing_r and fixed_radius")
        if self.fixed_radius is not None and not self.fixed_radius > 0:
            raise ValueError(f"fixedRadius must be positive, got {self.fixed_radius!r}")
        if self.multiplexing_r is not None and not self.multiplexing_r >= 0:
            raise ValueError(f"multiplexingR must be nonnegative, got {self.multiplexing_r!r}")


@dataclass(frozen=True)
class FiniteCode:
    """Spherical section of a lattice, optionally rescaled."""

    lattice: MatrixLattice
    radius: float           # enumeration radius inside the raw lattice
    scale: float            # codewords are scale * X for X in L(radius)
    coeffs: np.ndarray      # (N, k) int64, lexicographically sorted
    matrices: np.ndarray    # (N, n, T), scale applied

    def __post_init__(self):
        self.coeffs.setflags(write=False)
        self.matrices.setflags(write=False)

    @property
    def size(self) -> int:
        return self.coeffs.shape[0]


# Codes built by _collect_code, keyed by value: every simulate call with a
# fixed radius, and the union bound of a pipeline run, reuse one build.
# Codes above _CODE_CACHE_ROWS codewords are built each time; their build is
# small against decoding them, and a few of them could hold gigabytes.
_CODE_CACHE: OrderedDict = OrderedDict()
_CODE_CACHE_SIZE = 8
_CODE_CACHE_ROWS = 1 << 14
_CODE_CACHE_LOCK = threading.Lock()


def _collect_code(lat: MatrixLattice, radius: float, scale: float,
                  budget: int) -> FiniteCode:
    key = (lat.basis.tobytes(), lat.basis.shape, radius, scale, budget)
    with _CODE_CACHE_LOCK:
        code = _CODE_CACHE.get(key)
        if code is not None:
            _CODE_CACHE.move_to_end(key)
    if code is None:
        code = _build_code(lat, radius, scale, budget)
        if code.size <= _CODE_CACHE_ROWS:
            with _CODE_CACHE_LOCK:
                _CODE_CACHE[key] = code
                if len(_CODE_CACHE) > _CODE_CACHE_SIZE:
                    _CODE_CACHE.popitem(last=False)
    if code.lattice is not lat:
        code = replace(code, lattice=lat)
    return code


def _build_code(lat: MatrixLattice, radius: float, scale: float,
                budget: int) -> FiniteCode:
    blocks = [orbit_images(lat, c)
              for c, _ in coefficient_blocks(lat, radius, budget=budget)]
    coeffs = np.concatenate(blocks) if blocks else np.zeros((0, lat.k), dtype=np.int64)
    order = np.lexsort(coeffs.T[::-1])
    coeffs = coeffs[order]
    return FiniteCode(lattice=lat, radius=radius, scale=scale, coeffs=coeffs,
                      matrices=scale * realize_block(lat, coeffs))


def coding_scheme(lat: MatrixLattice, r: float, rho: float, *,
                  budget: int = DEFAULT_BUDGET) -> FiniteCode:
    """Finite code at multiplexing gain r and SNR rho.

    The enumeration radius is rho^(rT/k) and every codeword is scaled down by
    the same factor, so the code size grows like rho^(rT) while the codebook
    stays inside a fixed ball.
    """
    if rho < 1.0:
        raise ValueError("rho must be >= 1 for the scheme mode")
    if r < 0:
        raise ValueError("multiplexing gain must be nonnegative")
    radius = rho ** (r * lat.T / lat.k)
    return _collect_code(lat, radius, 1.0 / radius, budget)


def fixed_code(lat: MatrixLattice, radius: float, *,
               budget: int = DEFAULT_BUDGET) -> FiniteCode:
    """Finite code L(radius) with no rescaling."""
    return _collect_code(lat, radius, 1.0, budget)


def normalize_energy(matrices: np.ndarray, T: int) -> float:
    """Scale theta making the mean per-channel-use energy one:
    theta^2 = T * N / sum ||W||_F^2."""
    if matrices.shape[0] == 0:
        raise ValueError("code must be nonempty")
    total = float(np.sum(np.abs(matrices) ** 2))
    if total <= 0:
        raise ValueError("code has zero energy")
    return math.sqrt(T * matrices.shape[0] / total)


def union_bounds(code: FiniteCode, n_r: int, rhos, *,
                 chernoff_scaling: bool = True,
                 budget: int = DEFAULT_BUDGET) -> list[float]:
    """Pairwise-error union bound for the code at each SNR in ``rhos``.

    Sums det(I + c D D*)^-n_r over all nonzero lattice points D of Frobenius
    norm at most twice the code radius (codeword differences live there),
    for every SNR from one walk of that ball.
    With ``chernoff_scaling`` the shift is c = rho theta_eff^2 / (4 n_t),
    which makes the value a true upper bound on block error probability for
    the simulated channel; without it the conventional c = rho theta_eff^2
    is used, which only preserves the decay exponents.
    """
    theta = normalize_energy(code.matrices, code.lattice.T)
    shifts = [rho * (theta * code.scale) ** 2 for rho in rhos]
    if chernoff_scaling:
        shifts = [c / (4.0 * code.lattice.n) for c in shifts]
    jobs = [(SumSpec(family="shifted", m=n_r, c=c), [2.0 * code.radius]) for c in shifts]
    return [curve.values[0] for curve in sum_curves(code.lattice, jobs, budget=budget)]


def union_bound(code: FiniteCode, n_r: int, rho: float, *,
                chernoff_scaling: bool = True,
                budget: int = DEFAULT_BUDGET) -> float:
    """Pairwise-error union bound for the code at SNR rho (``union_bounds``
    at one point)."""
    return union_bounds(code, n_r, [rho], chernoff_scaling=chernoff_scaling,
                        budget=budget)[0]


@dataclass(frozen=True)
class SimResult:
    snr_db: tuple
    error_rate: tuple
    error_count: tuple
    trials: tuple
    wilson_halfwidth: tuple
    code_size: int
    theta: float
    decoder: str
    seed: int
    overflow_count: tuple = ()

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["snr_db", "error_rate", "errors", "trials", "ci_halfwidth",
                    "overflows"])
        for row in zip(self.snr_db, self.error_rate, self.error_count,
                       self.trials, self.wilson_halfwidth, self.overflow_count,
                       strict=True):
            w.writerow([repr(float(row[0])), repr(float(row[1])), int(row[2]),
                        int(row[3]), repr(float(row[4])), int(row[5])])
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "snrDb": list(self.snr_db),
            "errorRate": list(self.error_rate),
            "errorCount": list(self.error_count),
            "trials": list(self.trials),
            "wilsonHalfwidth": list(self.wilson_halfwidth),
            "codeSize": self.code_size,
            "theta": self.theta,
            "decoder": self.decoder,
            "seed": self.seed,
            "overflowCount": list(self.overflow_count),
        }


def wilson_halfwidth(errors: int, trials: int, z: float = _Z95) -> float:
    """Halfwidth of the Wilson score interval; positive even at zero errors."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = errors / trials
    return (z / (1.0 + z * z / trials)) * math.sqrt(
        p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))


# Trials per chunk are chosen so that the largest per-chunk array (the ML
# metric differences, or the naive decoder's generator stack) holds about
# this many complex entries; memory stays flat at any trial count.
_CHUNK_ENTRIES = 1 << 16


class _TrialStreams:
    """The per-trial Philox streams of one run, replayed from one generator.

    Trial ``trial`` of SNR point ``snr_index`` draws from a Philox keyed by
    the seed with its counter starting at [0, trial, snr_index, 0]; the
    indices sit in high counter words, so streams stay disjoint however many
    draws a trial takes.  Setting the state of a fresh generator with that
    counter gives exactly the start a Philox constructed with it has (same
    key and counter, empty buffer) at a fraction of the construction cost.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=seed & ((1 << 128) - 1))
        self._rng = np.random.Generator(self._bitgen)
        self._fresh = self._bitgen.state

    def draw(self, snr_indices, trials, code_size: int,
             n_normals: int) -> tuple[np.ndarray, np.ndarray]:
        """Codeword index and ``n_normals`` standard normals of each
        (snr index, trial) pair, one row per pair."""
        counter = self._fresh["state"]["counter"]
        idx = np.empty(len(trials), dtype=np.int64)
        normals = np.empty((len(trials), n_normals))
        for row, (snr_index, trial) in enumerate(zip(snr_indices, trials)):
            counter[1] = trial
            counter[2] = snr_index
            self._bitgen.state = self._fresh
            idx[row] = self._rng.integers(code_size)
            self._rng.standard_normal(out=normals[row])
        return idx, normals


def _complex_pairs(normals: np.ndarray, shape: tuple) -> np.ndarray:
    """Unit-variance complex Gaussians from the real parts followed by the
    imaginary parts, one batch row per trial."""
    half = normals.shape[1] // 2
    re = normals[:, :half].reshape(shape)
    im = normals[:, half:].reshape(shape)
    return (re + 1j * im) / math.sqrt(2.0)


def simulate(lat: MatrixLattice, cfg: ChannelConfig, *,
             budget: int = DEFAULT_BUDGET) -> SimResult:
    """Estimate block error rate on each SNR point; deterministic given seed.
    ``budget`` caps each code's walk; ML decoding of a code above
    ``ML_CODE_CAP`` codewords is CodeTooLarge."""
    if cfg.n_t != lat.n or cfg.T != lat.T:
        raise DimensionMismatch(
            f"config (n_t={cfg.n_t}, T={cfg.T}) does not match lattice "
            f"(n={lat.n}, T={lat.T})")
    n, T, n_r = lat.n, lat.T, cfg.n_r
    if cfg.decoder == "naive-lattice" and 2 * n_r * T < lat.k:
        raise DimensionMismatch(
            f"naive-lattice decoding needs 2*n_r*T >= k; 2*{n_r}*{T} < {lat.k}: "
            f"the received signal cannot determine all lattice coefficients")
    streams = _TrialStreams(cfg.seed)
    n_h = 2 * n_r * n                 # normals of H; the noise takes 2 n_r T
    ml = cfg.decoder == "ml-exhaustive"
    rhos = [10.0 ** (snr_db / 10.0) for snr_db in cfg.snr_grid_db]
    per_point = cfg.trials_per_point
    errors = np.zeros(len(rhos), dtype=np.int64)
    overflows = [0] * len(rhos)
    # Each code with the SNR indices it serves: a fixed code serves the whole
    # grid; in multiplexing mode each point builds its own when its turn comes.
    if cfg.fixed_radius is not None:
        fixed = fixed_code(lat, cfg.fixed_radius, budget=budget)
        groups = [(fixed, range(len(rhos)))] if rhos else []
    else:
        groups = ((coding_scheme(lat, cfg.multiplexing_r, rho, budget=budget), [p])
                  for p, rho in enumerate(rhos))
    theta = math.nan
    code = None
    for code, snr_indices in groups:
        if code.size == 0:
            raise ValueError("finite code is empty at this SNR")
        if ml and code.size > ML_CODE_CAP:
            raise CodeTooLarge(
                f"code size {code.size} exceeds ml-exhaustive cap {ML_CODE_CAP}")
        theta = normalize_energy(code.matrices, T)
        # Rows are the (snr index, trial) pairs of every point the code
        # serves, in order; each row is amplified by its own point's SNR.
        point_of = np.asarray(snr_indices, dtype=np.int64)
        amp_of = np.array([math.sqrt(rhos[p] / n) * theta for p in snr_indices])
        chunk = max(1, _CHUNK_ENTRIES // ((code.size if ml else lat.k) * n_r * T))
        for start in range(0, len(snr_indices) * per_point, chunk):
            rows = np.arange(start, min(start + chunk, len(snr_indices) * per_point))
            points, amp = point_of[rows // per_point], amp_of[rows // per_point]
            trials = rows % per_point
            j, normals = streams.draw(points.tolist(), trials.tolist(), code.size,
                                      2 * n_r * (n + T))
            H = _complex_pairs(normals[:, :n_h], (len(rows), n_r, n))
            noise = cfg.noise_scale * _complex_pairs(normals[:, n_h:],
                                                     (len(rows), n_r, T))
            y = H @ (amp[:, None, None] * code.matrices[j]) + noise
            if ml:
                candidates = amp[:, None, None, None] * code.matrices
                diff = y[:, None] - np.einsum("bri,bnit->bnrt", H, candidates)
                metrics = (np.abs(diff) ** 2).sum(axis=(2, 3))
                wrong = metrics.argmin(axis=1) != j
            else:
                gens = _real_generators(
                    H, (amp * code.scale)[:, None, None, None] * lat.basis)
                targets = _vectorize_real(y)
                want = code.coeffs[j].tolist()
                wrong = np.zeros(len(rows), dtype=bool)
                for row, front in enumerate(_front_ends(gens, targets)):
                    try:
                        z_hat = sphere_cvp(gens[row], targets[row], front=front)
                    except RadiusOverflow:
                        overflows[points[row]] += 1
                        wrong[row] = True
                        continue
                    wrong[row] = z_hat.tolist() != want[row]
            errors += np.bincount(points[wrong], minlength=len(rhos))
    counts = errors.tolist()
    return SimResult(snr_db=tuple(cfg.snr_grid_db),
                     error_rate=tuple(e / per_point for e in counts),
                     error_count=tuple(counts), trials=(per_point,) * len(counts),
                     wilson_halfwidth=tuple(wilson_halfwidth(e, per_point)
                                            for e in counts),
                     code_size=code.size if code is not None else 0,
                     theta=theta, decoder=cfg.decoder, seed=cfg.seed,
                     overflow_count=tuple(overflows))


def _real_generators(H: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real generator matrices, one per channel H[b]: column i of entry b is
    the real vectorization of H[b] @ basis[i], or of H[b] @ basis[b, i] when
    each channel has its own (scaled) basis."""
    # A broadcast matmul makes one BLAS product per (b, i), as H @ basis does
    # for one channel, so entries round the same for any batch; einsum sums
    # the products in another way and differs in the last bits.
    imgs = H[:, None] @ basis                     # (B, k, n_r, T) complex
    rows = _vectorize_real(imgs.reshape(-1, *imgs.shape[2:]))
    return np.ascontiguousarray(rows.reshape(*imgs.shape[:2], -1).transpose(0, 2, 1))


def _front_ends(A: np.ndarray, y: np.ndarray) -> list[tuple]:
    """Start of the sphere search for each problem min_z ||A[b] z - y[b]||
    of a stack: the QR projection and the Babai point, in one numpy pass.

    Entry b is (y', diag R, columns of R, Babai z as floats, its squared
    distance, the radius slack) of A[b] = Q R with diag R > 0 and y' = Q^T
    y[b], as Python lists and floats.  Every product is a stacked matmul,
    which makes the same BLAS dot or gemv call per row as the one-matrix
    product does, so each entry is bit-identical for any stack that holds
    its problem.
    """
    _, d, k = A.shape
    if d < k:
        raise ValueError("target dimension must be at least the lattice rank")
    Q, R = np.linalg.qr(A)
    signs = np.sign(np.diagonal(R, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    R = R * signs[:, :, None]
    Q = Q * signs[:, None, :]
    yp = (Q.transpose(0, 2, 1) @ y[:, :, None])[:, :, 0]
    diag = R.diagonal(axis1=1, axis2=2)
    if (diag <= 0).any():
        raise ValueError("generator matrix is rank deficient")
    # Babai point, one level at a time from the top; np.rint rounds halves
    # to even, as round() does.
    zf = np.zeros(yp.shape)
    for i in range(k - 1, -1, -1):
        above = (R[:, i, None, i + 1:] @ zf[:, i + 1:, None])[:, 0, 0]
        zf[:, i] = np.rint((yp[:, i] - above) / diag[:, i])
    resid = (R @ zf[:, :, None])[:, :, 0] - yp
    best_dist = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
    slack = 1e-12 * (1.0 + (yp[:, None, :] @ yp[:, :, None])[:, 0, 0])
    return list(zip(yp.tolist(), diag.tolist(), R.transpose(0, 2, 1).tolist(),
                    zf.tolist(), best_dist.tolist(), slack.tolist()))


def sphere_cvp(A: np.ndarray, y: np.ndarray, *, node_budget: int = 2_000_000,
               front: tuple | None = None) -> np.ndarray:
    """Closest lattice point min_z ||A z - y|| over integer z, exact.

    Schnorr-Euchner depth-first search seeded at the Babai point, whose
    distance is a valid initial radius, so the search always terminates with
    the true minimizer.  RadiusOverflow marks an exhausted node budget.
    ``front`` is this problem's entry of ``_front_ends`` on a stack that
    holds it (``simulate`` computes one per chunk of trials); by default it
    is computed here on a stack of one.
    """
    if front is None:
        front = _front_ends(np.asarray(A)[None], np.asarray(y)[None])[0]
    ys, diag, cols, zf, best_dist, slack = front
    k = len(ys)
    best_z = [int(v) for v in zf]
    radius = best_dist * (1.0 + 1e-9) + slack

    # Iterative depth-first walk on Python floats.  Level l keeps its target
    # t, the next zig-zag step and the squared distance of the levels above
    # it; acc_at[l][i] = sum_{j > l} R[i, j] z[j] for i <= l, accumulated from
    # the top level down one product at a time, as numpy's elementwise
    # updates round it.  cols[l][i] = R[i, l].
    t_at = [0.0] * k
    step_at = [0] * k
    partial_at = [0.0] * k
    acc_at = [None] * k
    z = [0] * k
    acc = [0.0] * k
    level = k - 1
    nodes = 0
    while True:
        if acc is not None:
            # entering this level from above: start at the rounded center
            acc_at[level] = acc
            t = ys[level] - acc[level]
            center = t / diag[level]
            zi = round(center)
            t_at[level] = t
            step_at[level] = 1 if center - zi >= 0 else -1
        nodes += 1
        if nodes > node_budget:
            raise RadiusOverflow(f"sphere search exceeded {node_budget} nodes")
        seg = t_at[level] - diag[level] * zi
        cand = partial_at[level] + seg * seg
        if cand > radius:
            level += 1
            if level == k:
                return np.array(best_z, dtype=np.int64)
        else:
            z[level] = zi
            if level > 0:
                col = cols[level]
                above = acc_at[level]
                acc = [above[i] + col[i] * zi for i in range(level)]
                level -= 1
                partial_at[level] = cand
                continue
            if cand < best_dist:
                best_dist = cand
                best_z = z.copy()
                radius = cand * (1.0 + 1e-9) + slack
        # next integer of this level, alternating around its center
        step = step_at[level]
        zi = z[level] + step
        step_at[level] = -step - (1 if step > 0 else -1)
        acc = None


def naive_lattice_decode(lat: MatrixLattice, H: np.ndarray, y: np.ndarray,
                         amp: float, *, node_budget: int = 2_000_000) -> np.ndarray:
    """Coefficients of the infinite-lattice point closest to y under the
    channel map X -> amp * H * X."""
    A = _real_generators(H[None], amp * lat.basis)[0]
    return sphere_cvp(A, _vectorize_real(y[None])[0], node_budget=node_budget)


def diversity_slope(result: SimResult, window: int = 3,
                    min_errors: int = 20) -> float:
    """High-SNR slope of -log10(error rate) against log10(rho).

    Fitted over the ``window`` highest-SNR points that carry at least
    ``min_errors`` error events; points below that statistical floor say
    nothing about the slope.  InsufficientStatistics if fewer qualify.
    """
    qualified = [idx for idx in range(len(result.snr_db))
                 if result.error_count[idx] >= min_errors
                 and result.error_rate[idx] > 0]
    if len(qualified) < window:
        raise InsufficientStatistics(
            f"need {window} SNR points with >= {min_errors} errors, "
            f"have {len(qualified)}")
    take = qualified[-window:]
    x = np.array([result.snr_db[idx] / 10.0 for idx in take])   # log10 rho
    yv = np.array([-math.log10(result.error_rate[idx]) for idx in take])
    design = np.column_stack([np.ones(x.size), x])
    coef, _, _, _ = np.linalg.lstsq(design, yv, rcond=None)
    return float(coef[1])
