"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line with the
measured quantities (run pytest with -s to see them live).  Tolerances are
pinned here, not configurable.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from detsums.bounds import (dmt_envelope, dmt_ml_bound, dmt_naive_bound,
                            growth_fit, snr_threshold_exponent)
from detsums.channel import (ChannelConfig, diversity_slope, fixed_code,
                             simulate, sphere_cvp, union_bound)
from detsums.codes import diagonal_nf_code, gaussian_diagonal, golden_code
from detsums.lattice import build_lattice
from detsums.linalg import shifted_det_batch, symmetric_means_batch
from detsums.pipeline import run
from detsums.presets import build_preset
from detsums.sums import SumSpec, convergence_probe, dyadic_bound, sum_curve

from conftest import _r8, box_scan_sum, cvp_box_oracle

_Z95 = 1.959963984540054


def _random_batch(rng, n, count):
    return (rng.standard_normal((count, n, n))
            + 1j * rng.standard_normal((count, n, n)))


def test_c01_determinant_decomposition_identity():
    """det(I + c X X*) equals the binomial sum over symmetric means."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (2, 3, 4):
        Xb = _random_batch(rng, n, 10 ** 4)
        G = np.einsum("bij,bkj->bik", Xb, Xb.conj())
        eye = np.eye(n)
        for c in (0.01, 1.0, 100.0):
            mine = shifted_det_batch(Xb, c)
            oracle = np.linalg.det(eye[None, :, :] + c * G).real
            worst = max(worst, float(np.max(np.abs(mine - oracle) / oracle)))
    elapsed = time.time() - t0
    print(f"\ncriterion 1: max rel error {worst:.3e} (tol 1e-10), {elapsed:.1f}s "
          f"{'PASS' if worst <= 1e-10 and elapsed < 10 else 'FAIL'}")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_c02_symmetric_mean_inequalities():
    """Mean chain, Newton products, and the det >= 1 root chain, 1e4 each."""
    t0 = time.time()
    rng = np.random.default_rng(202)
    slack = 1e-9
    for n in (2, 3, 4):
        p = symmetric_means_batch(_random_batch(rng, n, 10 ** 4))
        roots = np.stack([p[:, i] ** (1.0 / (i + 1)) for i in range(n)], axis=1)
        assert np.all(roots[:, 1:] <= roots[:, :-1] * (1 + slack))
        padded = np.concatenate([np.ones((p.shape[0], 1)), p], axis=1)
        for i in range(1, n):
            assert np.all(padded[:, i] ** 2
                          >= padded[:, i - 1] * padded[:, i + 1] * (1 - slack))
        # rescale so det(X X*) = 1, then p_k >= p_1^(1/2^(k-1))
        keep = p[:, -1] > 1e-12
        ps = p[keep]
        beta_sq = ps[:, -1] ** (-1.0 / n)
        scaled = ps * beta_sq[:, None] ** np.arange(1, n + 1)[None, :]
        assert np.all(np.abs(scaled[:, -1] - 1.0) < 1e-8)
        for k in range(1, n):
            assert np.all(scaled[:, k - 1]
                          >= scaled[:, 0] ** (1.0 / 2 ** (k - 1)) * (1 - slack))
    elapsed = time.time() - t0
    print(f"criterion 2: inequalities hold on 3x1e4 matrices, {elapsed:.1f}s "
          f"{'PASS' if elapsed < 10 else 'FAIL'}")
    assert elapsed < 10.0


def _oracle_term(family, m, c=0.0, i=None):
    def term(X, norm_sq):
        n = X.shape[0]
        if family == "approximate":
            det = abs(np.linalg.det(X))
            if det * det <= 1e-12 * (norm_sq / n) ** n:
                return None
            return det ** (-m)
        if family == "shifted":
            return float(np.linalg.det(np.eye(n) + c * (X @ X.conj().T)).real) ** (-m)
        det_g = float(np.linalg.det(X @ X.conj().T).real)
        out = norm_sq ** (-float(i)) if i > 0 else 1.0
        if i < m:
            if det_g <= 1e-12 * (norm_sq / n) ** n:
                return None
            out *= det_g ** (-(m - i))
        return out
    return term


def test_c03_box_scan_oracle_equivalence():
    """All sum families match exhaustive box scans on three small lattices."""
    t0 = time.time()
    from detsums.sums import evaluate_sum
    lattices = {
        "gaussian-diagonal-1": gaussian_diagonal(1),
        "gaussian-diagonal-2": gaussian_diagonal(2),
        "diagonal-nf-2": diagonal_nf_code(2),
    }
    cases = [("approximate", 1, 0.0, None), ("approximate", 2, 0.0, None),
             ("shifted", 2, 0.5, None), ("shifted", 1, 2.0, None),
             ("mixed", 2, 0.0, 0), ("mixed", 2, 0.0, 1), ("mixed", 2, 0.0, 2)]
    checked = 0
    for name, lat in lattices.items():
        singular = name == "gaussian-diagonal-2"
        for family, m, c, i in cases:
            skip = singular and family != "shifted" and not (family == "mixed" and i == m)
            for M in (2.0, 4.0):
                spec = SumSpec(family=family, m=m, c=c, i=i, skip_singular=skip)
                mine, _ = evaluate_sum(lat, spec, M)
                oracle = box_scan_sum(lat, M, _oracle_term(family, m, c, i),
                                      skip_singular=skip)
                assert mine == pytest.approx(oracle, rel=1e-9), (name, family, m, M)
                checked += 1
    elapsed = time.time() - t0
    print(f"criterion 3: {checked} sums match box-scan oracles (rel 1e-9), "
          f"{elapsed:.1f}s {'PASS' if elapsed < 60 else 'FAIL'}")
    assert elapsed < 60.0


def test_c04_rank8_dmt_lines_and_envelope():
    """Exact DMT lines 8-5r and 6-3r; envelope equals the optimal trade-off."""
    t0 = time.time()
    line_a = dmt_ml_bound(8, 4, 8, 2)
    line_b = dmt_ml_bound(6, 0, 8, 2)
    assert line_a.segments == ((Fraction(8), Fraction(-5)),)
    assert line_b.segments == ((Fraction(6), Fraction(-3)),)
    env = dmt_envelope([line_a, line_b])

    def optimal(r):
        if r <= 1.0:
            return 8.0 - 5.0 * r
        return 6.0 - 3.0 * r

    worst = 0.0
    for j in range(201):
        r = 0.01 * j
        worst = max(worst, abs(env.evaluate(r) - max(0.0, optimal(r))))
    assert worst <= 1e-12
    assert [env.evaluate(r) for r in (0.0, 1.0, 2.0)] == [8.0, 3.0, 0.0]
    elapsed = time.time() - t0
    print(f"criterion 4: exact lines, envelope grid error {worst:.1e}, "
          f"values (8,3,0), {elapsed:.2f}s PASS")
    assert elapsed < 1.0


def test_c05_naive_decoding_dmt_lines():
    """Naive-decoding lines: 2(2-r) and (n_t n_r - 1)(1 - r), exact."""
    t0 = time.time()
    golden_line = dmt_naive_bound(4, 8, 2)
    assert golden_line.segments == ((Fraction(4), Fraction(-2)),)
    for n_t, n_r in ((2, 2), (2, 4)):
        a = n_t * n_r - 1
        line = dmt_naive_bound(a, 2 * n_t, n_t)
        assert line.segments == ((Fraction(a), Fraction(-a)),)
    elapsed = time.time() - t0
    print(f"criterion 5: naive lines exact, {elapsed:.2f}s PASS")
    assert elapsed < 1.0


def test_c06_snr_threshold_exponents():
    """Threshold exponents (t+d)/d: (8,4) -> 3/2 and (4,0) -> 1, exact."""
    t0 = time.time()
    assert snr_threshold_exponent(8, 4) == Fraction(3, 2)
    assert snr_threshold_exponent(4, 0) == Fraction(1)
    elapsed = time.time() - t0
    print(f"criterion 6: exponents 3/2 and 1 exact, {elapsed:.2f}s PASS")
    assert elapsed < 1.0


def test_c07_rank8_growth_exponent():
    """Inverse-determinant growth of the rank-8 code on a dyadic grid."""
    t0 = time.time()
    lat = golden_code()
    s2 = math.sqrt(2.0)
    radii = [1.0, s2, 2.0, 2 * s2, 4.0, 4 * s2, 8.0]
    curve = sum_curve(lat, SumSpec(family="approximate", m=4), radii, n_jobs=2)
    # The golden real Gram is the identity, so |L(M)| = sum_{n <= M^2} r_8(n).
    squares = [1, 2, 4, 8, 16, 32, 64]
    assert curve.point_counts == [sum(_r8(n) for n in range(1, q + 1)) for q in squares]
    fit = growth_fit(curve)
    anchored = [v / M ** 4.5 for M, v in zip(curve.radii, curve.values)]
    last3 = anchored[-3:]
    ok = 3.0 <= fit.s <= 5.0 and last3[0] >= last3[1] >= last3[2]
    elapsed = time.time() - t0
    print(f"criterion 7: fitted s = {fit.s:.3f} (window [3, 5]), anchored tail "
          f"{[round(v, 2) for v in last3]} nonincreasing, {elapsed:.0f}s "
          f"{'PASS' if ok and elapsed < 900 else 'FAIL'}")
    assert 3.0 <= fit.s <= 5.0
    assert last3[0] >= last3[1] >= last3[2]
    assert elapsed < 900.0


def test_c08_convergence_probe():
    """Shifted sums saturate for m > k/2 and keep growing at m = k/2."""
    t0 = time.time()
    lat = gaussian_diagonal(1)
    radii = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    curve2, saturated2 = convergence_probe(lat, 2.0, 1.0, radii)
    curve1, saturated1 = convergence_probe(lat, 1.0, 1.0, radii)
    inc1 = curve1.values[-1] - curve1.values[-2]
    ok = saturated2 and not saturated1 and inc1 > 0.05 * curve1.values[-1]
    elapsed = time.time() - t0
    print(f"criterion 8: m=2 saturated={saturated2}, m=1 last increment "
          f"{100 * inc1 / curve1.values[-1]:.1f}% of total, {elapsed:.1f}s "
          f"{'PASS' if ok and elapsed < 60 else 'FAIL'}")
    assert saturated2
    assert not saturated1
    assert inc1 > 0.05 * curve1.values[-1]
    assert elapsed < 60.0


def test_c09_dyadic_lemma_harness():
    """Three weighting regimes on f = 1 over {1..1000} with K = 1, s = 1."""
    t0 = time.time()
    xs = np.arange(1, 1001, dtype=float)
    fs = np.ones(1000)
    results = {t: dyadic_bound(xs, fs, K=1.0, s=1.0, t=t) for t in (2.0, 1.0, 0.0)}
    assert results[2.0].regime == "convergent"
    assert results[2.0].weighted_sum == pytest.approx(1.6439345666815615, rel=1e-12)
    assert results[1.0].regime == "logarithmic"
    assert results[1.0].proof_bound == pytest.approx(20.0, rel=1e-12)
    assert results[0.0].regime == "polynomial"
    for res in results.values():
        assert res.weighted_sum <= res.proof_bound
    elapsed = time.time() - t0
    print("criterion 9: "
          + "; ".join(f"t={t:g}: {r.weighted_sum:.4f} <= {r.proof_bound:.4f}"
                      for t, r in sorted(results.items()))
          + f", {elapsed:.2f}s PASS")
    assert elapsed < 1.0


def test_c10_simulation_consistency():
    """16-codeword rank-8 code, two receive antennas, 9 SNR points."""
    t0 = time.time()
    lat = golden_code()
    grid = tuple(5.0 + 2.5 * j for j in range(9))
    cfg = ChannelConfig(n_t=2, n_r=2, T=2, snr_grid_db=grid,
                        trials_per_point=10 ** 4, seed=20260808,
                        fixed_radius=1.0)
    res = simulate(lat, cfg)
    code = fixed_code(lat, 1.0)
    bounds = [union_bound(code, 2, 10.0 ** (db / 10.0)) for db in grid]

    below_bound = True
    for idx, ub in enumerate(bounds):
        if ub <= 1.0:
            below_bound &= res.error_rate[idx] <= ub + 3.0 * res.wilson_halfwidth[idx]

    monotone = True
    for idx in range(len(grid) - 1):
        sigma = math.sqrt(res.wilson_halfwidth[idx] ** 2
                          + res.wilson_halfwidth[idx + 1] ** 2) / _Z95
        monotone &= (res.error_rate[idx + 1]
                     <= res.error_rate[idx] + 3.0 * sigma)

    slope = diversity_slope(res, window=3)
    elapsed = time.time() - t0
    ok = below_bound and monotone and slope >= 3.0
    print(f"criterion 10: bound check {'ok' if below_bound else 'VIOLATED'}, "
          f"monotone {'ok' if monotone else 'VIOLATED'}, "
          f"top-3 slope {slope:.2f} (need >= 3), {elapsed:.0f}s "
          f"{'PASS' if ok and elapsed < 600 else 'FAIL'}")
    assert below_bound
    assert monotone
    assert elapsed < 600.0
    assert slope >= 3.0


def _interleave_real(M):
    flat = M.reshape(-1)
    out = np.empty(2 * flat.size)
    out[0::2] = flat.real
    out[1::2] = flat.imag
    return out


def test_c11_naive_decoder_matches_cvp_oracle():
    """Sphere decoder equals exhaustive closest-vector search, 1e3 instances.

    Half the instances are raw real generator matrices; the other half go
    through the channel path (random rank <= 4 matrix lattice, random fading
    matrix) with the oracle generator rebuilt independently per column.
    """
    from detsums.channel import naive_lattice_decode
    from detsums.errors import DependentBasis
    t0 = time.time()
    rng = np.random.default_rng(1111)
    checked = 0
    while checked < 500:
        k = int(rng.integers(1, 5))
        d = 2 * int(rng.integers(max(1, (k + 1) // 2), k + 2))
        A = rng.standard_normal((d, k))
        if np.linalg.matrix_rank(A) < k:
            continue
        # keep the oracle box small enough to stay exhaustive at speed
        if np.linalg.cond(A.T @ A) > 1e4:
            continue
        z = rng.integers(-4, 5, k)
        y = A @ z + 0.4 * rng.standard_normal(d)
        assert np.array_equal(sphere_cvp(A, y), cvp_box_oracle(A, y))
        checked += 1
    while checked < 1000:
        k = int(rng.integers(1, 5))
        basis = [rng.integers(-2, 3, (2, 2)) + 1j * rng.integers(-2, 3, (2, 2))
                 for _ in range(k)]
        try:
            lat = build_lattice([B.astype(complex) for B in basis])
        except DependentBasis:
            continue
        H = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        amp = float(rng.uniform(0.5, 1.5))
        A = np.column_stack([_interleave_real(amp * (H @ B)) for B in lat.basis])
        if np.linalg.cond(A.T @ A) > 1e4:
            continue
        z = rng.integers(-3, 4, k)
        y = amp * (H @ lat.realize(z))
        y = y + 0.2 * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
        z_hat = naive_lattice_decode(lat, H, y, amp)
        z_star = cvp_box_oracle(A, _interleave_real(y))
        assert np.array_equal(z_hat, z_star)
        checked += 1
    elapsed = time.time() - t0
    print(f"criterion 11: {checked} instances match exactly, {elapsed:.0f}s "
          f"{'PASS' if elapsed < 60 else 'FAIL'}")
    assert checked == 1000
    assert elapsed < 60.0


def test_c12_preset_determinism(tmp_path):
    """Rerunning every preset with the same seed gives byte-identical reports."""
    t0 = time.time()
    for name in ("gaussian-diagonal-2", "diagonal-nf-2", "golden"):
        cfg = build_preset(name, seed=7)
        run(cfg, tmp_path / name / "a")
        run(cfg, tmp_path / name / "b")
        a = {p.name: p.read_bytes() for p in sorted((tmp_path / name / "a").iterdir())}
        b = {p.name: p.read_bytes() for p in sorted((tmp_path / name / "b").iterdir())}
        assert a == b, f"preset {name} report differs between reruns"
    elapsed = time.time() - t0
    print(f"criterion 12: three presets byte-identical across reruns, "
          f"{elapsed:.0f}s PASS")
