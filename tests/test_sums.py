import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detsums.codes import gaussian_diagonal, golden_code
from detsums.errors import BudgetExceeded, HypothesisViolated, SingularPoint
from detsums.lattice import (_bound_sq, _half_histograms, build_lattice,
                             coefficient_blocks, rescale_lattice, shell_counts)
from detsums.pipeline import run
from detsums.presets import build_preset
from detsums.sums import (SumSpec, convergence_probe, dyadic_bound,
                          evaluate_sum, inverse_det_sum, norm_det_sum,
                          shifted_det_sum, shifted_vs_mixed_bound, sum_curve,
                          sum_curves)

from conftest import (ZI_INVERSE_FOURTH, box_scan_coeffs, box_scan_sum,
                      golden_shaped_lattices, lu_shifted_det,
                      random_paired_lattice, random_small_lattice)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# small exact examples
# ---------------------------------------------------------------------------

def test_inverse_det_unit_ball(zi_lattice):
    assert inverse_det_sum(zi_lattice, 2, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_inverse_det_sqrt2_ball(zi_lattice):
    # four unit points (term 1) plus four points with |det|^2 = 2 (term 1/2)
    assert inverse_det_sum(zi_lattice, 2, SQRT2) == pytest.approx(6.0, rel=1e-12)


def test_shifted_zero_shift_counts_points(zi_lattice):
    assert shifted_det_sum(zi_lattice, 3, 0.0, 2.0) == pytest.approx(12.0, rel=1e-12)


def test_shifted_unit_ball(zi_lattice):
    assert shifted_det_sum(zi_lattice, 2, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_mixed_i_equals_m(zi_lattice):
    assert norm_det_sum(zi_lattice, 2, 2, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_mixed_i_zero_is_squared_det_sum(zi_lattice):
    # At i = 0 the mixed denominator is det(X X*)^m = |det X|^(2m), so the
    # value coincides with the inverse-determinant sum at exponent 2m.
    got = norm_det_sum(zi_lattice, 2, 0, SQRT2)
    assert got == pytest.approx(5.0, rel=1e-12)
    assert got == pytest.approx(inverse_det_sum(zi_lattice, 4, SQRT2), rel=1e-12)


# ---------------------------------------------------------------------------
# oracle equivalence
# ---------------------------------------------------------------------------

def _oracle_terms(family, m, c=0.0, i=None):
    if family == "approximate":
        def term(X, norm_sq):
            det = abs(np.linalg.det(X))
            if det * det <= 1e-12 * (norm_sq / X.shape[0]) ** X.shape[0]:
                return None
            return det ** (-m)
        return term
    if family == "shifted":
        def term(X, norm_sq):
            n = X.shape[0]
            return float(np.linalg.det(np.eye(n) + c * (X @ X.conj().T)).real) ** (-m)
        return term

    def term(X, norm_sq):
        n = X.shape[0]
        det_g = float(np.linalg.det(X @ X.conj().T).real)
        out = norm_sq ** (-float(i)) if i > 0 else 1.0
        if i < m:
            if det_g <= 1e-12 * (norm_sq / n) ** n:
                return None
            out *= det_g ** (-(m - i))
        return out
    return term


@pytest.mark.parametrize("family,m,c,i", [
    ("approximate", 2, 0.0, None),
    ("shifted", 2, 0.5, None),
    ("shifted", 1, 2.0, None),
    ("mixed", 2, 0.0, 0),
    ("mixed", 2, 0.0, 1),
    ("mixed", 2, 0.0, 2),
])
def test_families_match_box_scan_on_golden(golden_lattice, family, m, c, i):
    spec = SumSpec(family=family, m=m, c=c, i=i)
    mine, _ = evaluate_sum(golden_lattice, spec, 2.0)
    oracle = box_scan_sum(golden_lattice, 2.0, _oracle_terms(family, m, c, i))
    assert mine == pytest.approx(oracle, rel=1e-9)


def test_golden_shifted_large_c_matches_box_scan(golden_lattice):
    mine = shifted_det_sum(golden_lattice, 4, 10.0, 2.0)
    oracle = box_scan_sum(golden_lattice, 2.0, _oracle_terms("shifted", 4, c=10.0))
    assert mine == pytest.approx(oracle, rel=1e-9)


def test_shifted_limit_approaches_inverse_det(golden_lattice):
    # c^(n m) * shifted sum converges to the inverse-determinant sum with
    # exponent 2m, monotonically from below.
    n, m, M = 2, 4, 2.0
    target = inverse_det_sum(golden_lattice, 2 * m, M)
    ratios = []
    for c in (1e2, 1e4, 1e6):
        val = shifted_det_sum(golden_lattice, m, c, M) * c ** (n * m)
        ratios.append(val / target)
    assert ratios[0] < ratios[1] < ratios[2] <= 1.0 + 1e-9
    assert abs(ratios[1] - 1.0) < 0.05
    assert abs(ratios[2] - 1.0) < 0.05


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_monotone_in_radius(zi_lattice):
    vals = [shifted_det_sum(zi_lattice, 2, 1.0, M) for M in (1.0, 2.0, 3.0, 4.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_strictly_decreasing_in_shift(zi_lattice):
    vals = [shifted_det_sum(zi_lattice, 2, c, 2.0) for c in (0.0, 0.5, 1.0, 2.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.5, 2.0), c=st.floats(0.1, 5.0))
def test_scaling_identity(beta, c):
    lat = gaussian_diagonal(1)
    scaled = rescale_lattice(lat, beta)
    lhs = shifted_det_sum(scaled, 2, c, beta * 2.0)
    rhs = shifted_det_sum(lat, 2, c * beta * beta, 2.0)
    assert lhs == pytest.approx(rhs, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), paired=st.booleans(),
       a=st.sampled_from([0.25, 0.5, 2.0, 4.0]), reach=st.floats(1.0, 2.5),
       c=st.floats(0.1, 5.0), m=st.sampled_from([1, 2, 3]))
def test_scale_covariance(seed, paired, a, reach, c, m):
    # L(M) of the lattice scaled by a is a * L(M / a), and
    # det(I + c (aX)(aX)*) = det(I + c a^2 X X*), |det aX| = a^n |det X|.
    # A power-of-two a scales norms and radii exactly, so the shells agree.
    rng = np.random.default_rng(seed)
    lat = random_paired_lattice(rng, 2) if paired else random_small_lattice(rng, 3)
    radius = reach * math.sqrt(lat.min_norm_sq)
    scaled = rescale_lattice(lat, a)
    shifted = sum_curve(scaled, SumSpec(family="shifted", m=m, c=c), [a * radius])
    base = sum_curve(lat, SumSpec(family="shifted", m=m, c=c * a * a), [radius])
    assert shifted.point_counts == base.point_counts
    assert shifted.values[0] == pytest.approx(base.values[0], rel=1e-12)
    approx = SumSpec(family="approximate", m=m, skip_singular=True)
    scaled_approx = sum_curve(scaled, approx, [a * radius])
    base_approx = sum_curve(lat, approx, [radius])
    assert scaled_approx.point_counts == base_approx.point_counts
    assert scaled_approx.values[0] == pytest.approx(
        a ** (-lat.n * m) * base_approx.values[0], rel=1e-12)


def test_dedup_signs_matches_default(golden_lattice):
    # Sums run on one point of each orbit; LU determinants over the
    # box-scanned whole ball must give the same total.
    half = shifted_det_sum(golden_lattice, 4, 1.0, 2.0)
    full = box_scan_sum(golden_lattice, 2.0,
                        lambda X, _: lu_shifted_det(X, 1.0) ** -4.0)
    assert half == pytest.approx(full, rel=1e-12)


def test_n_jobs_below_one_rejected(golden_lattice):
    spec = SumSpec(family="shifted", m=4, c=1.0)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="n_jobs"):
            sum_curve(golden_lattice, spec, [1.0], n_jobs=jobs)
    with pytest.raises(ValueError, match="n_jobs"):
        run(build_preset("gaussian-diagonal-2"), n_jobs=0)


def test_n_jobs_leaves_the_curve_bit_identical(golden_lattice):
    # c07's curve: the walk runs once whatever n_jobs says, so values, point
    # counts and singular counts all match n_jobs=1 bit for bit.
    spec = SumSpec(family="approximate", m=4)
    radii = [1.0, SQRT2, 2.0, 2 * SQRT2, 4.0, 4 * SQRT2, 8.0]
    base = sum_curve(golden_lattice, spec, radii)
    curve = sum_curve(golden_lattice, spec, radii, n_jobs=2)
    assert curve.values == base.values
    assert curve.point_counts == base.point_counts
    assert curve.singular_counts == base.singular_counts


def test_realization_buffers_survive_changes_of_shape(golden_lattice, nf_lattice,
                                                      zi_lattice, monkeypatch):
    # Each walk realizes its blocks into a buffer of its own.  The lattices
    # that realize their blocks differ in k (4, 2) and 2nT (8, 2), and the
    # call on gaussian_diagonal(2) raises SingularPoint on a realized block,
    # which leaves its walk unfinished; the golden calls, which realize no
    # block, run in between.  Values match fresh arrays for every block bit
    # for bit.
    from detsums import lattice
    realize = lattice.realize_block
    shapes = set()                      # (k, 2nT) of each realized block

    def recording(lat, coeffs, *, out=None):
        shapes.add((coeffs.shape[1], out.shape[1]))
        return realize(lat, coeffs, out=out)

    monkeypatch.setattr(lattice, "realize_block", recording)
    shifted = SumSpec(family="shifted", m=4, c=1.0)
    approximate = SumSpec(family="approximate", m=2)
    mixed = SumSpec(family="mixed", m=4, i=2)
    calls = {
        "golden": lambda: sum_curves(golden_lattice, [(shifted, [1.0, 2.0, 4.0]),
                                                      (approximate, [2.0, 3.0]),
                                                      (mixed, [1.5, 4.0])]),
        "nf": lambda: sum_curves(nf_lattice, [(shifted, [4.0, 8.0, 16.0]),
                                              (approximate, [2.0, 8.0])]),
        "nf8": lambda: sum_curves(nf_lattice, [(mixed, [4.0, 8.0])]),
        "zi": lambda: sum_curves(zi_lattice, [(shifted, [4.0, 16.0, 64.0]),
                                              (mixed, [8.0, 32.0])]),
    }
    singular = gaussian_diagonal(2)
    first = {name: calls[name]() for name in ("zi", "nf", "nf8", "golden")}
    for name in ("golden", "zi", "nf", "nf8", "golden", "nf", "zi", "nf8"):
        with pytest.raises(SingularPoint):
            sum_curves(singular, [(shifted, [8.0]), (approximate, [4.0, 8.0])])
        assert calls[name]() == first[name]
    assert shapes == {(4, 8), (2, 2)}
    monkeypatch.setattr(lattice, "realize_block",
                        lambda lat, coeffs, *, out=None: realize(lat, coeffs))
    assert {name: call() for name, call in calls.items()} == first


@pytest.mark.parametrize("callers", [2, 4])
def test_concurrent_callers_keep_their_values(golden_lattice, nf_lattice, callers):
    # Callers on separate threads walk with buffers of their own; more
    # callers than cores and a short switch interval shake the timing.  The
    # golden sums read the cell table, the nf_lattice ones realize every block.
    spec = SumSpec(family="mixed", m=4, i=2)
    shifted = SumSpec(family="shifted", m=4, c=1.0)
    inputs = [(golden_lattice, [2.0, 3.0, 4.0], [1.0, 2.0]),
              (nf_lattice, [8.0, 16.0, 24.0], [8.0, 16.0])]

    def sums():
        return [(sum_curve(lat, spec, radii), sum_curves(lat, [(spec, radii), (shifted, short)]))
                for lat, radii, short in inputs]

    expected = sums()
    start = threading.Barrier(callers)

    def caller():
        start.wait(timeout=60)
        return [sums() for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=callers) as pool:
            futures = [pool.submit(caller) for _ in range(callers)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(result == expected for calls in results for result in calls)


def test_budget_shared_across_partitions():
    # A thin ball: the long first basis vector never fits, so L(2000) is the
    # 4000 nonzero multiples of the second one, plus the origin.  The volume
    # heuristic predicts about 1,212, so only the walk can enforce a budget
    # between the two.
    lat = build_lattice([np.array([[1e5 + 0j]]), np.array([[1j]])])
    spec = SumSpec(family="shifted", m=2, c=1.0)
    for budget in (1500, 2500, 4000):
        with pytest.raises(BudgetExceeded):
            evaluate_sum(lat, spec, 2000.0, budget=budget)
        with pytest.raises(BudgetExceeded):
            sum_curve(lat, spec, [1000.0, 2000.0], budget=budget)
    assert evaluate_sum(lat, spec, 2000.0, budget=4001)[1] == 4000
    curve = sum_curve(lat, spec, [1000.0, 2000.0], budget=4001)
    assert curve.point_counts == [2000, 4000]


def test_budget_exact_on_paired_lattice():
    # A thin paired ball: the long first pair never fits, so L(30) is the
    # Gaussian integers of modulus <= 30 in the second slot, far more than the
    # volume heuristic's 1,024.  The quarter walk charges four points per row
    # and must still trip exactly when |L(M)| + 1 exceeds the budget.
    B0, B1 = np.array([[1e5 + 0j, 0.0]]), np.array([[0.0, 1.0 + 0j]])
    lat = build_lattice([B0, 1j * B0, B1, 1j * B1])
    assert lat.orbit_size == 4
    size = shell_counts(lat, [30.0])[0]
    assert size == len(box_scan_coeffs(lat, 30.0)) == 2820
    spec = SumSpec(family="shifted", m=2, c=1.0)
    for budget in (1500, size - 3, size):
        with pytest.raises(BudgetExceeded):
            evaluate_sum(lat, spec, 30.0, budget=budget)
        with pytest.raises(BudgetExceeded):
            sum_curve(lat, spec, [15.0, 30.0], budget=budget)
    assert evaluate_sum(lat, spec, 30.0, budget=size + 1)[1] == size
    curve = sum_curve(lat, spec, [15.0, 30.0], budget=size + 1)
    assert curve.point_counts == [shell_counts(lat, [15.0])[0], size]


_FAMILY_SPECS = [SumSpec(family="shifted", m=2, c=0.7),
                 SumSpec(family="approximate", m=3),
                 SumSpec(family="mixed", m=3, i=1)]


@pytest.mark.parametrize("spec", _FAMILY_SPECS, ids=lambda s: s.family)
def test_sums_invariant_under_multiplication_by_i(golden_lattice, spec):
    # On a paired basis, i * basis spans the same lattice by another basis,
    # (i B_j, -B_j); every family's term takes the same value at iX as at X.
    rotated = build_lattice(list(1j * golden_lattice.basis))
    assert rotated.orbit_size == 4
    radii = [1.0, SQRT2, 2.0]
    base = sum_curve(golden_lattice, spec, radii)
    turned = sum_curve(rotated, spec, radii)
    assert turned.point_counts == base.point_counts
    for a, b in zip(turned.values, base.values):
        assert a == pytest.approx(b, rel=1e-12)
    term = _oracle_terms(spec.family, spec.m, spec.c, spec.i)
    terms_at_ix = []
    for z in box_scan_coeffs(golden_lattice, 2.0):
        X = golden_lattice.realize(z)
        terms_at_ix.append(term(1j * X, float(np.sum(np.abs(X) ** 2))))
    assert base.values[-1] == pytest.approx(math.fsum(terms_at_ix), rel=1e-9)


def test_budget_exact_on_golden(golden_lattice, monkeypatch):
    # The cell table charges the points of each window of key pairs; with
    # the volume prediction out of the way the budget trips exactly when
    # |L(M)| + 1 (the origin counts) exceeds it.
    from detsums import lattice
    monkeypatch.setattr(lattice, "predicted_point_count", lambda lat, radius: 0.0)
    assert golden_lattice.orbit_size == 4
    size = 1712
    spec = SumSpec(family="shifted", m=4, c=1.0)
    for budget in (size - 7, size):
        with pytest.raises(BudgetExceeded):
            evaluate_sum(golden_lattice, spec, 2.0, budget=budget)
    assert evaluate_sum(golden_lattice, spec, 2.0, budget=size + 1)[1] == size


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pairs=st.integers(1, 3),
       scale=st.floats(1.0, 3.0))
def test_partition_invariance_on_paired_lattices(seed, pairs, scale):
    lat = random_paired_lattice(np.random.default_rng(seed), pairs)
    radius = scale * math.sqrt(lat.min_norm_sq)
    spec = SumSpec(family="shifted", m=2, c=0.5)
    radii = [radius / 2.0, radius]
    base = sum_curve(lat, spec, radii)
    assert base.point_counts == shell_counts(lat, radii)


@pytest.mark.parametrize("radius,tol", [(16.0, 0.02), (64.0, 3e-3), (256.0, 5e-4)])
def test_gaussian_integer_limit(zi_lattice, radius, tol):
    # The tail beyond R is about pi / R^2 (see ZI_INVERSE_FOURTH).
    deficit = ZI_INVERSE_FOURTH - inverse_det_sum(zi_lattice, 4, radius)
    assert deficit > 0
    assert radius * radius * deficit / math.pi == pytest.approx(1.0, abs=tol)


def test_shell_points_land_in_the_same_bin():
    # The Gaussian integers put 4 points exactly on each of the shells 1,
    # sqrt 2 and 2.  A radius within the relative tolerance below a shell
    # still holds it; one clearly below does not.
    lat = gaussian_diagonal(1)
    spec = SumSpec(family="shifted", m=1, c=1.0)
    shell_terms = {1.0: 4 / 2, SQRT2: 4 / 3, 2.0: 4 / 5}
    for radii, counts in (([1.0, SQRT2, 2.0], [4, 8, 12]),
                          ([1.0, SQRT2 * (1 - 1e-10), 2.0 * (1 - 1e-10)], [4, 8, 12]),
                          ([1.0, SQRT2 * (1 - 1e-6), 2.0 * (1 - 1e-6)], [4, 4, 8])):
        assert shell_counts(lat, radii) == counts
        curve = sum_curve(lat, spec, radii)
        assert curve.point_counts == counts
        for M, value, count in zip(radii, curve.values, counts):
            single, npts = evaluate_sum(lat, spec, M)
            assert npts == count
            assert single == pytest.approx(value, rel=1e-12)
            expected = math.fsum(t for shell, t in shell_terms.items()
                                 if shell * shell <= M * M * (1 + 1e-9))
            assert value == pytest.approx(expected, rel=1e-12)


def test_order_robustness(golden_lattice):
    # Summing the same terms sorted by magnitude agrees with stream order.
    from detsums.lattice import coefficient_blocks, orbit_images, realize_block
    from detsums.linalg import shifted_det_batch
    terms = []
    for coeffs, _ in coefficient_blocks(golden_lattice, 2.0):
        coeffs = orbit_images(golden_lattice, coeffs)
        terms.extend(shifted_det_batch(realize_block(golden_lattice, coeffs), 1.0) ** -4.0)
    sorted_sum = math.fsum(sorted(terms))
    stream = shifted_det_sum(golden_lattice, 4, 1.0, 2.0)
    assert stream == pytest.approx(sorted_sum, rel=1e-9)


def test_singular_point_raises():
    lat = gaussian_diagonal(2)
    with pytest.raises(SingularPoint):
        inverse_det_sum(lat, 2, 1.0)
    with pytest.raises(SingularPoint):
        norm_det_sum(lat, 2, 1, 1.0)


def test_singular_skip_matches_oracle():
    lat = gaussian_diagonal(2)
    mine = inverse_det_sum(lat, 2, 2.0, skip_singular=True)
    oracle = box_scan_sum(lat, 2.0, _oracle_terms("approximate", 2), skip_singular=True)
    assert mine == pytest.approx(oracle, rel=1e-9)


def test_mixed_i_equals_m_allows_singular_points():
    lat = gaussian_diagonal(2)
    got = norm_det_sum(lat, 2, 2, 1.0)
    # eight nonzero points of norm 1: each contributes 1.
    assert got == pytest.approx(8.0, rel=1e-12)


# ---------------------------------------------------------------------------
# shifted vs mixed domination
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("i", [0, 1, 2])
def test_shifted_dominated_by_mixed_zi(zi_lattice, i):
    check = shifted_vs_mixed_bound(zi_lattice, 2, 1.0, 2.0, i)
    assert check.holds
    assert check.lhs <= check.rhs * (1 + 1e-9)


@pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
def test_shifted_dominated_by_mixed_golden(golden_lattice, i):
    check = shifted_vs_mixed_bound(golden_lattice, 4, 100.0, 2.0, i)
    assert check.holds


def test_mixed_bound_walks_its_ball_once(golden_lattice, monkeypatch):
    # Both sums come from one walk of the same ball, so they equal the
    # separate one-family calls bit for bit.
    from detsums import sums
    lhs = shifted_det_sum(golden_lattice, 4, 100.0, 2.0)
    mixed = norm_det_sum(golden_lattice, 4, 1, 2.0)
    walks = []
    real_blocks = sums.esp_blocks

    def counting(lat, radius, **kw):
        walks.append(radius)
        return real_blocks(lat, radius, **kw)
    monkeypatch.setattr(sums, "esp_blocks", counting)
    check = shifted_vs_mixed_bound(golden_lattice, 4, 100.0, 2.0, 1)
    assert walks == [2.0]
    assert check.c_exponent == 1 + 2 * 3
    assert check.lhs == lhs
    assert check.rhs == 100.0 ** -7 * mixed


def test_mixed_bound_zero_shift_boundary():
    # At c = 0 every shifted term is 1, so lhs counts points; the shift
    # exponent i + n(m - i) equals m > 0 at i = m, so the scaled rhs is
    # infinite and the bound holds vacuously.  The underlying norm-sum
    # comparison |L(1)| <= sum ||X||^-2m still holds with equality on a
    # unit-norm shell.
    lat = gaussian_diagonal(1)
    check = shifted_vs_mixed_bound(lat, 2, 0.0, 1.0, 2)
    assert check.c_exponent == 2
    assert check.lhs == pytest.approx(4.0)
    assert math.isinf(check.rhs)
    assert check.holds
    assert check.lhs <= norm_det_sum(lat, 2, 2, 1.0) * (1 + 1e-12)


# ---------------------------------------------------------------------------
# dyadic summing
# ---------------------------------------------------------------------------

def test_dyadic_convergent_regime():
    xs = np.arange(1, 1001, dtype=float)
    fs = np.ones(1000)
    res = dyadic_bound(xs, fs, K=1.0, s=1.0, t=2.0)
    exact = math.fsum(1.0 / x ** 2 for x in xs)
    assert res.weighted_sum == pytest.approx(exact, rel=1e-12)
    assert res.weighted_sum == pytest.approx(1.6439345666815615, rel=1e-12)
    assert res.regime == "convergent"
    # proof constant: 2^t K sum_{j=1..10} 2^(s-t)j = 4 (1 - 2^-10)
    assert res.proof_bound == pytest.approx(4.0 * (1 - 2.0 ** -10), rel=1e-12)
    assert res.weighted_sum <= res.proof_bound


def test_dyadic_logarithmic_regime():
    xs = np.arange(1, 1001, dtype=float)
    fs = np.ones(1000)
    res = dyadic_bound(xs, fs, K=1.0, s=1.0, t=1.0)
    harmonic = math.fsum(1.0 / x for x in xs)
    assert res.weighted_sum == pytest.approx(harmonic, rel=1e-12)
    assert harmonic == pytest.approx(math.log(1000) + 0.5772, abs=0.01)
    assert res.regime == "logarithmic"
    assert res.proof_bound == pytest.approx(2.0 * 10, rel=1e-12)
    assert res.weighted_sum <= res.proof_bound


def test_dyadic_polynomial_regime():
    xs = np.arange(1, 1001, dtype=float)
    fs = np.ones(1000)
    res = dyadic_bound(xs, fs, K=1.0, s=1.0, t=0.0)
    assert res.weighted_sum == pytest.approx(1000.0)
    assert res.regime == "polynomial"
    assert res.weighted_sum <= res.proof_bound


def test_dyadic_hypothesis_violation():
    xs = np.arange(1, 101, dtype=float)
    fs = xs ** 2          # prefix sums grow like M^3, violating K M^1
    with pytest.raises(HypothesisViolated):
        dyadic_bound(xs, fs, K=1.0, s=1.0, t=2.0)


def test_dyadic_bound_on_lattice_shells(zi_lattice):
    # Reduction to lattices: apply the dyadic machinery to the shell counts
    # f(x) = #{X : ||X||_F = x} of the box-scanned ball.  Counts obey
    # |L(M)| <= 8 M^2, so the norm-weighted sum over the lattice is bounded by
    # the proof constant; it is the sum of |z|^-4 over the Gaussian integers
    # in the disc, the limit less a tail of about pi / M^2.
    from collections import Counter
    M = 16.0
    norms = [float(np.sum(np.abs(zi_lattice.realize(z)) ** 2))
             for z in box_scan_coeffs(zi_lattice, M)]
    shells = Counter(round(math.sqrt(v), 12) for v in norms)
    xs = np.array(sorted(shells))
    fs = np.array([float(shells[x]) for x in xs])
    res = dyadic_bound(xs, fs, K=8.0, s=2.0, t=4.0)
    assert res.regime == "convergent"
    assert res.weighted_sum == pytest.approx(math.fsum(v ** -2 for v in norms), rel=1e-9)
    assert res.weighted_sum <= res.proof_bound
    deficit = ZI_INVERSE_FOURTH - res.weighted_sum
    assert M * M * deficit / math.pi == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# convergence probe
# ---------------------------------------------------------------------------

def test_probe_saturates_above_half_rank(zi_lattice):
    curve, saturated = convergence_probe(zi_lattice, 2.0, 1.0,
                                         [2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    assert saturated
    assert curve.values[-1] > 0


def test_probe_logarithmic_at_half_rank(zi_lattice):
    curve, saturated = convergence_probe(zi_lattice, 1.0, 1.0,
                                         [2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    assert not saturated
    increment = curve.values[-1] - curve.values[-2]
    assert increment > 0.05 * curve.values[-1]


def test_probe_zero_shift_counts(zi_lattice):
    curve, saturated = convergence_probe(zi_lattice, 2.0, 0.0,
                                         [2.0, 4.0, 8.0, 16.0])
    assert not saturated
    assert curve.values == [float(c) for c in curve.point_counts]


def test_probe_matches_the_gaussian_integer_limit(zi_lattice):
    # c^2 (1 + c |z|^2)^-2 = |z|^-4 (1 + 1 / (c |z|^2))^-2 lies within 2 / c
    # relative of |z|^-4, so at a large shift c^2 times the probe's last value
    # is the sum of |z|^-4 over the disc of radius R: the limit less its tail
    # pi / R^2, as in test_gaussian_integer_limit.
    c = 1e6
    radii = [2.0 ** j for j in range(1, 9)]
    curve, saturated = convergence_probe(zi_lattice, 2.0, c, radii)
    assert radii[-1] == 256.0 and saturated
    expected = ZI_INVERSE_FOURTH - math.pi / radii[-1] ** 2
    assert c * c * curve.values[-1] == pytest.approx(expected, rel=1e-4)


def test_probe_requires_unit_min_norm():
    lat = rescale_lattice(gaussian_diagonal(1), 0.5)
    with pytest.raises(HypothesisViolated):
        convergence_probe(lat, 2.0, 1.0, [2.0, 4.0])


def test_probe_requires_dyadic_grid(zi_lattice):
    with pytest.raises(ValueError):
        convergence_probe(zi_lattice, 2.0, 1.0, [2.0, 5.0])


# ---------------------------------------------------------------------------
# curves and serialization
# ---------------------------------------------------------------------------

def test_sum_curve_matches_pointwise(zi_lattice):
    spec = SumSpec(family="shifted", m=2, c=1.0)
    radii = [1.0, 2.0, 4.0]
    curve = sum_curve(zi_lattice, spec, radii)
    for M, value, count in zip(curve.radii, curve.values, curve.point_counts):
        direct, npts = evaluate_sum(zi_lattice, spec, M)
        assert value == pytest.approx(direct, rel=1e-12)
        assert count == npts


def test_sum_curve_csv_and_json_round_trip(zi_lattice):
    spec = SumSpec(family="shifted", m=2, c=1.0)
    curve = sum_curve(zi_lattice, spec, [1.0, 2.0])
    text = curve.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "M,value,pointCount"
    assert len(lines) == 3
    doc = json.loads(json.dumps(curve.to_json_dict()))
    assert doc["spec"] == {"family": "shifted", "m": 2, "c": 1.0, "i": None}
    assert [p["M"] for p in doc["points"]] == curve.radii
    assert [p["value"] for p in doc["points"]] == curve.values
    assert [p["pointCount"] for p in doc["points"]] == curve.point_counts
    assert [p["singularCount"] for p in doc["points"]] == curve.singular_counts == [0, 0]


def test_sum_spec_validation():
    with pytest.raises(ValueError):
        SumSpec(family="nope", m=2)
    with pytest.raises(ValueError):
        SumSpec(family="mixed", m=2)
    with pytest.raises(ValueError):
        SumSpec(family="mixed", m=2, i=3)
    with pytest.raises(ValueError):
        SumSpec(family="shifted", m=2, c=-1.0)
    for kw in ({"m": math.nan}, {"m": math.inf}, {"m": "2"}, {"m": None},
               {"m": 2, "c": math.nan}, {"m": 2, "c": math.inf}, {"m": 2, "c": "1"},
               {"family": "mixed", "m": 2, "i": "1"},
               {"family": "mixed", "m": 3, "i": 1.5}):
        with pytest.raises(ValueError):
            SumSpec(**{"family": "shifted", **kw})


def test_nan_radius_is_rejected(golden_lattice):
    spec = SumSpec(family="shifted", m=2, c=1.0)
    for radii in ([math.nan], [2.0, math.nan], [math.nan, 2.0]):
        with pytest.raises(ValueError, match="radii"):
            sum_curve(golden_lattice, spec, radii)
        with pytest.raises(ValueError, match="radii"):
            shell_counts(golden_lattice, radii)
    with pytest.raises(ValueError, match="radius"):
        next(coefficient_blocks(golden_lattice, math.nan))
    with pytest.raises(BudgetExceeded):
        sum_curve(golden_lattice, spec, [2.0, math.inf])


def test_approximate_requires_square():
    lat = build_lattice([np.array([[1.0 + 0j, 0.0]]), np.array([[1j, 0.0]])])
    with pytest.raises(ValueError):
        inverse_det_sum(lat, 2, 1.0)


# ---------------------------------------------------------------------------
# several specs from one walk
# ---------------------------------------------------------------------------

def _spec_strategy(square):
    families = ["shifted", "mixed"] + (["approximate"] if square else [])

    @st.composite
    def spec(draw):
        family = draw(st.sampled_from(families))
        m = draw(st.integers(1, 4))
        if family == "shifted":
            return SumSpec(family=family, m=m, c=draw(st.sampled_from([0.0, 0.3, 1.0, 7.0])))
        if family == "mixed":
            return SumSpec(family=family, m=m, i=draw(st.integers(0, m)),
                           skip_singular=True)
        return SumSpec(family=family, m=m, skip_singular=True)
    return spec()


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), paired=st.booleans(),
       shape=st.sampled_from([(2, 2), (2, 3)]))
def test_sum_curves_match_separate_curves(data, seed, paired, shape):
    rng = np.random.default_rng(seed)
    if paired:
        lat = random_paired_lattice(rng, int(rng.integers(1, 3)), *shape)
    else:
        lat = random_small_lattice(rng, int(rng.integers(1, 5)), *shape)
    assert lat.orbit_size == (4 if paired else 2)
    unit = math.sqrt(lat.min_norm_sq)
    jobs = []
    for _ in range(data.draw(st.integers(1, 4))):
        spec = data.draw(_spec_strategy(shape[0] == shape[1]))
        scales = data.draw(st.lists(st.sampled_from([0.5, 0.9, 1.0, 1.4, 2.0, 2.5]),
                                    min_size=1, max_size=3, unique=True))
        jobs.append((spec, [unit * s for s in sorted(scales)]))
    together = sum_curves(lat, jobs)
    # A companion job at the largest radius makes the lone call walk the same
    # ball, so its blocks, and so its shell partials, are the same.
    companion = (SumSpec(family="shifted", m=1, c=1.0), [max(r[-1] for _, r in jobs)])
    for (spec, radii), curve in zip(jobs, together):
        alone = sum_curves(lat, [(spec, radii), companion])[0]
        assert curve.spec == spec and curve.radii == radii
        assert curve == alone
        # the one-spec call is bit-identical
        assert sum_curves(lat, [(spec, radii)])[0] == sum_curve(lat, spec, radii)


def test_sum_curves_share_blocks_on_golden(golden_lattice):
    # The golden preset's shapes: two exponents on the largest ball and three
    # shifts on an inner grid, all from one walk.
    jobs = [(SumSpec(family="approximate", m=4), [2.0, 2 * SQRT2]),
            (SumSpec(family="approximate", m=8), [2.0, 2 * SQRT2]),
            (SumSpec(family="mixed", m=4, i=2), [SQRT2, 2.0])]
    jobs += [(SumSpec(family="shifted", m=4, c=c), [1.0, 2.0]) for c in (1.0, 10.0, 100.0)]
    companion = (SumSpec(family="shifted", m=1, c=1.0), [2 * SQRT2])
    for (spec, radii), curve in zip(jobs, sum_curves(golden_lattice, jobs)):
        assert curve == sum_curves(golden_lattice, [(spec, radii), companion])[0]


def test_sum_curves_validate_every_job(golden_lattice):
    assert sum_curves(golden_lattice, []) == []
    ok = (SumSpec(family="shifted", m=2, c=1.0), [1.0])
    for radii in ([], [0.0, 1.0], [2.0, 1.0]):
        with pytest.raises(ValueError):
            sum_curves(golden_lattice, [ok, (SumSpec(family="shifted", m=2), radii)])
    wide = build_lattice([np.array([[1.0 + 0j, 0.0]]), np.array([[1j, 0.0]])])
    with pytest.raises(ValueError):
        sum_curves(wide, [ok, (SumSpec(family="approximate", m=2), [1.0])])


def test_sum_curves_budget_follows_the_largest_ball():
    # The thin paired ball of test_budget_exact_on_paired_lattice: the walk
    # goes to the largest radius of all jobs, so the budget trips at that
    # ball's logical count, |L(30)| + 1 > budget, whatever the inner jobs.
    B0, B1 = np.array([[1e5 + 0j, 0.0]]), np.array([[0.0, 1.0 + 0j]])
    lat = build_lattice([B0, 1j * B0, B1, 1j * B1])
    size = shell_counts(lat, [30.0])[0]
    jobs = [(SumSpec(family="shifted", m=2, c=1.0), [15.0]),
            (SumSpec(family="mixed", m=2, i=2), [10.0, 30.0])]
    for budget in (1500, size - 3, size):
        with pytest.raises(BudgetExceeded):
            sum_curves(lat, jobs, budget=budget)
    inner, outer = sum_curves(lat, jobs, budget=size + 1)
    assert inner.point_counts == shell_counts(lat, [15.0])
    assert outer.point_counts == shell_counts(lat, [10.0, 30.0])


def test_singular_check_is_scoped_to_each_ball():
    # Z[i] I + Z[i] diag(1, -1) holds a I + b D = diag(a + b, a - b), of norm^2
    # 2(|a|^2 + |b|^2); it is singular only for a = +-b, so its shortest
    # singular points, such as I + D = diag(2, 0), have norm 2.
    D = np.diag([1.0, -1.0]).astype(complex)
    lat = build_lattice([np.eye(2, dtype=complex), 1j * np.eye(2), D, 1j * D])
    assert lat.orbit_size == 4
    approx = (SumSpec(family="approximate", m=2), [1.0, 1.5])
    mixed = (SumSpec(family="mixed", m=2, i=1), [1.5])
    shifted = (SumSpec(family="shifted", m=2, c=1.0), [1.5, 2.5])
    # These two share |det X| and det(X X*) with the specs above on the rows
    # up to 2.5, singular ones included, and drop those.
    skipping = [(SumSpec(family="approximate", m=3, skip_singular=True), [2.5]),
                (SumSpec(family="mixed", m=3, i=1, skip_singular=True), [2.5])]
    jobs = [approx, mixed, shifted] + skipping
    curves = sum_curves(lat, jobs)
    for (spec, radii), curve in zip(jobs, curves):
        alone = sum_curve(lat, spec, radii)
        assert curve.point_counts == alone.point_counts
        assert curve.singular_counts == alone.singular_counts
        for a, b in zip(curve.values, alone.values):
            assert a == pytest.approx(b, rel=1e-12)
    assert [c.singular_counts for c in curves[:3]] == [[0, 0], [0], [0, 0]]
    assert all(c.singular_counts[0] > 0 for c in curves[3:])
    for spec, _ in (approx, mixed):
        with pytest.raises(SingularPoint):
            sum_curve(lat, spec, [2.5])
        with pytest.raises(SingularPoint):
            sum_curves(lat, [(spec, [1.5, 2.5]), shifted])


@pytest.mark.parametrize("spec", [SumSpec(family="approximate", m=2, skip_singular=True),
                                  SumSpec(family="mixed", m=2, i=1, skip_singular=True)],
                         ids=lambda s: s.family)
def test_singular_counts_complete_the_ball(spec):
    lat = gaussian_diagonal(2)
    radii = [1.0, SQRT2, 2.0, 3.0]
    curve = sum_curve(lat, spec, radii)
    assert curve.singular_counts[0] > 0
    assert [p + s for p, s in zip(curve.point_counts, curve.singular_counts)] \
        == shell_counts(lat, radii)
    assert [p["singularCount"] for p in curve.to_json_dict()["points"]] \
        == curve.singular_counts


def _realized_ball(lat, radius):
    """(walk norm^2, X) of every nonzero point of L(radius): the orbit walk,
    each block expanded by ``orbit_images`` and realized."""
    from detsums.lattice import orbit_images, realize_block
    norms, mats = [], []
    for coeffs, norm_sq in coefficient_blocks(lat, radius):
        norms.append(np.tile(norm_sq, lat.orbit_size))
        mats.append(realize_block(lat, orbit_images(lat, coeffs)))
    return np.concatenate(norms), np.concatenate(mats)


def _kernel_terms(spec, X):
    """The terms of ``spec`` at a stack X, from the realized-matrix kernels;
    singular rows (det X exactly 0) read inf."""
    from detsums.linalg import det_batch, shifted_det_batch
    if spec.family == "shifted":
        return shifted_det_batch(X, spec.c) ** -spec.m
    with np.errstate(divide="ignore"):
        det = np.abs(det_batch(X))
        if spec.family == "approximate":
            return det ** -spec.m
        norm_sq = np.sum(np.abs(X) ** 2, axis=(1, 2))
        return norm_sq ** -spec.i * det ** (-2 * (spec.m - spec.i))


@pytest.mark.parametrize("spec", [SumSpec(family="shifted", m=4, c=1.0),
                                  SumSpec(family="approximate", m=4),
                                  SumSpec(family="mixed", m=4, i=2)],
                         ids=lambda s: s.family)
def test_golden_families_match_the_realized_ball(golden_lattice, spec):
    # The golden sums, whose terms come from e without realizing a block,
    # equal the sums over the whole ball of terms from the realized matrices.
    radii = [1.0, SQRT2, 2.0, 2 * SQRT2, 4.0]
    norms, X = _realized_ball(golden_lattice, radii[-1])
    terms = _kernel_terms(spec, X)
    curve = sum_curve(golden_lattice, spec, radii)
    for M, value, count in zip(radii, curve.values, curve.point_counts):
        inside = norms <= M * M * (1 + 1e-9)
        assert count == np.count_nonzero(inside)
        assert value == pytest.approx(math.fsum(terms[inside]), rel=1e-12)


_SKIPPING_SPECS = [SumSpec(family="shifted", m=2, c=0.7),
                   SumSpec(family="approximate", m=3, skip_singular=True),
                   SumSpec(family="mixed", m=3, i=1, skip_singular=True)]


@settings(max_examples=25, deadline=None)
@given(lat=golden_shaped_lattices(), scale=st.floats(1.0, 2.4))
def test_cell_table_sums_match_the_realized_ball(lat, scale):
    # Where the cell table holds, every family's curve equals the sum of the
    # terms over the realized ball, with exact point and singular counts
    # (det X of these Gaussian-integer matrices is exact, so a singular
    # point's term reads inf).
    radius = scale * math.sqrt(lat.min_norm_sq)
    radii = [radius / 2.0, radius]
    assume(_half_histograms(lat, _bound_sq(radius)) is not None)
    norms, X = _realized_ball(lat, radius)
    curves = sum_curves(lat, [(s, radii) for s in _SKIPPING_SPECS])
    for spec, curve in zip(_SKIPPING_SPECS, curves):
        terms = _kernel_terms(spec, X)
        singular = np.isinf(terms)
        for j, M in enumerate(radii):
            inside = norms <= M * M * (1 + 1e-9)
            assert curve.singular_counts[j] == np.count_nonzero(inside & singular)
            assert curve.point_counts[j] == np.count_nonzero(inside & ~singular)
            assert curve.values[j] == pytest.approx(
                math.fsum(terms[inside & ~singular]), rel=1e-12)


@pytest.mark.parametrize("spec", _FAMILY_SPECS, ids=lambda s: s.family)
def test_golden_values_do_not_depend_on_the_pass_radius(golden_lattice, spec):
    # The cells come in the order of (||X||^2, |det X|^2) whatever the
    # radius, so a curve is the same to the last bit alone and in a pass
    # that reaches further.
    radii = [1.0, 2.0, 4.0]
    alone = sum_curve(golden_lattice, spec, radii)
    longer = sum_curve(golden_lattice, spec, radii + [8.0])
    shared, _ = sum_curves(golden_lattice, [(spec, radii),
                                            (SumSpec(family="approximate", m=8), [8.0])])
    assert longer.values[:3] == shared.values == alone.values
    assert longer.point_counts[:3] == shared.point_counts == alone.point_counts


@pytest.mark.parametrize("normalization", ["raw", "unit-minnorm"])
def test_golden_takes_the_cell_table(normalization):
    lat = golden_code(normalization)
    for radius in (1.0, 4.0, 8.0):
        assert _half_histograms(lat, _bound_sq(radius)) is not None


@pytest.mark.parametrize("spec", [SumSpec(family="shifted", m=4, c=0.3),
                                  SumSpec(family="approximate", m=4),
                                  SumSpec(family="mixed", m=4, i=1)],
                         ids=lambda s: s.family)
def test_rescaled_golden_takes_the_walk_with_the_same_values(golden_lattice, spec):
    # Scaled by s = 1.1 the real Gram matrix is 1.21 I, not integral, so the
    # sums walk the quarter ball and realize it.  Each term is a power of s
    # times the term of the unscaled point (the shift takes c s^2), which
    # comes from the cell table.
    s = 1.1
    scaled = rescale_lattice(golden_lattice, s)
    radii = [1.0, 2.0, 4.0]
    assert scaled.orbit_size == 4
    assert _half_histograms(scaled, _bound_sq(s * radii[-1])) is None
    assert _half_histograms(golden_lattice, _bound_sq(radii[-1])) is not None
    walked = sum_curve(scaled, spec, [s * r for r in radii])
    base = sum_curve(golden_lattice, SumSpec(family=spec.family, m=spec.m,
                                             c=spec.c * s * s, i=spec.i), radii)
    power = {"shifted": 0.0, "approximate": 2 * spec.m,
             "mixed": 2 * (spec.i or 0) + 4 * (spec.m - (spec.i or 0))}[spec.family]
    assert walked.point_counts == base.point_counts
    assert walked.singular_counts == base.singular_counts == [0, 0, 0]
    for a, b in zip(walked.values, base.values):
        assert a * s ** power == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("spec", [SumSpec(family="approximate", m=3, skip_singular=True),
                                  SumSpec(family="mixed", m=3, i=1, skip_singular=True)],
                         ids=lambda s: s.family)
def test_singular_counts_match_the_realized_ball(spec):
    # diag(z_1, z_2) is singular exactly when z_1 or z_2 is 0, so det X is 0
    # to the last bit there and the counts are exact.
    lat = gaussian_diagonal(2)
    radii = [1.0, 2.0, 4.0, 6.0]
    norms, X = _realized_ball(lat, radii[-1])
    terms = _kernel_terms(spec, X)
    singular = np.isinf(terms)
    curve = sum_curve(lat, spec, radii)
    for j, M in enumerate(radii):
        inside = norms <= M * M * (1 + 1e-9)
        assert curve.singular_counts[j] == np.count_nonzero(inside & singular)
        assert curve.point_counts[j] == np.count_nonzero(inside & ~singular)
        assert curve.values[j] == pytest.approx(
            math.fsum(terms[inside & ~singular]), rel=1e-12)
    assert curve.singular_counts[0] > 0
