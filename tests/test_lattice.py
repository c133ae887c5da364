import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsums.errors import BudgetExceeded, DependentBasis, DimensionMismatch
from detsums.lattice import (DEFAULT_BUDGET, PointBudget, _bound_sq,
                             _half_histograms, build_lattice,
                             coefficient_blocks, esp_blocks,
                             lattice_from_json, lattice_to_json, orbit_images,
                             predicted_point_count, realize_block,
                             shell_counts)
from detsums.linalg import _esp_batch, det_batch
from detsums.sums import SumSpec, sum_curves

from conftest import (_r8, ball_points, box_scan_coeffs,
                      random_golden_shaped_lattice, random_paired_lattice,
                      random_small_lattice)

SQRT2 = math.sqrt(2.0)


def gaussian_int_lattice():
    return build_lattice([np.array([[1.0 + 0j]]), np.array([[1j]])])


def test_build_gaussian_integers():
    lat = gaussian_int_lattice()
    assert lat.k == 2 and lat.n == 1 and lat.T == 1
    assert lat.min_norm_sq == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(lat.gram_real, np.eye(2))


def test_dependent_basis_rejected():
    with pytest.raises(DependentBasis):
        build_lattice([np.array([[1.0 + 0j]]), np.array([[2.0 + 0j]])])


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        build_lattice([np.eye(2), np.ones((1, 2))])


def test_empty_basis_rejected():
    with pytest.raises(DimensionMismatch):
        build_lattice([])


def coeff_tuples(coeffs):
    return [tuple(z) for z in coeffs.tolist()]


def test_enumerate_unit_ball():
    lat = gaussian_int_lattice()
    coeffs, norm_sq = ball_points(lat, 1.0)
    assert sorted(coeff_tuples(coeffs)) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert np.allclose(norm_sq, 1.0, atol=1e-12)


def test_enumerate_sqrt2_ball():
    lat = gaussian_int_lattice()
    assert len(ball_points(lat, SQRT2)[0]) == 8


def test_enumerate_sign_dedup():
    lat = gaussian_int_lattice()
    coeffs = coeff_tuples(ball_points(lat, SQRT2, dedup_signs=True)[0])
    assert len(set(coeffs)) == len(coeffs) == 4
    for z in coeffs:
        assert tuple(-v for v in z) not in coeffs


def test_shell_counts_examples():
    lat = gaussian_int_lattice()
    assert shell_counts(lat, [1.0, SQRT2, 2.0]) == [4, 8, 12]
    assert shell_counts(lat, [0.5]) == [0]
    with pytest.raises(ValueError):
        shell_counts(lat, [])


def test_budget_exceeded():
    lat = gaussian_int_lattice()
    with pytest.raises(BudgetExceeded):
        list(coefficient_blocks(lat, 1e6, budget=10 ** 6))


@pytest.mark.parametrize("code,radius,orbit", [("json", 3.0, 2), ("nf", 6.0, 4),
                                                ("golden", 3.0, 4)])
def test_budget_charges_every_point_of_the_ball(code, radius, orbit):
    from detsums.codes import diagonal_nf_code, golden_code
    lat = {"json": lambda: build_lattice([np.array([[1.0, 0.5j]]),
                                          np.array([[0.3j, 1.0]]),
                                          np.array([[0.2, 0.7 + 0.1j]])]),
           "nf": diagonal_nf_code, "golden": golden_code}[code]()
    assert lat.orbit_size == orbit
    budget = PointBudget(DEFAULT_BUDGET)
    for _ in coefficient_blocks(lat, radius, budget=budget):
        pass
    # The budget counts the origin too.
    assert budget.used == shell_counts(lat, [radius])[-1] + 1


def test_golden_walk_row_counts(golden_lattice):
    # |L(4)| = 306,048 and |L(4 sqrt 2)| = 4,558,736 points, one row per
    # orbit of four.
    for radius, rows in ((4.0, 76_512), (4 * SQRT2, 1_139_684)):
        assert sum(len(c) for c, _ in coefficient_blocks(golden_lattice, radius)) == rows


def test_point_reconstruction_and_norm():
    lat = gaussian_int_lattice()
    coeffs, norm_sq = ball_points(lat, 2.0)
    mats = realize_block(lat, coeffs)
    for z, X, v in zip(coeffs, mats, norm_sq):
        assert np.max(np.abs(lat.realize(z) - X)) < 1e-9
        assert v == pytest.approx(float(np.sum(np.abs(X) ** 2)), rel=1e-9)


def test_symmetry_and_no_duplicates():
    basis = [np.array([[1.0, 0.2j], [0.0, 0.5]]),
             np.array([[1j, 0.0], [0.3, 0.0]]),
             np.array([[0.0, 1.0], [0.5j, 1.0]])]
    lat = build_lattice(basis)
    pts = coeff_tuples(ball_points(lat, 2.5)[0])
    assert len(pts) == len(set(pts))
    as_set = set(pts)
    for z in as_set:
        assert tuple(-v for v in z) in as_set


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4),
       radius=st.floats(0.6, 4.0))
def test_enumeration_matches_box_scan(seed, k, radius):
    rng = np.random.default_rng(seed)
    lat = random_small_lattice(rng, k)
    mine = coeff_tuples(ball_points(lat, radius)[0])
    assert len(set(mine)) == len(mine)
    assert set(mine) == set(box_scan_coeffs(lat, radius))


# Random bases of rank <= 4 in 2 x 2 matrices, plus the non-square 2 x 3 case.
_SHAPES = st.sampled_from([(2, 2), (2, 3)])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4),
       radius=st.floats(0.6, 4.0), shape=_SHAPES)
def test_half_walk_and_negation_match_box_scan(seed, k, radius, shape):
    lat = random_small_lattice(np.random.default_rng(seed), k, *shape)
    coeffs, norm_sq = ball_points(lat, radius, dedup_signs=True)
    mats = realize_block(lat, coeffs)
    assert np.allclose(norm_sq, np.sum(np.abs(mats) ** 2, axis=(1, 2)), rtol=1e-9)
    half = coeff_tuples(coeffs)
    half_set = set(half)
    negated = {tuple(-v for v in z) for z in half}
    assert len(half_set) == len(half)
    assert all(any(z) for z in half)
    assert not half_set & negated
    assert half_set | negated == set(box_scan_coeffs(lat, radius))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4), shape=_SHAPES)
def test_realize_block_bit_equal_to_tensordot(seed, k, shape):
    rng = np.random.default_rng(seed)
    lat = random_small_lattice(rng, k, *shape)
    coeffs = rng.integers(-6, 7, (64, k))
    expected = np.tensordot(coeffs.astype(float), lat.basis, axes=(1, 0))
    assert np.array_equal(realize_block(lat, coeffs), expected)


def test_half_walk_on_non_square_lattice():
    lat = build_lattice([np.array([[1.0, 0.5j, 0.0], [0.0, 1.0, 0.0]]),
                         np.array([[0.0, 1j, 0.0], [0.5, 0.0, 1.0]]),
                         np.array([[1j, 0.0, 1.0], [0.0, 0.0, 1j]])])
    full = set(coeff_tuples(ball_points(lat, 2.5)[0]))
    half = coeff_tuples(ball_points(lat, 2.5, dedup_signs=True)[0])
    assert 2 * len(half) == len(full)
    assert full == set(half) | {tuple(-v for v in z) for z in half}
    assert full == set(box_scan_coeffs(lat, 2.5))


def _walk_rows(lat, radius):
    """(coeffs, norm_sq) rows of one walk, sorted."""
    blocks = list(coefficient_blocks(lat, radius))
    if not blocks:
        return np.zeros((0, lat.k), dtype=np.int64), np.zeros(0)
    coeffs = np.concatenate([c for c, _ in blocks])
    norms = np.concatenate([n for _, n in blocks])
    order = np.lexsort(coeffs.T[::-1])
    return coeffs[order], norms[order]


def _times_i(z):
    """Coefficients of iX on a Z[i]-paired basis: each pair (a, b) -> (-b, a)."""
    out = []
    for a, b in zip(z[0::2], z[1::2]):
        out.extend((-b, a))
    return tuple(out)


def _orbit_rows(lat, radius):
    rows = []
    for coeffs, norm_sq in coefficient_blocks(lat, radius):
        rows.extend(tuple(int(v) for v in row) for row in coeffs)
        mats = realize_block(lat, coeffs)
        assert np.allclose(norm_sq, np.sum(np.abs(mats) ** 2, axis=(1, 2)))
    return rows


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), pairs=st.integers(1, 3),
       scale=st.floats(1.0, 2.4), shape=_SHAPES, golden_shaped=st.booleans())
def test_quarter_walk_rotations_match_box_scan(seed, pairs, scale, shape, golden_shaped):
    rng = np.random.default_rng(seed)
    if golden_shaped:
        # Rank 4 or 8, laid out like the golden code.
        lat = random_golden_shaped_lattice(rng, min(pairs, 2))
    else:
        lat = random_paired_lattice(rng, pairs, *shape)
    assert lat.orbit_size == 4
    # Radii relative to the shortest vector, so every ball holds points.
    radius = scale * math.sqrt(lat.min_norm_sq)
    quarter = _orbit_rows(lat, radius)
    assert len(set(quarter)) == len(quarter)
    assert all(any(z) for z in quarter)
    rotations = [quarter]
    for _ in range(3):
        rotations.append([_times_i(z) for z in rotations[-1]])
    full = [z for rot in rotations for z in rot]
    assert len(set(full)) == len(full)
    assert set(full) == set(box_scan_coeffs(lat, radius))
    # Each representative's highest nonzero pair lies in a > 0, b >= 0.
    for z in quarter:
        a, b = next((a, b) for a, b in reversed(list(zip(z[0::2], z[1::2])))
                    if a or b)
        assert a > 0 and b >= 0
    # The sign-deduplicated stream is each quarter block plus its rotation.
    half = set(coeff_tuples(ball_points(lat, radius, dedup_signs=True)[0]))
    assert half == set(quarter) | set(rotations[1])


def test_presets_are_paired(golden_lattice, nf_lattice, zi_lattice):
    from detsums.codes import gaussian_diagonal, golden_code
    # Rescaling multiplies both matrices of a pair by the same real factor,
    # which keeps basis[2j+1] == 1j * basis[2j] bit for bit.
    for lat in (nf_lattice, zi_lattice, gaussian_diagonal(3), golden_lattice,
                golden_code("unit-minnorm")):
        assert lat.orbit_size == 4


def test_non_paired_lattice_keeps_half_walk():
    # A JSON basis whose second matrix is not i times the first.
    doc = {"n": 1, "T": 2, "basis": [[[1.0, 0.0], [0.0, 0.0]],
                                      [[0.0, 1.0], [0.5, 0.0]],
                                      [[0.0, 0.0], [1.0, 0.0]],
                                      [[0.0, 0.0], [0.0, 1.0]]]}
    lat = lattice_from_json(doc)
    assert lat.orbit_size == 2
    rows = _orbit_rows(lat, 2.5)
    half = coeff_tuples(ball_points(lat, 2.5, dedup_signs=True)[0])
    assert rows == half
    full = set(box_scan_coeffs(lat, 2.5))
    assert 2 * len(rows) == len(full)
    assert full == set(rows) | {tuple(-v for v in z) for z in rows}
    assert shell_counts(lat, [2.5]) == [len(full)]
    # Rank 3 cannot be paired.
    assert build_lattice([np.array([[1.0 + 0j, 0.0]]), np.array([[1j, 0.0]]),
                          np.array([[0.5, 1.0 + 0j]])]).orbit_size == 2


@pytest.mark.parametrize("code,radius", [("golden", 2.5), ("zi", 40.0), ("json", 6.0)])
def test_wide_levels_split_without_changing_the_walk(monkeypatch, code, radius):
    from detsums import lattice
    from detsums.codes import gaussian_diagonal, golden_code
    lat = {"golden": golden_code, "zi": lambda: gaussian_diagonal(1),
           "json": lambda: build_lattice([np.array([[1.0, 0.5j]]),
                                          np.array([[0.3j, 1.0]]),
                                          np.array([[0.2, 0.7 + 0.1j]])])}[code]()

    jobs = [(SumSpec(family="shifted", m=2, c=1.0), [radius / 2, radius]),
            (SumSpec(family="mixed", m=2, i=1, skip_singular=True), [radius / 3, radius])]
    whole, whole_norms = _walk_rows(lat, radius)
    whole_sums = sum_curves(lat, jobs)
    cap = 8
    monkeypatch.setattr(lattice, "_MAX_CHILDREN", cap)
    split, split_norms = _walk_rows(lat, radius)
    largest = max(c.shape[0] for c, _ in coefficient_blocks(lat, radius))
    assert np.array_equal(split, whole)
    assert np.array_equal(split_norms, whole_norms)
    # The walk expands cap children at a time, so no block holds more rows.
    assert largest <= cap
    # The sums realize such blocks into a buffer sized by the cap.  Block
    # boundaries move the per-block partial sums, so values may differ in
    # their last bits; the points counted may not.
    for split_curve, whole_curve in zip(sum_curves(lat, jobs), whole_sums):
        assert split_curve.point_counts == whole_curve.point_counts
        assert split_curve.singular_counts == whole_curve.singular_counts
        assert split_curve.values == pytest.approx(whole_curve.values, rel=1e-12)


def test_golden_counts_match_jacobi_r8(golden_lattice):
    # The golden real Gram is the identity, so L(M) is Z^8 in the ball of
    # radius M and |L(M)| = sum_{1 <= n <= M^2} r_8(n).
    squares = [1, 2, 4, 8, 16, 32]
    expected = [sum(_r8(n) for n in range(1, m + 1)) for m in squares]
    assert expected == [16, 128, 1712, 21696, 306048, 4558736]
    assert shell_counts(golden_lattice, [math.sqrt(m) for m in squares]) == expected


def test_realize_block_matches_single(golden_lattice):
    blocks = list(coefficient_blocks(golden_lattice, 1.0))
    coeffs = orbit_images(golden_lattice, np.concatenate([b[0] for b in blocks]))
    mats = realize_block(golden_lattice, coeffs)
    for row in range(coeffs.shape[0]):
        assert np.allclose(mats[row], golden_lattice.realize(coeffs[row]), atol=1e-12)


def test_predicted_count_tracks_actual(golden_lattice):
    predicted = predicted_point_count(golden_lattice, 3.0)
    actual = shell_counts(golden_lattice, [3.0])[0]
    assert actual <= predicted


def test_json_round_trip(nf_lattice):
    doc = lattice_to_json(nf_lattice)
    text = json.dumps(doc)
    again = lattice_from_json(json.loads(text))
    assert again.k == nf_lattice.k
    assert np.allclose(again.basis, nf_lattice.basis)
    assert again.min_norm_sq == pytest.approx(nf_lattice.min_norm_sq, rel=1e-12)


def test_json_rejects_bad_entry_count():
    doc = {"n": 2, "T": 2, "basis": [[[1.0, 0.0]]]}
    with pytest.raises(DimensionMismatch):
        lattice_from_json(doc)


@pytest.mark.parametrize("field,value", [("n", 2.7), ("n", "2"), ("n", True),
                                         ("T", 0), ("T", None)])
def test_json_requires_integer_dimensions(field, value):
    # 2.7 would truncate to 2, "2" parse, and true with T = 4 read as n = 1.
    doc = {"n": 1, "T": 4, "basis": [[[1.0, 0.0]] * 4], field: value}
    with pytest.raises(ValueError, match=f"'{field}'"):
        lattice_from_json(doc)


def test_golden_shell_growth(golden_lattice):
    counts = shell_counts(golden_lattice, [1.0, 2.0, 4.0])
    assert counts[0] == 16
    ratio_21 = counts[1] / counts[0]
    ratio_42 = counts[2] / counts[1]
    # Counts approach volume scaling 2^8 = 256 from below as M grows.
    assert 50 < ratio_21 < 512
    assert 100 < ratio_42 < 512
    assert abs(ratio_42 - 256) < abs(ratio_21 - 256)


def _json_lattice(seed, k, n, T):
    lat = random_small_lattice(np.random.default_rng(seed), k, n, T)
    return lattice_from_json(json.loads(json.dumps(lattice_to_json(lat))))


def _unsplit_orbit8_lattice():
    # A golden-shaped basis times M = [[1, 1], [1, -1]] on the left, in exact
    # Gaussian-integer arithmetic: still closed under X -> iX and X -> XE with
    # orthogonal halves (M* M = 2I), but its A half is not diagonal, and its
    # half determinants (6 + 8i and 4i among them) are no Gaussian-integer
    # multiples of the least one, so esp_blocks realizes its rows.
    lat = random_golden_shaped_lattice(np.random.default_rng(3), 2)
    return build_lattice(list(np.array([[1.0, 1.0], [1.0, -1.0]]) @ lat.basis))


def _mixed_det_lattice():
    # Z[i] P + Z[i] Q with P = diag(1, 2), Q = diag(2, -1): orthogonal halves,
    # real Gram matrix 5 I, half determinants 2 z^2 and -2 w^2, but det(zP +
    # wQ) has the mixed term 3 z w, so it does not split over the halves.
    P, Q = np.diag([1.0, 2.0]).astype(complex), np.diag([2.0, -1.0]).astype(complex)
    return build_lattice([P, 1j * P, Q, 1j * Q])


@pytest.mark.parametrize("case", ["golden", "diagonal-nf-2", "gaussian-diagonal-2",
                                  "json-3x3", "json-2x3", "orbit8-unsplit", "mixed-det"])
def test_esp_blocks_match_the_realized_kernels(case, golden_lattice, nf_lattice):
    # Off the cell table the e of every row equals _esp_batch of the same row
    # realized from coefficient_blocks, in the same order and with the same
    # norms, and each row weighs orbit_size points.  On it (the golden code)
    # each row is a cell, and the weighted cells are the histogram of
    # (||X||^2, 5 |det X|^2) over the realized ball.
    from detsums.codes import gaussian_diagonal
    lat, radius = {
        "golden": lambda: (golden_lattice, 4.0),
        "diagonal-nf-2": lambda: (nf_lattice, 8.0),
        "gaussian-diagonal-2": lambda: (gaussian_diagonal(2), 6.0),
        "json-3x3": lambda: (_json_lattice(5, 4, 3, 3), 20.0),
        "json-2x3": lambda: (_json_lattice(6, 4, 2, 3), 14.0),
        "orbit8-unsplit": lambda: (_unsplit_orbit8_lattice(), 8.0),
        "mixed-det": lambda: (_mixed_det_lattice(), 12.0),
    }[case]()
    assert (_half_histograms(lat, _bound_sq(radius)) is not None) == (case == "golden")
    if case == "orbit8-unsplit":
        assert lat.orbit_size == 4
    got = list(esp_blocks(lat, radius))
    norms = np.concatenate([n for n, _, _ in got])
    e = np.concatenate([v for _, v, _ in got])
    weight = np.concatenate([w for _, _, w in got])
    assert norms.size > 100
    assert e.shape == (norms.size, lat.n) and weight.shape == norms.shape
    if case == "golden":
        coeffs, norm_sq = ball_points(lat, radius)
        det = det_batch(realize_block(lat, coeffs))
        cells, counts = np.unique(np.rint([norm_sq, 5 * np.abs(det) ** 2]).T, axis=0,
                                  return_counts=True)
        scaled = e * [1.0, 5.0]
        assert np.array_equal(norms, e[:, 0])
        assert np.abs(scaled - np.rint(scaled)).max() < 1e-9
        assert np.array_equal(np.rint(scaled), cells)
        assert np.array_equal(weight, counts)
        return
    want = [(norm_sq, _esp_batch(realize_block(lat, coeffs)))
            for coeffs, norm_sq in coefficient_blocks(lat, radius)]
    ref = np.concatenate([v for _, v in want])
    assert np.array_equal(norms, np.concatenate([n for n, _ in want]))
    assert e.shape == ref.shape
    assert np.all(np.abs(e - ref) <= 1e-12 * ref)
    assert np.all(weight == lat.orbit_size)
