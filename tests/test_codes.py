import math
from itertools import product

import numpy as np
import pytest

from detsums.codes import (CodeSpec, diagonal_nf_code, diagonal_nf_norm,
                           gaussian_diagonal, golden_code, min_abs_det_ball,
                           normalize_unit_min_norm)
from detsums.errors import UnsupportedDegree
from detsums.lattice import shell_counts

from conftest import ball_points, box_scan_coeffs, min_abs_det_box

SQRT5 = math.sqrt(5.0)


def test_golden_rank_and_geometry(golden_lattice):
    assert golden_lattice.k == 8
    assert golden_lattice.n == golden_lattice.T == 2
    assert np.allclose(golden_lattice.gram_real, np.eye(8), atol=1e-12)
    assert golden_lattice.min_norm_sq == pytest.approx(1.0, rel=1e-12)


def test_golden_basis_point_has_positive_det(golden_lattice):
    X = golden_lattice.realize([1, 0, 0, 0, 0, 0, 0, 0])
    assert abs(np.linalg.det(X)) > 0.1


def test_golden_min_det_over_coefficient_box(golden_lattice):
    delta = min_abs_det_box(golden_lattice, 2)
    assert delta == pytest.approx(1.0 / SQRT5, rel=1e-9)


def test_golden_min_det_stable_across_balls(golden_lattice):
    d2, singular2 = min_abs_det_ball(golden_lattice, 2.0)
    d4, singular4 = min_abs_det_ball(golden_lattice, 4.0)
    assert not singular2 and not singular4
    assert d2 == pytest.approx(1.0 / SQRT5, rel=1e-9)
    assert d4 == pytest.approx(d2, rel=1e-9)


def test_nf_unit_points(nf_lattice):
    one = nf_lattice.realize([1, 0, 0, 0])
    assert np.allclose(one, np.eye(2))
    assert abs(np.linalg.det(one)) == pytest.approx(1.0, rel=1e-12)
    iu = nf_lattice.realize([0, 1, 0, 0])
    assert np.allclose(iu, 1j * np.eye(2))
    assert abs(np.linalg.det(iu)) == pytest.approx(1.0, rel=1e-12)


def test_nf_generator_norm(nf_lattice):
    # x = phi maps to diag(phi, 1-phi); |det| equals |N(phi)| = 1.
    X = nf_lattice.realize([0, 0, 1, 0])
    norm = diagonal_nf_norm((0, 0), (1, 0))
    assert norm == (-1, 0)
    assert abs(np.linalg.det(X)) == pytest.approx(abs(complex(*norm)), rel=1e-9)


def test_nf_norm_form_exhaustive(nf_lattice):
    # det(X X*) = |N(x)|^2 >= 1 on every nonzero point, exact over the box.
    for a, b, c, d in product(range(-3, 4), repeat=4):
        if (a, b, c, d) == (0, 0, 0, 0):
            continue
        re, im = diagonal_nf_norm((a, b), (c, d))
        norm_sq = re * re + im * im
        assert norm_sq >= 1
        X = nf_lattice.realize([a, b, c, d])
        num = abs(np.linalg.det(X)) ** 2
        assert num == pytest.approx(norm_sq, rel=1e-9)


def test_nf_unsupported_degree():
    with pytest.raises(UnsupportedDegree):
        diagonal_nf_code(3)


def test_gaussian_diagonal_rank_one():
    lat = gaussian_diagonal(1)
    assert lat.k == 2 and lat.n == 1
    assert shell_counts(lat, [1.0])[0] == 4


def test_gaussian_diagonal_two():
    lat = gaussian_diagonal(2)
    X = lat.realize([1, 0, 1, 1])
    assert np.allclose(X, np.diag([1.0, 1.0 + 1.0j]))
    det = np.linalg.det(X)
    assert abs(det) ** 2 == pytest.approx(2.0, rel=1e-12)


def test_gaussian_diagonal_is_not_nvd():
    lat = gaussian_diagonal(2)
    # diag(1, 0) is a nonzero lattice point with zero determinant.
    X = lat.realize([1, 0, 0, 0])
    assert abs(np.linalg.det(X)) == 0.0
    assert min_abs_det_box(lat, 1) == 0.0


def test_gaussian_diagonal_counts_match_box_scan():
    lat = gaussian_diagonal(2)
    mine = [tuple(z) for z in ball_points(lat, 2.0)[0].tolist()]
    assert len(set(mine)) == len(mine)
    assert set(mine) == set(box_scan_coeffs(lat, 2.0))


def test_unit_minnorm_normalization(nf_lattice):
    unit = normalize_unit_min_norm(nf_lattice)
    assert unit.min_norm_sq == pytest.approx(1.0, rel=1e-9)
    scale = math.sqrt(nf_lattice.min_norm_sq)
    assert np.allclose(unit.basis * scale, nf_lattice.basis, atol=1e-12)


def test_code_spec_resolution_round_trip():
    spec = CodeSpec(kind="diagonal-nf", params={"n": 2}, normalization="unit-minnorm")
    again = CodeSpec.from_dict(spec.to_dict())
    assert again == spec
    lat = again.resolve()
    assert lat.k == 4
    assert lat.min_norm_sq == pytest.approx(1.0, rel=1e-9)


def test_code_spec_golden():
    lat = CodeSpec(kind="golden").resolve()
    assert lat.k == 8


def test_code_spec_unknown_kind():
    with pytest.raises(ValueError):
        CodeSpec(kind="nope").resolve()


@pytest.mark.parametrize("kind", ["diagonal-nf", "gaussian-diagonal"])
@pytest.mark.parametrize("n", [2.7, [2], 0, True, "2"])
def test_code_spec_degree_must_be_an_integer_of_at_least_one(kind, n):
    with pytest.raises(ValueError, match=r"params\.n must be an integer >= 1"):
        CodeSpec(kind=kind, params={"n": n}).resolve()


def test_code_spec_custom_needs_a_basis():
    with pytest.raises(ValueError, match=r"params\.basis"):
        CodeSpec(kind="custom").resolve()
