import numpy as np
import pytest

from floatdyn.clipping import fan_triangles, planar_moments_3d
from floatdyn.mesh import _signed_area, triangulate_simple_polygon
from floatdyn.shapes import extrude_polygon
from helpers import polygon_moments

UNIT_SQUARE = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])


def test_unit_square_centered():
    m = polygon_moments(UNIT_SQUARE)
    assert m.area == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(m.centroid, [0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(
        m.second_moment, [[1.0 / 12.0, 0.0], [0.0, 1.0 / 12.0]], atol=1e-15
    )


def test_right_triangle():
    m = polygon_moments([[0, 0], [1, 0], [0, 1]])
    assert m.area == pytest.approx(0.5)
    np.testing.assert_allclose(m.centroid, [1 / 3, 1 / 3], rtol=1e-14)


def test_two_by_one_rectangle_second_moments():
    rect = np.array([[-1.0, -0.5], [1.0, -0.5], [1.0, 0.5], [-1.0, 0.5]])
    m = polygon_moments(rect)
    assert m.second_moment[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert m.second_moment[1, 1] == pytest.approx(1.0 / 6.0, rel=1e-14)


def test_parallel_axis_shift():
    a = 1.3
    shifted = UNIT_SQUARE + np.array([a, 0.0])
    m0 = polygon_moments(UNIT_SQUARE)
    m1 = polygon_moments(shifted)
    assert m1.area == pytest.approx(m0.area, rel=1e-14)
    assert m1.second_moment[0, 0] == pytest.approx(
        m0.second_moment[0, 0] + m0.area * a**2, rel=1e-13
    )
    # and taking moments about the shift point undoes it
    m2 = polygon_moments(shifted, about=[a, 0.0])
    np.testing.assert_allclose(m2.second_moment, m0.second_moment, atol=1e-14)


def test_clockwise_winding_gives_negative_area():
    m = polygon_moments(UNIT_SQUARE[::-1])
    assert m.area == pytest.approx(-1.0)


def random_simple_polygon(rng, n):
    """Star-shaped polygon: radial jitter around a center, always simple."""
    angles = np.sort(rng.uniform(0.0, 2 * np.pi, n))
    radii = rng.uniform(0.4, 1.5, n)
    return np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])


def test_shoelace_matches_fan_triangulation(rng):
    for _ in range(40):
        poly = random_simple_polygon(rng, rng.integers(4, 12))
        m = polygon_moments(poly)
        loop3d = np.column_stack([poly, np.zeros(len(poly))])
        area, first, second = planar_moments_3d(loop3d, [0.0, 0.0, 1.0])
        scale = max(abs(m.area), 1e-12)
        assert abs(area - m.area) <= 1e-12 * scale
        np.testing.assert_allclose(first[:2], m.centroid * m.area, atol=1e-12)
        np.testing.assert_allclose(second[:2, :2], m.second_moment, atol=1e-12)
        assert np.all(second[2] == 0.0)


def test_planar_moments_sign_follows_normal():
    loop = np.column_stack([UNIT_SQUARE, np.zeros(4)])
    area_up, _, _ = planar_moments_3d(loop, [0, 0, 1.0])
    area_dn, _, _ = planar_moments_3d(loop, [0, 0, -1.0])
    assert area_up == pytest.approx(1.0)
    assert area_dn == pytest.approx(-1.0)


def test_fan_triangles_shape():
    tris = fan_triangles(np.column_stack([UNIT_SQUARE, np.zeros(4)]))
    assert tris.shape == (2, 3, 3)


def test_ear_clipping_l_polygon():
    lshape = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)
    tris = triangulate_simple_polygon(lshape)
    assert len(tris) == len(lshape) - 2
    area = 0.0
    for a, b, c in tris:
        pa, pb, pc = lshape[a], lshape[b], lshape[c]
        area += 0.5 * abs(
            (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])
        )
    assert area == pytest.approx(polygon_moments(lshape).area, rel=1e-12)


def test_ear_clipping_random_star_polygons(rng):
    for _ in range(20):
        poly = random_simple_polygon(rng, rng.integers(5, 15))
        target = abs(polygon_moments(poly).area)
        tris = triangulate_simple_polygon(poly)
        area = 0.0
        for a, b, c in tris:
            pa, pb, pc = poly[a], poly[b], poly[c]
            area += 0.5 * abs(
                (pb[0] - pa[0]) * (pc[1] - pa[1]) - (pb[1] - pa[1]) * (pc[0] - pa[0])
            )
        assert area == pytest.approx(target, rel=1e-10)


def test_degenerate_input_rejected():
    with pytest.raises(ValueError):
        polygon_moments([[0, 0], [1, 1]])


def test_signed_area_is_the_oracle_area_bitwise(rng):
    lshape = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], float)
    polygons = [lshape, lshape[::-1]]
    polygons += [random_simple_polygon(rng, rng.integers(4, 12)) for _ in range(40)]
    for poly in polygons:
        assert _signed_area(poly) == polygon_moments(poly).area


@pytest.mark.parametrize("section", [
    [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
    [[0, 0], [1, 1]],
], ids=["three-columns", "two-points"])
def test_extrude_polygon_rejects_a_section_that_is_not_a_polygon(section):
    with pytest.raises(ValueError, match=r"\(n, 2\) array with n >= 3"):
        extrude_polygon(section, 1.0)
