import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floatdyn import Pose, clip_by_waterplane, volume_and_first_moments, waterplane_properties
from floatdyn import clipping, hydrostatics, save_stl, shapes
from floatdyn.clipping import (
    _LONE_FIRST,
    _PLANE_EDGE,
    _TIP,
    _WHOLE,
    DEFAULT_SNAP_FRACTION,
    _sign_codes,
    cap_raw_moments,
    evaluate,
    evaluate_many,
)
from floatdyn.kinematics import k3_body, rotation_matrix
from floatdyn.mesh import HullMesh, load_mesh
from floatdyn.report import AnalysisConfig, run_analysis
from floatdyn.verification import random_partial_poses
from helpers import (
    SubmergedMonteCarlo,
    assert_clip_matches_evaluate,
    assert_edges_paired,
    flipped_roll,
    touching_loops,
    vertex_on_plane_poses,
)


def slab_oracle(zeta):
    """Level unit cube clipped at draft-coordinate zeta: V and centroid.

    The submerged part is the slab x3 in [-zeta, 0.5]; closed forms for
    its volume and first moment are the independent reference here.
    """
    lo = -zeta
    v = np.clip(0.5 - lo, 0.0, 1.0)
    if v == 0.0:
        return 0.0, np.zeros(3)
    m3 = (0.5**2 - lo**2) / 2.0 if -0.5 < lo < 0.5 else 0.0
    return v, np.array([0.0, 0.0, m3])


class TestClipExamples:
    def test_half_submerged_cube(self, cube):
        solid = clip_by_waterplane(cube, Pose(zeta=0.0))
        assert len(solid.cap_polygons) == 1
        cap = solid.cap_polygons[0]
        assert np.allclose(cap[:, 2], 0.0)
        volume, first = volume_and_first_moments(solid)
        assert volume == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_allclose(first / volume, [0, 0, 0.25], atol=1e-15)

    def test_fully_submerged_cube(self, cube):
        solid = clip_by_waterplane(cube, Pose(zeta=0.6))
        assert not solid.cap_polygons
        volume, first = volume_and_first_moments(solid)
        assert volume == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(first, np.zeros(3), atol=1e-15)

    def test_quarter_draft_cube(self, cube):
        solid = clip_by_waterplane(cube, Pose(zeta=0.25))
        volume, first = volume_and_first_moments(solid)
        v_ref, m_ref = slab_oracle(0.25)
        assert volume == pytest.approx(v_ref, rel=1e-14)
        np.testing.assert_allclose(first / volume, m_ref / v_ref, atol=1e-14)
        wp = waterplane_properties(solid)
        assert wp.area == pytest.approx(1.0, rel=1e-14)

    def test_fully_emerged_cube(self, cube):
        solid = clip_by_waterplane(cube, Pose(zeta=-0.7))
        assert solid.is_empty
        volume, first = volume_and_first_moments(solid)
        assert volume == 0.0
        assert np.all(first == 0.0)

    def test_level_drafts_against_slab_oracle(self, cube):
        for zeta in np.linspace(-0.45, 0.45, 19):
            solid = clip_by_waterplane(cube, Pose(zeta=float(zeta)))
            volume, first = volume_and_first_moments(solid)
            v_ref, m_ref = slab_oracle(zeta)
            assert volume == pytest.approx(v_ref, abs=1e-13)
            np.testing.assert_allclose(first, m_ref, atol=1e-13)

    def test_submerged_to_the_brim(self, cube):
        # deck exactly in the surface: coplanar top face becomes the cap
        solid = clip_by_waterplane(cube, Pose(zeta=0.5))
        volume, _ = volume_and_first_moments(solid)
        assert volume == pytest.approx(1.0, abs=1e-13)
        assert len(solid.cap_polygons) == 1
        area = waterplane_properties(solid).area
        assert area == pytest.approx(1.0, rel=1e-13)


class TestSubmergedSolidInvariants:
    @pytest.mark.parametrize("mesh_name", ["cube", "l_prism", "convex_blob"])
    def test_closure_and_plane_residency(self, mesh_name, request, rng):
        mesh = request.getfixturevalue(mesh_name)
        for pose in random_partial_poses(mesh, 25, rng):
            solid = clip_by_waterplane(mesh, pose)
            assert_edges_paired(solid)
            snap = 1e-10 * mesh.diameter
            for loop in solid.cap_polygons:
                assert np.abs(solid.plane_offset + loop @ solid.plane_normal).max() <= 10 * snap
            if len(solid.hull_triangles):
                corners = solid.hull_triangles.reshape(-1, 3)
                depths = solid.plane_offset + corners @ solid.plane_normal
                assert depths.min() >= -10 * snap

    def test_cap_normal_points_up(self, cube, rng):
        # net cap area vector must align with the up direction -k3
        for pose in random_partial_poses(cube, 10, rng):
            solid = clip_by_waterplane(cube, pose)
            total = np.zeros(3)
            for loop in solid.cap_polygons:
                total += 0.5 * np.cross(loop, np.roll(loop, -1, axis=0)).sum(axis=0)
            up = -k3_body(pose)
            assert total @ up > 0.0
            np.testing.assert_allclose(
                np.cross(total, up), np.zeros(3), atol=1e-12 * cube.diameter**2
            )

    def test_volume_monotone_in_draft(self, l_prism):
        drafts = np.linspace(-1.2, 1.2, 61)
        volumes = []
        for zeta in drafts:
            solid = clip_by_waterplane(l_prism, Pose(zeta=float(zeta), theta=0.2, phi=0.1))
            volumes.append(volume_and_first_moments(solid)[0])
        diffs = np.diff(volumes)
        assert np.all(diffs >= -1e-12 * l_prism.volume)
        assert volumes[-1] == pytest.approx(l_prism.volume, rel=1e-12)

    @staticmethod
    def planar_gap(mesh, poses):
        """Worst gap, relative to the hull, between the clipped solid's
        volume and first moments in the body frame and those of the mesh
        moved by the pose's whole rigid motion and clipped at rest."""
        d = mesh.diameter
        worst = 0.0
        for pose in poses:
            moved = pose.replace(xi=pose.xi + 3.0, eta=pose.eta - 2.0, psi=pose.psi + 1.234)
            r = rotation_matrix(moved)
            t = np.array([moved.xi, moved.eta, moved.zeta])
            fixed = HullMesh(mesh.vertices @ r.T + t, mesh.triangles)
            va, ma = volume_and_first_moments(clip_by_waterplane(mesh, moved))
            vb, mb = volume_and_first_moments(clip_by_waterplane(fixed, Pose()))
            worst = max(worst, abs(va - vb) / d**3, np.abs(r @ ma + va * t - mb).max() / d**4)
        return worst

    def test_planar_motions_leave_body_quantities_unchanged(self, cube, rng):
        assert self.planar_gap(cube, random_partial_poses(cube, 10, rng)) <= 1e-12

    def test_planar_motions_catch_a_flipped_roll(self, cube, rng, monkeypatch):
        # the body frame never sees surge, sway or yaw but the fixed frame
        # does, so a wrong roll sign in the down axis must show
        poses = random_partial_poses(cube, 10, rng)
        monkeypatch.setattr(clipping, "k3_body", flipped_roll)
        assert self.planar_gap(cube, poses) > 1e-3


def catamaran_prism():
    """U-section prism: two legs pointing down, a tunnel between them."""
    section = np.array(
        [
            [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.7, 1.0],
            [0.7, 0.4], [0.3, 0.4], [0.3, 1.0], [0.0, 1.0],
        ]
    )
    mesh = shapes.extrude_polygon(section, 1.0)
    return mesh.translated(-mesh.volume_centroid)


class TestMultipleLoops:
    def test_waterline_through_the_tunnel_gives_two_caps(self):
        cat = catamaran_prism()
        # waterline halfway up the legs: the section is two disjoint strips
        zeta = -(float(cat.bbox[1][2]) - 0.3)
        solid = clip_by_waterplane(cat, Pose(zeta=zeta))
        assert len(solid.cap_polygons) == 2
        wp = waterplane_properties(solid)
        assert wp.area == pytest.approx(2 * 0.3 * 1.0, rel=1e-12)

    def test_two_loop_volume_against_monte_carlo(self, rng):
        cat = catamaran_prism()
        pose = Pose(zeta=-(float(cat.bbox[1][2]) - 0.3), theta=0.04)
        solid = clip_by_waterplane(cat, pose)
        assert len(solid.cap_polygons) == 2
        volume, first = volume_and_first_moments(solid)
        v_hat, v_sig, m_hat, m_sig = SubmergedMonteCarlo(cat, 200_000, rng).estimate(pose)
        assert abs(volume - v_hat) < 4 * v_sig
        for k in range(3):
            assert abs(first[k] - m_hat[k]) < 4 * max(m_sig[k], 1e-12)


class TestWaterplaneProperties:
    def test_half_cube_about_origin(self, cube):
        solid = clip_by_waterplane(cube, Pose(zeta=0.0))
        wp = waterplane_properties(solid)
        assert wp.area == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(wp.centroid_offset, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            wp.second_moment,
            np.diag([1 / 12, 1 / 12, 0.0]),
            atol=1e-15,
        )

    def test_two_by_one_box_level(self, barge):
        solid = clip_by_waterplane(barge, Pose(zeta=0.0))
        wp = waterplane_properties(solid)
        assert wp.area == pytest.approx(2.0, rel=1e-14)
        assert wp.second_moment[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-13)
        assert wp.second_moment[1, 1] == pytest.approx(1.0 / 6.0, rel=1e-13)

    def test_empty_solid_zeroes(self, cube):
        solid = clip_by_waterplane(cube, Pose(zeta=-0.8))
        wp = waterplane_properties(solid)
        assert wp.area == 0.0
        assert np.all(wp.second_moment == 0.0)

    def test_second_moment_annihilates_normal(self, l_prism, rng):
        for pose in random_partial_poses(l_prism, 10, rng):
            solid = clip_by_waterplane(l_prism, pose)
            wp = waterplane_properties(solid, ref_point=(0.1, -0.2, 0.3))
            n = solid.plane_normal
            np.testing.assert_allclose(
                wp.second_moment @ n, np.zeros(3),
                atol=1e-12 * max(1.0, abs(wp.area)) * l_prism.diameter**2,
            )
            eig = np.linalg.eigvalsh(wp.second_moment)
            assert eig.min() >= -1e-12 * max(eig.max(), 1.0)

    def test_reference_point_projection(self, cube):
        # moments about a reference below the plane equal moments about
        # its in-plane projection
        solid = clip_by_waterplane(cube, Pose(zeta=0.3))
        a = waterplane_properties(solid, ref_point=(0.2, 0.1, 5.0))
        b = waterplane_properties(solid, ref_point=(0.2, 0.1, -5.0))
        np.testing.assert_allclose(a.centroid_offset, b.centroid_offset, atol=1e-12)
        np.testing.assert_allclose(a.second_moment, b.second_moment, atol=1e-12)


class TestDraftRateIdentities:
    @pytest.mark.parametrize("mesh_name", ["cube", "l_prism", "convex_blob"])
    def test_volume_rate_equals_waterplane_area(self, mesh_name, request, rng):
        # Leibniz identity: at fixed attitude, dV/dzeta is the waterplane
        # area and dM/dzeta the waterplane first moments; the left sides
        # come from the volume path, the right from the cap polygons
        mesh = request.getfixturevalue(mesh_name)
        from floatdyn.clipping import cap_raw_moments

        h = 1e-6 * mesh.diameter
        for pose in random_partial_poses(mesh, 8, rng):
            solid = clip_by_waterplane(mesh, pose)
            area, first, _ = cap_raw_moments(solid)
            v_hi, m_hi = volume_and_first_moments(
                clip_by_waterplane(mesh, pose.replace(zeta=pose.zeta + h))
            )
            v_lo, m_lo = volume_and_first_moments(
                clip_by_waterplane(mesh, pose.replace(zeta=pose.zeta - h))
            )
            assert (v_hi - v_lo) / (2 * h) == pytest.approx(area, rel=1e-6)
            np.testing.assert_allclose(
                (m_hi - m_lo) / (2 * h), first,
                atol=1e-5 * max(1.0, abs(area)) * mesh.diameter,
            )


class TestVertexExactPlanes:
    @pytest.mark.parametrize("mesh_name", ["cube", "l_prism", "convex_blob"])
    def test_plane_through_each_vertex(self, mesh_name, request, rng):
        # place the plane exactly through one mesh vertex at a random
        # attitude: the snap path must still produce a closed boundary
        # whose volume matches a slightly perturbed (snap-free) clip
        mesh = request.getfixturevalue(mesh_name)
        for vid in range(0, len(mesh.vertices), max(1, len(mesh.vertices) // 12)):
            theta = float(rng.uniform(-0.3, 0.3))
            phi = float(rng.uniform(-0.3, 0.3))
            normal = k3_body(Pose(theta=theta, phi=phi))
            zeta = float(-mesh.vertices[vid] @ normal)
            pose = Pose(zeta=zeta, theta=theta, phi=phi)
            solid = clip_by_waterplane(mesh, pose)
            assert_edges_paired(solid)
            volume, _ = volume_and_first_moments(solid)
            eps = 1e-7 * mesh.diameter
            v_lo, _ = volume_and_first_moments(
                clip_by_waterplane(mesh, pose.replace(zeta=zeta - eps))
            )
            v_hi, _ = volume_and_first_moments(
                clip_by_waterplane(mesh, pose.replace(zeta=zeta + eps))
            )
            assert v_lo - 1e-12 <= volume <= v_hi + 1e-12
            assert v_hi - v_lo < 1e-5 * max(mesh.volume, 1.0)

    @pytest.mark.parametrize("mesh_name", ["l_prism", "cube"])
    def test_seeded_sweep_clips_closed_and_matches_evaluate(self, mesh_name, request):
        # a vertex exactly on the plane can pinch the waterline into loops
        # that touch there (on the L-prism); every pose must still clip to
        # a closed boundary with the integrals of the wetted faces
        mesh = request.getfixturevalue(mesh_name)
        touching = 0
        for pose in vertex_on_plane_poses(mesh, np.random.default_rng(0), 2000):
            solid = clip_by_waterplane(mesh, pose)
            assert_edges_paired(solid)
            assert_clip_matches_evaluate(mesh, pose, solid)
            touching += touching_loops(solid)
        assert touching >= (50 if mesh_name == "l_prism" else 0)

    def test_plane_through_cube_edges_at_level_attitude(self, cube):
        # plane containing a full horizontal edge ring handled by snapping
        for zeta in (-0.5, 0.5):
            solid = clip_by_waterplane(cube, Pose(zeta=zeta))
            volume, _ = volume_and_first_moments(solid)
            expected = 0.0 if zeta == -0.5 else 1.0
            assert volume == pytest.approx(expected, abs=1e-12)


class TestMonteCarloOracle:
    @pytest.mark.parametrize("mesh_name", ["cube", "convex_blob"])
    def test_volume_and_moments_within_sampling_error(self, mesh_name, request, rng):
        mesh = request.getfixturevalue(mesh_name)
        for pose in random_partial_poses(mesh, 4, rng):
            solid = clip_by_waterplane(mesh, pose)
            volume, first = volume_and_first_moments(solid)
            v_hat, v_sig, m_hat, m_sig = SubmergedMonteCarlo(
                mesh, 150_000, rng
            ).estimate(pose)
            assert abs(volume - v_hat) < 4 * v_sig
            for k in range(3):
                assert abs(first[k] - m_hat[k]) < 4 * max(m_sig[k], 1e-12)


@st.composite
def waterplane_poses(draw, mesh):
    """``(kind, pose)``: the plane crosses the hull, passes exactly through
    one of its vertices or within the snap distance of one, or leaves the
    hull fully submerged or fully emerged."""
    theta = draw(st.floats(-0.6, 0.6))
    phi = draw(st.floats(-0.6, 0.6))
    heights = mesh.vertices @ k3_body(Pose(theta=theta, phi=phi))
    lo, hi = float(heights.min()), float(heights.max())
    kind = draw(st.sampled_from(["crossing", "vertex", "snapped", "submerged", "emerged"]))
    if kind == "crossing":
        zeta = -(lo + draw(st.floats(0.0, 1.0)) * (hi - lo))
    elif kind in ("vertex", "snapped"):
        zeta = -float(heights[draw(st.integers(0, len(heights) - 1))])
        if kind == "snapped":
            zeta += draw(st.floats(-1.0, 1.0)) * DEFAULT_SNAP_FRACTION * mesh.diameter
    elif kind == "submerged":
        zeta = -lo + draw(st.floats(1e-3, 1.0)) * mesh.diameter
    else:
        zeta = -hi - draw(st.floats(1e-3, 1.0)) * mesh.diameter
    return kind, Pose(zeta=zeta, theta=theta, phi=phi)


class TestWettedSurfaceEvaluator:
    @pytest.mark.parametrize("mesh_name", ["cube", "l_prism", "convex_blob"])
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_matches_the_clipped_solid(self, mesh_name, data, request):
        # the wetted-face integrals against the explicit boundary: clipped
        # hull triangles plus chained, fanned cap loops
        mesh = request.getfixturevalue(mesh_name)
        kind, pose = data.draw(waterplane_poses(mesh))
        solid = clip_by_waterplane(mesh, pose)
        volume, first = volume_and_first_moments(solid)
        area, cap_first, cap_second = cap_raw_moments(solid)
        got = evaluate(mesh, pose)
        d = mesh.diameter
        # the clipper puts a vertex within the snap distance on the plane
        # but keeps its position; the evaluator integrates up to the true
        # plane.  They differ by about that distance times the hull area.
        depths = np.abs(pose.zeta + mesh.vertices @ got.plane_normal)
        snapped = depths[depths < DEFAULT_SNAP_FRACTION * d]
        tol = 1e-12 + 10.0 * (snapped.max() if snapped.size else 0.0) / d
        assert abs(got.volume - volume) <= tol * d**3
        assert np.abs(got.first - first).max() <= tol * d**4
        assert abs(got.depth_integral - (volume * pose.zeta + solid.plane_normal @ first)) <= (
            tol * d**4
        )
        assert abs(got.cap_area - area) <= tol * d**2
        assert np.abs(got.cap_first - cap_first).max() <= tol * d**3
        assert np.abs(got.cap_second - cap_second).max() <= tol * d**4
        if kind in ("submerged", "emerged"):
            # no waterline: exact zeros, as the clipper's empty cap list gives
            assert got.cap_area == 0.0
            assert not got.cap_first.any() and not got.cap_second.any()
        if kind == "emerged":
            assert got.volume == 0.0 and not got.first.any()


class TestSignCodes:
    def test_every_pattern_against_corner_counts(self):
        # one triangle per sign pattern of its corner depths, coded as the
        # evaluator codes its faces
        codes = set()
        for signs in itertools.product((-1, 0, 1), repeat=3):
            code = int(_sign_codes(np.array(signs, dtype=float), np.array([[0, 1, 2]]))[0])
            codes.add(code % 27)
            n_wet, n_dry, n_zero = signs.count(1), signs.count(-1), signs.count(0)
            # whole: a wet corner and no dry one, or two wet and one dry
            assert _WHOLE[code] == ((n_wet > 0 and n_dry == 0) or (n_wet, n_dry) == (2, 1))
            assert _PLANE_EDGE[code] == (n_wet == 1 and n_zero == 2)
            if not (n_wet and n_dry):
                assert _TIP[code] == 0.0, signs
                continue
            order = _LONE_FIRST[code].tolist()
            assert order in ([0, 1, 2], [1, 2, 0], [2, 0, 1]), signs
            lone = signs[order[0]]
            # the tip is added at a lone wet corner, taken off at a lone dry one
            assert _TIP[code] == lone
            assert signs.count(lone) == 1
        assert len(codes) == 27

    @pytest.mark.parametrize(
        "pose",
        [Pose(zeta=0.25), Pose(zeta=-0.25), Pose(zeta=0.0),
         Pose(zeta=0.5 * np.sin(0.3) + 0.25 * np.cos(0.3), phi=0.3),
         Pose(zeta=1.0), Pose(zeta=1.0, theta=0.2, phi=-0.1),
         Pose(zeta=-1.0), Pose(zeta=-1.0, theta=0.2, phi=-0.1)],
        ids=["deck", "bottom", "level", "deck_edge", "submerged", "submerged_tilted",
             "emerged", "emerged_tilted"],
    )
    def test_barge_faces_in_the_plane_and_off_it(self, barge, pose):
        # the deck or the bottom in the plane, a heeled deck edge on it,
        # and no waterline at all
        assert_clip_matches_evaluate(barge, pose, clip_by_waterplane(barge, pose))

    def test_face_table_is_built_at_the_first_evaluation(self, tmp_path):
        mesh = shapes.box(2.0, 1.0, 0.5)
        # a case builds several meshes (shapes re-centre, load_body moves
        # the hull to G), so none of them may pay for the tables up front
        save_stl(tmp_path / "box.stl", mesh)
        for built in (HullMesh(mesh.vertices, mesh.triangles), mesh.translated((0.1, 0.0, 0.0)),
                      load_mesh(tmp_path / "box.stl"), mesh):
            assert not {"face_table", "corner_rotations", "snap_distance"} & set(vars(built))
        evaluate(mesh, Pose(zeta=0.1))
        normals, weights = vars(mesh)["face_table"]
        assert normals.shape == (12, 3) and weights.shape == (12, 13)
        rotations = vars(mesh)["corner_rotations"]
        assert rotations.shape == (12, 3, 3) and not rotations.flags.writeable
        for r, shift in enumerate(([0, 1, 2], [1, 2, 0], [2, 0, 1])):
            assert np.array_equal(rotations[:, r], mesh.triangles[:, shift])
        assert vars(mesh)["snap_distance"] == DEFAULT_SNAP_FRACTION * mesh.diameter


#: every field of SubmergedIntegrals, compared row by row
INTEGRAL_FIELDS = (
    "plane_normal", "plane_offset", "volume", "first", "depth_integral",
    "cap_area", "cap_first", "cap_second",
)


def pose_sweep(mesh, rng, n):
    """Poses cycling through four kinds: a vertex exactly on the plane,
    pierced, fully submerged and fully emerged; then level poses with
    faces in the plane and at their edges."""
    poses = []
    for k in range(n):
        theta, phi = (float(x) for x in rng.uniform(-0.6, 0.6, 2))
        heights = mesh.vertices @ k3_body(Pose(theta=theta, phi=phi))
        lo, hi = heights.min(), heights.max()
        zeta = [
            -heights[rng.integers(len(heights))],
            -(lo + rng.uniform(0.05, 0.95) * (hi - lo)),
            -lo + rng.uniform(1e-3, 1.0) * mesh.diameter,
            -hi - rng.uniform(1e-3, 1.0) * mesh.diameter,
        ][k % 4]
        poses.append(Pose(zeta=float(zeta), theta=theta, phi=phi))
    lo, hi = mesh.bbox
    for zeta in (-lo[2], -hi[2], 0.0, -0.5 * (lo[2] + hi[2]) + 0.01):
        poses.append(Pose(zeta=float(zeta)))
    return poses


class TestEvaluateMany:
    @staticmethod
    def assert_rows_equal(mesh, poses):
        batch = evaluate_many(
            mesh, [p.zeta for p in poses], np.array([k3_body(p) for p in poses])
        )
        for name in INTEGRAL_FIELDS:
            got = getattr(batch, name)
            assert got.shape[0] == len(poses), name
            for row, pose in zip(got, poses):
                want = np.asarray(getattr(evaluate(mesh, pose), name), dtype=float)
                # bytes, not values: signed zeros count too
                assert row.tobytes() == want.tobytes(), (name, pose)

    @pytest.mark.parametrize("mesh_name", ["barge", "l_prism", "cube", "convex_blob", "wedge"])
    def test_rows_equal_evaluate_bitwise(self, mesh_name, request):
        mesh = request.getfixturevalue(mesh_name)
        rng = np.random.default_rng(31)
        # longer than one pass of evaluate_many, and not a multiple of it
        rows = max(1, clipping._EVALUATE_BUDGET // len(mesh.triangles))
        poses = pose_sweep(mesh, rng, rows + 5)
        on_plane = [
            p for p in poses
            if (np.abs(p.zeta + mesh.vertices @ k3_body(p)) == 0.0).any()
        ]
        assert len(on_plane) >= len(poses) // 8
        self.assert_rows_equal(mesh, poses)

    @pytest.mark.parametrize("kind", range(4))
    def test_one_pose_batches(self, l_prism, kind):
        pose = pose_sweep(l_prism, np.random.default_rng(kind), 4)[kind]
        self.assert_rows_equal(l_prism, [pose])

    def test_emerged_and_submerged_rows(self, cube):
        poses = [Pose(zeta=-2.0, theta=0.1), Pose(zeta=2.0, phi=0.2), Pose(zeta=0.1)]
        batch = evaluate_many(cube, [p.zeta for p in poses], [k3_body(p) for p in poses])
        assert batch.volume[0] == 0.0 and not batch.first[0].any()
        assert batch.volume[1] == pytest.approx(1.0, rel=1e-14)
        assert batch.cap_area[1] == 0.0 and not batch.cap_second[1].any()
        assert batch.cap_area[2] == pytest.approx(1.0, rel=1e-14)
        self.assert_rows_equal(cube, poses)

    def test_empty_batch(self, cube):
        batch = evaluate_many(cube, np.zeros(0), np.zeros((0, 3)))
        assert batch.volume.shape == (0,) and batch.cap_second.shape == (0, 3, 3)

    @pytest.mark.parametrize("drafts, axes", [(2, 1), (1, 2)])
    def test_drafts_and_axes_must_pair_up(self, cube, drafts, axes):
        # one down axis must not broadcast over several drafts
        with pytest.raises(ValueError, match=f"{drafts} drafts but {axes} down axes"):
            evaluate_many(cube, np.full(drafts, 0.1), np.tile([0.0, 0.0, 1.0], (axes, 1)))

    @pytest.mark.parametrize("mesh_name", ["barge", "l_prism", "wedge"])
    def test_kernel_gives_one_pose_the_bits_of_a_one_row_batch(self, mesh_name, request):
        # the one routine behind evaluate and evaluate_many: a lone pose has
        # no pose axis, a batch of one has it, and the bits agree
        mesh = request.getfixturevalue(mesh_name)
        for pose in pose_sweep(mesh, np.random.default_rng(7), 24):
            k3 = k3_body(pose)
            depths = clipping._snapped_depths(mesh, pose.zeta, k3)
            stacked_depths = clipping._snapped_depths(mesh, np.array([[pose.zeta]]), k3[None])
            assert depths.tobytes() == stacked_depths[0].tobytes(), pose
            alone = clipping._wetted_sums(mesh, depths, k3)
            stacked = clipping._wetted_sums(mesh, stacked_depths, k3[None])
            assert alone[0].shape == (13,) and stacked[0].shape == (1, 13)
            for one, row in zip(alone, stacked):
                assert np.asarray(one).tobytes() == row[0].tobytes(), pose


class TestLastPoseSlot:
    """evaluate keeps the last pose's integrals on the mesh, one slot."""

    @staticmethod
    def counting(monkeypatch):
        """Record the (zeta, theta, phi) of every kernel run."""
        poses = []
        kernel = clipping._evaluate

        def counted(mesh, pose):
            poses.append((pose.zeta, pose.theta, pose.phi))
            return kernel(mesh, pose)

        monkeypatch.setattr(clipping, "_evaluate", counted)
        return poses

    @pytest.mark.parametrize("mesh_name", ["barge", "l_prism"])
    def test_a_hit_equals_a_fresh_kernel_run_bitwise(self, mesh_name, request):
        mesh = request.getfixturevalue(mesh_name)
        for pose in pose_sweep(mesh, np.random.default_rng(5), 40):
            stored = evaluate(mesh, pose)
            hit = evaluate(mesh, pose)
            assert hit is stored
            fresh = clipping._evaluate(mesh, pose)
            for name in INTEGRAL_FIELDS:
                want = np.asarray(getattr(fresh, name), dtype=float)
                got = np.asarray(getattr(hit, name), dtype=float)
                assert got.tobytes() == want.tobytes(), (name, pose)

    def test_signed_zero_angles_do_not_share_the_slot(self, barge):
        # equal values, different bits: -sin(theta) is -0.0 at +0.0
        plus = evaluate(barge, Pose(zeta=0.1, theta=0.0))
        minus = evaluate(barge, Pose(zeta=0.1, theta=-0.0))
        assert minus is not plus
        assert plus.plane_normal.tobytes() != minus.plane_normal.tobytes()
        for got, theta in ((plus, 0.0), (minus, -0.0)):
            fresh = clipping._evaluate(barge, Pose(zeta=0.1, theta=theta))
            assert got.plane_normal.tobytes() == fresh.plane_normal.tobytes()

    @pytest.mark.parametrize("zeta", [0.1, -2.0], ids=["pierced", "emerged"])
    def test_returned_arrays_are_read_only(self, zeta):
        mesh = shapes.box(2.0, 1.0, 0.5)
        pose = Pose(zeta=zeta, theta=0.1, phi=-0.2)
        for integrals in (evaluate(mesh, pose), evaluate(mesh, pose)):
            arrays = [getattr(integrals, name) for name in INTEGRAL_FIELDS
                      if isinstance(getattr(integrals, name), np.ndarray)]
            assert len(arrays) == 4
            for array in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 1.0

    def test_state_and_gradient_share_one_kernel_run(self, env, monkeypatch):
        mesh = shapes.box(2.0, 1.0, 0.5)
        runs = self.counting(monkeypatch)
        pose = Pose(zeta=0.2, theta=0.05, phi=-0.1)
        state = hydrostatics.hydrostatic_state(mesh, pose, env)
        grad = hydrostatics.force_gradient(mesh, pose, env)
        assert len(runs) == 1
        # the same numbers a second mesh computes from two kernel runs
        other = shapes.box(2.0, 1.0, 0.5)
        assert np.array_equal(grad, hydrostatics.force_gradient(other, pose, env))
        assert np.array_equal(state.forces, hydrostatics.generalized_forces(other, pose, env))
        assert len(runs) == 2

    def test_alternating_poses_recompute_every_time(self, monkeypatch):
        mesh = shapes.box(2.0, 1.0, 0.5)
        runs = self.counting(monkeypatch)
        a, b = Pose(zeta=0.2), Pose(zeta=0.2, phi=0.1)
        for pose in (a, b, a, b, b):
            evaluate(mesh, pose)
        assert len(runs) == 4

    def test_threads_sharing_a_mesh_get_their_own_pose(self):
        # a slot swapped in two stores could pair one pose's key with
        # another's result; each thread checks it always gets its own
        mesh = shapes.box(2.0, 1.0, 0.5)
        poses = [Pose(zeta=0.05 * k, theta=0.02 * k, phi=-0.03 * k) for k in range(6)]
        want = {id(pose): clipping._evaluate(mesh, pose) for pose in poses}
        wrong = []

        def work(offset):
            for i in range(300):
                pose = poses[(offset + i) % len(poses)]
                got = evaluate(mesh, pose)
                if got.plane_normal.tobytes() != want[id(pose)].plane_normal.tobytes() or (
                    got.volume != want[id(pose)].volume
                ):
                    wrong.append(pose)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    @pytest.mark.parametrize(
        "hull, density, guess",
        [("barge", 500.0, (0.0, 0.0, 0.0)), ("l_prism", 600.0, (0.0, 0.1, 0.05))],
    )
    def test_analysis_integrates_the_equilibrium_once(
        self, hull, density, guess, request, tmp_path, monkeypatch
    ):
        # the solver's last step, the hydrostatic state and the Hessian all
        # read the equilibrium pose: one kernel run between them
        mesh_path = tmp_path / "hull.stl"
        save_stl(mesh_path, request.getfixturevalue(hull))
        config = AnalysisConfig(
            mesh_path=str(mesh_path), uniform_density=density, fluid_density=1000.0,
            initial_guess=guess,
        )
        runs = self.counting(monkeypatch)
        pose = run_analysis(config).equilibrium["pose"]
        assert runs.count((pose["zeta"], pose["theta"], pose["phi"])) == 1
