import re

import numpy as np
import pytest

import floatdyn as fd
from floatdyn import shapes
from floatdyn.errors import EmptyMesh, InvalidMesh, NonWatertightMesh
from floatdyn.mesh import (
    HullMesh, inertia_from_mesh, load_mesh, load_obj, load_stl, save_stl,
)
from floatdyn.mesh import _parse_stl_binary
from helpers import (
    CUBE_OBJ, EMPTY_MESHES, MALFORMED_RECORDS, UNSOUND_MESHES, contains_points, cube_stl,
    packed_stl,
)


class TestHullMeshValidation:
    def test_cube_basic_properties(self, cube):
        assert cube.volume == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(cube.volume_centroid, np.zeros(3), atol=1e-15)
        assert cube.diameter == pytest.approx(np.sqrt(3.0))
        assert cube.height == pytest.approx(1.0)

    def test_missing_face_is_not_watertight(self, cube):
        with pytest.raises(NonWatertightMesh):
            HullMesh(cube.vertices, cube.triangles[:-1])

    def test_flipped_face_is_not_watertight(self, cube):
        tris = cube.triangles.copy()
        tris[0] = tris[0][::-1]
        with pytest.raises(NonWatertightMesh):
            HullMesh(cube.vertices, tris)

    @staticmethod
    def first_edge_fault(tris):
        """The message of the edge-by-edge check the sorted one replaced."""
        tris = np.asarray(tris)
        edges = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
        directed = {}
        for i, j in edges.tolist():
            if (i, j) in directed:
                return f"directed edge {(i, j)} appears twice"
            directed[(i, j)] = True
        for i, j in directed:
            if (j, i) not in directed:
                return f"edge ({i}, {j}) has no opposite partner"
        return None

    @pytest.mark.parametrize("flipped", [[3, 7], [0, 5, 11], [10, 2]])
    def test_first_repeated_edge_is_reported(self, cube, flipped):
        # each flipped face repeats the directed edges of its neighbours
        tris = cube.triangles.copy()
        tris[flipped] = tris[flipped][:, ::-1]
        expected = self.first_edge_fault(tris)
        assert expected is not None and "appears twice" in expected
        with pytest.raises(NonWatertightMesh) as info:
            HullMesh(cube.vertices, tris)
        assert str(info.value) == expected

    @pytest.mark.parametrize("removed", [[2, 5, 9], [11, 0], [4, 6, 7, 8]])
    def test_first_unpaired_edge_is_reported(self, cube, removed):
        tris = np.delete(cube.triangles, removed, axis=0)
        expected = self.first_edge_fault(tris)
        assert expected is not None and "no opposite partner" in expected
        with pytest.raises(NonWatertightMesh) as info:
            HullMesh(cube.vertices, tris)
        assert str(info.value) == expected

    def test_inverted_mesh_rejected(self, cube):
        with pytest.raises(InvalidMesh):
            HullMesh(cube.vertices, cube.triangles[:, ::-1])

    def test_degenerate_triangle_rejected(self):
        verts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1.0, 0.5, 0.0]]
        tris = [[0, 1, 3], [0, 3, 2], [0, 2, 1], [1, 2, 3]]  # vertex 3 on edge 1-2
        with pytest.raises(InvalidMesh):
            HullMesh(verts, tris)

    def test_repeated_vertex_rejected(self, cube):
        tris = cube.triangles.copy()
        tris[0, 1] = tris[0, 0]
        with pytest.raises(InvalidMesh):
            HullMesh(cube.vertices, tris)

    def test_empty_mesh_rejected(self):
        with pytest.raises(EmptyMesh):
            HullMesh(np.zeros((3, 3)), np.zeros((0, 3), dtype=int))

    def test_vertices_immutable(self, cube):
        with pytest.raises(ValueError):
            cube.vertices[0, 0] = 9.9


class TestVolumeIntegrals:
    def test_cube_second_moments(self, cube):
        volume, first, second = cube.volume_integrals()
        assert volume == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(first, np.zeros(3), atol=1e-15)
        np.testing.assert_allclose(second, np.eye(3) / 12.0, atol=1e-15)

    def test_translated_box_against_parallel_axis(self):
        offset = np.array([0.7, -0.4, 1.1])
        mesh = shapes.box(1.0, 1.0, 1.0, center=offset)
        volume, first, second = mesh.volume_integrals()
        assert volume == pytest.approx(1.0, rel=1e-14)
        np.testing.assert_allclose(first / volume, offset, atol=1e-14)
        np.testing.assert_allclose(
            second, np.eye(3) / 12.0 + np.outer(offset, offset), atol=1e-13
        )


class TestInertiaFromMesh:
    def test_unit_cube_density_one(self, cube):
        mass, inertia = inertia_from_mesh(cube, 1.0)
        assert mass == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(inertia, np.eye(3) / 6.0, atol=1e-15)

    def test_box_formula(self):
        mesh = shapes.box(2.0, 1.0, 0.5)
        mass, inertia = inertia_from_mesh(mesh, 500.0)
        assert mass == pytest.approx(500.0, rel=1e-13)
        expected = mass / 12.0 * np.diag(
            [1.0**2 + 0.5**2, 2.0**2 + 0.5**2, 2.0**2 + 1.0**2]
        )
        np.testing.assert_allclose(inertia, expected, rtol=1e-13)

    def test_scaling_laws(self, cube):
        s = 2.5
        scaled = HullMesh(cube.vertices * s, cube.triangles)
        m0, i0 = inertia_from_mesh(cube, 1.0)
        m1, i1 = inertia_from_mesh(scaled, 1.0)
        assert m1 == pytest.approx(m0 * s**3, rel=1e-13)
        np.testing.assert_allclose(i1, i0 * s**5, rtol=1e-13)

    def test_offset_mesh_reports_centroidal_inertia(self):
        centered = shapes.box(1.2, 0.8, 0.6)
        moved = shapes.box(1.2, 0.8, 0.6, center=(3.0, -2.0, 1.0))
        _, i0 = inertia_from_mesh(centered, 7.0)
        _, i1 = inertia_from_mesh(moved, 7.0)
        np.testing.assert_allclose(i1, i0, rtol=1e-10, atol=1e-12)

    def test_positive_density_required(self, cube):
        with pytest.raises(ValueError):
            inertia_from_mesh(cube, 0.0)


class TestContainsPoints:
    def test_cube_points(self, cube, rng):
        pts = rng.uniform(-0.8, 0.8, size=(2000, 3))
        inside = contains_points(cube, pts)
        expected = np.all(np.abs(pts) < 0.5, axis=1)
        assert np.array_equal(inside, expected)

    def test_nonconvex_prism(self, l_prism, rng):
        pts = rng.uniform(l_prism.bbox[0] - 0.1, l_prism.bbox[1] + 0.1, size=(5000, 3))
        inside = contains_points(l_prism, pts)
        # volume estimate from containment must agree with the exact volume
        box_vol = np.prod(l_prism.bbox[1] - l_prism.bbox[0] + 0.2)
        estimate = box_vol * inside.mean()
        sigma = box_vol * np.sqrt(inside.mean() * (1 - inside.mean()) / len(pts))
        assert abs(estimate - l_prism.volume) < 4 * sigma


class TestFileIO:
    def test_binary_stl_round_trip(self, tmp_path, l_prism):
        path = tmp_path / "prism.stl"
        save_stl(path, l_prism)
        back = load_stl(path)
        assert back.volume == pytest.approx(l_prism.volume, rel=1e-6)
        assert len(back.triangles) == len(l_prism.triangles)

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e-7, 1e-4, 1e3, 1e6])
    def test_binary_stl_round_trip_at_any_scale(self, tmp_path, barge, scale):
        # the zero-area cut was 1e-14 m^2 below 1 m: it dropped triangles
        # of a hull under about 1e-7 m, or all of them
        path = tmp_path / "barge.stl"
        save_stl(path, HullMesh(barge.vertices * scale, barge.triangles))
        back = load_stl(path)
        assert len(back.triangles) == len(barge.triangles)
        assert back.volume == pytest.approx(barge.volume * scale**3, rel=1e-6)

    def test_ascii_stl_round_trip(self, tmp_path):
        path = tmp_path / "cube.stl"
        # the reader takes the winding from the vertex order, not the normal
        path.write_text("\n".join(cube_stl()) + "\n")
        back = load_stl(path)
        assert back.volume == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("size", [686, 674], ids=["padded", "cut-short"])
    def test_misfit_binary_stl_names_the_sizes(self, tmp_path, barge, size):
        path = tmp_path / "barge.stl"
        save_stl(path, barge)
        assert path.stat().st_size == 684 and len(load_stl(path).triangles) == 12
        # two padding bytes, or cut short by ten: no guess at what was meant
        with open(path, "r+b") as stl:
            stl.truncate(size)
        with pytest.raises(InvalidMesh, match=f"header counts 12 triangles, which need "
                                              f"684 bytes, but the file has {size}$"):
            load_stl(path)

    def test_short_file_without_facets_is_empty(self, tmp_path):
        # an STL under the 84 bytes of a binary header leaves only the ASCII
        # reading; the OBJ holds a vertex and no face
        for name, data, message in EMPTY_MESHES.values():
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(EmptyMesh, match=f"^{re.escape(f'{path}: {message}')}$") as caught:
                load_mesh(path)
            assert type(caught.value) is EmptyMesh

    def test_obj_load_with_quads(self, tmp_path):
        path = tmp_path / "cube.obj"
        path.write_text("\n".join(CUBE_OBJ) + "\n")
        mesh = load_obj(path)
        assert mesh.volume == pytest.approx(1.0, rel=1e-12)

    def test_obj_negative_indices(self, tmp_path):
        lines = ["v 0 0 0", "v 1 0 0", "v 0 1 0", "v 0 0 1",
                 "f -4 -2 -3", "f -4 -3 -1", "f -4 -1 -2", "f -3 -2 -1"]
        path = tmp_path / "tet.obj"
        path.write_text("\n".join(lines) + "\n")
        mesh = load_obj(path)
        assert mesh.volume == pytest.approx(1.0 / 6.0, rel=1e-12)

    @pytest.mark.parametrize(
        "name, lines, line",
        [
            ("short.obj", ["v 0 0 0", "v 1 0", "v 0 1 0", "f 1 2 3"], 2),
            ("letter.obj", ["v 0 0 0", "v 1 0 0", "v 0 1 0", "f 1 2 x"], 4),
            ("short.stl", ["solid s", "facet normal 0 0 1", "outer loop", "vertex 0 0 0",
                           "vertex 0 0", "vertex 0 1 0", "endloop", "endfacet", "endsolid s"], 5),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, name, lines, line):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidMesh, match=rf"{name}, line {line}: "):
            load_mesh(path)

    @pytest.mark.parametrize("name, lines, line, message", MALFORMED_RECORDS.values(),
                             ids=MALFORMED_RECORDS)
    def test_malformed_cube_names_file_line_and_fault(self, tmp_path, name, lines, line,
                                                      message):
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidMesh) as raised:
            load_mesh(path)
        assert str(raised.value) == f"{path}, line {line}: {message}"

    @pytest.mark.parametrize("name, data, error, place, message", UNSOUND_MESHES.values(),
                             ids=UNSOUND_MESHES)
    def test_unsound_faces_name_file_and_face(self, tmp_path, name, data, error, place,
                                              message):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(InvalidMesh) as raised:
            load_mesh(path)
        assert type(raised.value) is error
        assert str(raised.value) == f"{path}, {place}: {message}"

    def test_load_mesh_dispatch_and_unknown_extension(self, tmp_path, cube):
        path = tmp_path / "cube.stl"
        save_stl(path, cube)
        assert load_mesh(path).volume == pytest.approx(1.0, rel=1e-6)
        with pytest.raises(InvalidMesh):
            load_mesh(tmp_path / "cube.step")

    def test_exported_clipped_solid_is_readable(self, tmp_path, cube):
        solid = fd.clip_by_waterplane(cube, fd.Pose(zeta=0.1, theta=0.2))
        path = tmp_path / "clip.stl"
        save_stl(path, solid.boundary_triangles())
        raw = path.read_bytes()
        import struct

        (count,) = struct.unpack_from("<I", raw, 80)
        soup = _parse_stl_binary(raw, count)
        volume, _ = fd.volume_and_first_moments(fd.SubmergedSolid(soup))
        exact, _ = fd.volume_and_first_moments(solid)
        assert volume == pytest.approx(exact, rel=1e-5)


class TestSaveStl:
    """``save_stl`` writes the bytes of the per-facet ``struct.pack``
    encoder, and reading them back gives the float32-rounded corners."""

    @staticmethod
    def triangle_sets(barge, l_prism):
        solid = fd.clip_by_waterplane(barge, fd.Pose(zeta=0.1))
        return {
            "barge": barge.triangle_vertices,
            "l_prism": l_prism.triangle_vertices,
            "clip": solid.boundary_triangles(),
            "empty": np.zeros((0, 3, 3)),
            "random": np.random.default_rng(38).normal(size=(1000, 3, 3)),
        }

    def test_bytes_of_the_packed_encoder(self, tmp_path, barge, l_prism):
        for case, triangles in self.triangle_sets(barge, l_prism).items():
            path = tmp_path / f"{case}.stl"
            save_stl(path, triangles)
            assert path.read_bytes() == packed_stl(triangles), case

    def test_reads_back_the_float32_corners(self, tmp_path, barge, l_prism):
        sets = self.triangle_sets(barge, l_prism)
        areas = np.linalg.norm(np.cross(sets["clip"][:, 1] - sets["clip"][:, 0],
                                        sets["clip"][:, 2] - sets["clip"][:, 0]), axis=1)
        # two cap fan triangles span collinear waterline points
        assert (areas == 0.0).sum() == 2 and len(areas) == 20
        for case, triangles in sets.items():
            path = tmp_path / f"{case}.stl"
            save_stl(path, triangles)
            raw = path.read_bytes()
            kept = triangles[areas > 0.0] if case == "clip" else triangles
            expected = kept.astype(np.float32).astype(float)
            assert np.array_equal(_parse_stl_binary(raw, (len(raw) - 84) // 50), expected)
            if case in ("barge", "l_prism"):
                back = load_stl(path)
                assert np.array_equal(np.sort(back.triangle_vertices.reshape(-1, 3), axis=0),
                                      np.sort(expected.reshape(-1, 3), axis=0))

    def test_coordinate_past_float32_raises(self, tmp_path, barge):
        path = tmp_path / "far.stl"
        triangles = barge.triangle_vertices * 1e39
        assert np.all(np.isfinite(triangles))
        with pytest.raises(ArithmeticError):
            save_stl(path, triangles)
        assert not path.exists()
