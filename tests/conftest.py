import numpy as np
import pytest

import floatdyn as fd
from floatdyn import shapes
from helpers import random_convex_mesh

RHO = 1000.0
G = 9.81


@pytest.fixture(scope="session")
def env():
    return fd.FluidEnvironment(rho=RHO, g=G)


@pytest.fixture(scope="session")
def cube():
    return shapes.unit_cube()


@pytest.fixture(scope="session")
def barge():
    """2 x 1 x 0.5 box; at half density it floats at draft 0.25."""
    return shapes.box(2.0, 1.0, 0.5)


@pytest.fixture(scope="session")
def small_barge(barge):
    """The barge at 1e-3 scale: fixed surge and sway shifts of metres
    once made the planar-invariance check fail it."""
    return fd.HullMesh(barge.vertices * 1e-3, barge.triangles)


@pytest.fixture(scope="session")
def barge_body(barge):
    mass, inertia = fd.inertia_from_mesh(barge, RHO / 2.0)
    return fd.BodyProperties(mass, inertia)


@pytest.fixture(scope="session")
def barge_equilibrium(barge, barge_body, env):
    return fd.find_equilibrium(barge, barge_body, env, initial=(0.1, 0.0, 0.0))


@pytest.fixture(scope="session")
def cube_body():
    mass = RHO / 2.0
    return fd.BodyProperties(mass, mass / 6.0 * np.eye(3))


@pytest.fixture(scope="session")
def wedge():
    """Apex-down triangular prism: strongly nonlinear heave stiffness."""
    return shapes.wedge(beam=2.0, depth=1.0, length=2.0)


@pytest.fixture(scope="session")
def wedge_body(wedge):
    mass, inertia = fd.inertia_from_mesh(wedge, 400.0)
    return fd.BodyProperties(mass, inertia)


@pytest.fixture(scope="session")
def l_prism():
    """Non-convex prism with seeded vertex jitter: the awkward test hull."""
    return shapes.l_prism(outer=(1.0, 1.0), notch=(0.5, 0.5), length=1.0,
                          jitter=0.02, seed=11)


@pytest.fixture(scope="session")
def convex_blob():
    # the hull triangulation needs SciPy; without it the cases on this
    # mesh skip and the rest of the module still runs
    pytest.importorskip("scipy")
    return random_convex_mesh(n_points=40, seed=7)


@pytest.fixture(scope="session")
def raked_prism(env):
    """Fore-aft asymmetric prism floating level with offset floating center.

    The bow is raked, so at the level equilibrium the waterplane centroid
    sits ahead of G even though the buoyancy center is exactly under it:
    the coupled heave-pitch stiffness entries are genuinely nonzero.
    Returns ``(mesh, equilibrium_pose, body)``.
    """
    section = np.array(
        [[-1.0, -0.3], [-1.0, 0.3], [0.7, 0.3], [1.2, -0.3]]
    )
    base = shapes.extrude_polygon(section, 1.0)
    zeta0 = 0.05
    solid = fd.clip_by_waterplane(base, fd.Pose(zeta=zeta0))
    volume, first = fd.volume_and_first_moments(solid)
    # a horizontal shift leaves the level clip unchanged, so one shot
    # puts the buoyancy center exactly under the origin
    mesh = base.translated([-first[0] / volume, 0.0, 0.0])
    mass = env.rho * volume
    _, inertia = fd.inertia_from_mesh(mesh, mass / mesh.volume)
    body = fd.BodyProperties(mass, inertia)
    return mesh, fd.Pose(zeta=zeta0), body


@pytest.fixture()
def rng():
    return np.random.default_rng(2024)
