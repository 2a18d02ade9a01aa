import math
import warnings

import numpy as np
import pytest

from creasegeom import (
    ClosureError,
    CreaseSpec,
    GoreSphereSpec,
    MudguardSpec,
    ParameterError,
    ResolutionError,
    ShallowRegimeWarning,
    TubeSpec,
    gen_curved_crease,
    gen_cylinder,
    gen_gore_sphere,
    gen_mudguard,
    gen_twisted_patch,
    gen_twisted_prismatic_tube,
    mudguard_surface,
    sphere_surface,
    tube_spec_for_strips,
    twisted_patch_surface,
)
from creasegeom import surfaces


def signed_volume(mesh):
    p = mesh.vertices[mesh.triangles]
    return float(np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2])).sum() / 6)


# -- cylinder / tube ---------------------------------------------------------

def test_cylinder_lies_on_cylinder():
    spec = tube_spec_for_strips(1.0, math.pi / 4, 8)
    mesh = gen_cylinder(spec, 32, 6)
    mesh.validate()
    radii = np.linalg.norm(mesh.vertices[:, :2], axis=1)
    assert radii == pytest.approx(np.full_like(radii, spec.a), abs=1e-12)
    assert len(mesh.crease_polylines) == 8


def test_cylinder_adjusts_spacing_with_warning():
    # h sits between 8 and 9 lines per hoop, so the spacing snaps by > 5%
    from creasegeom import TubeSpec
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShallowRegimeWarning)
        bad = TubeSpec(a=1.0, alpha=0.4, h=2 * math.pi * math.cos(0.4) / 8.45)
    with pytest.warns(ShallowRegimeWarning, match="adjusted"):
        gen_cylinder(bad, 16, 4)


def test_tube_closes_and_is_ruled():
    spec = tube_spec_for_strips(1.0, math.pi / 4, 12)
    mesh = gen_twisted_prismatic_tube(spec, 12, 32, 6)
    mesh.validate()
    # closed in the hoop direction, open at the two helical ends
    assert mesh.boundary_vertex_mask().sum() > 0
    assert len(mesh.crease_polylines) == 12
    # crease vertices sit on the cylinder, strip interiors strictly inside
    tags = mesh.vertex_tags
    radii = np.linalg.norm(mesh.vertices[:, :2], axis=1)
    assert radii[tags >= 1] == pytest.approx(np.full((tags >= 1).sum(), 1.0), abs=1e-12)
    assert (radii[tags == 0] < 1.0 - 1e-9).all()


def test_tube_rejects_mismatched_width():
    spec = tube_spec_for_strips(1.0, math.pi / 4, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShallowRegimeWarning)
        bad = type(spec)(a=spec.a, alpha=spec.alpha, h=spec.h * 1.01)
    with pytest.raises(ClosureError) as excinfo:
        gen_twisted_prismatic_tube(bad, 12, 32, 6)
    assert excinfo.value.gap != 0


def test_tube_axial_strips():
    # alpha = 0: straight prismatic tube, no helical shift
    spec = tube_spec_for_strips(1.0, 0.0, 8)
    mesh = gen_twisted_prismatic_tube(spec, 8, 16, 4)
    mesh.validate()


def test_helical_band_rejects_hoop_lines_and_low_res():
    spec = tube_spec_for_strips(1.0, math.pi / 4, 8)
    with pytest.raises(ResolutionError):
        gen_twisted_prismatic_tube(spec, 8, 2, 6)


# -- twisted patch -----------------------------------------------------------

def test_twisted_patch_flat_case():
    mesh = gen_twisted_patch(0.2, 1.0, 1.0, 0.0, 16, 16)
    mesh.validate()
    chain = mesh.crease_polylines[1]
    # the crease row is the x-axis: y = z = 0
    assert mesh.vertices[chain][:, 1:] == pytest.approx(
        np.zeros((len(chain), 2)), abs=1e-15
    )


def test_twisted_patch_fold_opens_dihedral():
    mu = 0.3
    mesh = gen_twisted_patch(0.0, 1.0, 1.0, mu, 8, 8)  # no twist: pure tent
    mesh.validate()
    up = mesh.vertices[:, 1] > 1e-12
    # off-crease rows drop below z = 0 by |y| tan(mu)
    assert mesh.vertices[up, 2] == pytest.approx(
        -mesh.vertices[up, 1] * math.tan(mu), rel=1e-12
    )


def test_twisted_patch_warns_outside_shallow_regime():
    with pytest.warns(ShallowRegimeWarning):
        gen_twisted_patch(0.5, 1.0, 1.0, 0.0, 8, 8)


def test_twisted_patch_surface_matches_mesh():
    fn = twisted_patch_surface(0.2)
    pts = fn(np.array([0.1, -0.3]), np.array([0.2, 0.4]))
    assert pts.shape == (2, 3)
    assert pts[0] == pytest.approx([0.1, 0.2, 0.2 * 0.1 * 0.2])


def test_twisted_patch_rejects_bad_params():
    with pytest.raises(ParameterError):
        gen_twisted_patch(0.1, -1.0, 1.0, 0.0, 8, 8)
    with pytest.raises(ParameterError):
        gen_twisted_patch(0.1, 1.0, 1.0, math.pi / 2, 8, 8)


# -- curved crease -----------------------------------------------------------

def test_curved_crease_geometry():
    spec = CreaseSpec(R=2.0, mu=0.5)
    mesh = gen_curved_crease(spec, 0.3, 32, 4)
    mesh.validate()
    chain = mesh.crease_polylines[1]
    radii = np.linalg.norm(mesh.vertices[chain][:, :2], axis=1)
    assert radii == pytest.approx(np.full(len(chain), 2.0), abs=1e-12)
    assert mesh.vertices[chain][:, 2] == pytest.approx(np.zeros(len(chain)), abs=1e-15)
    # the two strips are mirror images through z = 0
    assert abs(mesh.vertices[:, 2].sum()) < 1e-9


def test_curved_crease_mu_zero_is_smooth_band():
    mesh = gen_curved_crease(CreaseSpec(R=2.0, mu=0.0), 0.3, 32, 4)
    mesh.validate()
    # with no fold the rulings are vertical: a cylindrical band
    radii = np.linalg.norm(mesh.vertices[:, :2], axis=1)
    assert radii == pytest.approx(np.full_like(radii, 2.0), abs=1e-12)


def test_curved_crease_rejects_bad_params():
    with pytest.raises(ParameterError, match="finite"):
        gen_curved_crease(CreaseSpec.straight(mu=0.3), 0.3, 16, 4)
    with pytest.raises(ParameterError, match="width"):
        gen_curved_crease(CreaseSpec(R=2.0, mu=0.3), 0.6, 16, 4)


# -- mudguard ----------------------------------------------------------------

def test_mudguard_closed_hoop():
    spec = MudguardSpec(R=2.0, r=0.1, mu=0.6)
    mesh = gen_mudguard(spec, 48, 8)
    mesh.validate()
    assert mesh.euler_characteristic() == 0  # annulus closed into a band
    boundary = mesh.boundary_vertex_mask()
    # only the two arc-edge rows are boundary
    assert boundary.sum() == 2 * 48


def test_mudguard_surface_tangency():
    # at eps = +/- mu the transverse arc is tangent to the crease cone:
    # distance from the axis equals R and the slope matches sin(mu)
    spec = MudguardSpec(R=2.0, r=0.1, mu=0.6)
    fn = mudguard_surface(spec)
    edge = fn(0.0, spec.mu)
    rho = math.hypot(edge[0], edge[1])
    assert rho == pytest.approx(
        spec.R - spec.r * math.sin(spec.mu) * math.tan(spec.mu), rel=1e-12
    )
    assert edge[2] == pytest.approx(spec.r * math.sin(spec.mu), rel=1e-12)


def test_mudguard_outward_orientation():
    mesh = gen_mudguard(MudguardSpec(R=2.0, r=0.1, mu=0.6), 32, 6)
    p = mesh.vertices[mesh.triangles]
    n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    centroid = p.mean(axis=1)
    centroid[:, 2] = 0.0
    assert np.einsum("ij,ij->i", n, centroid).mean() > 0


# -- gore sphere -------------------------------------------------------------

def test_gore_sphere_watertight_outward():
    spec = GoreSphereSpec(R=1.0, n=8)
    mesh = gen_gore_sphere(spec, 24, 4)
    mesh.validate()
    assert not mesh.boundary_vertex_mask().any()
    assert mesh.euler_characteristic() == 2
    assert signed_volume(mesh) > 0
    assert len(mesh.crease_polylines) == 8


def test_gore_sphere_seams_on_sphere_interiors_inside():
    spec = GoreSphereSpec(R=1.0, n=8)
    mesh = gen_gore_sphere(spec, 24, 4)
    tags = mesh.vertex_tags
    radii = np.linalg.norm(mesh.vertices, axis=1)
    seam = tags >= 1
    # seam vertices bulge to R/cos(pi/n) at the equator but stay >= R
    assert (radii[seam] >= 1.0 - 1e-12).all()
    assert radii[seam].max() == pytest.approx(1.0 / math.cos(math.pi / 8), rel=1e-6)
    assert (radii[tags == 0][2:] <= radii[seam].max()).all()


def test_gore_sphere_volume_approaches_sphere():
    v1 = signed_volume(gen_gore_sphere(GoreSphereSpec(R=1.0, n=16), 48, 4))
    assert v1 == pytest.approx(4 * math.pi / 3, rel=0.02)


def test_sphere_surface_parametrisation():
    fn = sphere_surface(2.0)
    north = fn(0.3, math.pi / 2)
    assert north == pytest.approx([0.0, 0.0, 2.0], abs=1e-12)


def test_resolution_validation():
    with pytest.raises(ResolutionError):
        gen_gore_sphere(GoreSphereSpec(R=1.0, n=8), 3, 4)
    with pytest.raises(ResolutionError):
        gen_mudguard(MudguardSpec(R=2.0, r=0.1, mu=0.6), 48, 2)
    with pytest.raises(ResolutionError):
        gen_twisted_patch(0.1, 1.0, 1.0, 0.0, 2, 8)


def test_generators_deterministic():
    spec = GoreSphereSpec(R=1.0, n=6)
    m1 = gen_gore_sphere(spec, 16, 4)
    m2 = gen_gore_sphere(spec, 16, 4)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.triangles, m2.triangles)


def test_generators_share_seam_vertices_exactly():
    # adjacent gores reference the identical seam vertex ids, so the mesh is
    # watertight by construction, not by tolerance
    mesh = gen_gore_sphere(GoreSphereSpec(R=1.0, n=6), 16, 4)
    edges = np.sort(
        np.concatenate([
            mesh.triangles[:, [0, 1]],
            mesh.triangles[:, [1, 2]],
            mesh.triangles[:, [2, 0]],
        ]),
        axis=1,
    )
    _, counts = np.unique(edges, axis=0, return_counts=True)
    assert (counts == 2).all()


# -- resolution cap ------------------------------------------------------------

SIZED = {  # odd nu/nv where a generator rounds them up to even
    "cylinder": lambda: gen_cylinder(tube_spec_for_strips(1.0, 0.6, 7), 9, 5),
    "cylinder-alpha0": lambda: gen_cylinder(TubeSpec(a=1.0, alpha=0.0, h=0.7), 9, 5),
    "tube": lambda: gen_twisted_prismatic_tube(tube_spec_for_strips(1.0, 0.7, 7), 7, 9, 4),
    "twisted-patch": lambda: gen_twisted_patch(0.1, 1.0, 1.0, 0.2, 7, 5),
    "curved-crease": lambda: gen_curved_crease(CreaseSpec(R=2.0, mu=0.5), 0.3, 9, 4),
    "mudguard": lambda: gen_mudguard(MudguardSpec(R=2.0, r=0.1, mu=0.6), 9, 4),
    "gore-sphere": lambda: gen_gore_sphere(GoreSphereSpec(R=1.0, n=5), 7, 3),
}


@pytest.mark.parametrize("shape", sorted(SIZED))
def test_size_check_counts_vertices_exactly(shape, monkeypatch):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShallowRegimeWarning)
        count = SIZED[shape]().num_vertices
        monkeypatch.setattr(surfaces, "MAX_VERTICES", count)
        SIZED[shape]()
        monkeypatch.setattr(surfaces, "MAX_VERTICES", count - 1)
        with pytest.raises(ResolutionError, match=f"{count} vertices, over the limit"):
            SIZED[shape]()


class NoArrays:
    def __getattr__(self, name):
        raise AssertionError(f"np.{name} called before the size check")


def test_oversized_resolution_is_refused_before_any_array(monkeypatch):
    # generate tube --nu 1000000 --nv 1000 would allocate about 7.5 GiB; with
    # numpy taken away the generator can only fail at the check
    spec = tube_spec_for_strips(1.0, 0.7, 12)
    monkeypatch.setattr(surfaces, "np", NoArrays())
    with pytest.raises(ResolutionError, match="11500512000 vertices"):
        gen_twisted_prismatic_tube(spec, 12, 1_000_000, 1000)
