import math
import threading
import warnings

import numpy as np
import pytest

from creasegeom import (
    CreaseSpec,
    GoreSphereSpec,
    MudguardSpec,
    ParameterError,
    ResolutionError,
    TriMesh,
    TubeSpec,
    gen_curved_crease,
    gen_cylinder,
    gen_gore_sphere,
    gen_mudguard,
    gen_twisted_patch,
    gen_twisted_prismatic_tube,
    angle_defect,
    mudguard_surface,
    tube_spec_for_strips,
)
from creasegeom import curvature, surfaces


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
    bad = TubeSpec(a=1.0, alpha=0.4, h=2 * math.pi * math.cos(0.4) / 8.45)
    with pytest.warns(UserWarning, match="adjusted"):
        gen_cylinder(bad, 16, 4)


def test_tube_closes_and_is_ruled():
    mesh = gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 32, 6)
    mesh.validate()
    # closed in the hoop direction, open at the two helical ends
    assert mesh.validate()[2].sum() > 0
    assert len(mesh.crease_polylines) == 12
    # crease vertices sit on the cylinder, strip interiors strictly inside
    crease = np.zeros(mesh.num_vertices, dtype=bool)
    crease[np.concatenate(list(mesh.crease_polylines.values()))] = True
    radii = np.linalg.norm(mesh.vertices[:, :2], axis=1)
    assert radii[crease] == pytest.approx(np.full(crease.sum(), 1.0), abs=1e-12)
    assert (radii[~crease] < 1.0 - 1e-9).all()


def test_tube_axial_strips():
    # alpha = 0: straight prismatic tube, no helical shift
    mesh = gen_twisted_prismatic_tube(1.0, 0.0, 8, 16, 4)
    mesh.validate()


def test_cylinder_refuses_hoop_lines_before_adjusting_spacing():
    # TubeSpec accepts alpha = pi/2; the cylinder refuses it before the hoop
    # spacing (2*pi*a*cos(alpha), about 4e-16) would warn about its adjustment
    with pytest.raises(ParameterError, match="alpha = pi/2"):
        gen_cylinder(TubeSpec(1.0, math.pi / 2, 0.1), 8, 4)


def test_helical_band_rejects_hoop_lines_and_low_res():
    with pytest.raises(ResolutionError):
        gen_twisted_prismatic_tube(1.0, math.pi / 4, 8, 2, 6)
    # the tube checks its arguments as tube_spec_for_strips does
    with pytest.raises(ParameterError, match="hoop-aligned creases"):
        gen_twisted_prismatic_tube(1.0, math.pi / 2, 8, 16, 4)
    with pytest.raises(ParameterError, match="n_strips must be >= 3, got 2"):
        gen_twisted_prismatic_tube(1.0, math.pi / 4, 2, 16, 4)


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


def test_twisted_patch_fold_is_rigid():
    # each half turns rigidly about the crease, so the folded twisted patch
    # has the triangles, edge lengths and intrinsic angle defects of the flat one
    flat, folded = (gen_twisted_patch(0.1, 1.0, 1.0, mu, 16, 16) for mu in (0.0, 0.2))
    assert np.array_equal(flat.triangles, folded.triangles)
    edges = [np.linalg.norm(m.vertices[m.triangles] - m.vertices[np.roll(m.triangles, 1, axis=1)],
                            axis=2) for m in (flat, folded)]
    assert edges[1] == pytest.approx(edges[0], rel=1e-13, abs=0)
    assert angle_defect(folded).total_defect == pytest.approx(
        angle_defect(flat).total_defect, rel=1e-9)


def test_strongly_twisted_patch_raises_no_warning():
    # -kxy^2 is the pointwise K at the patch centre at every twist
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gen_twisted_patch(0.5, 1.0, 1.0, 0.0, 8, 8)


def test_twisted_patch_surface_matches_mesh():
    # unfolded, every vertex lies on z = kxy * x * y
    x, y, z = gen_twisted_patch(0.2, 1.0, 1.0, 0.0, 8, 8).vertices.T
    assert z == pytest.approx(0.2 * x * y, rel=1e-15, abs=0)


def test_twisted_patch_rejects_bad_params():
    with pytest.raises(ParameterError):
        gen_twisted_patch(0.1, -1.0, 1.0, 0.0, 8, 8)
    with pytest.raises(ParameterError):
        gen_twisted_patch(0.1, 1.0, 1.0, math.pi / 2, 8, 8)
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 1.0, 1.0), (0.1, bad, 1.0), (0.1, 1.0, bad)):
            with pytest.raises(ParameterError):
                gen_twisted_patch(*args, 0.0, 8, 8)


@pytest.mark.parametrize("build", [
    lambda L: gen_cylinder(TubeSpec(a=L, alpha=0.6, h=L / 10), 8, 4),
    lambda L: gen_twisted_prismatic_tube(L, 0.6, 6, 8, 4),
    lambda L: gen_twisted_patch(0.1 / L, L, L, 0.0, 8, 8),
    lambda L: gen_curved_crease(CreaseSpec(R=L, mu=0.2), L / 10, 8, 4),
    lambda L: gen_mudguard(MudguardSpec(R=L, r=L / 10, mu=0.2), 8, 4),
    lambda L: gen_gore_sphere(GoreSphereSpec(R=L, n=6), 8, 4),
], ids=["cylinder", "tube", "twisted-patch", "curved-crease", "mudguard", "gore-sphere"])
def test_generators_accept_max_length_and_refuse_more(build):
    angle_defect(build(curvature.MAX_LENGTH))  # no overflow inside the kernel either
    with pytest.raises(ParameterError, match="must be finite and at most 1e\\+50"):
        build(curvature.MAX_LENGTH * 10)


@pytest.mark.parametrize("build", [
    lambda L: gen_cylinder(TubeSpec(a=L, alpha=0.6, h=L / 10), 8, 4),
    lambda L: gen_twisted_prismatic_tube(L, 0.6, 6, 8, 4),
    lambda L: gen_twisted_patch(0.1 / L, L, L, 0.0, 8, 8),
    lambda L: gen_curved_crease(CreaseSpec(R=10 * L, mu=0.2), L, 8, 4),
    lambda L: gen_mudguard(MudguardSpec(R=10 * L, r=L, mu=0.2), 8, 4),
    lambda L: gen_gore_sphere(GoreSphereSpec(R=L, n=6), 8, 4),
], ids=["cylinder", "tube", "twisted-patch", "curved-crease", "mudguard", "gore-sphere"])
def test_generators_accept_min_length_and_refuse_less(build):
    angle_defect(build(curvature.MIN_LENGTH))  # nothing underflows inside the kernel
    with pytest.raises(ParameterError, match="must be at least 1e-50, got 1e-51"):
        build(curvature.MIN_LENGTH / 10)


def test_tiny_lengths_that_must_be_positive_are_refused_and_zero_height_is_not():
    with pytest.raises(ParameterError, match="strip width must be at least 1e-50"):
        gen_curved_crease(CreaseSpec(R=1.0, mu=0.2), 1e-60, 8, 4)
    with pytest.raises(ParameterError, match="arc radius r must be at least 1e-50"):
        gen_mudguard(MudguardSpec(R=1.0, r=1e-60, mu=0.2), 8, 4)
    with pytest.raises(ParameterError, match="patch side b_len must be at least 1e-50"):
        gen_twisted_patch(0.1, 1.0, 1e-300, 0.0, 8, 8)
    angle_defect(gen_twisted_patch(0.0, 1.0, 1.0, 0.0, 8, 8))  # corner height 0


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
        gen_curved_crease(CreaseSpec(R=math.inf, mu=0.3), 0.3, 16, 4)
    with pytest.raises(ParameterError, match="width"):
        gen_curved_crease(CreaseSpec(R=2.0, mu=0.3), 0.6, 16, 4)


# -- mudguard ----------------------------------------------------------------

def test_mudguard_closed_hoop():
    spec = MudguardSpec(R=2.0, r=0.1, mu=0.6)
    mesh = gen_mudguard(spec, 48, 8)
    field = angle_defect(mesh)
    assert field.euler_characteristic == 0  # annulus closed into a band
    boundary = field.boundary_mask
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


def test_mudguard_surface_equals_its_stacked_form():
    # the components are written into one preallocated array; each bit must
    # equal np.stack of the three products, on the Gauss map's broadcast axes,
    # on gen_mudguard's meshgrid, in its vertices and at a single point
    spec = MudguardSpec(R=10.0, r=0.1, mu=0.2)
    c = spec.R - spec.r / math.cos(spec.mu)

    def stacked(phi, eps):
        d = c + spec.r * np.cos(eps)
        return np.stack(
            np.broadcast_arrays(d * np.cos(phi), d * np.sin(phi), spec.r * np.sin(eps)),
            axis=-1,
        )

    fn = mudguard_surface(spec)
    nu, nv = 48, 8
    phi = np.linspace(0.0, 2 * math.pi, nu + 1)[:-1]
    eps = np.linspace(-spec.mu, spec.mu, nv + 1)
    P, E = np.meshgrid(phi, eps, indexing="ij")
    for args in ((phi[:, None], eps[None, :]), (P, E), (0.3, 0.1)):
        got, want = fn(*args), stacked(*args)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    assert np.array_equal(gen_mudguard(spec, nu, nv).vertices, stacked(P, E).reshape(-1, 3))


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
    field = angle_defect(mesh)
    assert not field.boundary_mask.any()
    assert field.euler_characteristic == 2
    assert signed_volume(mesh) > 0
    assert len(mesh.crease_polylines) == 8


def test_gore_sphere_seams_on_sphere_interiors_inside():
    spec = GoreSphereSpec(R=1.0, n=8)
    mesh = gen_gore_sphere(spec, 24, 4)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    seam = np.zeros(mesh.num_vertices, dtype=bool)
    seam[np.concatenate(list(mesh.crease_polylines.values()))] = True
    # seam vertices bulge to R/cos(pi/n) at the equator but stay >= R
    assert (radii[seam] >= 1.0 - 1e-12).all()
    assert radii[seam].max() == pytest.approx(1.0 / math.cos(math.pi / 8), rel=1e-6)
    assert (radii[~seam][2:] <= radii[seam].max()).all()


def test_gore_sphere_volume_approaches_sphere():
    v1 = signed_volume(gen_gore_sphere(GoreSphereSpec(R=1.0, n=16), 48, 4))
    assert v1 == pytest.approx(4 * math.pi / 3, rel=0.02)


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
    "tube": lambda: gen_twisted_prismatic_tube(1.0, 0.7, 7, 9, 4),
    "twisted-patch": lambda: gen_twisted_patch(0.1, 1.0, 1.0, 0.2, 7, 5),
    "curved-crease": lambda: gen_curved_crease(CreaseSpec(R=2.0, mu=0.5), 0.3, 9, 4),
    "mudguard": lambda: gen_mudguard(MudguardSpec(R=2.0, r=0.1, mu=0.6), 9, 4),
    "gore-sphere": lambda: gen_gore_sphere(GoreSphereSpec(R=1.0, n=5), 7, 3),
}


@pytest.mark.parametrize("shape", sorted(SIZED))
def test_size_check_counts_vertices_exactly(shape, monkeypatch):
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
    monkeypatch.setattr(surfaces, "np", NoArrays())
    with pytest.raises(ResolutionError, match="11500512000 vertices"):
        gen_twisted_prismatic_tube(1.0, 0.7, 12, 1_000_000, 1000)


# -- preallocating builders against the stacking ones they replaced ----------

def reference_grid_triangles(ids, pts, flip=False):
    """Both diagonal variants stacked, then chosen per cell."""
    v00 = ids[:-1, :-1].ravel()
    v10 = ids[1:, :-1].ravel()
    v01 = ids[:-1, 1:].ravel()
    v11 = ids[1:, 1:].ravel()
    p00 = pts[:-1, :-1].reshape(-1, 3)
    p10 = pts[1:, :-1].reshape(-1, 3)
    p01 = pts[:-1, 1:].reshape(-1, 3)
    p11 = pts[1:, 1:].reshape(-1, 3)
    d_main = np.linalg.norm(p00 - p11, axis=1)
    d_anti = np.linalg.norm(p10 - p01, axis=1)
    use_main = d_main <= d_anti
    t1 = np.where(use_main[:, None],
                  np.stack([v00, v10, v11], axis=1),
                  np.stack([v00, v10, v01], axis=1))
    t2 = np.where(use_main[:, None],
                  np.stack([v00, v11, v01], axis=1),
                  np.stack([v10, v11, v01], axis=1))
    tris = np.concatenate([t1, t2])
    if flip:
        tris = tris[:, ::-1]
    return tris


def reference_helical_band(a, alpha, n_strips, nu, nv, flatten):
    """The band built from per-strip lists that are concatenated at the end."""
    if nu < 3 or nv < 3:
        raise ResolutionError(f"nu and nv must be >= 3, got ({nu}, {nv})")
    nu += nu % 2
    h = 2 * math.pi * a * math.cos(alpha) / n_strips
    l_shift = 2 * math.pi * a * math.sin(alpha)
    if l_shift == 0.0:
        length, m = 2 * math.pi * a, 0
    else:
        length, m = 2.0 * l_shift, nu // 2
    surfaces._check_size(n_strips * (nu + 1) * nv - m * (nv - 1))
    xhat = np.array([math.sin(alpha), math.cos(alpha)])
    yhat = np.array([math.cos(alpha), -math.sin(alpha)])
    x = np.linspace(0.0, length, nu + 1)

    def wrap(dev):
        s, z = dev[..., 0], dev[..., 1]
        return np.stack([a * np.cos(s / a), a * np.sin(s / a), z], axis=-1)

    n_line = nu + 1
    line_pts = np.empty((n_strips, n_line, 3))
    for j in range(n_strips):
        dev = j * h * yhat[None, :] + x[:, None] * xhat[None, :]
        line_pts[j] = wrap(dev)
    verts = [line_pts.reshape(-1, 3)]
    offset = n_strips * n_line
    tris = []
    for j in range(n_strips):
        jn = (j + 1) % n_strips
        shift = m if j == n_strips - 1 else 0
        i = np.arange(shift, nu + 1)
        ids = np.empty((len(i), nv + 1), dtype=np.int32)
        ids[:, 0] = j * n_line + i
        ids[:, nv] = jn * n_line + (i - shift)
        n_int = (len(i)) * (nv - 1)
        ids[:, 1:nv] = offset + np.arange(n_int).reshape(len(i), nv - 1)
        offset += n_int
        t = (np.arange(1, nv) / nv)[None, :, None]
        p0 = line_pts[j, i][:, None, :]
        p1 = line_pts[jn, i - shift][:, None, :]
        if flatten:
            interior = (1.0 - t) * p0 + t * p1
        else:
            dev = (
                (j * h + np.arange(1, nv) / nv * h)[None, :, None] * yhat[None, None, :]
                + x[i][:, None, None] * xhat[None, None, :]
            )
            interior = wrap(dev)
        verts.append(interior.reshape(-1, 3))
        grid = np.empty((len(i), nv + 1, 3))
        grid[:, 0] = p0[:, 0]
        grid[:, nv] = p1[:, 0]
        grid[:, 1:nv] = interior
        tris.append(reference_grid_triangles(ids, grid, flip=True))
    polylines = {j + 1: np.arange(j * n_line, (j + 1) * n_line) for j in range(n_strips)}
    return TriMesh(np.concatenate(verts), np.concatenate(tris), polylines)


def reference_gore_sphere(spec, nu, nv):
    """The gore sphere built from per-gore lists that are concatenated."""
    R, n = spec.R, spec.n
    beta = math.pi / n
    theta = np.linspace(-math.pi / 2, math.pi / 2, nu + 1)[1:-1]
    ni = len(theta)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    verts = [np.array([[0.0, 0.0, -R], [0.0, 0.0, R]])]
    for j in range(n):
        phi_j = 2 * math.pi * j / n
        rho = R * cos_t / math.cos(beta)
        verts.append(
            np.stack([rho * math.cos(phi_j), rho * math.sin(phi_j), R * sin_t], axis=-1)
        )
    offset = 2 + n * ni
    tris = []
    interior_cols = nv - 1
    for j in range(n):
        phi_c = 2 * math.pi * (j + 0.5) / n
        e1 = np.array([math.cos(phi_c), math.sin(phi_c), 0.0])
        u = np.array([-math.sin(phi_c), math.cos(phi_c), 0.0])
        f = (2.0 * np.arange(1, nv) / nv - 1.0)
        w = f[None, :] * (R * cos_t * math.tan(beta))[:, None]
        interior = (
            (R * cos_t)[:, None, None] * e1
            + w[:, :, None] * u
            + (R * sin_t)[:, None, None] * np.array([0.0, 0.0, 1.0])
        )
        verts.append(interior.reshape(-1, 3))
        ids = np.empty((ni, nv + 1), dtype=np.int32)
        ids[:, 0] = 2 + j * ni + np.arange(ni)
        ids[:, nv] = 2 + ((j + 1) % n) * ni + np.arange(ni)
        ids[:, 1:nv] = offset + np.arange(ni * interior_cols).reshape(ni, interior_cols)
        offset += ni * interior_cols
        grid = np.empty((ni, nv + 1, 3))
        grid[:, 0] = verts[1 + j]
        grid[:, nv] = verts[1 + (j + 1) % n]
        grid[:, 1:nv] = interior
        tris.append(reference_grid_triangles(ids, grid, flip=True))
        tris.append(np.stack([np.zeros(nv, np.int32), ids[0, 1:], ids[0, :-1]], axis=1))
        tris.append(np.stack([np.ones(nv, np.int32), ids[-1, :-1], ids[-1, 1:]], axis=1))
    polylines = {j + 1: 2 + j * ni + np.arange(ni) for j in range(n)}
    return TriMesh(np.concatenate(verts), np.concatenate(tris), polylines)

@pytest.mark.parametrize("shape", sorted(SIZED))
def test_generators_index_in_int32_as_int64_would(shape):
    mesh = SIZED[shape]()
    assert mesh.triangles.dtype == np.int32
    wide = TriMesh(mesh.vertices, mesh.triangles.astype(np.int64), mesh.crease_polylines)
    assert wide.triangles.dtype == np.int64
    got, want = angle_defect(mesh), angle_defect(wide)
    for name in ("defect", "lumped_area", "boundary_mask", "crease_mask"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert got.euler_characteristic == want.euler_characteristic
    assert got.crease_totals == want.crease_totals
    assert got.crease_rates == want.crease_rates
    assert got.crease_lengths == want.crease_lengths


BUILT = {  # called through surfaces, so that the references can stand in
    **SIZED,
    "gore-sphere": lambda: surfaces.gen_gore_sphere(GoreSphereSpec(R=1.0, n=5), 7, 3),
    "gore-sphere-8": lambda: surfaces.gen_gore_sphere(GoreSphereSpec(R=2.0, n=8), 24, 4),
    "cylinder-8-lines": lambda: gen_cylinder(tube_spec_for_strips(1.0, math.pi / 4, 8), 32, 6),
    "tube-12-strips-64": lambda: gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 64, 64),
}


@pytest.mark.parametrize("shape", sorted(BUILT))
def test_generators_match_stacking_reference(shape, monkeypatch):
    mesh = BUILT[shape]()
    monkeypatch.setattr(surfaces, "_grid_triangles", reference_grid_triangles)
    monkeypatch.setattr(surfaces, "_helical_band", reference_helical_band)
    monkeypatch.setattr(surfaces, "gen_gore_sphere", reference_gore_sphere)
    ref = BUILT[shape]()
    for name in ("vertices", "triangles"):
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert mesh.crease_polylines.keys() == ref.crease_polylines.keys()
    for cid, chain in ref.crease_polylines.items():
        assert np.array_equal(mesh.crease_polylines[cid], chain)


@pytest.mark.parametrize("flip", [False, True])
def test_grid_triangles_matches_reference_on_ties(flip):
    ids = np.arange(30).reshape(5, 6)
    u, v = np.meshgrid(np.arange(5.0), np.arange(6.0), indexing="ij")
    square = np.stack([u, v, np.zeros_like(u)], axis=-1)  # every cell's diagonals tie
    bent = square + np.random.default_rng(3).normal(scale=0.2, size=square.shape)
    for pts in (square, bent):
        got = surfaces._grid_triangles(ids, pts, flip)
        assert np.array_equal(got, reference_grid_triangles(ids, pts, flip))
    # a tie keeps the main diagonal: (v00, v10, v11), (v00, v11, v01)
    main = [[0, 6, 7], [0, 7, 1]]
    got = surfaces._grid_triangles(ids[:2, :2], square[:2, :2], flip).tolist()
    assert got == ([t[::-1] for t in main] if flip else main)


# -- the band's strips in blocks ---------------------------------------------

@pytest.mark.parametrize("strip_cells", [1, 5 * 64, 1 << 14])
@pytest.mark.parametrize("shape", ["cylinder-8-lines", "tube-12-strips-64"])
def test_band_in_blocks_matches_stacking_reference(shape, strip_cells, monkeypatch):
    monkeypatch.setattr(surfaces, "_STRIP_CELLS", strip_cells)  # 2, 5 or all rows a block
    mesh = BUILT[shape]()
    monkeypatch.setattr(surfaces, "_grid_triangles", reference_grid_triangles)
    monkeypatch.setattr(surfaces, "_helical_band", reference_helical_band)
    ref = BUILT[shape]()
    for name in ("vertices", "triangles"):
        assert np.array_equal(getattr(mesh, name), getattr(ref, name)), name
    assert mesh.crease_polylines.keys() == ref.crease_polylines.keys()
    for cid, chain in ref.crease_polylines.items():
        assert np.array_equal(mesh.crease_polylines[cid], chain)


def test_every_band_fills_its_strips_in_the_caller(monkeypatch):
    triangulate = surfaces._grid_triangles
    seen = set()

    def recorded(*args, **kwargs):
        seen.add(threading.current_thread())
        return triangulate(*args, **kwargs)

    monkeypatch.setattr(surfaces, "_grid_triangles", recorded)
    for shape in ("tube-12-strips-64", "cylinder-8-lines"):
        seen.clear()
        BUILT[shape]()
        assert seen == {threading.current_thread()}, shape


def test_strip_exception_propagates_and_leaves_no_thread(monkeypatch):
    def failing(*args, **kwargs):
        raise MemoryError("no room for a strip")

    monkeypatch.setattr(surfaces, "_grid_triangles", failing)
    before = threading.active_count()
    with pytest.raises(MemoryError, match="no room for a strip"):
        gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 24, 24)
    assert threading.active_count() == before
