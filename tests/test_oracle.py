import contextlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

from creasegeom import (
    CreaseSpec,
    GoreSphereSpec,
    MeshError,
    MudguardSpec,
    OrientationError,
    ParameterError,
    ResolutionError,
    TriMesh,
    angle_defect,
    crease_specific_curvature,
    gauss_map_integrate,
    gen_curved_crease,
    gen_cylinder,
    gen_gore_sphere,
    gen_mudguard,
    gen_twisted_patch,
    gen_twisted_prismatic_tube,
    mudguard_surface,
    oracle,
    surfaces,
    trimesh,
    tube_spec_for_strips,
)
from creasegeom import verify
from creasegeom.verify import CANONICAL_MUDGUARD

try:
    from hypothesis import assume, given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


# -- smooth surfaces for the Gauss map ---------------------------------------

def twisted_patch_surface(kxy):
    """Parametric map of the uncreased twisted surface z = kxy * x * y."""

    def fn(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return np.stack(np.broadcast_arrays(x, y, kxy * x * y), axis=-1)

    return fn


def sphere_surface(R):
    """Parametric map (phi, theta) of a smooth sphere, theta the elevation."""

    def fn(phi, theta):
        phi = np.asarray(phi, dtype=float)
        theta = np.asarray(theta, dtype=float)
        return np.stack(
            np.broadcast_arrays(
                R * np.cos(theta) * np.cos(phi),
                R * np.cos(theta) * np.sin(phi),
                R * np.sin(theta),
            ),
            axis=-1,
        )

    return fn


def test_sphere_surface_parametrisation():
    fn = sphere_surface(2.0)
    north = fn(0.3, math.pi / 2)
    assert north == pytest.approx([0.0, 0.0, 2.0], abs=1e-12)


# -- angle defect ------------------------------------------------------------

def test_flat_grid_has_zero_defect():
    mesh = gen_twisted_patch(0.0, 1.0, 1.0, 0.0, 8, 8)
    field = angle_defect(mesh)
    assert field.total_defect == pytest.approx(0.0, abs=1e-12)
    assert np.abs(field.defect[~field.boundary_mask]).max() < 1e-13


def test_cylinder_mesh_is_developable():
    spec = tube_spec_for_strips(1.0, math.pi / 4, 8)
    mesh = gen_cylinder(spec, 32, 6)
    field = angle_defect(mesh)
    assert field.total_defect == pytest.approx(0.0, abs=1e-10)
    for rate in field.crease_rates.values():
        assert rate == pytest.approx(0.0, abs=1e-12)


def test_lumped_area_covers_mesh():
    mesh = gen_twisted_patch(0.1, 1.0, 1.0, 0.0, 8, 8)
    field = angle_defect(mesh)
    p = mesh.vertices[mesh.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    assert field.lumped_area.sum() == pytest.approx(0.5 * np.linalg.norm(cross, axis=1).sum())


def test_curved_crease_rate_matches_law():
    spec = CreaseSpec(R=2.0, mu=0.5)
    mesh = gen_curved_crease(spec, 0.3, 96, 8)
    rate = angle_defect(mesh).crease_rates[1]
    assert rate == pytest.approx(crease_specific_curvature(spec), rel=1e-4)


def test_crease_rate_unknown_id():
    # one rate per crease polyline, none for an id the mesh does not carry
    mesh = gen_curved_crease(CreaseSpec(R=2.0, mu=0.5), 0.3, 16, 4)
    assert set(angle_defect(mesh).crease_rates) == set(mesh.crease_polylines) == {1}


def test_gore_sphere_gauss_bonnet():
    mesh = gen_gore_sphere(GoreSphereSpec(R=1.0, n=8), 32, 4)
    field = angle_defect(mesh)
    assert field.total_defect == pytest.approx(4 * math.pi, abs=1e-9)
    # each seam carries the crease law's 4*pi/n (1.1e-3 low at worst at
    # 32x4); the two poles almost none
    for j in range(1, 9):
        assert field.crease_totals[j] == pytest.approx(4 * math.pi / 8, rel=2e-3)
    assert abs(field.defect[0]) + abs(field.defect[1]) < 0.05


def test_mudguard_defect_against_band_integral():
    # interior vertices cover the arc up to half a cell from each rim, where
    # the exact band total is 4*pi*sin(eps_max)
    spec = MudguardSpec(R=2.0, r=0.1, mu=0.6)
    nv = 24
    mesh = gen_mudguard(spec, 96, nv)
    field = angle_defect(mesh)
    eps_max = spec.mu * (1 - 1.0 / nv)  # half a cell in from each rim
    expected = 4 * math.pi * math.sin(eps_max)
    assert field.total_defect == pytest.approx(expected, rel=2e-3)


def test_angle_defect_raises_on_bad_winding():
    mesh = gen_twisted_patch(0.1, 1.0, 1.0, 0.0, 8, 8)
    mesh.triangles[0] = mesh.triangles[0][::-1]
    with pytest.raises(OrientationError):
        angle_defect(mesh)


def test_angle_defect_rejects_non_finite_vertex():
    mesh = gen_twisted_patch(0.1, 1.0, 1.0, 0.0, 8, 8)
    mesh.vertices[40, 2] = np.nan
    with pytest.raises(MeshError, match="non-finite coordinates at vertex 40"):
        angle_defect(mesh)


def per_corner_defect(mesh):
    """Angle sums with one np.cross per corner, and lumped areas."""
    pts = mesh.vertices[mesh.triangles]
    angle_sum = np.zeros(mesh.num_vertices)
    for k in range(3):
        e1 = pts[:, (k + 1) % 3] - pts[:, k]
        e2 = pts[:, (k + 2) % 3] - pts[:, k]
        cross = np.linalg.norm(np.cross(e1, e2), axis=1)
        dot = np.einsum("ij,ij->i", e1, e2)
        angle_sum += np.bincount(
            mesh.triangles[:, k], weights=np.arctan2(cross, dot), minlength=mesh.num_vertices
        )
    area = 0.5 * np.linalg.norm(np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]), axis=1)
    lumped = np.bincount(
        mesh.triangles.ravel(), weights=np.repeat(area / 3, 3), minlength=mesh.num_vertices
    )
    return angle_sum, lumped


def test_angle_defect_matches_per_corner_reference():
    mesh = gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 48, 48)
    field = angle_defect(mesh)
    angle_sum, lumped = per_corner_defect(mesh)
    flat = np.where(field.boundary_mask, math.pi, 2 * math.pi)
    assert np.abs(field.defect - (flat - angle_sum)).max() <= 1e-14
    assert np.allclose(field.lumped_area, lumped, rtol=1e-14, atol=0)




def reference_kernel(mesh):
    """angle_defect's figures from per-triangle arrays: twice-areas and
    corner angles a block at a time, summed per vertex by one np.bincount per
    quantity over the corners in triangle order; boundary and edge count from
    np.unique of the undirected edges; exact sums by math.fsum."""
    nv, block = mesh.num_vertices, trimesh._BLOCK
    twice_area = np.empty(mesh.num_triangles)
    dots = np.empty((3, mesh.num_triangles))
    for s in range(0, mesh.num_triangles, block):
        idx = mesh.triangles[s:s + block].T
        x, y, z = (p[[1, 2, 0]] - p for p in (mesh.vertices[:, c][idx] for c in range(3)))
        nx = y[0] * z[1] - z[0] * y[1]
        ny = z[0] * x[1] - x[0] * z[1]
        nz = x[0] * y[1] - y[0] * x[1]
        twice_area[s:s + block] = np.sqrt(nx * nx + ny * ny + nz * nz)
        prev = [2, 0, 1]
        dots[:, s:s + block] = -(x * x[prev] + y * y[prev] + z * z[prev])
    angles = np.arctan2(twice_area, dots)
    corners = mesh.triangles.ravel()  # triangle order: t's corners 0, 1, 2, then t + 1's
    angle_sum = np.bincount(corners, weights=angles.T.ravel(), minlength=nv)
    lumped = np.bincount(corners, weights=np.repeat(twice_area / 6.0, 3), minlength=nv)

    t = mesh.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    boundary = np.zeros(nv, dtype=bool)
    boundary[uniq[counts == 1].ravel()] = True
    defect = np.where(boundary, math.pi, 2.0 * math.pi) - angle_sum
    totals, rates = {}, {}
    for cid, chain in mesh.crease_polylines.items():
        seg = np.linalg.norm(np.diff(mesh.vertices[chain], axis=0), axis=1)
        assoc = np.zeros(len(chain))
        assoc[:-1] += 0.5 * seg
        assoc[1:] += 0.5 * seg
        keep = ~boundary[chain]
        totals[cid] = math.fsum(defect[chain[keep]])
        rates[cid] = totals[cid] / float(assoc[keep].sum())
    return types.SimpleNamespace(
        defect=defect, lumped_area=lumped, boundary_mask=boundary,
        euler_characteristic=nv - len(uniq) + mesh.num_triangles,
        crease_totals=totals, crease_rates=rates, total_defect=math.fsum(defect[~boundary]))


SEVERAL_BLOCKS = {  # 2 to 7 kernel blocks each
    "cylinder": lambda: gen_cylinder(tube_spec_for_strips(1.0, math.pi / 4, 8), 96, 24),
    "tube": lambda: gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 48, 48),
    "twisted-patch": lambda: gen_twisted_patch(0.1, 1.0, 1.0, 0.2, 96, 96),
    "curved-crease": lambda: gen_curved_crease(CreaseSpec(R=2.0, mu=0.5), 0.3, 192, 48),
    "mudguard": lambda: gen_mudguard(MudguardSpec(R=2.0, r=0.1, mu=0.6), 192, 48),
    "gore-sphere": lambda: gen_gore_sphere(GoreSphereSpec(R=1.0, n=8), 96, 24),
}


@pytest.mark.parametrize("variant", ["generated", "shuffled", "unreferenced-vertex"])
@pytest.mark.parametrize("shape", sorted(SEVERAL_BLOCKS))
def test_angle_defect_equals_the_per_triangle_kernel_bit_for_bit(shape, variant):
    mesh = SEVERAL_BLOCKS[shape]()
    assert mesh.num_triangles > 2 * trimesh._BLOCK
    if variant == "shuffled":  # scattered vertex indices in every block
        order = np.random.default_rng(17).permutation(mesh.num_triangles)
        mesh.triangles = mesh.triangles[order]
    elif variant == "unreferenced-vertex":  # in no triangle: no angles, no area
        mesh.vertices = np.vstack([mesh.vertices, mesh.vertices.mean(axis=0)])
    field, ref = angle_defect(mesh), reference_kernel(mesh)
    for name in ("defect", "lumped_area", "boundary_mask"):
        assert np.array_equal(getattr(field, name), getattr(ref, name)), name
    assert field.euler_characteristic == ref.euler_characteristic
    assert field.crease_totals == ref.crease_totals
    assert field.crease_rates == ref.crease_rates
    assert field.total_defect == ref.total_defect
    if variant == "unreferenced-vertex":
        assert field.defect[-1] == 2 * math.pi and field.lumped_area[-1] == 0

# Traced peak of generating a 12-strip 128x128 tube (190,016 vertices) and
# taking its angle defect, per vertex: 103.0 B measured with numpy 2.4, where
# validate frees its edge keys before it allocates its two per-vertex sums
# (131.8 B, ceiling 145, when a second thread sorted the keys beside the sums;
# 164.1 B with six per-slot sums, 187.9 B with int64 triangles as well, 206.8
# B when validate also kept per-triangle areas and corner angles).  The
# ceiling leaves 10% for allocator and numpy-version differences.
PEAK_BYTES_PER_VERTEX = 114


def test_tube_generate_and_angle_defect_peak_memory():
    tracemalloc.start()
    try:
        mesh = gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 128, 128)
        angle_defect(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.num_vertices == 190_016
    assert peak / mesh.num_vertices < PEAK_BYTES_PER_VERTEX

# Traced peak of _vertex_sums' block pass on the same tube beyond its two
# per-vertex float64 sums: 2.30 MB of _BLOCK-sized temporaries measured with
# numpy 2.4 (8.44 MB with six per-slot sums, 6.08 MB of it the other four).
# The ceiling leaves 10%.
VERTEX_SUMS_BLOCK_BYTES = int(1.1 * 2.30e6)


def test_vertex_sums_hold_two_per_vertex_arrays():
    mesh = gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 128, 128)
    tracemalloc.start()
    try:
        angle_sum, lumped, _, _ = trimesh._vertex_sums(mesh.vertices, mesh.triangles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert angle_sum.nbytes + lumped.nbytes == 16 * mesh.num_vertices
    assert peak < 16 * mesh.num_vertices + VERTEX_SUMS_BLOCK_BYTES

# Growth of the peak resident set (VmHWM) over its post-import value when a
# fresh interpreter generates the 12-strip 256x256 tube (756,864 vertices)
# and takes its density, per vertex: 104.4 B in 3 runs with numpy 2.4 and
# glibc malloc, with validate on one thread, its edge keys freed before its
# two per-vertex sums (123.6-124.1 B, ceiling 136, with the keys sorted on a
# second thread; 155.9-156.3 B with six per-slot sums as well).  The ceiling
# leaves 10%.  VmHWM sees what tracemalloc does not, such as memory a
# thread's glibc arena keeps after numpy frees it.  ru_maxrss would not do:
# the child starts with its parent's, so under the whole test suite its
# growth read 0.
PEAK_RSS_BYTES_PER_VERTEX = 115

RSS_PROBE = """
import math
from creasegeom import angle_defect, gen_twisted_prismatic_tube
def peak_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
before = peak_rss()
mesh = gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 256, 256)
angle_defect(mesh).interior_defect_density()
after = peak_rss()
print(mesh.num_vertices, (after - before) * 1024)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="VmHWM is Linux's, in KiB")
def test_tube_generate_and_density_peak_rss_in_a_fresh_interpreter():
    env = dict(os.environ, PYTHONPATH=str(Path(oracle.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", RSS_PROBE], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    vertices, grown = map(int, proc.stdout.split())
    assert vertices == 756_864
    assert grown / vertices < PEAK_RSS_BYTES_PER_VERTEX

# Traced peak of run_suite("all"): 3.90 MB in 3 runs with numpy 2.4, set by
# the strip-curvature suite's 64x32 tube (23,968 vertices); twist
# independence's 64x16 tubes (12,000 vertices each) stay below it, and at
# 128x32 (47,552 each) they set it at 6.30 MB.  The ceiling leaves 10%.
VERIFY_ALL_PEAK_BYTES = int(1.1 * 3.90e6)


def test_verify_all_peak_memory():
    tracemalloc.start()
    try:
        reports = verify.run_suite("all")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 66 and all(r.passed for r in reports)
    assert peak < VERIFY_ALL_PEAK_BYTES


def test_verify_all_validates_at_most_60k_vertices(monkeypatch):
    # 57,579 over its 8 meshes; the twist tubes at 128x32 and the crease-law
    # rungs at nu = 64, 128 and 256 make it 145,091
    validate, counted = TriMesh.validate, []

    def counting(mesh):
        counted.append(mesh.num_vertices)
        return validate(mesh)

    monkeypatch.setattr(TriMesh, "validate", counting)
    assert len(verify.run_suite("all")) == 66
    assert 0 < sum(counted) <= 60_000


# -- exact defect sums -------------------------------------------------------

def fsum_outcome(total, values):
    """total(values).hex(), or the type of the error it raises."""
    try:
        return total(values).hex()
    except (ValueError, OverflowError) as exc:
        return type(exc)


GRID = 2.0 ** -50
GUARD_CASES = [
    [],
    [0.0, -0.0],
    [-0.0],
    [GRID, -GRID],
    [2.0 ** 11 - GRID] * 2,  # len * max just below 2**12: the int64 path
    [2.0 ** 11] * 2,  # at 2**12: math.fsum
    [2.0 ** 12 - GRID] * 3,  # its int64 sum would overflow
    [2.0 ** 11, -(2.0 ** 11) + GRID],
    [4095 * GRID, 2.0 ** 12 - GRID],
    [0.1, 0.2, 0.3],
    [1e300, 1e300, -1e300],
    [1.7e308, 1.7e308],  # fsum overflows
    [math.inf, 1.0],
    [math.inf, -math.inf],  # fsum's invalid sum
    [math.nan, GRID],
    [5e-324, GRID],
    [0.1, 0.7, -0.3, 1.0 / 3.0],  # off the grid: three limbs
    [1.0 / 3.0, -1.0 / 3.0 + 2.0 ** -60],  # cancels to a tiny total
    [math.pi, -math.pi, 1e-300],
    [1.0 + 2.0 ** -52, (1.0 + 2.0 ** -52) * 2.0 ** -67],  # 2**67 apart
    [1.0 + 2.0 ** -52, (1.0 + 2.0 ** -52) * 2.0 ** -131],  # past three limbs: fsum
    [1.0, 2.0 ** -200, -1.0],
    [2.0 ** 1000, -(2.0 ** 1000), 3.0],
    [5e-324, -1e-323, 2.5e-323],  # subnormals only
    [2.2250738585072014e-308, -4.9e-324],  # smallest normal and a subnormal
    [1e-310, 1e-310 * 3],
    [2.0 ** 62, 2.0 ** 62],
    [2.0 ** 200, 3.0 * 2.0 ** 150],
]


@pytest.mark.parametrize("values", GUARD_CASES)
def test_exact_sum_matches_fsum_on_guard_cases(values):
    values = np.array(values, dtype=float)
    assert fsum_outcome(oracle._exact_sum, values) == fsum_outcome(math.fsum, values)


if HAVE_HYPOTHESIS:
    ON_GRID = st.integers(-(2 ** 62), 2 ** 62).map(lambda n: n * GRID)
    SMALL_ON_GRID = st.integers(-(2 ** 53), 2 ** 53).map(lambda n: n * GRID)  # |x| <= 8

    OFF_GRID = st.floats(-1e6, 1e6)
    SUBNORMAL = st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(SMALL_ON_GRID, ON_GRID, OFF_GRID, SUBNORMAL, st.just(0.0),
                              st.just(-0.0), st.floats(), st.floats(min_value=1e300)),
                    max_size=60))
    def test_exact_sum_matches_fsum_bit_for_bit(values):
        values = np.array(values, dtype=float)
        assert fsum_outcome(oracle._exact_sum, values) == fsum_outcome(math.fsum, values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(OFF_GRID, SMALL_ON_GRID), min_size=1, max_size=40),
           st.one_of(st.floats(-1e-9, 1e-9), SUBNORMAL))
    def test_exact_sum_matches_fsum_when_terms_cancel(terms, residue):
        # the terms and their negations cancel exactly: the total is the residue
        values = np.array(terms + [residue] + [-x for x in reversed(terms)])
        assert fsum_outcome(oracle._exact_sum, values) == fsum_outcome(math.fsum, values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2 ** 50), 2 ** 50).map(lambda n: n * GRID),
                    min_size=1, max_size=200))
    def test_exact_sum_of_small_grid_values_takes_the_int64_path(values):
        values = np.array(values, dtype=float)
        expected = math.fsum(values)
        assume(expected != 0.0)  # a zero sum goes to fsum for its sign
        sums = oracle.math
        oracle.math = types.SimpleNamespace(fsum=None)
        try:
            got = oracle._exact_sum(values)
        finally:
            oracle.math = sums
        assert got.hex() == expected.hex()


def exact_sum_without_fsum(values):
    """oracle._exact_sum(values) with math.fsum stubbed: None where it falls
    back to fsum."""
    sums = oracle.math
    oracle.math = types.SimpleNamespace(fsum=lambda values: None)
    try:
        return oracle._exact_sum(values)
    finally:
        oracle.math = sums


@pytest.mark.parametrize("n", [2, 3, 4, 2 ** 16 - 1, 2 ** 16])
def test_exact_sum_window_is_three_limbs_of_the_length_s_width(n):
    # limbs hold 63 - n.bit_length() bits; 1 + 2**-52 has bits down to 2**-52
    # and is below 2**1, so a value 2**-k times it fits three limbs up to
    # k = 3 * width - 53
    width = 63 - n.bit_length()
    full = 1.0 + 2.0 ** -52
    for k, fits in ((3 * width - 53, True), (3 * width - 52, False)):
        values = np.zeros(n)
        values[0], values[-1] = full, -full * 2.0 ** -k
        got = exact_sum_without_fsum(values)
        assert (got is not None) == fits
        if fits:
            assert got.hex() == math.fsum(values).hex()


@pytest.mark.parametrize("n", [2 ** 17 - 1, 2 ** 17])
def test_exact_sum_limb_columns_at_the_width_limit(n):
    # 1 - 2**-53 needs two limbs whose top one is all ones: 2**17 - 1 of them
    # sum to just below 2**63 at width 46, and 2**17 get width 45
    for value in (1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53)):
        values = np.full(n, value)
        got = exact_sum_without_fsum(values)
        assert got is not None and got.hex() == math.fsum(values).hex()


def test_exact_sum_spans_slices():
    # three full slices and a short one of multiples of 2**-40 below 1: one
    # limb holds each while no slice has a value with lower bits
    rng = np.random.default_rng(7)
    n = 3 * oracle._BLOCK + 5
    values = rng.integers(-(2 ** 40), 2 ** 40, n) * 2.0 ** -40
    got = exact_sum_without_fsum(values)
    assert got is not None and got.hex() == math.fsum(values).hex()
    # 0.1 in the third slice fails one limb after two slices passed: two limbs
    values[2 * oracle._BLOCK + 7] = 0.1
    got = exact_sum_without_fsum(values)
    assert got is not None and got.hex() == math.fsum(values).hex()
    # 2**-200 in the last slice is past three limbs: math.fsum
    values[-1] = 2.0 ** -200
    assert exact_sum_without_fsum(values) is None
    assert oracle._exact_sum(values).hex() == math.fsum(values).hex()


SIX_SHAPES = {
    "cylinder": lambda: gen_cylinder(tube_spec_for_strips(1.0, math.pi / 4, 8), 32, 6),
    "tube": lambda: gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 48, 48),
    "twisted-patch": lambda: gen_twisted_patch(0.1, 1.0, 1.0, 0.2, 32, 32),
    "curved-crease": lambda: gen_curved_crease(CreaseSpec(R=2.0, mu=0.5), 0.3, 48, 8),
    "mudguard": lambda: gen_mudguard(MudguardSpec(R=2.0, r=0.1, mu=0.6), 48, 12),
    "gore-sphere": lambda: gen_gore_sphere(GoreSphereSpec(R=1.0, n=8), 32, 4),
}


@pytest.mark.parametrize("shape", sorted(SIX_SHAPES))
def test_defect_sums_equal_fsum(shape, monkeypatch):
    mesh = SIX_SHAPES[shape]()
    field = angle_defect(mesh)
    monkeypatch.setattr(oracle, "_exact_sum", math.fsum)
    ref = angle_defect(mesh)
    got = [field.total_defect, field.interior_defect_density(), *field.crease_rates.values(),
           *field.crease_totals.values()]
    want = [ref.total_defect, ref.interior_defect_density(), *ref.crease_rates.values(),
            *ref.crease_totals.values()]
    assert [x.hex() for x in got] == [x.hex() for x in want]


def test_tube_interior_defects_take_the_int64_path(monkeypatch):
    field = angle_defect(SIX_SHAPES["tube"]())
    interior = field.defect[~field.boundary_mask]
    assert np.array_equal(np.round(interior / GRID) * GRID, interior)  # on the 2**-50 grid
    expected = math.fsum(interior)
    monkeypatch.setattr(oracle, "math", types.SimpleNamespace(fsum=None))
    assert field.total_defect.hex() == expected.hex()


def test_twisted_patch_defect_vs_gauss_map():
    # same surface, two independent oracles
    kxy = 0.2
    mesh = gen_twisted_patch(kxy, 1.0, 1.0, 0.0, 64, 64)
    density = angle_defect(mesh).interior_defect_density()
    swept = gauss_map_integrate(
        twisted_patch_surface(kxy), (-0.5, 0.5, -0.5, 0.5), 64, 64
    )
    assert density == pytest.approx(swept.value, rel=0.02)
    assert swept.value < 0  # negative Gaussian curvature


# -- gauss map ---------------------------------------------------------------

def test_gauss_map_sphere_octant():
    swept = gauss_map_integrate(
        sphere_surface(1.0), (0.0, math.pi / 2, 0.0, math.pi / 2 - 1e-5), 32, 32
    )
    assert swept.value == pytest.approx(math.pi / 2, rel=1e-4)
    assert swept.converged


def test_gauss_map_full_sphere():
    delta = 1e-4
    swept = gauss_map_integrate(
        sphere_surface(1.0),
        (0.0, 2 * math.pi, -math.pi / 2 + delta, math.pi / 2 - delta),
        128, 128,
    )
    assert swept.value == pytest.approx(4 * math.pi, rel=1e-6)


def test_gauss_map_scale_invariant():
    # the normal image ignores the sphere radius
    small = gauss_map_integrate(sphere_surface(0.1), (0, 1, 0, 1), 16, 16)
    big = gauss_map_integrate(sphere_surface(10.0), (0, 1, 0, 1), 16, 16)
    assert small.value == pytest.approx(big.value, rel=1e-9)


def test_gauss_map_mudguard_matches_band():
    spec = MudguardSpec(R=2.0, r=0.1, mu=0.6)
    swept = gauss_map_integrate(
        mudguard_surface(spec), (0.0, 2 * math.pi, -spec.mu, spec.mu), 128, 64
    )
    assert swept.value == pytest.approx(4 * math.pi * math.sin(spec.mu), rel=2e-4)
    assert swept.converged


def test_gauss_map_patch_cell():
    # one cell of the twisted patch: area ~ K * cell area
    kxy = 0.1
    cell = gauss_map_integrate(
        twisted_patch_surface(kxy), (-0.05, 0.05, -0.05, 0.05), nu=4, nv=4
    ).value
    assert cell == pytest.approx(-kxy * kxy * 0.01, rel=1e-3)


def test_gauss_map_error_estimate_brackets_truth():
    swept = gauss_map_integrate(
        sphere_surface(1.0), (0.0, math.pi / 2, 0.0, 1.0), 32, 32
    )
    exact = (math.pi / 2) * math.sin(1.0)
    assert abs(swept.value - exact) <= 10 * swept.error_estimate + 1e-12
    assert abs(swept.extrapolated - exact) <= abs(swept.value - exact)


def nan_at_one_point(u, v):  # one point of the first block's u - hu plane
    return np.where(((u < 0.0) & (v == 0.0))[..., None], np.nan, sphere_surface(1.0)(u, v))


def huge_in_the_last_block(u, v):  # its tangents' cross products overflow to inf
    return sphere_surface(1.0)(u, v) * np.where(u > 0.9, 1e200, 1.0)[..., None]


@pytest.mark.parametrize("fn, blocks", [(nan_at_one_point, 1), (huge_in_the_last_block, 4)],
                         ids=["nan-first-block", "inf-later-block"])
def test_gauss_map_refuses_non_finite_normals(fn, blocks):
    calls = []

    def surface(u, v):
        calls.append(u)
        return fn(u, v)

    nv = oracle._BLOCK // 4  # blocks of 4 cell rows: 16 rows make 4
    overflow = (pytest.warns(RuntimeWarning, match="overflow") if blocks > 1
                else contextlib.nullcontext())
    with pytest.raises(ParameterError, match="degenerate surface normal"), overflow:
        gauss_map_integrate(surface, (0.0, 1.0, 0.0, 1.0), 16, nv)
    assert len(calls) == 4 * blocks  # four shifted point grids per block


def test_gauss_map_rejects_degenerate_and_bad_region():
    with pytest.raises(ParameterError):
        gauss_map_integrate(sphere_surface(1.0), (0.0, 1.0, 1.0, 0.5), 16, 16)
    flat = lambda u, v: np.stack(
        np.broadcast_arrays(np.asarray(u) * 0, np.asarray(u) * 0, np.asarray(v) * 0),
        axis=-1,
    )
    with pytest.raises(ParameterError, match="degenerate"):
        gauss_map_integrate(flat, (0.0, 1.0, 0.0, 1.0), 16, 16)


@pytest.mark.parametrize("surface, region", [
    (mudguard_surface(MudguardSpec(R=10.0, r=0.1, mu=0.2)), (0.0, 2 * math.pi, -0.2, 0.2)),
    (sphere_surface(1.0), (0.0, 2 * math.pi, -1.5, 1.5)),
    (twisted_patch_surface(0.2), (-0.5, 0.5, -0.5, 0.5)),
], ids=["mudguard", "sphere", "twisted-patch"])
def test_axis_normals_equal_meshgrid_normals(surface, region):
    u0, u1, v0, v1 = region
    u, v = np.linspace(u0, u1, 65), np.linspace(v0, v1, 33)
    hu, hv = 1e-5 * (u1 - u0), 1e-5 * (v1 - v0)
    U, V = np.meshgrid(u, v, indexing="ij")
    grid = oracle._normals(surface, U, V, hu, hv)
    axes = oracle._normals(surface, u[:, None], v[None, :], hu, hv)
    assert axes.shape == (3, 65, 33)
    assert np.array_equal(axes, grid)
    for i, j in ((0, 1), (0, 7), (7, 8), (8, 30), (31, 65)):  # rows i..j - 1 as a block
        assert np.array_equal(oracle._normals(surface, u[i:j, None], v[None, :], hu, hv),
                              axes[:, i:j])


def reference_gauss_map(fn, region, nu, nv):
    """gauss_map_integrate on (..., 3) vectors, and its fine, half and quarter
    cell grids: cross products component by component as np.cross computes
    them, np.linalg.norm, each triangle's four dots through einsum, and
    math.fsum over the cells.

    The planar kernel reproduces it bit for bit because on numpy 2.4
    einsum("...i,...i->...") sums a three-term dot as (p0 + p2) + p1 and
    np.linalg.norm sums the squares as (s0 + s1) + s2.  The kernel adds in
    those orders, so each edge's dot is the same in both of its triangles."""
    def cross(a, b):
        return np.stack([a[..., i] * b[..., j] - a[..., j] * b[..., i]
                         for i, j in ((1, 2), (2, 0), (0, 1))], axis=-1)

    def solid_angles(a, b, c):
        dot = lambda x, y: np.einsum("...i,...i->...", x, y)
        return 2.0 * np.arctan2(dot(a, cross(b, c)), 1.0 + dot(a, b) + dot(b, c) + dot(c, a))

    def swept(n):
        n00, n10, n11, n01 = n[:-1, :-1], n[1:, :-1], n[1:, 1:], n[:-1, 1:]
        cells.append((solid_angles(n00, n10, n11) + solid_angles(n00, n11, n01)).ravel())
        return math.fsum(cells[-1])

    cells = []

    u0, u1, v0, v1 = region
    nu, nv = nu + -nu % 4, nv + -nv % 4
    hu, hv = 1e-5 * (u1 - u0), 1e-5 * (v1 - v0)
    u = np.linspace(u0, u1, nu + 1)[:, None]
    v = np.linspace(v0, v1, nv + 1)[None, :]
    n = cross(fn(u + hu, v) - fn(u - hu, v), fn(u, v + hv) - fn(u, v - hv))
    n = n / np.linalg.norm(n, axis=-1, keepdims=True)
    fine, half, quarter = swept(n), swept(n[::2, ::2]), swept(n[::4, ::4])
    d1, d2 = fine - half, half - quarter
    converged = abs(d1) < 1e-13 * max(1.0, abs(fine)) or 2.0 <= abs(d2) / abs(d1) <= 8.0
    return oracle.GaussMapResult(fine, fine + d1 / 3.0, abs(d1) / 3.0, converged, nu, nv), cells


def result_bits(result):
    return [x.hex() if isinstance(x, float) else x for x in vars(result).values()]


GAUSS_MAP_SURFACES = {
    "sphere": (sphere_surface(1.0), (0.0, 2 * math.pi, -1.5, 1.5)),
    "mudguard": (mudguard_surface(MudguardSpec(**CANONICAL_MUDGUARD)),
                 (0.0, 2 * math.pi, -CANONICAL_MUDGUARD["mu"], CANONICAL_MUDGUARD["mu"])),
    "twisted-patch": (twisted_patch_surface(0.2), (-0.5, 0.5, -0.5, 0.5)),
}


# Fine-grid blocks are _BLOCK // nv cell rows: 32 at nv = 512, so nu = 100
# ends in a block of 4; 2 at nv = 6552, every block full; 1 at nv = 2**14;
# 5 at nv = 3276, so nu = 16 has blocks starting at odd rows and a last block
# of one row.  The last three start blocks between quarter rows, so their
# quarter cells are checked across two blocks.
BLOCK_EDGES = [(100, 512), (16, 6552), (8, 2 ** 14), (16, 3276)]

# The sphere's and the mudguard's rows go once round a circle.  With 4 or 8
# rows a quarter cell turns through 360 or 180 degrees, so the hemisphere
# check fails and every grid is tiled whole; with 12 the quarter grid anchors.
COARSE_FULL_CIRCLES = [(4, 4), (8, 8), (12, 12)]
FULL_CIRCLE_ANCHOR = {4: 1, 8: 1}


def rounding_bound(nu, nv):
    """How far a value built from the quarter tiling and the boundary strips
    may lie from the reference's full tiling.  Both round the exact sum of
    the same stored normals' triangles: the tilings' cells and the strips
    cancel exactly, since every cell of the anchor grid passed the
    hemisphere check.
    A triangle's 2 atan2(y, x) has x >= 3/4 on these grids (the smallest,
    0.77, is the 12^2 sphere band's quarter tiling), and rounding, with the
    normals' norms within 2u of 1 (u = 2**-53), moves y = a . b x c by at
    most (2/sqrt(3) + 4 + 6) u and x by at most 18 u + 24 u, so the triangle
    by at most 2 (|dy| + |y| |dx| / x) / x + 2 u |T| < 256 u.  So the bound
    is 128 eps for every triangle of the three tilings and the strips, plus
    4 ulp of 4 pi for the final roundings, doubled for extrapolated = fine
    + (fine - half) / 3.  (40-digit mpmath measured at most 0.23 u per
    triangle on 12^2 to 64^2 grids of these surfaces, and from 12^2 to
    512^2 value moved by at most 5.6e-15 and extrapolated by 6.7e-15.)"""
    triangles = 2 * (nu * nv + nu * nv // 4 + nu * nv // 16) + 8 * (nu + nv)
    return 2.0 * (128 * triangles * np.finfo(float).eps + 4.0 * np.spacing(4.0 * math.pi))


@pytest.mark.parametrize("nu, nv", [(30, 21), (64, 36), (33, 128), (256, 256), (512, 512),
                                    *BLOCK_EDGES, *COARSE_FULL_CIRCLES])
@pytest.mark.parametrize("surface", sorted(GAUSS_MAP_SURFACES))
def test_gauss_map_equals_the_vector_reference_bit_for_bit(surface, nu, nv, monkeypatch):
    # the tiled cells (the anchor stride's and every coarser stride's) reach
    # the exact sums bit for bit, and so do their values; the finer strides'
    # values add exactly summed strips to the anchor, and they and the
    # results agree with the reference within rounding_bound
    fn, region = GAUSS_MAP_SURFACES[surface]
    sums, exact_sum = [], oracle._exact_sum
    monkeypatch.setattr(oracle, "_exact_sum",
                        lambda values: sums.append((values, exact_sum(values))) or sums[-1][1])
    got = gauss_map_integrate(fn, region, nu, nv)
    want, want_cells = reference_gauss_map(fn, region, nu, nv)
    value, want_value = {}, dict(zip((1, 2, 4), want_cells))
    for t, (cells, total) in zip((4, 2, 1), sums, strict=True):
        if t >= got.anchor_stride:
            assert cells.tobytes() == want_value[t].tobytes()
            value[t] = total
        else:
            value[t] = value[got.anchor_stride] + total
        want_value[t] = math.fsum(want_value[t])
    bound = rounding_bound(want.nu, want.nv)
    for t in (1, 2, 4):
        if t >= got.anchor_stride:
            assert value[t].hex() == want_value[t].hex()
        assert abs(value[t] - want_value[t]) <= bound / 2
    assert value[1] == got.value
    for key in ("value", "extrapolated", "error_estimate"):
        assert abs(getattr(got, key) - getattr(want, key)) <= bound, key
    assert (got.converged, got.nu, got.nv) == (want.converged, want.nu, want.nv)
    full_circle = surface != "twisted-patch"
    assert got.anchor_stride == (FULL_CIRCLE_ANCHOR.get(nu, 4) if full_circle else 4)


@pytest.mark.parametrize("step", [1, 3, 5])
@pytest.mark.parametrize("n", [4, 8, 12])
def test_gauss_map_checks_cells_split_between_blocks(n, step, monkeypatch):
    # n rows by n + 8 columns in blocks of `step` rows: quarter cells straddle
    # blocks (and fail the check at n = 4 and 8, so every grid is tiled whole
    # in blocks too), and the results equal those of one block
    fn, region = GAUSS_MAP_SURFACES["sphere"]
    whole = gauss_map_integrate(fn, region, n, n + 8)
    monkeypatch.setattr(oracle, "_BLOCK", step * (n + 8))
    split = gauss_map_integrate(fn, region, n, n + 8)
    assert result_bits(split) == result_bits(whole)
    assert split.anchor_stride == FULL_CIRCLE_ANCHOR.get(n, 4)


@pytest.mark.parametrize("failing", ["left", "right", None])
@pytest.mark.parametrize("transpose", [False, True], ids=["column-rim", "row-rim"])
def test_hemisphere_check_reads_a_shared_rim_against_both_cells(transpose, failing):
    # two 4 x 4 cells side by side (or stacked) whose corner sums are
    # (2, 0, 2) and (0, 0, 4); one point of their shared rim has a negative
    # dot with the left cell's sum only, or the right cell's only
    def unit(*v):
        return np.array(v) / np.linalg.norm(v)

    n = np.empty((5, 9, 3))
    n[:, :4], n[:, 4:], n[:, 0] = unit(1, 0, 1), unit(0, 0, 1), unit(1, 0, 0)
    if failing:
        n[2, 4] = unit(-3, 0, 1) if failing == "left" else unit(3, 0, -1)
    planes = np.ascontiguousarray(np.moveaxis(n.transpose(1, 0, 2) if transpose else n, -1, 0))
    rows, cols = planes.shape[1] - 1, planes.shape[2] - 1
    ring, grid = oracle._ring_and_grid(lambda i, j: planes[:, i:j + 1], rows, cols)
    assert (ring is None, grid is None) == (bool(failing), bool(failing))


def test_block_edge_grids_split_as_described():
    steps = [oracle._BLOCK // nv for _, nv in BLOCK_EDGES]
    assert steps == [32, 2, 1, 5]
    assert [nu % step for (nu, _), step in zip(BLOCK_EDGES, steps)] == [4, 0, 0, 1]
    between = [any(i % 4 for i in range(0, nu, step)) for (nu, _), step in zip(BLOCK_EDGES, steps)]
    assert between == [False, True, True, True]


# Traced peak of a 512^2 Gauss map of the canonical mudguard, per point of
# its 513^2 grid: 9.59 B measured with numpy 2.4, where one pass forms the
# fine normals about 2**14 cells at a time and keeps only the boundary ring
# and the quarter grid, so block temporaries make most of it (20.6 B when
# the fine cells and the half grid were held; 26.2 B in blocks of 2**15;
# 96.0 B when the four point grids, both tangent grids and all fine normals
# were held at once).  The ceiling leaves 10%.
GAUSS_MAP_PEAK_BYTES_PER_POINT = 1.1 * 9.59


def test_gauss_map_peak_memory():
    fn, region = GAUSS_MAP_SURFACES["mudguard"]
    gauss_map_integrate(fn, region, 16, 16)  # numpy's first-call allocations
    tracemalloc.start()
    try:
        swept = gauss_map_integrate(fn, region, 512, 512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert swept.converged
    assert peak / 513 ** 2 < GAUSS_MAP_PEAK_BYTES_PER_POINT


def test_canonical_mudguard_cell_sums_take_the_int64_path(monkeypatch):
    fn, region = GAUSS_MAP_SURFACES["mudguard"]
    expected = result_bits(gauss_map_integrate(fn, region, 256, 256))
    monkeypatch.setattr(oracle, "math", types.SimpleNamespace(fsum=None, isfinite=math.isfinite))
    assert result_bits(gauss_map_integrate(fn, region, 256, 256)) == expected


def never_evaluated(u, v):
    pytest.fail("the surface was evaluated")


@pytest.mark.parametrize("region", [(0.0, math.inf, -0.2, 0.2), (-math.inf, 0.0, 0.0, 1.0),
                                    (0.0, 1.0, -1e308, 1e308)])
def test_gauss_map_rejects_a_non_finite_region(region):
    with pytest.raises(ParameterError, match=re.escape(str(region))):
        gauss_map_integrate(never_evaluated, region, 16, 16)


@pytest.mark.parametrize("bad", [16.0, True, np.float64(16.0), "16", None])
def test_gauss_map_rejects_a_non_integer_resolution(bad):
    for nu, nv in ((bad, 16), (16, bad)):
        with pytest.raises(ResolutionError, match="integers >= 4"):
            gauss_map_integrate(never_evaluated, (0.0, 1.0, 0.0, 1.0), nu, nv)


def test_gauss_map_takes_numpy_integer_resolutions():
    swept = gauss_map_integrate(sphere_surface(1.0), (0.0, 1.0, 0.0, 1.0), np.int64(17), np.int32(16))
    assert (type(swept.nu), swept.nu, type(swept.nv), swept.nv) == (int, 20, int, 16)


def test_gauss_map_refuses_a_grid_over_the_vertex_limit(monkeypatch):
    with pytest.raises(ResolutionError, match="over the limit"):
        gauss_map_integrate(never_evaluated, (0.0, 1.0, 0.0, 1.0), 10 ** 6, 10 ** 6)
    monkeypatch.setattr(surfaces, "MAX_VERTICES", 21 * 17)
    gauss_map_integrate(sphere_surface(1.0), (0.0, 1.0, 0.0, 1.0), 17, 16)  # 20 x 16: at it
    with pytest.raises(ResolutionError, match="441 vertices"):
        gauss_map_integrate(never_evaluated, (0.0, 1.0, 0.0, 1.0), 17, 17)


def test_gauss_map_rejects_surface_of_wrong_shape():
    sphere = sphere_surface(1.0)
    for fn in (lambda u, v: sphere(u, 0.0 * u),  # ignores v: a column only
               lambda u, v: sphere(u, v)[..., :2]):
        with pytest.raises(ParameterError, match="shape"):
            gauss_map_integrate(fn, (0.0, 1.0, 0.0, 1.0), 16, 16)
