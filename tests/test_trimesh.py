import math
import threading
import tracemalloc

import numpy as np
import pytest

from creasegeom import (
    CreaseSpec,
    GoreSphereSpec,
    InputFormatError,
    MeshError,
    MudguardSpec,
    OrientationError,
    TriMesh,
    angle_defect,
    export_obj,
    gen_curved_crease,
    gen_cylinder,
    gen_gore_sphere,
    gen_mudguard,
    gen_twisted_patch,
    gen_twisted_prismatic_tube,
    load_obj,
    trimesh,
    tube_spec_for_strips,
)


def square_mesh(crease=True):
    """Two triangles over a unit square; diagonal 0-2 is crease 1."""
    vertices = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    triangles = [[0, 1, 2], [0, 2, 3]]
    polylines = {1: [0, 2]} if crease else {}
    return TriMesh(
        vertices=np.array(vertices, float),
        triangles=np.array(triangles),
        crease_polylines=polylines,
    )


def tetrahedron():
    vertices = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
    )
    triangles = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    return TriMesh(vertices=vertices, triangles=triangles)


def test_basic_queries():
    mesh = square_mesh()
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    angle_sum, lumped = mesh.validate()[:2]
    assert angle_sum == pytest.approx([math.pi / 2] * 4)  # a right angle at each corner
    assert lumped == pytest.approx(cross_sums(mesh)[1])
    assert lumped == pytest.approx([1 / 3, 1 / 6, 1 / 3, 1 / 6])  # a third of 1/2 per triangle
    closed = tetrahedron()  # the square's crease has only rim vertices, which carry no rate
    closed.crease_polylines = {1: np.array([1, 2, 3])}
    assert angle_defect(closed).crease_lengths[1] == pytest.approx(2 * math.sqrt(2))


def test_crease_id_zero_is_a_crease():
    # a crease is its polyline, whatever its id: id 0 is not "no crease"
    mesh = tetrahedron()
    mesh.crease_polylines = {0: np.array([1, 2])}
    field = angle_defect(mesh)
    assert field.crease_mask.tolist() == [False, True, True, False]
    assert field.crease_totals[0] == field.defect[1] + field.defect[2]


def test_boundary_and_euler():
    field = angle_defect(square_mesh(crease=False))
    assert field.boundary_mask.all()  # every square vertex is on the rim
    assert field.euler_characteristic == 1  # disc
    field = angle_defect(tetrahedron())
    assert not field.boundary_mask.any()
    assert field.euler_characteristic == 2  # sphere


def test_validate_rejects_degenerate_triangle():
    mesh = square_mesh()
    mesh.vertices[1] = mesh.vertices[0]  # collapse an edge
    with pytest.raises(MeshError, match="degenerate"):
        mesh.validate()


def test_validate_rejects_bad_index():
    mesh = square_mesh()
    mesh.triangles[0, 0] = 7
    with pytest.raises(MeshError, match="index"):
        mesh.validate()


def test_validate_rejects_inconsistent_winding():
    mesh = square_mesh()
    mesh.triangles[1] = mesh.triangles[1][::-1]
    with pytest.raises(OrientationError):
        mesh.validate()


def test_validate_rejects_nonmanifold_edge():
    mesh = square_mesh()
    mesh.triangles = np.vstack(
        [mesh.triangles, [[2, 0, 1]]]  # edge 0-1 now borders 2 faces + this
    )
    mesh.vertices = np.vstack([mesh.vertices])
    with pytest.raises(MeshError):
        mesh.validate()


def test_validate_rejects_bad_polyline():
    mesh = square_mesh()
    mesh.crease_polylines[1] = np.array([0])
    with pytest.raises(MeshError, match="fewer than 2"):
        mesh.validate()
    mesh.crease_polylines[1] = np.array([0, 2, 0])
    with pytest.raises(MeshError, match="self-intersecting"):
        mesh.validate()


# A copy of vertex 1 first, in the middle and last in the chain 0 1 2 3, and
# repeats of its smallest and largest vertex, which sort to the ends.
REPEATED_CHAINS = {"first": [1, 0, 1, 2, 3], "middle": [0, 1, 2, 1, 3], "last": [0, 1, 2, 3, 1],
                   "smallest": [0, 1, 2, 3, 0], "largest": [3, 0, 1, 2, 3]}


@pytest.mark.parametrize("where", sorted(REPEATED_CHAINS))
def test_validate_rejects_a_repeated_polyline_vertex_anywhere(where):
    mesh = square_mesh()
    mesh.crease_polylines[1] = np.array(REPEATED_CHAINS[where])
    with pytest.raises(MeshError, match="^crease 1 polyline is self-intersecting$"):
        mesh.validate()
    mesh.crease_polylines[1] = np.array([0, 1, 2, 3])
    mesh.validate()


def test_obj_round_trip(tmp_path):
    mesh = square_mesh()
    path = tmp_path / "mesh.obj"
    export_obj(mesh, path)
    text = path.read_text()
    assert text.startswith("v ")
    assert "g crease_1" in text
    assert "\nl 1 3\n" in text
    loaded = load_obj(path)
    assert loaded.num_vertices == 4
    assert np.array_equal(loaded.triangles, mesh.triangles)
    assert list(loaded.crease_polylines) == [1]
    assert np.array_equal(loaded.crease_polylines[1], mesh.crease_polylines[1])


def test_obj_deterministic(tmp_path):
    mesh = square_mesh()
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    export_obj(mesh, p1)
    export_obj(mesh, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_empty_mesh_raises(tmp_path):
    mesh = square_mesh()
    mesh.triangles = np.empty((0, 3), dtype=np.int64)
    with pytest.raises(MeshError):
        export_obj(mesh, tmp_path / "empty.obj")


def test_load_obj_rejects_garbage(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0\nf 1 2\n")
    with pytest.raises(InputFormatError):
        load_obj(path)
    path.write_text("# nothing here\n")
    with pytest.raises(InputFormatError, match="no triangle geometry"):
        load_obj(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nl 1 2\n")
    with pytest.raises(InputFormatError, match="crease"):
        load_obj(path)  # polyline outside a crease_<id> group
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\ng crease_1\nl 1 4\n")
    with pytest.raises(InputFormatError, match=r"bad.obj:6: polyline index out of range 1\.\.3"):
        load_obj(path)


# -- single-pass kernel against brute-force references ----------------------

def cross_sums(mesh):
    """Per-vertex corner-angle sums and lumped areas from np.cross: each
    corner's angle is atan2(|e1 x e2|, e1 . e2) of its two edges."""
    pts = mesh.vertices[mesh.triangles]
    angles = np.empty((mesh.num_triangles, 3))
    for k in range(3):
        e1 = pts[:, (k + 1) % 3] - pts[:, k]
        e2 = pts[:, (k + 2) % 3] - pts[:, k]
        angles[:, k] = np.arctan2(np.linalg.norm(np.cross(e1, e2), axis=1), (e1 * e2).sum(axis=1))
    area = 0.5 * np.linalg.norm(np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]), axis=1)
    corners = mesh.triangles.ravel()
    return (np.bincount(corners, angles.ravel(), mesh.num_vertices),
            np.bincount(corners, np.repeat(area / 3, 3), mesh.num_vertices))


def unique_topology(mesh):
    """Boundary mask and Euler characteristic from np.unique of edge pairs."""
    t = mesh.triangles
    edges = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    mask = np.zeros(mesh.num_vertices, dtype=bool)
    mask[uniq[counts == 1].ravel()] = True
    return mask, mesh.num_vertices - len(uniq) + mesh.num_triangles


GENERATED = {
    "cylinder": lambda: gen_cylinder(tube_spec_for_strips(1.0, math.pi / 4, 8), 32, 6),
    "tube": lambda: gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 24, 24),
    "twisted-patch": lambda: gen_twisted_patch(0.1, 1.0, 1.0, 0.2, 12, 12),
    "curved-crease": lambda: gen_curved_crease(CreaseSpec(R=2.0, mu=0.5), 0.3, 24, 4),
    "mudguard": lambda: gen_mudguard(MudguardSpec(R=2.0, r=0.1, mu=0.6), 32, 6),
    "gore-sphere": lambda: gen_gore_sphere(GoreSphereSpec(R=1.0, n=8), 24, 4),
}


@pytest.mark.parametrize("shape", sorted(GENERATED))
def test_topology_matches_unique_reference(shape):
    mesh = GENERATED[shape]()
    mask, euler = unique_topology(mesh)
    angle_sum, lumped, boundary, num_edges = mesh.validate()
    assert mesh.num_vertices - num_edges + mesh.num_triangles == euler
    assert np.array_equal(boundary, mask)
    angle_ref, lumped_ref = cross_sums(mesh)
    assert np.allclose(lumped, lumped_ref, rtol=1e-12, atol=0)
    assert np.allclose(angle_sum, angle_ref, rtol=0, atol=1e-12)
    assert angle_sum.sum() == pytest.approx(math.pi * mesh.num_triangles, rel=1e-14, abs=0)


def edge_topology(mesh):
    """_edge_topology of mesh, called as validate calls it."""
    return trimesh._edge_topology(mesh.triangles, mesh.num_vertices)


def test_edge_topology_runs_on_the_calling_thread_and_raises_its_faults(monkeypatch):
    def no_thread(self):
        raise AssertionError("a second thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for mesh in (square_mesh(), GENERATED["tube"]()):
        mask, euler = unique_topology(mesh)
        num_edges, boundary = edge_topology(mesh)
        assert num_edges == mesh.num_vertices + mesh.num_triangles - euler
        assert np.array_equal(boundary, mask)

    fan = TriMesh(  # edge 0-1 in three triangles
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]], float),
        triangles=np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]),
    )
    with pytest.raises(MeshError, match="non-manifold"):
        edge_topology(fan)
    flipped = square_mesh()
    flipped.triangles[1] = flipped.triangles[1][::-1]
    with pytest.raises(OrientationError, match="repeated directed edge"):
        edge_topology(flipped)


def test_kernel_error_types_on_hand_built_meshes():
    # three triangles on edge 0-1, each winding it differently
    fan = TriMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]], float),
        triangles=np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]),
    )
    for query in (fan.validate, lambda: angle_defect(fan)):
        with pytest.raises(MeshError, match="non-manifold"):
            query()

    flipped = square_mesh()
    flipped.triangles[1] = flipped.triangles[1][::-1]
    with pytest.raises(OrientationError):
        angle_defect(flipped)

    for index in (4, -1):
        bad = square_mesh()
        bad.triangles[1, 2] = index
        for query in (bad.validate, lambda: angle_defect(bad)):
            with pytest.raises(MeshError, match="index out of range"):
                query()


def test_in_place_edit_after_topology_query_is_seen():
    mesh = gen_twisted_patch(0.1, 1.0, 1.0, 0.0, 8, 8)
    assert angle_defect(mesh).boundary_mask.any()
    mesh.validate()
    mesh.triangles[0] = mesh.triangles[0][::-1]
    with pytest.raises(OrientationError):
        mesh.validate()


# -- validate on one thread and the order of its faults ---------------------

def test_topology_faults_are_raised_before_degenerate_triangles():
    wound = square_mesh()
    wound.triangles[1] = wound.triangles[1][::-1]  # directed edge 2->0 twice
    wound.vertices[3] = wound.vertices[0]  # and triangle 1 has no area
    with pytest.raises(OrientationError):
        wound.validate()
    wound.triangles[1] = wound.triangles[1][::-1]
    with pytest.raises(MeshError, match="degenerate triangle 1"):
        wound.validate()

    fan = TriMesh(  # edge 0-1 in three triangles, the last one flat
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [2, 0, 0]], float),
        triangles=np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]),
    )
    with pytest.raises(MeshError, match="non-manifold"):
        fan.validate()


def quad_strip(quads=4):
    """Unit quads along x, a_i = (i, 0, 0) and b_i = (i, 1, 0); quad i is
    triangles 2i = (a_i, a_i+1, b_i+1) and 2i + 1 = (a_i, b_i+1, b_i)."""
    a = [[i, 0, 0] for i in range(quads + 1)]
    b = [[i, 1, 0] for i in range(quads + 1)]
    n = quads + 1
    triangles = [t for i in range(quads) for t in ([i, i + 1, n + i + 1], [i, n + i + 1, n + i])]
    return TriMesh(vertices=np.array(a + b, float), triangles=np.array(triangles))


def test_area_faults_are_found_across_blocks(monkeypatch):
    monkeypatch.setattr(trimesh, "_BLOCK", 2)  # one quad per block
    mesh = quad_strip()
    mesh.vertices[5] = [0.5, 0.5, 0]  # b_0 on the diagonal a_0 b_1: triangle 1 is flat
    mesh.vertices[3] = [2.5, 0.5, 0]  # a_3 on the diagonal a_2 b_3: triangle 4 is flat too
    p = mesh.vertices[mesh.triangles]
    twice_area = np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    assert twice_area[1] == twice_area[4] == 0 < twice_area[[0, 2, 3, 5, 6, 7]].min()
    with pytest.raises(MeshError, match=r"degenerate triangle 1 \(area 0\.000e\+00 <="):
        mesh.validate()  # the first of two equal smallest areas, blocks apart

    mesh.vertices[4, 2] = 1e300  # a_4's triangles 6 and 7 overflow, blocks after the flat ones
    with pytest.raises(MeshError, match=r"^triangle 6 has a non-finite area \(inf\)$"):
        mesh.validate()

    mesh.triangles[7] = mesh.triangles[7][::-1]  # and a winding fault comes before both
    with pytest.raises(OrientationError):
        mesh.validate()


def test_trimesh_keeps_int32_triangles_and_casts_other_indices_to_int64():
    triangles = [[0, 1, 2], [0, 2, 3]]
    for given, kept in ((np.array(triangles, np.int32), np.int32), (triangles, np.int64),
                        (np.array(triangles, np.int16), np.int64),
                        (np.array(triangles, np.uint32), np.int64),
                        (np.array(triangles, np.int64), np.int64)):
        mesh = TriMesh(square_mesh().vertices, given)
        assert mesh.triangles.dtype == kept and np.array_equal(mesh.triangles, triangles)


def test_repeated_directed_edge_that_sorts_last_is_a_winding_fault():
    # edge 2->3 in both triangles: the largest packed key, twice, at the end
    mesh = TriMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], float),
        triangles=np.array([[0, 2, 3], [1, 2, 3]]),
    )
    keys = np.empty(6, dtype=np.int64)
    trimesh._pack_edge_keys(mesh.triangles, 4, keys.reshape(2, 3))
    keys.sort()
    assert keys[-1] == keys[-2] and len(np.unique(keys)) == 5
    with pytest.raises(OrientationError, match="repeated directed edge"):
        mesh.validate()


def test_index_range_is_checked_before_any_gather(monkeypatch):
    def gather(*args):
        raise AssertionError("vertices gathered before the index range check")

    monkeypatch.setattr(trimesh, "_vertex_sums", gather)
    for index in (4, -1, 2**40):
        mesh = square_mesh()
        mesh.triangles[1, 2] = index
        with pytest.raises(MeshError, match="triangle index out of range"):
            mesh.validate()


def test_validate_starts_no_thread(monkeypatch):
    def no_thread(self):
        raise AssertionError("a second thread was started")

    mesh = GENERATED["tube"]()  # built before the patch
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    angle_sum, _, _, num_edges = mesh.validate()
    assert len(angle_sum) == mesh.num_vertices and num_edges > 0


def test_winding_fault_is_raised_before_any_corner_is_summed(monkeypatch):
    def summed(*args):
        raise AssertionError("corners summed before the topology check")

    mesh = GENERATED["tube"]()
    mesh.triangles[-1] = mesh.triangles[-1][::-1]
    monkeypatch.setattr(trimesh, "_vertex_sums", summed)
    with pytest.raises(OrientationError, match="repeated directed edge"):
        mesh.validate()


def test_packing_exception_propagates_out_of_validate(monkeypatch):
    def failing(triangles, num_vertices, out):
        raise MemoryError("no room for the edge keys")

    monkeypatch.setattr(trimesh, "_pack_edge_keys", failing)
    with pytest.raises(MemoryError, match="no room for the edge keys"):
        GENERATED["tube"]().validate()


@pytest.mark.parametrize("scale", [1e100, 1e160, 1e300])
def test_validate_rejects_triangles_whose_area_overflows(scale):
    mesh = square_mesh()
    mesh.vertices *= scale  # finite coordinates, non-finite cross products
    with pytest.raises(MeshError, match=r"triangle 0 has a non-finite area \((inf|nan)\)"):
        mesh.validate()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_vertex(value):
    mesh = gen_twisted_patch(0.1, 1.0, 1.0, 0.0, 8, 8)
    mesh.vertices[5, 1] = value
    mesh.vertices[9, 0] = value
    with pytest.raises(MeshError, match="non-finite coordinates at vertex 5$"):
        mesh.validate()


# -- bulk OBJ I/O against the per-record writer and parser -------------------

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def reference_export_obj(mesh, path):
    """The per-record writer that export_obj must match byte for byte."""
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}")
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    for cid in sorted(mesh.crease_polylines):
        chain = mesh.crease_polylines[cid]
        lines.append(f"g crease_{cid}")
        lines.append("l " + " ".join(str(i + 1) for i in chain))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_load_obj(path):
    """The per-record parser whose accepted syntax load_obj keeps."""
    vertices, triangles, face_lines, polylines, chains = [], [], [], {}, []
    group = None
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            kind = parts[0]
            try:
                if kind == "v":
                    if len(parts) < 4:
                        raise ValueError("a vertex needs 3 coordinates")
                    vertices.append([float(x) for x in parts[1:4]])
                elif kind == "f":
                    idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                    if len(idx) != 3:
                        raise ValueError("only triangle faces are supported")
                    triangles.append(idx)
                    face_lines.append(ln)
                elif kind == "g":
                    group = parts[1] if len(parts) > 1 else None
                elif kind == "l":
                    if group is None or not group.startswith("crease_"):
                        raise ValueError("polyline outside a crease_<id> group")
                    cid = int(group.split("_", 1)[1])
                    chain = [int(p) - 1 for p in parts[1:]]
                    chains.append((ln, chain))
                    joined = polylines.setdefault(cid, [])
                    if joined and chain and chain[0] == joined[-1]:
                        chain = chain[1:]  # the junction of two touching records, once
                    joined.extend(chain)
            except (ValueError, IndexError) as exc:
                raise InputFormatError(f"{path}:{ln}: {exc}") from exc
    if not vertices or not triangles:
        raise InputFormatError(f"{path}: no triangle geometry found")
    n = len(vertices)
    triangles = np.array(triangles, dtype=np.int64)
    bad = np.flatnonzero(((triangles < 0) | (triangles >= n)).any(axis=1))
    if bad.size:
        raise InputFormatError(f"{path}:{face_lines[bad[0]]}: face index out of range 1..{n}")
    for ln, chain in chains:
        if min(chain, default=0) < 0 or max(chain, default=0) >= n:
            raise InputFormatError(f"{path}:{ln}: polyline index out of range 1..{n}")
    return TriMesh(np.array(vertices), triangles, polylines)


def awkward_values_mesh():
    """A tetrahedron-shaped mesh whose coordinates stress %.9g: signed zero,
    extreme exponents, subnormals and values that need all nine digits."""
    vertices = np.array([
        [-0.0, 0.0, 1e-300],
        [1e300, -1e300, 123456789.0],
        [0.123456789, 2.0 / 3.0, -1.23456789e-5],
        [5e-324, 987654321.5, -999999999.0],
    ])
    triangles = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    return TriMesh(vertices, triangles, {7: [0, 2]})


OBJ_MESHES = {
    **GENERATED,
    # a coarser tube keeps the per-record reference parser quick
    "tube": lambda: gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 8, 4),
    "awkward-values": awkward_values_mesh,
}


@pytest.mark.parametrize("name", sorted(OBJ_MESHES))
def test_export_obj_matches_reference_writer(tmp_path, name):
    mesh = OBJ_MESHES[name]()
    export_obj(mesh, tmp_path / "bulk.obj")
    reference_export_obj(mesh, tmp_path / "reference.obj")
    assert (tmp_path / "bulk.obj").read_bytes() == (tmp_path / "reference.obj").read_bytes()


def percent_corpus():
    """Over 10**6 floats and the ints that the OBJ record layout must write as
    `%.9g` and `%d` do: every decimal exponent with both signs, exact
    9-digit ties (k + 1/2) * 10**j and their neighbours, powers of ten and
    their neighbours (1e-4 and 1e9 among them), carries such as 999999999.5,
    short decimals whose trailing zeros `%g` drops, +-0, +-inf, nan,
    subnormals and random bit patterns; ints at 0, at every 10**j - 1 and
    10**j, up to 10**9 - 1, and past it."""
    rng = np.random.default_rng(19)

    def signed(x):
        return x * rng.choice([-1.0, 1.0], size=np.shape(x))

    def scaled(k, exponents):  # k * 10**j rounded once
        return np.concatenate([k * 10.0**j if j >= 0 else k / 10.0**-j for j in exponents])

    with np.errstate(over="ignore"):
        every_exponent = rng.uniform(1, 10, (629, 800)) * np.array(
            [float(f"1e{j}") for j in range(-320, 309)])[:, None]
    ties = scaled(rng.integers(10**8, 10**9, 2000) + 0.5, range(-20, 12))
    carries = scaled(10**9 - np.array([0.5, 0.3, 0.7, 1e-3]), range(-20, 12))
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    short = rng.integers(1, 10**4, 10**5) / 10.0 ** rng.integers(-5, 13, 10**5)
    subnormal = np.r_[5e-324, 2.2250738585072014e-308, rng.integers(1, 2**52, 1000) * 5e-324]
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 999999999.5, 1e-4, 1e9])
    bits = rng.integers(0, 2**64, 2 * 10**5, dtype=np.uint64, endpoint=False).view(np.float64)
    floats = np.concatenate([
        signed(every_exponent.ravel()), signed(_neighbours(ties, 2)),
        signed(_neighbours(carries, 3)), signed(_neighbours(powers, 3)), signed(short),
        _neighbours(subnormal, 2), _neighbours(special, 2), bits, rng.uniform(-10, 10, 2 * 10**5)])
    powers_int = 10 ** np.arange(10)
    ints = np.concatenate([np.arange(2000), powers_int - 1, powers_int, 10**9 - np.arange(1, 50),
                           rng.integers(0, 10**9, 10**5), [-1, -1000, 10**12, 2**62]])
    return floats, ints


def _neighbours(x, steps):
    """x and the `steps` floats on each side of each of its values."""
    out, up, down = [x], x, x
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_record_layout_matches_percent_format():
    floats, ints = percent_corpus()
    assert len(floats) >= 10**6
    floats = floats[:len(floats) // 3 * 3].reshape(-1, 3)
    ints = ints[:len(ints) // 3 * 3].reshape(-1, 3)
    # the face writer is given indices, and writes each index + 1
    for values, records, key, fmt, shift in ((floats, trimesh._vertex_records, "v", "%.9g", 0),
                                             (ints, trimesh._face_records, "f", "%d", 1)):
        for s in range(0, len(values), trimesh._WRITE_BLOCK):
            block = values[s:s + trimesh._WRITE_BLOCK]
            got = records(block - shift if shift else block).decode().split("\n")[:-1]
            want = [" ".join([key] + [fmt % v for v in row]) for row in block.tolist()]
            if got != want:
                bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
                pytest.fail(f"{block[bad].tolist()}: wrote {got[bad]!r}, want {want[bad]!r}")


def test_export_obj_across_a_write_block_boundary(tmp_path):
    n, edge = trimesh._WRITE_BLOCK + 3, trimesh._WRITE_BLOCK
    rng = np.random.default_rng(3)
    vertices = rng.uniform(-2.0, 2.0, (n, 3))
    vertices[edge - 2:edge + 2] = awkward_values_mesh().vertices  # two on each side
    triangles = rng.integers(0, n, (n, 3))
    triangles[edge - 1:edge + 1] = [[n - 1, 0, 999], [1000, 999999 % n, n - 2]]
    mesh = TriMesh(vertices, triangles, {2: [edge - 1, edge, n - 1]})
    export_obj(mesh, tmp_path / "bulk.obj")
    reference_export_obj(mesh, tmp_path / "reference.obj")
    assert (tmp_path / "bulk.obj").read_bytes() == (tmp_path / "reference.obj").read_bytes()


# Peak traced memory of export_obj on the 12-strip 128x128 tube (190,016
# vertices) per vertex: 4.63 B with numpy 2.4, one write block of temporaries,
# and 4.84 B when the call also builds the chunk table (102.1 B when it
# formatted 65,536 records with one `%` and added 1 to every index at once).
# The ceiling leaves 10%.
EXPORT_PEAK_BYTES_PER_VERTEX = 5.35


def test_export_obj_peak_memory(tmp_path):
    mesh = gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 128, 128)
    tracemalloc.start()
    try:
        export_obj(mesh, tmp_path / "tube.obj")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.num_vertices == 190_016
    assert peak / mesh.num_vertices < EXPORT_PEAK_BYTES_PER_VERTEX


# Peak traced memory of load_obj on the exported 12-strip 128x128 tube
# (190,016 vertices, 80.5 B of OBJ text each) per vertex: 160.4 B with numpy
# 2.4, holding the text, int32 line ends and v and f line numbers, and the
# float64 vertices and int32 triangles (285.7 B with int64 line offsets and
# triangles, 539.0 B when all `v` and then all `f` lines went to one
# np.loadtxt call each).  The ceiling leaves 10%.
LOAD_PEAK_BYTES_PER_VERTEX = 176.5


def test_load_obj_peak_memory(tmp_path):
    mesh = gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 128, 128)
    export_obj(mesh, tmp_path / "tube.obj")
    tracemalloc.start()
    try:
        loaded = load_obj(tmp_path / "tube.obj")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.num_vertices == 190_016 and loaded.triangles.dtype == np.int32
    assert peak / loaded.num_vertices < LOAD_PEAK_BYTES_PER_VERTEX


def assert_same_mesh(a, b):
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert list(a.crease_polylines) == list(b.crease_polylines)
    for cid, chain in a.crease_polylines.items():
        assert np.array_equal(chain, b.crease_polylines[cid])


def _face_tokens(line, form):
    if not line.startswith("f "):
        return line
    return "f " + " ".join(form.format(i) for i in line.split()[1:])


def _indent_first_face(lines):
    at = next(i for i, line in enumerate(lines) if line.startswith("f "))
    return lines[:at] + [" " + lines[at]] + lines[at + 1:]


# Rewrites of an exported OBJ that keep its geometry: each must load to the
# same mesh through both parsers.
OBJ_VARIANTS = {
    "as-written": lambda lines: lines,
    "crlf": lambda lines: [line + "\r" for line in lines],
    "tabs": lambda lines: [line.replace(" ", "\t") for line in lines],
    "comments": lambda lines: ["# header", ""] + [
        x for line in lines for x in (line, "# after " + line.split()[0], "   ")
    ],
    "vt-vn": lambda lines: [
        x for line in lines
        for x in ((line, "vt 0.5 0.25", "vn 0 0 1") if line.startswith("v ") else (line,))
    ],
    "a//c": lambda lines: [_face_tokens(line, "{0}//{0}") for line in lines],
    "a/b/c": lambda lines: [_face_tokens(line, "{0}/1/{0}") for line in lines],
    "4-column-v": lambda lines: [
        line + " 1.0" if line.startswith("v ") else line for line in lines
    ],
    "indented": lambda lines: ["  " + line for line in lines],
    "one-indented-face": lambda lines: _indent_first_face(lines),
}


@pytest.mark.parametrize("name", sorted(OBJ_MESHES))
def test_load_obj_matches_reference_parser(tmp_path, name):
    written = tmp_path / "mesh.obj"
    export_obj(OBJ_MESHES[name](), written)
    as_written = load_obj(written)
    lines = written.read_text().splitlines()
    for variant, rewrite in OBJ_VARIANTS.items():
        path = tmp_path / f"{variant.replace('/', '_')}.obj"
        path.write_bytes(("\n".join(rewrite(lines)) + "\n").encode())
        loaded = load_obj(path)
        assert_same_mesh(loaded, reference_load_obj(path))
        assert_same_mesh(loaded, as_written)
        # an indented record among block records needs the record-by-record
        # scan; with every record indented, the scan of the others is that scan
        data = path.read_bytes().replace(b"\r\n", b"\n")
        blocks = trimesh._parse_blocks(path, data)
        assert (blocks is None) == (variant == "one-indented-face")
        records = trimesh._parse_records(path, enumerate(data.decode().split("\n")))
        for parsed in (records,) if blocks is None else (blocks, records):
            assert parsed[2].dtype == np.int32
            assert np.array_equal(parsed[2], loaded.triangles)
            assert np.array_equal(parsed[0], loaded.vertices)
        assert loaded.triangles.dtype == np.int32


@pytest.mark.parametrize("bad", [None, " v 1 2", " f 1 2 x"], ids=["valid", "short-v", "bad-f"])
def test_indented_obj_is_scanned_record_by_record_once(tmp_path, monkeypatch, bad):
    written = tmp_path / "mesh.obj"
    export_obj(OBJ_MESHES["tube"](), written)
    lines = ["  " + line for line in written.read_text().splitlines()]
    if bad:
        lines.insert(len(lines) // 2, bad)
    path = tmp_path / "indented.obj"
    path.write_text("\n".join(lines) + "\n")
    calls, parse_records = [], trimesh._parse_records
    monkeypatch.setattr(trimesh, "_parse_records",
                        lambda *args: parse_records(*args) if not calls.append(1) else None)
    got = _outcome(load_obj, path)
    assert len(calls) == 1
    want = _outcome(reference_load_obj, path)
    if bad:
        assert isinstance(got, InputFormatError) and str(got) == str(want)
    else:
        assert_same_mesh(got, want)


@pytest.mark.parametrize("block", [5, trimesh._LOAD_BLOCK])
def test_load_obj_blocks_split_by_comments_match_reference(tmp_path, monkeypatch, block):
    # comments break the runs of v and f lines just before, at and after
    # each block boundary, so one block's lines come from several runs
    monkeypatch.setattr(trimesh, "_LOAD_BLOCK", block)
    written = tmp_path / "mesh.obj"
    export_obj(gen_twisted_patch(0.1, 1.0, 1.0, 0.2, 90, 90), written)
    lines, seen = [], {"v": 0, "f": 0}
    for line in written.read_text().splitlines():
        kind = line.split()[0]
        if kind in seen:
            if (seen[kind] + 1) % block in (0, 1, 2):
                lines.append(f"# before {kind} record {seen[kind]}")
            seen[kind] += 1
        lines.append(line)
    assert min(seen.values()) > block + 2
    path = tmp_path / "split.obj"
    path.write_text("\n".join(lines) + "\n")
    assert trimesh._parse_blocks(path, path.read_bytes()) is not None
    assert_same_mesh(load_obj(path), reference_load_obj(path))
    assert_same_mesh(load_obj(path), load_obj(written))


def test_load_obj_holds_line_ends_in_int64_past_the_int32_limit(tmp_path, monkeypatch):
    written = tmp_path / "mesh.obj"
    export_obj(OBJ_MESHES["tube"](), written)
    data = written.read_bytes()
    assert trimesh._parse_blocks(written, data)[1].dtype == np.int32  # `v` line numbers
    as_int32 = load_obj(written)
    monkeypatch.setattr(trimesh, "_INT32_OFFSETS", len(data))
    assert trimesh._parse_blocks(written, data)[1].dtype == np.int64
    assert_same_mesh(load_obj(written), as_int32)


def tube_obj_with_face_index(tmp_path, index, row=7):
    """The coarse tube's OBJ with the second index of face `row` replaced,
    its line number and the vertex count."""
    written = tmp_path / "tube.obj"
    export_obj(OBJ_MESHES["tube"](), written)
    lines = written.read_text().splitlines()
    at = [i for i, line in enumerate(lines) if line.startswith("f ")][row]
    _, a, _, c = lines[at].split()
    lines[at] = f"f {a} {index} {c}"
    path = tmp_path / "bad.obj"
    path.write_text("\n".join(lines) + "\n")
    return path, at + 1, sum(line.startswith("v ") for line in lines)


# 2**32 + 2 is 2 once narrowed to int32, and 2**63 does not fit in int64.
@pytest.mark.parametrize("index", [2**31, 2**32 + 2, 2**63])
def test_load_obj_rejects_face_indices_that_int32_cannot_hold(tmp_path, index):
    path, line, n = tube_obj_with_face_index(tmp_path, index)
    assert trimesh._parse_blocks(path, path.read_bytes()) is None
    with pytest.raises(InputFormatError) as caught:
        load_obj(path)
    assert str(caught.value) == f"{path}:{line}: face index out of range 1..{n}"


def test_load_obj_reports_a_later_malformed_face_before_an_index_out_of_range(
        tmp_path, monkeypatch):
    # the index fails the first block of five faces, the malformed face a later one
    monkeypatch.setattr(trimesh, "_LOAD_BLOCK", 5)
    path, _, _ = tube_obj_with_face_index(tmp_path, 2**32 + 2, row=2)
    path.write_text(path.read_text() + "f 1 2 x\n")
    with pytest.raises(InputFormatError) as caught:
        load_obj(path)
    assert "invalid literal for int()" in str(caught.value)
    assert str(caught.value) == str(_outcome(reference_load_obj, path))


def test_load_obj_rejects_non_finite_and_oversized_ids(tmp_path):
    # malformed numbers per record kind are covered through the CLI
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 nan\nf 1 2 3\n")
    with pytest.raises(InputFormatError, match="bad.obj:3: non-finite coordinate"):
        load_obj(path)
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
                    "g crease_99999999999999999999\nl 1 2\n")
    with pytest.raises(InputFormatError, match="bad.obj: crease id 9+ does not fit in 64 bits"):
        load_obj(path)


# A small OBJ that exercises every record kind the parser handles.
FUZZ_SEED_OBJ = (
    "# seed\nv 0 0 0\nv 1 0 0\nv 1 1 0.5\nv 0 1 0\nvt 0 1\n"
    "f 1 2 3\nf 1/1 3/2/1 4//3\ng crease_1\nl 1 3\nv\t0.5\t0.5\t1e-3\n"
)
MUTATION_BYTES = b"0123456789 \t\r\n/#vfgl-+.e_x\xa0\xff"


def mutated(seed: bytes, edits) -> bytes:
    data = bytearray(seed)
    for pos, op, byte in edits:
        pos %= len(data) + 1
        if op == "insert":
            data[pos:pos] = bytes([byte])
        elif op == "delete":
            del data[pos:pos + 1]
        else:
            data[pos:pos + 1] = bytes([byte])
    return bytes(data)


def _outcome(load, path):
    try:
        return load(path)
    except (InputFormatError, OverflowError, UnicodeDecodeError) as exc:
        return exc


# One odd record each, inserted at line 4 of FUZZ_SEED_OBJ: the bulk reader
# must accept, reject and report them exactly as the reference parser does.
ODD_RECORDS = [
    "f 1 2 3 /", "f 1 2 3f", "f ", "f 1/ 2/x 3//4", "f 1 2 3 # c", "f +1 02 3",
    "f \u0661 2 3", "f\t1\t2\t3", " f 1 2 3", "\tf 2 4 3", " v 0.5 0.5 0.5",
    "v\xa00.5 0.5 0.5", "\x0cv 0.5 0.5 0.5", "v\u00e9 1 2 3", "v 1 2 3 # c", "v 1_0 2 3",
    "v 1e5 -.5 +3.", "v 1 2", "vt 1 2", "#v 1 2 3", "v# 1 2 3", "g crease_2\nl 1 2",
    "g other\nl 1 2",
]


@pytest.mark.parametrize("record", ODD_RECORDS)
def test_load_obj_odd_record_matches_reference(tmp_path, record):
    lines = FUZZ_SEED_OBJ.splitlines()
    path = tmp_path / "odd.obj"
    path.write_text("\n".join(lines[:3] + [record] + lines[3:]) + "\n", encoding="utf-8")
    new, old = _outcome(load_obj, path), _outcome(reference_load_obj, path)
    if isinstance(old, TriMesh):
        assert_same_mesh(new, old)
    else:
        assert type(new) is type(old) and str(new) == str(old)


if HAVE_HYPOTHESIS:  # mutated files against the reference parser
    @settings(max_examples=100, deadline=None)
    @given(edits=st.lists(
        st.tuples(st.integers(0, 200), st.sampled_from(["insert", "delete", "replace"]),
                  st.sampled_from(list(MUTATION_BYTES))),
        max_size=6,
    ))
    def test_load_obj_agrees_with_reference_on_mutated_files(tmp_path_factory, edits):
        path = tmp_path_factory.getbasetemp() / "mutated.obj"
        path.write_bytes(mutated(FUZZ_SEED_OBJ.encode(), edits))
        new, old = _outcome(load_obj, path), _outcome(reference_load_obj, path)
        if isinstance(old, OverflowError):
            # the reference crashed on an index or crease id beyond int64
            assert isinstance(new, InputFormatError)
        elif isinstance(old, TriMesh) and not np.isfinite(old.vertices).all():
            assert isinstance(new, InputFormatError) and "non-finite coordinate" in str(new)
        elif isinstance(old, TriMesh):
            assert_same_mesh(new, old)
        else:
            assert type(new) is type(old)
            if isinstance(old, InputFormatError):
                assert str(new) == str(old)
