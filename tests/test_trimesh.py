import math

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
    export_obj,
    gen_curved_crease,
    gen_cylinder,
    gen_gore_sphere,
    gen_mudguard,
    gen_twisted_patch,
    gen_twisted_prismatic_tube,
    load_obj,
    tube_spec_for_strips,
)


def square_mesh(crease=True):
    """Two triangles over a unit square; diagonal 0-2 tagged as crease 1."""
    vertices = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    triangles = [[0, 1, 2], [0, 2, 3]]
    tags = [1, 0, 1, 0] if crease else [0, 0, 0, 0]
    polylines = {1: [0, 2]} if crease else {}
    return TriMesh(
        vertices=np.array(vertices, float),
        triangles=np.array(triangles),
        vertex_tags=np.array(tags),
        crease_polylines=polylines,
    )


def tetrahedron():
    vertices = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float
    )
    triangles = np.array([[0, 2, 1], [0, 1, 3], [1, 2, 3], [0, 3, 2]])
    return TriMesh(vertices=vertices, triangles=triangles, vertex_tags=None)


def test_basic_queries():
    mesh = square_mesh()
    assert mesh.num_vertices == 4
    assert mesh.num_triangles == 2
    assert mesh.bbox_diagonal() == pytest.approx(math.sqrt(2))
    assert mesh.triangle_areas() == pytest.approx([0.5, 0.5])
    assert mesh.crease_arc_length(1) == pytest.approx(math.sqrt(2))
    mesh.validate()


def test_boundary_and_euler():
    mesh = square_mesh()
    assert mesh.boundary_vertex_mask().all()  # every square vertex is on the rim
    assert mesh.euler_characteristic() == 1  # disc
    tet = tetrahedron()
    tet.validate()
    assert not tet.boundary_vertex_mask().any()
    assert tet.euler_characteristic() == 2  # sphere


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
    assert np.array_equal(loaded.crease_polylines[1], mesh.crease_polylines[1])
    # tags reconstructed from the crease group; the boundary is not a tag
    assert loaded.vertex_tags[0] == 1 and loaded.vertex_tags[2] == 1
    assert loaded.vertex_tags[1] == 0 and loaded.vertex_tags[3] == 0


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
    "tube": lambda: gen_twisted_prismatic_tube(
        tube_spec_for_strips(1.0, math.pi / 4, 12), 12, 24, 24
    ),
    "twisted-patch": lambda: gen_twisted_patch(0.1, 1.0, 1.0, 0.2, 12, 12),
    "curved-crease": lambda: gen_curved_crease(CreaseSpec(R=2.0, mu=0.5), 0.3, 24, 4),
    "mudguard": lambda: gen_mudguard(MudguardSpec(R=2.0, r=0.1, mu=0.6), 32, 6),
    "gore-sphere": lambda: gen_gore_sphere(GoreSphereSpec(R=1.0, n=8), 24, 4),
}


@pytest.mark.parametrize("shape", sorted(GENERATED))
def test_topology_matches_unique_reference(shape):
    mesh = GENERATED[shape]()
    mask, euler = unique_topology(mesh)
    assert np.array_equal(mesh.boundary_vertex_mask(), mask)
    assert mesh.euler_characteristic() == euler
    twice_area, dots, boundary = mesh.validate()
    assert np.array_equal(boundary, mask)
    assert np.array_equal(twice_area, 2 * mesh.triangle_areas())
    assert dots.shape == (3, mesh.num_triangles)


@pytest.mark.parametrize("shape", sorted(GENERATED))
def test_generator_tags_are_crease_ids(shape):
    mesh = GENERATED[shape]()
    expected = np.zeros(mesh.num_vertices, dtype=np.int64)
    for cid, chain in mesh.crease_polylines.items():
        expected[chain] = cid
    assert np.array_equal(mesh.vertex_tags, expected)


def test_kernel_error_types_on_hand_built_meshes():
    # three triangles on edge 0-1, each winding it differently
    fan = TriMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]], float),
        triangles=np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]),
        vertex_tags=None,
    )
    with pytest.raises(MeshError, match="non-manifold"):
        fan.validate()
    with pytest.raises(MeshError, match="non-manifold"):
        fan.boundary_vertex_mask()

    flipped = square_mesh()
    flipped.triangles[1] = flipped.triangles[1][::-1]
    with pytest.raises(OrientationError):
        flipped.euler_characteristic()

    for index in (4, -1):
        bad = square_mesh()
        bad.triangles[1, 2] = index
        for query in (bad.validate, bad.boundary_vertex_mask, bad.euler_characteristic):
            with pytest.raises(MeshError, match="index out of range"):
                query()


def test_in_place_edit_after_topology_query_is_seen():
    mesh = gen_twisted_patch(0.1, 1.0, 1.0, 0.0, 8, 8)
    assert mesh.boundary_vertex_mask().any()
    mesh.validate()
    mesh.triangles[0] = mesh.triangles[0][::-1]
    with pytest.raises(OrientationError):
        mesh.validate()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_validate_rejects_non_finite_vertex(value):
    mesh = gen_twisted_patch(0.1, 1.0, 1.0, 0.0, 8, 8)
    mesh.vertices[5, 1] = value
    mesh.vertices[9, 0] = value
    with pytest.raises(MeshError, match="non-finite coordinates at vertex 5$"):
        mesh.validate()
