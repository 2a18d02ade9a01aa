import math
import threading
import types

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
    assert mesh.validate()[0] == pytest.approx([1.0, 1.0])  # twice the areas
    assert mesh.crease_arc_length(1) == pytest.approx(math.sqrt(2))
    mesh.validate()


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
    twice_area, angles, boundary, num_edges = mesh.validate()
    assert mesh.num_vertices - num_edges + mesh.num_triangles == euler
    assert np.array_equal(boundary, mask)
    p = mesh.vertices[mesh.triangles]
    cross = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    assert np.allclose(twice_area, np.linalg.norm(cross, axis=1), rtol=1e-12, atol=0)
    assert angles.shape == (3, mesh.num_triangles)
    assert np.allclose(angles.sum(axis=0), math.pi, rtol=0, atol=1e-12)


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


# -- validate's sort thread and the order of its faults ----------------------

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
        vertex_tags=None,
    )
    with pytest.raises(MeshError, match="non-manifold"):
        fan.validate()


def test_index_range_is_checked_before_any_gather(monkeypatch):
    def gather(*args):
        raise AssertionError("vertices gathered before the index range check")

    monkeypatch.setattr(trimesh, "_corner_geometry", gather)
    for index in (4, -1, 2**40):
        mesh = square_mesh()
        mesh.triangles[1, 2] = index
        with pytest.raises(MeshError, match="triangle index out of range"):
            mesh.validate()


def test_validate_joins_its_sort_thread_on_every_path(monkeypatch):
    started, joined = [], []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

        def join(self, timeout=None):
            joined.append(self)
            super().join(timeout)

    monkeypatch.setattr(trimesh, "threading", types.SimpleNamespace(Thread=Recorded))
    mesh = GENERATED["tube"]()
    before = threading.active_count()
    mesh.validate()
    during = []

    def failing(*args):
        during.append(threading.active_count())
        raise RuntimeError("corner geometry failed")

    monkeypatch.setattr(trimesh, "_corner_geometry", failing)
    with pytest.raises(RuntimeError, match="corner geometry failed"):
        mesh.validate()
    assert before <= during[0] <= before + 1  # at most the one sort thread
    assert len(started) == 2 and joined == started
    assert threading.active_count() == before


def test_packing_thread_exception_propagates_and_the_thread_is_joined(monkeypatch):
    def failing(triangles, num_vertices, out):
        raise MemoryError("no room for the edge keys")

    monkeypatch.setattr(trimesh, "_pack_edge_keys", failing)
    before = threading.enumerate()
    with pytest.raises(MemoryError, match="no room for the edge keys"):
        GENERATED["tube"]().validate()
    assert threading.enumerate() == before


def test_edge_keys_are_packed_off_the_calling_thread(monkeypatch):
    packers = []
    pack = trimesh._pack_edge_keys

    def recorded(*args):
        packers.append(threading.current_thread())
        pack(*args)

    monkeypatch.setattr(trimesh, "_pack_edge_keys", recorded)
    GENERATED["tube"]().validate()
    assert len(packers) == 1 and packers[0] is not threading.current_thread()


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
                    polylines.setdefault(cid, []).extend(chain)
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
    tags = np.zeros(n, dtype=np.int64)
    for cid, chain in polylines.items():
        tags[chain] = cid
    return TriMesh(np.array(vertices), triangles, tags, polylines)


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
    return TriMesh(vertices, triangles, np.array([7, 0, 7, 0]), {7: [0, 2]})


OBJ_MESHES = {
    **GENERATED,
    # a coarser tube keeps the per-record reference parser quick
    "tube": lambda: gen_twisted_prismatic_tube(
        tube_spec_for_strips(1.0, math.pi / 4, 12), 12, 8, 4
    ),
    "awkward-values": awkward_values_mesh,
}


@pytest.mark.parametrize("name", sorted(OBJ_MESHES))
def test_export_obj_matches_reference_writer(tmp_path, name):
    mesh = OBJ_MESHES[name]()
    export_obj(mesh, tmp_path / "bulk.obj")
    reference_export_obj(mesh, tmp_path / "reference.obj")
    assert (tmp_path / "bulk.obj").read_bytes() == (tmp_path / "reference.obj").read_bytes()


def assert_same_mesh(a, b):
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.triangles, b.triangles)
    assert np.array_equal(a.vertex_tags, b.vertex_tags)
    assert list(a.crease_polylines) == list(b.crease_polylines)
    for cid, chain in a.crease_polylines.items():
        assert np.array_equal(chain, b.crease_polylines[cid])


def _face_tokens(line, form):
    if not line.startswith("f "):
        return line
    return "f " + " ".join(form.format(i) for i in line.split()[1:])


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
        # only indented records need the record-by-record scan
        data = path.read_bytes().replace(b"\r\n", b"\n")
        assert (trimesh._parse_blocks(path, data) is None) == (variant == "indented")


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
    "f \u0661 2 3", "f\t1\t2\t3", " v 0.5 0.5 0.5", "v\xa00.5 0.5 0.5",
    "\x0cv 0.5 0.5 0.5", "v\u00e9 1 2 3", "v 1 2 3 # c", "v 1_0 2 3", "v 1e5 -.5 +3.",
    "v 1 2", "vt 1 2", "#v 1 2 3", "v# 1 2 3", "g crease_2\nl 1 2", "g other\nl 1 2",
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
