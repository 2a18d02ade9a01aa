"""Indexed triangle meshes with vertex tags and crease polylines.

Vertex tags: k >= 1 on the vertices of crease k, 0 elsewhere; the boundary
comes from topology.  Crease polylines are ordered vertex-index chains, one
per crease id.
"""

from __future__ import annotations

import re
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputFormatError, MeshError, OrientationError

TAG_INTERIOR = 0

DEGENERATE_AREA_FACTOR = 1e-12
_BLOCK = 1 << 13  # triangles per block in the mesh kernel; keeps temporaries in cache
_WRITE_BLOCK = 1 << 16  # OBJ records per write
# byte -> is ASCII and not whitespace, so continues an OBJ keyword
_WORD = np.array([c < 128 and not chr(c).isspace() for c in range(256)])
_SLASH_TAIL = re.compile(r"(?<=\S)/\S*")  # the "/b/c" of a face token "a/b/c"


@dataclass
class TriMesh:
    vertices: np.ndarray                 # (V, 3) float64
    triangles: np.ndarray                # (T, 3) int, CCW outward
    vertex_tags: np.ndarray              # (V,) int
    crease_polylines: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.triangles = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3)
        if self.vertex_tags is None:
            self.vertex_tags = np.zeros(len(self.vertices), dtype=np.int64)
        self.vertex_tags = np.asarray(self.vertex_tags, dtype=np.int64).reshape(-1)
        self.crease_polylines = {
            int(k): np.asarray(v, dtype=np.int64).reshape(-1)
            for k, v in self.crease_polylines.items()
        }

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    def bbox_diagonal(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        span = [np.ptp(column) for column in self.vertices.T]
        return float(np.linalg.norm(span))

    def crease_arc_length(self, crease_id: int) -> float:
        chain = self.crease_polylines[crease_id]
        pts = self.vertices[chain]
        return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())

    # -- validation -------------------------------------------------------

    def validate(self) -> tuple:
        """Raise MeshError on any structural invariant violation: topology faults
        first, then a triangle whose area is not finite (the coordinates
        overflow the kernel), then a degenerate one.  Returns the (twice_area
        (T,), corner_angles (3, T), boundary (V,), edge count) it computed, so
        angle_defect measures without a second pass."""
        if self.num_vertices == 0 or self.num_triangles == 0:
            raise MeshError("mesh has no geometry")
        if len(self.vertex_tags) != self.num_vertices:
            raise MeshError("vertex_tags length does not match vertex count")
        nonfinite = np.flatnonzero(~np.isfinite(self.vertices))
        if nonfinite.size:
            raise MeshError(f"non-finite coordinates at vertex {nonfinite[0] // 3}")

        def geometry():  # runs while the edge keys are sorted
            # huge coordinates overflow here; the area check below reports it
            with np.errstate(over="ignore", invalid="ignore"):
                twice_area, dots = _corner_geometry(self.vertices, self.triangles)
                return self.bbox_diagonal(), twice_area, np.arctan2(twice_area, dots, out=dots)
        num_edges, boundary, (diag, twice_area, angles) = _edge_topology(
            self.triangles, self.num_vertices, geometry)
        overflowed = np.flatnonzero(~np.isfinite(twice_area))
        if overflowed.size:
            bad = int(overflowed[0])
            raise MeshError(f"triangle {bad} has a non-finite area ({twice_area[bad] / 2})")
        limit = DEGENERATE_AREA_FACTOR * diag * diag
        if np.any(twice_area <= 2.0 * limit):
            bad = int(np.argmin(twice_area))
            raise MeshError(
                f"degenerate triangle {bad} (area {twice_area[bad] / 2:.3e} <= {limit:.3e})"
            )

        for cid, chain in self.crease_polylines.items():
            if len(chain) < 2:
                raise MeshError(f"crease {cid} polyline has fewer than 2 vertices")
            if len(np.unique(chain)) != len(chain):
                raise MeshError(f"crease {cid} polyline is self-intersecting")
            if chain.min() < 0 or chain.max() >= self.num_vertices:
                raise MeshError(f"crease {cid} polyline index out of range")
        return twice_area, angles, boundary, num_edges


def _edge_topology(triangles: np.ndarray, num_vertices: int, meanwhile=lambda: None) -> tuple:
    """(edge count, boundary vertex mask, meanwhile()) from one in-place sort of
    packed edge keys.  A second thread packs and sorts the keys (numpy releases
    the GIL) while this one calls meanwhile; it is joined before this returns
    or raises, and an exception raised on it is raised here.

    Directed edge a->b packs into the int64 key 2*(min*V + max) + (a > b),
    exact while V <= 2**31.  Equal keys are a directed edge used twice, which
    consistent winding forbids (an edge of 3+ triangles always has one); then
    key >> 1, shifted in place, is an undirected edge id, a run of 1 a rim edge.
    """
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= num_vertices:
        raise MeshError("triangle index out of range")  # keys would alias
    keys = np.empty(triangles.size, dtype=np.int64)
    failed = []

    def pack_and_sort():
        try:
            _pack_edge_keys(triangles, num_vertices, keys.reshape(triangles.shape))
            keys.sort()
        except BaseException as exc:
            failed.append(exc)

    sorter = threading.Thread(target=pack_and_sort)
    sorter.start()
    try:
        during = meanwhile()
    finally:
        sorter.join()
    if failed:
        raise failed[0]
    if np.any(keys[1:] == keys[:-1]):
        if np.any(keys[2:] >> 1 == keys[:-2] >> 1):
            raise MeshError("non-manifold edge shared by more than 2 triangles")
        raise OrientationError("inconsistent winding: repeated directed edge")
    edge = np.right_shift(keys, 1, out=keys)
    starts = np.ones(len(edge) + 1, dtype=bool)  # starts[i]: edge[i] opens a run
    np.not_equal(edge[1:], edge[:-1], out=starts[1:-1])
    rim = edge[starts[:-1] & starts[1:]]
    mask = np.zeros(num_vertices, dtype=bool)
    mask[np.concatenate(np.divmod(rim, num_vertices))] = True
    return int(np.count_nonzero(starts[:-1])), mask, during


def _pack_edge_keys(triangles: np.ndarray, num_vertices: int, out: np.ndarray) -> None:
    """Write the packed key of each triangle's directed edges k -> k+1 into
    out (T, 3), a block of triangles at a time."""
    for s in range(0, len(triangles), _BLOCK):
        a = triangles[s:s + _BLOCK]
        b = a[:, [1, 2, 0]]
        pair = np.minimum(a, b) * np.int64(num_vertices) + np.maximum(a, b)
        out[s:s + _BLOCK] = 2 * pair + (a > b)


def _corner_geometry(vertices: np.ndarray, triangles: np.ndarray):
    """(twice_area (T,), corner_dots (3, T)), one cross product per triangle.

    With e_k = p_{k+1} - p_k, corner k lies between e_k and -e_{k-1}, so
    corner_dots[k] = -e_k . e_{k-1}.  |e_0 x e_1| = 2A is common to the three
    corners: corner k's angle is atan2(twice_area, corner_dots[k]).
    """
    twice_area = np.empty(len(triangles))
    dots = np.empty((3, len(triangles)))
    for s in range(0, len(triangles), _BLOCK):
        idx = triangles[s:s + _BLOCK].T
        # x, y, z are (3, block): one coordinate of e_0, e_1, e_2 per row
        x, y, z = (p[[1, 2, 0]] - p for p in (vertices[:, c][idx] for c in range(3)))
        nx = y[0] * z[1] - z[0] * y[1]
        ny = z[0] * x[1] - x[0] * z[1]
        nz = x[0] * y[1] - y[0] * x[1]
        twice_area[s:s + _BLOCK] = np.sqrt(nx * nx + ny * ny + nz * nz)
        prev = [2, 0, 1]
        dots[:, s:s + _BLOCK] = -(x * x[prev] + y * y[prev] + z * z[prev])
    return twice_area, dots


def export_obj(mesh: TriMesh, path) -> None:
    """Write a Wavefront OBJ: v/f records plus one `l` polyline per crease
    under `g crease_<id>`.  1-based indices, LF endings, 9 significant digits
    (`%.9g` formats a float as an f-string's `.9g` does)."""
    if mesh.num_vertices == 0 or mesh.num_triangles == 0:
        raise MeshError("refusing to export an empty mesh")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for template, rows in (("v %.9g %.9g %.9g\n", mesh.vertices),
                               ("f %d %d %d\n", mesh.triangles + 1)):
            for s in range(0, len(rows), _WRITE_BLOCK):  # one % format per block
                block = rows[s:s + _WRITE_BLOCK]
                fh.write(template * len(block) % tuple(block.ravel().tolist()))
        for cid in sorted(mesh.crease_polylines):
            chain = (mesh.crease_polylines[cid] + 1).tolist()
            fh.write(f"g crease_{cid}\nl {' '.join(map(str, chain))}\n")


def load_obj(path) -> TriMesh:
    """Read an OBJ written by export_obj, reconstructing tags from the crease
    groups; other records are ignored, and face token a/b/c names vertex a.
    Raises InputFormatError with the file and line for a `v` record without
    three finite coordinates, a face without three integer indices, or a
    face or polyline index not in 1..(vertex count).  The `v` and `f` records
    go to numpy's text parser as blocks; a file that fails there is read
    again record by record."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        data.decode("utf-8")  # raises what a text-mode read would
    if b"\r" in data:  # universal newlines, as a text-mode read sees them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    parsed = _parse_blocks(path, data)
    if parsed is None:
        parsed = _parse_records(path, enumerate(data.decode("utf-8").split("\n"), 1))
    vertices, vertex_lines, triangles, face_lines, chains = parsed
    n = len(vertices)
    if not n or not len(triangles):
        raise InputFormatError(f"{path}: no triangle geometry found")
    bad = np.flatnonzero(((triangles < 0) | (triangles >= n)).any(axis=1))
    if bad.size:
        raise InputFormatError(f"{path}:{face_lines[bad[0]]}: face index out of range 1..{n}")
    polylines: dict[int, list[int]] = {}
    for ln, cid, chain in chains:
        if min(chain, default=0) < 0 or max(chain, default=0) >= n:
            raise InputFormatError(f"{path}:{ln}: polyline index out of range 1..{n}")
        polylines.setdefault(cid, []).extend(chain)
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if bad.size:
        raise InputFormatError(f"{path}:{vertex_lines[bad[0]]}: non-finite coordinate")
    tags = np.zeros(n, dtype=np.int64)
    for cid, chain in polylines.items():
        if not -2**63 <= cid < 2**63:
            raise InputFormatError(f"{path}: crease id {cid} does not fit in 64 bits")
        tags[chain] = cid
    return TriMesh(vertices, triangles, tags, polylines)


def _parse_records(path, lines) -> tuple:
    """(vertices, their lines, triangles, their lines, (line, crease id,
    chain) per `l` record) from numbered lines, one record at a time;
    InputFormatError at the first record that does not parse."""
    vertices, vertex_lines, triangles, face_lines, chains = [], [], [], [], []
    group = None
    for ln, raw in lines:
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        kind = parts[0]
        try:
            if kind == "v":
                if len(parts) < 4:
                    raise ValueError("a vertex needs 3 coordinates")
                vertices.append([float(x) for x in parts[1:4]])
                vertex_lines.append(ln)
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
                chains.append((ln, cid, [int(p) - 1 for p in parts[1:]]))
        except (ValueError, IndexError) as exc:
            raise InputFormatError(f"{path}:{ln}: {exc}") from exc
    # object dtype: an index too large for int64 is still out of range
    return (np.array(vertices, dtype=np.float64).reshape(-1, 3), vertex_lines,
            np.array(triangles, dtype=object).reshape(-1, 3), face_lines, chains)


def _parse_blocks(path, data: bytes) -> tuple | None:
    """_parse_records' result, with the `v` and `f` records parsed as two
    blocks, or None if the file needs the record scan.  Lines of "v" or "f"
    and an ASCII blank are block records; lines whose first word starts with
    "#" or two ASCII non-blanks (vt, usemtl) are skipped.  The rest (g and l
    records) are scanned, and a v or f record among them fails the blocks."""
    buf = np.frombuffer(data + b"  ", dtype=np.uint8)  # every line has 2 more bytes
    newline = np.flatnonzero(buf == ord("\n"))
    starts, stops = np.r_[0, newline + 1], np.r_[newline, len(data)]
    first, second = buf[starts], buf[starts + 1]
    block = ((first == ord("v")) | (first == ord("f"))) & ~_WORD[second] & (second < 128)
    skip = (first == ord("#")) | (_WORD[first] & _WORD[second])
    try:
        scanned = _parse_records(path, ((i + 1, data[starts[i]:stops[i]].decode("utf-8"))
                                        for i in np.flatnonzero(~(block | skip)).tolist()))
    except InputFormatError:
        return None
    v, f = (np.flatnonzero(block & (first == ord(c))) for c in "vf")
    if len(scanned[0]) or len(scanned[2]) or not len(v) or not len(f):
        return None
    vertices = _loadtxt(_block_text(data, starts, stops, v), usecols=(1, 2, 3))
    # blank the first len(f) "f"s, which are the lines' leading ones unless a
    # token holds an "f": then a leading "f" is left and its line fails
    text = _block_text(data, starts, stops, f).replace("f", " ", len(f))
    triangles = _loadtxt(_SLASH_TAIL.sub("", text) if "/" in text else text, dtype=np.int64)
    if vertices is None or triangles is None or len(vertices) != len(v) \
            or triangles.shape != (len(f), 3):
        return None
    return vertices, v + 1, triangles - 1, f + 1, scanned[4]


def _block_text(data: bytes, starts, stops, idx) -> str:
    """Lines idx of data as one string, one slice per run of adjacent lines."""
    cut = np.flatnonzero(np.diff(idx) != 1) + 1
    runs = zip(idx[np.r_[0, cut]].tolist(), idx[np.r_[cut - 1, -1]].tolist())
    return b"\n".join(data[starts[a]:stops[b]] for a, b in runs).decode("utf-8")


def _loadtxt(text: str, **kw) -> np.ndarray | None:
    """np.loadtxt of text's non-blank lines; None if any fails or warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(text.split("\n"), comments=None, ndmin=2, **kw)
        except (ValueError, Warning):
            return None
