"""Indexed triangle meshes with vertex tags and crease polylines.

Vertex tags: k >= 1 on the vertices of crease k, 0 elsewhere; the boundary
comes from topology.  Crease polylines are ordered vertex-index chains, one
per crease id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputFormatError, MeshError, OrientationError

TAG_INTERIOR = 0

DEGENERATE_AREA_FACTOR = 1e-12
_BLOCK = 1 << 13  # triangles per block in the mesh kernel; keeps temporaries in cache


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

    def triangle_areas(self) -> np.ndarray:
        return 0.5 * _corner_geometry(self.vertices, self.triangles)[0]

    def boundary_vertex_mask(self) -> np.ndarray:
        """Vertices lying on an edge used by exactly one triangle."""
        return _edge_topology(self.triangles, self.num_vertices)[1]

    def euler_characteristic(self) -> int:
        num_edges, _ = _edge_topology(self.triangles, self.num_vertices)
        return self.num_vertices - num_edges + self.num_triangles

    def crease_arc_length(self, crease_id: int) -> float:
        chain = self.crease_polylines[crease_id]
        pts = self.vertices[chain]
        return float(np.linalg.norm(np.diff(pts, axis=0), axis=1).sum())

    # -- validation -------------------------------------------------------

    def validate(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Raise MeshError on any structural invariant violation.  Returns the
        (twice_area, corner_dots, boundary) it computed on the way, so that
        angle_defect measures the mesh without a second pass."""
        if self.num_vertices == 0 or self.num_triangles == 0:
            raise MeshError("mesh has no geometry")
        if len(self.vertex_tags) != self.num_vertices:
            raise MeshError("vertex_tags length does not match vertex count")
        nonfinite = np.flatnonzero(~np.isfinite(self.vertices))
        if nonfinite.size:
            raise MeshError(f"non-finite coordinates at vertex {nonfinite[0] // 3}")
        _, boundary = _edge_topology(self.triangles, self.num_vertices)

        diag = self.bbox_diagonal()
        twice_area, dots = _corner_geometry(self.vertices, self.triangles)
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
        return twice_area, dots, boundary


def _edge_topology(triangles: np.ndarray, num_vertices: int) -> tuple[int, np.ndarray]:
    """(edge count, boundary vertex mask), from one sort of packed edge keys.

    Directed edge a->b packs into the int64 key 2*(min*V + max) + (a > b),
    which is exact while V <= 2**31.  After sorting, a run of equal key >> 1
    is one undirected edge: a run of 1 is a boundary edge, a run of more than
    2 a non-manifold one.  Two equal full keys are one directed edge used
    twice, which consistent winding forbids.
    """
    if triangles.min(initial=0) < 0 or triangles.max(initial=-1) >= num_vertices:
        raise MeshError("triangle index out of range")  # keys would alias
    keys = np.empty(triangles.shape, dtype=np.int64)
    for s in range(0, len(triangles), _BLOCK):
        a = triangles[s:s + _BLOCK]
        b = a[:, [1, 2, 0]]
        pair = np.minimum(a, b) * np.int64(num_vertices) + np.maximum(a, b)
        keys[s:s + _BLOCK] = 2 * pair + (a > b)
    keys = np.sort(keys, axis=None)
    edge = keys >> 1
    if np.any(edge[2:] == edge[:-2]):
        raise MeshError("non-manifold edge shared by more than 2 triangles")
    if np.any(keys[1:] == keys[:-1]):
        raise OrientationError("inconsistent winding: repeated directed edge")
    starts = np.ones(len(edge) + 1, dtype=bool)  # starts[i]: edge[i] opens a run
    np.not_equal(edge[1:], edge[:-1], out=starts[1:-1])
    rim = edge[starts[:-1] & starts[1:]]
    mask = np.zeros(num_vertices, dtype=bool)
    mask[np.concatenate(np.divmod(rim, num_vertices))] = True
    return int(np.count_nonzero(starts[:-1])), mask


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
    under `g crease_<id>`.  1-based indices, LF endings, 9 significant digits."""
    if mesh.num_vertices == 0 or mesh.num_triangles == 0:
        raise MeshError("refusing to export an empty mesh")
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


def load_obj(path) -> TriMesh:
    """Read an OBJ written by export_obj, reconstructing tags from the crease
    groups.  Raises InputFormatError with the file and line if a `v` record
    has fewer than three coordinates, or a face or polyline index is not in
    1..(vertex count)."""
    vertices: list[list[float]] = []
    triangles: list[list[int]] = []
    face_lines: list[int] = []
    polylines: dict[int, list[int]] = {}
    chains: list[tuple[int, list[int]]] = []  # (line, 0-based indices) per `l`
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
