"""Indexed triangle meshes with crease polylines.

A crease polyline is an ordered vertex-index chain, one per crease id, and
the only record of which vertices lie on a crease; the boundary comes from
topology.
"""

from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputFormatError, MeshError, OrientationError

DEGENERATE_AREA_FACTOR = 1e-12
_BLOCK = 1 << 13  # triangles per block in the mesh kernel; keeps temporaries in cache
_WRITE_BLOCK = 1 << 11  # OBJ records formatted per write; keeps temporaries in cache
_LOAD_BLOCK = 1 << 13  # OBJ v or f lines per np.loadtxt call; bounds its text and line list
_SCAN_BLOCK = 1 << 18  # OBJ bytes searched for newlines at a time
_INT32_OFFSETS = 2**31 - 2  # OBJ files shorter than this hold line offsets (+ 2) in int32
# byte -> is ASCII and not whitespace, so continues an OBJ keyword
_WORD = np.array([c < 128 and not chr(c).isspace() for c in range(256)])
_SLASH_TAIL = re.compile(r"(?<=\S)/\S*")  # the "/b/c" of a face token "a/b/c"


@dataclass
class TriMesh:
    vertices: np.ndarray                 # (V, 3) float64
    triangles: np.ndarray                # (T, 3) int32 as given, else int64; CCW outward
    crease_polylines: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        index = np.int32 if getattr(self.triangles, "dtype", None) == np.int32 else np.int64
        self.triangles = np.asarray(self.triangles, dtype=index).reshape(-1, 3)
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

    # -- validation -------------------------------------------------------

    def validate(self) -> tuple:
        """Raise MeshError on any structural invariant violation: topology faults
        first, before any corner is summed, then a triangle whose area is not
        finite (the coordinates overflow the kernel), then a degenerate one.
        Returns each vertex's corner-angle sum and lumped area (V,), the
        boundary mask (V,) and the edge count it computed, so angle_defect
        measures without a second pass."""
        if self.num_vertices == 0 or self.num_triangles == 0:
            raise MeshError("mesh has no geometry")
        nonfinite = np.flatnonzero(~np.isfinite(self.vertices))
        if nonfinite.size:
            raise MeshError(f"non-finite coordinates at vertex {nonfinite[0] // 3}")
        triangles, num_vertices = self.triangles, self.num_vertices
        if triangles.min() < 0 or triangles.max() >= num_vertices:
            raise MeshError("triangle index out of range")  # keys would alias
        num_edges, boundary = _edge_topology(triangles, num_vertices)  # frees its keys
        angle_sum, lumped, diag, (bad, twice_area) = _vertex_sums(self.vertices, triangles)
        if not np.isfinite(twice_area):
            raise MeshError(f"triangle {bad} has a non-finite area ({twice_area / 2})")
        limit = DEGENERATE_AREA_FACTOR * diag * diag
        if twice_area <= 2.0 * limit:
            raise MeshError(
                f"degenerate triangle {bad} (area {twice_area / 2:.3e} <= {limit:.3e})"
            )

        for cid, chain in self.crease_polylines.items():
            if len(chain) < 2:
                raise MeshError(f"crease {cid} polyline has fewer than 2 vertices")
            ordered = np.sort(chain)  # a repeated vertex sorts beside itself
            if (ordered[1:] == ordered[:-1]).any():
                raise MeshError(f"crease {cid} polyline is self-intersecting")
            if chain.min() < 0 or chain.max() >= self.num_vertices:
                raise MeshError(f"crease {cid} polyline index out of range")
        return angle_sum, lumped, boundary, num_edges


def _edge_topology(triangles: np.ndarray, num_vertices: int) -> tuple:
    """(edge count, boundary vertex mask (V,)) from one in-place sort of
    packed edge keys (3T,), which are freed when this returns.

    Directed edge a->b packs into the int64 key 2*(min*V + max) + (a > b),
    exact while V <= 2**31.  Equal keys are a directed edge used twice, which
    consistent winding forbids (an edge of 3+ triangles always has one).
    Otherwise key >> 1, shifted in place, is an undirected edge id, a run of
    1 a rim edge.
    """
    keys = np.empty(triangles.size, dtype=np.int64)
    _pack_edge_keys(triangles, num_vertices, keys.reshape(triangles.shape))
    keys.sort()
    starts = np.ones(len(keys) + 1, dtype=bool)  # starts[i]: edge[i] opens a run
    if np.equal(keys[1:], keys[:-1], out=starts[1:-1]).any():
        if np.any(keys[2:] >> 1 == keys[:-2] >> 1):
            raise MeshError("non-manifold edge shared by more than 2 triangles")
        raise OrientationError("inconsistent winding: repeated directed edge")
    edge = np.right_shift(keys, 1, out=keys)
    np.not_equal(edge[1:], edge[:-1], out=starts[1:-1])
    num_edges = int(np.count_nonzero(starts[:-1]))
    # starts[i] &= starts[i + 1] marks the rim edges, in place a block at
    # a time: a block reads one entry of the next, not yet overwritten
    for s in range(0, len(edge), _BLOCK):
        e = min(s + _BLOCK, len(edge))
        np.logical_and(starts[s:e], starts[s + 1:e + 1], out=starts[s:e])
    mask = np.zeros(num_vertices, dtype=bool)
    mask[np.concatenate(np.divmod(edge[starts[:-1]], num_vertices))] = True
    return num_edges, mask


def _pack_edge_keys(triangles: np.ndarray, num_vertices: int, out: np.ndarray) -> None:
    """Write the packed key of each triangle's directed edges k -> k+1 into
    out (T, 3), a block of triangles at a time."""
    for s in range(0, len(triangles), _BLOCK):
        a = triangles[s:s + _BLOCK]
        b = np.roll(a, -1, axis=1)
        key = out[s:s + _BLOCK]
        higher = a > b
        np.minimum(a, b, out=key)
        key *= num_vertices
        key += np.maximum(a, b, out=b)
        key *= 2
        key += higher


def _vertex_sums(vertices: np.ndarray, triangles: np.ndarray) -> tuple:
    """(angle_sum (V,), lumped_area (V,), bounding-box diagonal, worst): each
    vertex's corner angles and a third of its triangles' areas, summed, and
    (triangle, twice its area) of the first non-finite area, else of the
    first smallest.  One cross product per triangle, a block at a time.

    With e_k = p_{k+1} - p_k, corner k lies between e_k and -e_{k-1}, so its
    dot is -e_k . e_{k-1}; |e_0 x e_1| = 2A is common to the three corners,
    and corner k's angle is atan2(2A, dot_k).  np.add.at adds the corners in
    triangle order (triangle t's corners 0, 1, 2, then triangle t + 1's), so
    each sum equals np.bincount(triangles.ravel(), weights=...) bit for bit,
    whatever _BLOCK is.
    """
    angle_sum, lumped = np.zeros(len(vertices)), np.zeros(len(vertices))
    worst = (np.inf, 0, np.inf)  # (rank, triangle, twice its area)
    with np.errstate(over="ignore", invalid="ignore"):  # validate reports the overflow
        diag = float(np.linalg.norm([np.ptp(column) for column in vertices.T]))
        for s in range(0, len(triangles), _BLOCK):
            corners = triangles[s:s + _BLOCK].astype(np.intp).ravel()  # cast once, not per gather
            idx = corners.reshape(-1, 3).T
            # x, y, z are (3, block): one coordinate of e_0, e_1, e_2 per row
            x, y, z = (p[[1, 2, 0]] - p for p in (vertices[:, c][idx] for c in range(3)))
            nx = y[0] * z[1] - z[0] * y[1]
            ny = z[0] * x[1] - x[0] * z[1]
            nz = x[0] * y[1] - y[0] * x[1]
            twice_area = np.sqrt(nx * nx + ny * ny + nz * nz)
            prev = [2, 0, 1]
            angles = np.empty((len(twice_area), 3))  # np.add.at is fast on contiguous 1-D values
            np.arctan2(twice_area, -(x * x[prev] + y * y[prev] + z * z[prev]), out=angles.T)
            np.add.at(angle_sum, corners, angles.ravel())
            np.add.at(lumped, corners, np.repeat(twice_area / 6.0, 3))
            rank = np.where(np.isfinite(twice_area), twice_area, -1.0)  # non-finite first
            low = int(np.argmin(rank))
            if rank[low] < worst[0]:  # of equal ranks, the earlier triangle stays
                worst = (rank[low], s + low, twice_area[low])
    return angle_sum, lumped, diag, worst[1:]


def export_obj(mesh: TriMesh, path) -> None:
    """Write a Wavefront OBJ: v/f records plus one `l` polyline per crease
    under `g crease_<id>`.  1-based indices, LF endings, each value as `%.9g`
    or `%d` writes it: _WRITE_BLOCK records at a time (under 1 MB) as rows of
    NUL-padded words of 3-digit chunks, written without the NULs, and by `%`
    a row with a value _vertex_records cannot prove or an index outside 0..999999998."""
    if mesh.num_vertices == 0 or mesh.num_triangles == 0:
        raise MeshError("refusing to export an empty mesh")
    with open(path, "wb") as fh:
        for records, rows in ((_vertex_records, mesh.vertices), (_face_records, mesh.triangles)):
            for s in range(0, len(rows), _WRITE_BLOCK):
                fh.write(records(rows[s:s + _WRITE_BLOCK]))
        for cid in sorted(mesh.crease_polylines):
            chain = (mesh.crease_polylines[cid] + 1).tolist()
            fh.write(f"g crease_{cid}\nl {' '.join(map(str, chain))}\n".encode())


@functools.cache  # built on first use: 3 ms that runs without OBJ output skip
def _chunks() -> np.ndarray:
    """Chunks 000..999 as little-endian words of NUL-padded text, in blocks of
    1000: as is, from 1000 without leading zeros, from 2000 without trailing
    zeros, then with a point after digit 1, 2 or 3, as is and as %g strips it."""
    digits = [b"%03d" % c for c in range(1000)]
    return np.array(
        digits + [c.lstrip(b"0") for c in digits] + [c.rstrip(b"0") for c in digits]
        + [c[:d] + (b"." + c[d:]).rstrip(b"0").rstrip(b".") if strip else c[:d] + b"." + c[d:]
           for d in (1, 2, 3) for strip in (0, 1) for c in digits], dtype="S4").view("<u4")


# The block of mantissa chunk k, by (e - 3k + 11) * 2 + (the later chunks are 0).
_MANTISSA = np.array([3000 + 2000 * d + 1000 * zeros if 0 <= d <= 2 else 2000 * zeros * (d < 0)
                      for d in range(-11, 10) for zeros in (0, 1)])
# "v " or " ", sign and for e < 0 "0." and -e - 1 zeros, as an 8-byte word, by
# (e + 5) * 2 + sign + 30 for the coordinates after the first.
_PREFIX = np.array([head + sign + (b"0." + b"0" * (-e - 1) if e < 0 else b"")
                    for head in (b"v ", b" ") for e in range(-5, 10) for sign in (b"", b"-")],
                   dtype="S8").view("<u8")
_POW10 = np.array([float(10**k) for k in range(14)])  # exact


def _vertex_records(block: np.ndarray) -> bytes:
    """`v` records of vertex rows (R, 3).  With e = floor(log10 |x|), one
    rounding puts s = |x| * 10**(8 - e) within ulp(s) / 2 <= 2**-24 of exact
    for s <= 1e9, so for s in [1e8, 1e9] further than 2**-23 from a half
    integer, m = rint(s) is the correctly rounded mantissa (1e9 carries to
    1e8, e + 1), written with the point after digit e for e in -4..8."""
    x = block.ravel()
    a, zero = np.fmin(np.abs(x), 1e300), x == 0  # inf and nan as 1e300, which go to %
    e = np.clip(np.floor(np.log10(a + zero)), -5, 8).astype(np.intp)
    s = a * _POW10[8 - e]
    m = np.rint(s)
    m, e = np.where(m == 1e9, 1e8, m), e + (m == 1e9)  # the carry
    fast = (s >= 1e8) & (s <= 1e9) & (np.abs(s - m) < 0.5 - 2.0**-23) & (e >= -4) & (e <= 8)
    fast |= zero  # e = 0, m = 0: "0"
    m = np.where(fast, m, 0).astype(np.int32)
    c = (m // 10**6, m // 1000 % 1000, m % 1000)
    z = ((c[1] == 0) & (c[2] == 0), c[2] == 0, 1)  # the later chunks are 0
    words = np.empty((len(block), 18), "<u4")  # per coordinate: prefix (2), mantissa (3), end
    words.view("<u8")[:, 0::3] = _PREFIX[(2 * e + np.signbit(x)).reshape(-1, 3) + (10, 40, 40)]
    for k in range(3):
        words[:, 2 + k::6] = _chunks()[c[k] + _MANTISSA[2 * e + 22 - 6 * k + z[k]]].reshape(-1, 3)
    words[:, 5::6] = (0, 0, ord("\n"))
    return _compact(words, ~fast, "v %.9g %.9g %.9g\n", block)


def _face_records(block: np.ndarray) -> bytes:
    """`f` records of triangle rows (R, 3): each index + 1 as three chunks."""
    n = block.ravel() + 1
    fast = (n > 0) & (n < 10**9)
    n = np.where(fast, n, 0).astype(np.int32)
    words = np.full((len(block), 10), int.from_bytes(b"f ", "little"), "<u4")
    for k, c in enumerate((n // 10**6, n // 1000 % 1000, n % 1000)):  # leading zeros dropped
        words[:, 1 + k::3] = _chunks()[c + 1000 * (n < 1000 ** (3 - k))].reshape(-1, 3)
    words.view(np.uint8)[:, 15::12] = np.frombuffer(b"  \n", np.uint8)
    return _compact(words, ~fast, "f %d %d %d\n", block + 1)


def _compact(words: np.ndarray, slow: np.ndarray, template: str, rows: np.ndarray) -> bytes:
    """Word rows (R, W) as bytes without NULs, a row with a slow value as template % row."""
    text = words.view(np.uint8)
    redo = sorted(set((np.flatnonzero(slow) // rows.shape[1]).tolist()))
    if len(redo):
        lines = np.array([template % tuple(row) for row in rows[redo].tolist()], dtype="S")
        text = np.pad(text, ((0, 0), (0, max(0, lines.itemsize - text.shape[1]))))
        text[redo] = lines.astype(f"S{text.shape[1]}").view(np.uint8).reshape(len(redo), -1)
    return text.tobytes().translate(None, b"\0")


def load_obj(path) -> TriMesh:
    """Read an OBJ written by export_obj, one crease polyline per crease
    group (its `l` records joined, `l 1 2` and `l 2 3` as `l 1 2 3`); other
    records are ignored, and face token a/b/c names vertex a.
    Raises InputFormatError with the file and line for a `v` record without
    three finite coordinates, a face without three integer indices, or a
    face or polyline index not in 1..(vertex count).  The `v` and `f` records
    go to numpy's text parser _LOAD_BLOCK lines at a time; a file that fails
    there is read again record by record.  Triangles are int32."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        data.decode("utf-8")  # raises what a text-mode read would
    if b"\r" in data:  # universal newlines, as a text-mode read sees them
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    vertices, vertex_lines, triangles, chains = _parse_blocks(path, data) or _parse_records(
        path, enumerate(data.decode("utf-8").split("\n")))
    n = len(vertices)
    if not n or not len(triangles):
        raise InputFormatError(f"{path}: no triangle geometry found")
    polylines: dict[int, list[int]] = {}
    for ln, cid, chain in chains:
        if min(chain, default=0) < 0 or max(chain, default=0) >= n:
            raise InputFormatError(f"{path}:{ln + 1}: polyline index out of range 1..{n}")
        joined = polylines.setdefault(cid, [])  # a record may restart where the chain ends
        joined.extend(chain[1:] if joined and chain and chain[0] == joined[-1] else chain)
    bad = np.flatnonzero(~np.isfinite(vertices).all(axis=1))
    if bad.size:
        raise InputFormatError(f"{path}:{vertex_lines[bad[0]] + 1}: non-finite coordinate")
    for cid in polylines:
        if not -2**63 <= cid < 2**63:
            raise InputFormatError(f"{path}: crease id {cid} does not fit in 64 bits")
    return TriMesh(vertices, triangles, polylines)


def _parse_records(path, lines) -> tuple:
    """(vertices, their lines, int32 triangles, (line, crease id, chain) per
    `l` record) from lines numbered from 0, one record at a time;
    InputFormatError at the first record that does not parse, else at the
    first face with an index not in 1..(vertex count) if there are vertices."""
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
                idx = [int(p.split("/")[0]) for p in parts[1:]]
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
            raise InputFormatError(f"{path}:{ln + 1}: {exc}") from exc
    n = len(vertices)  # if 0, load_obj reports no geometry, so faces are only counted
    for ln, idx in zip(face_lines, triangles if n else []):  # checked before int32 narrows them
        if not all(1 <= i <= n for i in idx):
            raise InputFormatError(f"{path}:{ln + 1}: face index out of range 1..{n}")
    return (np.array(vertices, dtype=np.float64).reshape(-1, 3), vertex_lines,
            np.array(triangles, dtype=np.int32).reshape(-1, 3) - 1 if n
            else np.zeros((len(triangles), 3), dtype=np.int32), chains)


def _parse_blocks(path, data: bytes) -> tuple | None:
    """_parse_records' result, with the `v` and `f` records parsed in blocks
    of _LOAD_BLOCK lines into arrays of their final size, or None if the file
    needs the record scan.  Lines of "v" or "f" and an ASCII blank are block
    records; lines whose first word starts with "#" or two ASCII non-blanks
    (vt, usemtl) are skipped.  The rest are scanned: with no block record
    that is the record scan, else a v or f record among them fails the
    blocks, as does a face index out of range, which the record scan reports."""
    if not data:
        return None  # the record scan finds no geometry
    # line i is data[ends[i] + 1:ends[i + 1]]; newlines are found _SCAN_BLOCK bytes at a time
    buf = np.frombuffer(data, dtype=np.uint8)
    dtype = np.int32 if len(data) < _INT32_OFFSETS else np.int64  # of line ends and numbers
    ends = np.concatenate([[-1], *(np.flatnonzero(buf[s:s + _SCAN_BLOCK] == ord("\n")) + s
                                   for s in range(0, len(data), _SCAN_BLOCK)), [len(data)]],
                          dtype=dtype)
    first, second = (np.where(i < len(buf), buf[np.minimum(i, len(buf) - 1)], ord(" "))
                     for i in (ends[:-1] + 1, ends[:-1] + 2))  # a blank past the end
    block = ((first == ord("v")) | (first == ord("f"))) & ~_WORD[second] & (second < 128)
    skip = (first == ord("#")) | (_WORD[first] & _WORD[second])
    v, f = (np.flatnonzero(block & (first == ord(c))).astype(dtype) for c in "vf")
    other = np.flatnonzero(~(block | skip))
    del first, second, block, skip
    scan = ((i, data[ends[i] + 1:ends[i + 1]].decode("utf-8")) for i in other.tolist())
    if not len(v) and not len(f):  # the other lines are every line that is not skipped
        return _parse_records(path, scan)
    try:
        scanned = _parse_records(path, scan)
    except InputFormatError:
        return None
    if len(scanned[0]) or len(scanned[2]) or not len(v) or not len(f):
        return None
    vertices, triangles = np.empty((len(v), 3)), np.empty((len(f), 3), dtype=np.int32)
    for rows, lines in ((vertices, v), (triangles, f)):
        for s in range(0, len(lines), _LOAD_BLOCK):
            chunk = lines[s:s + _LOAD_BLOCK]
            text = _block_text(data, ends, chunk)
            if rows is vertices:
                part = _loadtxt(text, usecols=(1, 2, 3))
            else:  # blank the first len(chunk) "f"s, which are the lines' leading ones
                # unless a token holds an "f": then a leading "f" is left and its line fails
                text = text.replace("f", " ", len(chunk))
                part = _loadtxt(_SLASH_TAIL.sub("", text) if "/" in text else text,
                                dtype=np.int64)
            if part is None or part.shape != (len(chunk), 3) or (
                    rows is triangles and ((part < 1) | (part > len(v))).any()):
                return None  # an index is checked before int32 narrows it: 2**32 + 2 wraps to 2
            rows[s:s + len(chunk)] = part
    triangles -= 1
    return vertices, v, triangles, scanned[3]


def _block_text(data: bytes, ends, idx) -> str:
    """Lines idx of data as one string, one slice per run of adjacent lines."""
    cut = np.flatnonzero(np.diff(idx) != 1) + 1
    runs = zip(idx[np.r_[0, cut]].tolist(), idx[np.r_[cut - 1, -1]].tolist())
    return b"\n".join(data[ends[a] + 1:ends[b + 1]] for a, b in runs).decode("utf-8")


def _loadtxt(text: str, **kw) -> np.ndarray | None:
    """np.loadtxt of text's non-blank lines; None if any fails or warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(text.split("\n"), comments=None, ndmin=2, **kw)
        except (ValueError, Warning):
            return None
