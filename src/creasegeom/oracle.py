"""Independent discrete-geometry checks: angle-defect curvature on triangle
meshes and numerical Gauss maps on smooth parametric patches.  Nothing here
uses the closed forms elsewhere in the package, so agreement between the two
routes is meaningful evidence."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MeshError, ParameterError, ResolutionError
from .surfaces import _check_size
from .trimesh import TriMesh

GAUSS_MAP_STEP_FACTOR = 1e-5
_BLOCK = 1 << 14  # Gauss map cells or exact-sum values at a time: temporaries stay in cache


# ---------------------------------------------------------------------------
# angle defect
# ---------------------------------------------------------------------------

@dataclass
class DefectField:
    """Per-vertex angle defect of a mesh, with lumped areas and crease figures.

    defect        (V,) angle defect: 2*pi minus the angle sum at interior
                  vertices, pi minus it at topological-boundary vertices
    lumped_area   (V,) one third of each incident triangle's area
    boundary_mask (V,) topological boundary vertices
    crease_mask   (V,) vertices on any crease polyline
    crease_totals  defect summed over each crease's non-boundary vertices
    crease_rates   crease_totals per unit arc length, each vertex owning half
                   of its adjacent intervals, boundary chain endpoints excluded
    crease_lengths arc length of each whole crease polyline
    euler_characteristic  V - E + T of the mesh

    Defect sums are exact: _exact_sum's int64 limb sums and math.fsum give
    the same correctly rounded sum of the terms.
    """

    defect: np.ndarray
    lumped_area: np.ndarray
    boundary_mask: np.ndarray
    crease_mask: np.ndarray
    crease_totals: dict[int, float] = field(default_factory=dict)
    crease_rates: dict[int, float] = field(default_factory=dict)
    crease_lengths: dict[int, float] = field(default_factory=dict)
    euler_characteristic: int = 0

    @property
    def total_defect(self) -> float:
        """Sum of defect over all non-boundary vertices."""
        return _exact_sum(self.defect[~self.boundary_mask])

    def interior_defect_density(self) -> float:
        """Defect per unit area over non-crease, non-boundary vertices."""
        sel = ~(self.boundary_mask | self.crease_mask)
        area = float(self.lumped_area[sel].sum())
        if area == 0.0:
            raise MeshError("mesh has no interior vertices to average over")
        return _exact_sum(self.defect[sel]) / area


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum(values), bit for bit, from int64 limb sums.  A limb holds
    width = 63 - len(values).bit_length() bits, so no column sum overflows.
    For 1, 2 or 3 limbs, a power of two scales the largest magnitude to just
    below 2**(limbs * width); if every scaled value is then an integer, trunc
    splits it exactly into limbs, their sums make the exact total as a Python
    int, and one correctly rounded int / int division gives fsum's value.
    Defects (on the 2**-50 grid) take one limb while len * max|value| < 2**12.
    Empty, zero-sum (fsum sets its sign), nan or inf input, and bits spread
    over more than three limbs, go to math.fsum."""
    n = len(values)
    top = float(max(values.max(), -values.min())) if n else 0.0
    if 0.0 < top < np.inf:
        width = 63 - n.bit_length()  # n * 2**width <= 2**63
        top_exp = int(np.frexp(top)[1])  # top < 2**top_exp
        for limbs in (1, 2, 3):
            shift = limbs * width - top_exp
            if shift < 0 or not np.ldexp(top, shift).is_integer():
                continue  # top alone rules this window out
            total = 0
            for s in range(0, n, _BLOCK):
                rest = np.ldexp(values[s:s + _BLOCK], shift)  # |rest| < 2**(limbs * width)
                for k in range(limbs - 1, -1, -1):
                    limb = (rest * 2.0 ** (-k * width)).astype(np.int64)
                    rest -= limb * 2.0 ** (k * width)  # exact: the bits of rest below limb
                    total += int(limb.sum()) << (k * width)
                if rest.any():
                    break  # a value has bits below the window
            else:
                return total / (1 << shift) if total else math.fsum(values)  # fsum signs a 0
    return math.fsum(values)


def angle_defect(mesh: TriMesh) -> DefectField:
    """Angle-defect field of a validated mesh.

    Validation runs first, so inconsistent winding raises OrientationError
    before any curvature is reported; its per-vertex angle sums, lumped
    areas and boundary mask give every angle and area used here.  The
    barycentric lumped area, not the mixed Voronoi area of Meyer, Desbrun,
    Schroeder & Barr (2003), suffices: each strip is a uniform grid split
    along its shorter diagonals, so interior vertices have centrally
    symmetric valence-6 rings, where defect / barycentric area converges
    pointwise to K (Borrelli, Cazals & Morvan 2003).
    """
    angle_sum, lumped, boundary, num_edges = mesh.validate()
    defect = np.where(boundary, math.pi, 2.0 * math.pi) - angle_sum

    out = DefectField(defect=defect, lumped_area=lumped, boundary_mask=boundary,
                      crease_mask=np.zeros(mesh.num_vertices, dtype=bool),
                      euler_characteristic=mesh.num_vertices - num_edges + mesh.num_triangles)
    for cid, chain in mesh.crease_polylines.items():
        out.crease_mask[chain] = True
        seg = np.linalg.norm(np.diff(mesh.vertices[chain], axis=0), axis=1)
        assoc = np.zeros(len(chain))
        assoc[:-1] += 0.5 * seg  # half of each interval to either endpoint
        assoc[1:] += 0.5 * seg
        keep = ~boundary[chain]
        length = float(assoc[keep].sum())
        if length == 0.0:
            raise MeshError(f"crease {cid} has no non-boundary vertices")
        out.crease_lengths[cid] = float(seg.sum())
        out.crease_totals[cid] = _exact_sum(defect[chain[keep]])
        out.crease_rates[cid] = out.crease_totals[cid] / length
    return out


# ---------------------------------------------------------------------------
# numerical Gauss map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussMapResult:
    """Signed solid angle swept by the unit normals over a parameter region;
    anchor_stride is 4 where the finer grids extend the quarter tiling by
    boundary strips, 1 where every grid was tiled whole."""

    value: float
    extrapolated: float
    error_estimate: float
    converged: bool
    nu: int
    nv: int
    anchor_stride: int = 1


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over (3, ...) component planes, summed (p0 + p2) + p1 as numpy's
    einsum("...i,...i->...") sums three terms, so dot(a, b) == dot(b, a)."""
    return (a[0] * b[0] + a[2] * b[2]) + a[1] * b[1]


def _cross(a, b) -> list:
    """The three planes of a x b over (3, ...) planes, a1*b2 - a2*b1 etc. as np.cross."""
    return [a[i] * b[j] - a[j] * b[i] for i, j in ((1, 2), (2, 0), (0, 1))]


def _normals(fn, u, v, hu, hv) -> np.ndarray:
    """Unit normals of fn at the grid of u and v as (3, ...) component planes."""
    def planes(u, v):  # fn's points as (3, ...) views
        out = np.asarray(fn(u, v), dtype=float)
        shape = np.broadcast_shapes(u.shape, v.shape) + (3,)
        if out.shape != shape:
            raise ParameterError(f"surface function returned shape {out.shape}, expected {shape}")
        return np.moveaxis(out, -1, 0)

    su = np.subtract(planes(u + hu, v), planes(u - hu, v), order="C")
    n = _cross(su, np.subtract(planes(u, v + hv), planes(u, v - hv), order="C"))
    norm = np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])  # np.linalg.norm's order
    if not (norm.min() >= 1e-300 and norm.max() < np.inf):  # a nan fails both
        raise ParameterError("degenerate surface normal in the requested region")
    for k in range(3):
        np.divide(n[k], norm, out=su[k])
    return su


def _swept_area(normals: Callable, rows: int, cols: int) -> float:
    """Exactly summed signed area of the rows x cols quads of unit normal
    planes, split into triangles (n00, n10, n11) and (n00, n11, n01):
    2 atan2(a . b x c, 1 + a.b + b.c + c.a) each (Van Oosterom & Strackee
    1983), with every a.b from one of three edge grids (vertical, horizontal,
    diagonal) in einsum's order.  normals(i, j) gives the C-ordered planes of
    grid rows i to j inclusive, about _BLOCK cells at a time.  Flat, with w =
    cols + 1, cell t's n00, n10, n11 and n01 are t, t + w, t + w + 1 and t + 1,
    so each dot grid is a slice; each row's wrap cell (the last padded) is cut."""
    cells = np.empty((rows, cols))
    step, w = max(1, _BLOCK // cols), cols + 1
    for i in range(0, rows, step):
        j = min(i + step, rows)
        p, n = [plane.reshape(-1) for plane in normals(i, j)], (j - i) * w
        n00, n10, n11, n01 = ([q[k:k + n - 1] for q in p] for k in (0, w, w + 1, 1))
        vert = _dot([q[:n] for q in p], [q[w:] for q in p])
        horiz = _dot([q[:-1] for q in p], [q[1:] for q in p])
        diag = _dot(n00, n11)
        lower = np.arctan2(_dot(n00, _cross(n10, n11)), 1.0 + vert[:-1] + horiz[w:] + diag)
        upper = np.arctan2(_dot(n00, _cross(n11, n01)), 1.0 + diag + vert[1:] + horiz[:n - 1])
        cells[i:j] = np.append(2.0 * lower + 2.0 * upper, 0.0).reshape(j - i, w)[:, :cols]
        del p, n00, n10, n11, n01, vert, horiz, diag, lower, upper  # before the next block
    return _exact_sum(cells.ravel())


def _ring_and_grid(normals: Callable, rows: int, cols: int):
    """One pass over the normals(i, j) blocks of a rows x cols grid, as in
    _swept_area: the ring of boundary normals, turning as its quads do from
    (0, 0), and every 4th row and column; or (None, None) as soon as a 4 x 4
    cell's normals, rim included, do not all have positive dots with the sum
    of its four corners, which puts them in one open hemisphere (a copy of a
    cell split between blocks waits for the next)."""
    grid, sides = np.empty((3, rows // 4 + 1, cols // 4 + 1)), np.empty((3, rows + 1, 2))
    step, band = max(1, _BLOCK // cols), None
    for i in range(0, rows, step):
        j = min(i + step, rows)
        m = normals(i, j)
        grid[:, -(-i // 4):j // 4 + 1] = m[:, -i % 4::4, ::4]
        sides[:, i:j + 1] = m[:, :, ::cols]
        top = m[:, 0].copy() if i == 0 else top
        band = m if band is None else np.concatenate([band, m[:, 1:]], axis=1)  # from row 4 k
        done = (band.shape[1] - 1) // 4 * 4
        if done:  # each row of cells, rims included, against each cell's corner sum
            q = band[:, :done + 1:4, ::4]
            c = (q[:, :-1, :-1] + q[:, 1:, :-1]) + (q[:, 1:, 1:] + q[:, :-1, 1:])
            cells = sliding_window_view(band[:, :done + 1], 5, axis=1)[:, ::4].swapaxes(2, 3)
            if not (np.einsum("ijab,ijb->jab", cells[..., :-1], np.repeat(c, 4, axis=2)).min() > 0.0
                    and np.einsum("ijab,ijb->jab", cells[..., 4::4], c).min() > 0.0):  # right rims
                return None, None
        band = band[:, done:].copy() if j % 4 else None
    ring = [sides[:, :-1, 0], m[:, -1, :-1], sides[:, :0:-1, 1], top[:, :0:-1]]
    return np.concatenate(ring, axis=1), grid


def _strips(ring: np.ndarray, t: int) -> np.ndarray:
    """Signed solid angles of the strips between the closed ring and its
    every t-th point p, each a fan of triangles (p, p + k, p + k + 1)."""
    k = np.arange(ring.shape[1])
    k = k[k % t != 0]
    a, b, c = (ring[:, i % ring.shape[1]] for i in (k - k % t, k, k + 1))
    return 2.0 * np.arctan2(_dot(a, _cross(b, c)), 1.0 + _dot(a, b) + _dot(b, c) + _dot(c, a))


def gauss_map_integrate(fn: Callable, region: tuple[float, float, float, float],
                        nu: int = 128, nv: int = 128) -> GaussMapResult:
    """Signed area swept on the unit sphere by the normals of fn over region.

    fn(u, v) takes a (k, 1) block of the grid's column of u and its (1, nv+1)
    row of v and returns the (k, nv+1, 3) points of their broadcast grid, so
    it must be elementwise.  Normals come from central differences with step
    1e-5 of the parameter span, about 2**14 cells at a time, in one pass that
    keeps the boundary ring and the quarter grid (every 4th row and column).
    A tiling of normals encloses the area of its boundary loop up to a
    multiple of 4 pi, and exactly when each quarter cell's normals lie in
    one open hemisphere, which the pass checks.  Then only the quarter grid
    is tiled, with spherical quads whose cells are summed exactly, and the
    fine and half values add the exactly summed strips between the quarter
    ring and theirs.  Else, from the first cell that fails, every grid is
    tiled whole, its normals formed again (fn is elementwise, so they are
    the fine normals' bits).  The three values give a Richardson error
    estimate and an O(h^2) convergence check.  Before any
    array is built, an empty or non-finite region raises ParameterError, and
    nu or nv that is not an int or is below 4 (bools are), or a grid of more
    than surfaces.MAX_VERTICES points once both are rounded up to multiples
    of 4, raises ResolutionError."""
    u0, u1, v0, v1 = region
    if not (u1 > u0 and v1 > v0):
        raise ParameterError(f"empty parameter region {region}")
    if not (math.isfinite(u1 - u0) and math.isfinite(v1 - v0)):
        raise ParameterError(f"parameter region {region} is not finite")
    if not all(isinstance(k, (int, np.integer)) and k >= 4 for k in (nu, nv)):  # a bool is below 4
        raise ResolutionError(f"nu and nv must be integers >= 4, got ({nu!r}, {nv!r})")
    nu, nv = (int(k) + -int(k) % 4 for k in (nu, nv))  # subsampling needs multiples of 4
    _check_size((nu + 1) * (nv + 1))
    hu, hv = GAUSS_MAP_STEP_FACTOR * (u1 - u0), GAUSS_MAP_STEP_FACTOR * (v1 - v0)
    u = np.linspace(u0, u1, nu + 1)[:, None]
    v = np.linspace(v0, v1, nv + 1)[None, :]
    def normals(t):  # rows i to j of the grid of every t-th row and column
        return lambda i, j: _normals(fn, u[t * i:t * j + 1:t], v[:, ::t], hu, hv)
    ring, grid = _ring_and_grid(normals(1), nu, nv)
    if ring is None:  # a quarter cell failed: each stride's grid tiled whole
        quarter, half, fine = (_swept_area(normals(t), nu // t, nv // t) for t in (4, 2, 1))
    else:
        quarter = _swept_area(lambda i, j: grid[:, i:j + 1], nu // 4, nv // 4)
        half, fine = (quarter + _exact_sum(np.append(_strips(ring, 4), -_strips(ring, t)))
                      for t in (2, 1))  # strips(1) is empty
    d1, d2 = fine - half, half - quarter  # O(h^2) tiling: halving the grid quarters the error
    converged = abs(d1) < 1e-13 * max(1.0, abs(fine)) or 2.0 <= abs(d2) / abs(d1) <= 8.0
    return GaussMapResult(value=fine, extrapolated=fine + d1 / 3.0, error_estimate=abs(d1) / 3.0,
                          converged=converged, nu=nu, nv=nv, anchor_stride=1 if ring is None else 4)
