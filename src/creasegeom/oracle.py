"""Independent discrete-geometry checks: angle-defect curvature on triangle
meshes and numerical Gauss maps on smooth parametric patches.  Nothing here
uses the closed forms elsewhere in the package, so agreement between the two
routes is meaningful evidence."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import MeshError, ParameterError, ResolutionError
from .trimesh import TAG_INTERIOR, TriMesh

GAUSS_MAP_STEP_FACTOR = 1e-5


# ---------------------------------------------------------------------------
# angle defect
# ---------------------------------------------------------------------------

@dataclass
class DefectField:
    """Per-vertex angle defect of a mesh, with lumped areas and crease rates.

    defect        (V,) angle defect: 2*pi minus the angle sum at interior
                  vertices, pi minus it at topological-boundary vertices
    lumped_area   (V,) one third of each incident triangle's area
    boundary_mask (V,) topological boundary vertices
    vertex_tags   (V,) copied from the mesh
    crease_rates  defect per unit arc length for each crease id, boundary
                  chain endpoints excluded
    euler_characteristic  V - E + T of the mesh

    Defect sums are exact: each is the correctly rounded sum of its terms,
    from one int64 pass or from math.fsum, which give the same value.
    """

    defect: np.ndarray
    lumped_area: np.ndarray
    boundary_mask: np.ndarray
    vertex_tags: np.ndarray
    crease_rates: dict[int, float] = field(default_factory=dict)
    euler_characteristic: int = 0

    @property
    def total_defect(self) -> float:
        """Sum of defect over all non-boundary vertices."""
        return _exact_sum(self.defect[~self.boundary_mask])

    def interior_defect_density(self) -> float:
        """Defect per unit area over untagged, non-boundary vertices."""
        sel = (~self.boundary_mask) & (self.vertex_tags == TAG_INTERIOR)
        area = float(self.lumped_area[sel].sum())
        if area == 0.0:
            raise MeshError("mesh has no interior vertices to average over")
        return _exact_sum(self.defect[sel]) / area

    def crease_defect_total(self, crease_id: int) -> float:
        sel = (~self.boundary_mask) & (self.vertex_tags == crease_id)
        return _exact_sum(self.defect[sel])


# 2*pi minus an angle sum in [4, 8), the defect of an interior vertex, is
# exact (Sterbenz) and, like both terms, an integer multiple of 2**-50.
_DEFECT_SCALE = 2.0 ** 50


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum(values), bit for bit.  When every value is a multiple of
    2**-50 and len * max|value| < 2**12, the values times 2**50 are integers
    whose int64 sum cannot overflow (|sum| < 2**62), and float(sum) / 2**50 is
    the correctly rounded exact sum, which fsum also returns.  Other inputs
    (off the grid, huge, nan or inf) and a zero sum, whose sign fsum sets,
    go to math.fsum."""
    if len(values) and len(values) * float(max(values.max(), -values.min())) < 2.0 ** 12:
        scaled = values * _DEFECT_SCALE
        ints = scaled.astype(np.int64)
        if np.array_equal(ints, scaled):
            total = int(ints.sum())
            if total:
                return total / _DEFECT_SCALE
    return math.fsum(values)


def angle_defect(mesh: TriMesh) -> DefectField:
    """Angle-defect field of a validated mesh.

    Validation runs first, so inconsistent winding raises OrientationError
    before any curvature is reported; its twice-areas, corner angles and
    boundary mask give every angle and area used here.  The barycentric
    lumped area, not the mixed Voronoi area of Meyer, Desbrun, Schroeder &
    Barr (2003), suffices: each strip is a uniform grid split along its
    shorter diagonals, so interior vertices have centrally symmetric
    valence-6 rings, where defect / barycentric area converges pointwise to
    K (Borrelli, Cazals & Morvan 2003).
    """
    twice_area, angles, boundary, num_edges = mesh.validate()
    nv = mesh.num_vertices
    third = twice_area / 6.0

    angle_sum = np.zeros(nv)
    lumped = np.zeros(nv)
    for k in range(3):
        corner = np.ascontiguousarray(mesh.triangles[:, k])  # one copy, two bincounts
        angle_sum += np.bincount(corner, weights=angles[k], minlength=nv)
        lumped += np.bincount(corner, weights=third, minlength=nv)

    flat = np.where(boundary, math.pi, 2.0 * math.pi)
    defect = flat - angle_sum

    rates: dict[int, float] = {}
    for cid, chain in mesh.crease_polylines.items():
        seg = np.linalg.norm(np.diff(mesh.vertices[chain], axis=0), axis=1)
        assoc = np.zeros(len(chain))
        assoc[:-1] += 0.5 * seg  # half of each interval to either endpoint
        assoc[1:] += 0.5 * seg
        keep = ~boundary[chain]
        length = float(assoc[keep].sum())
        if length == 0.0:
            raise MeshError(f"crease {cid} has no non-boundary vertices")
        rates[cid] = _exact_sum(defect[chain[keep]]) / length

    return DefectField(
        defect=defect,
        lumped_area=lumped,
        boundary_mask=boundary,
        vertex_tags=mesh.vertex_tags.copy(),
        crease_rates=rates,
        euler_characteristic=nv - num_edges + mesh.num_triangles,
    )


# ---------------------------------------------------------------------------
# numerical Gauss map
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussMapResult:
    """Signed solid angle swept by the unit normals over a parameter region."""

    value: float
    extrapolated: float
    error_estimate: float
    converged: bool
    nu: int
    nv: int


def _eval_surface(fn: Callable, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.asarray(fn(u, v), dtype=float)
    shape = np.broadcast_shapes(u.shape, v.shape) + (3,)
    if out.shape != shape:
        raise ParameterError(f"surface function returned shape {out.shape}, expected {shape}")
    return out


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the last axis, each component a1*b2 - a2*b1 (and its
    cyclic shifts) as np.cross computes it, without its axis moves."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.subtract(a[..., i] * b[..., j], a[..., j] * b[..., i], out=out[..., k])
    return out


def _grid_normals(fn, u, v, hu, hv) -> np.ndarray:
    su = _eval_surface(fn, u + hu, v) - _eval_surface(fn, u - hu, v)
    sv = _eval_surface(fn, u, v + hv) - _eval_surface(fn, u, v - hv)
    n = _cross(su, sv)
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    if np.any(norm < 1e-300) or not np.all(np.isfinite(norm)):
        raise ParameterError("degenerate surface normal in the requested region")
    return n / norm


def _tri_solid_angles(a, b, c) -> np.ndarray:
    """Signed solid angles of spherical triangles with unit-vector corners."""
    num = np.einsum("...i,...i->...", a, _cross(b, c))
    den = (
        1.0
        + np.einsum("...i,...i->...", a, b)
        + np.einsum("...i,...i->...", b, c)
        + np.einsum("...i,...i->...", c, a)
    )
    return 2.0 * np.arctan2(num, den)


def _swept_area(normals: np.ndarray) -> float:
    n00 = normals[:-1, :-1]
    n10 = normals[1:, :-1]
    n11 = normals[1:, 1:]
    n01 = normals[:-1, 1:]
    cells = _tri_solid_angles(n00, n10, n11) + _tri_solid_angles(n00, n11, n01)
    return float(math.fsum(cells.ravel()))


def gauss_map_integrate(
    fn: Callable,
    region: tuple[float, float, float, float],
    nu: int = 128,
    nv: int = 128,
) -> GaussMapResult:
    """Signed area swept on the unit sphere by the normals of fn over region.

    fn(u, v) takes a (nu+1, 1) column of u and a (1, nv+1) row of v and
    returns the (nu+1, nv+1, 3) points of their broadcast grid, as elementwise
    numpy code does.  Normals come from central differences with step 1e-5 of
    the parameter span; the swept area is tiled with spherical quads.  The
    same sum on the half- and quarter-resolution subgrids gives a Richardson
    error estimate and an O(h^2) convergence check.
    """
    u0, u1, v0, v1 = region
    if not (u1 > u0 and v1 > v0):
        raise ParameterError(f"empty parameter region {region}")
    if nu < 4 or nv < 4:
        raise ResolutionError(f"need nu, nv >= 4, got ({nu}, {nv})")
    nu += (-nu) % 4  # subsampling below needs multiples of 4
    nv += (-nv) % 4
    hu = GAUSS_MAP_STEP_FACTOR * (u1 - u0)
    hv = GAUSS_MAP_STEP_FACTOR * (v1 - v0)
    u = np.linspace(u0, u1, nu + 1)[:, None]
    v = np.linspace(v0, v1, nv + 1)[None, :]
    normals = _grid_normals(fn, u, v, hu, hv)

    fine = _swept_area(normals)
    half = _swept_area(normals[::2, ::2])
    quarter = _swept_area(normals[::4, ::4])

    scale = max(1.0, abs(fine))
    d1 = fine - half
    d2 = half - quarter
    err = abs(d1) / 3.0  # O(h^2) tiling => halving the grid quarters the error
    if abs(d1) < 1e-13 * scale:
        converged = True
    else:
        ratio = abs(d2) / abs(d1)
        converged = 2.0 <= ratio <= 8.0
    return GaussMapResult(
        value=fine,
        extrapolated=fine + d1 / 3.0,
        error_estimate=err,
        converged=converged,
        nu=nu,
        nv=nv,
    )
