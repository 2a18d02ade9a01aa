"""Parametric constructors and triangulators for the creased-shell geometries:
smooth and twisted-prismatic tubes, folded twisted patches, curved creases
with conical side strips, the mudguard surface of revolution, and gore
spheres.  All generators are deterministic given (spec, resolution)."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .creases import CreaseSpec
from .curvature import TubeSpec, _check_length, tube_spec_for_strips
from .errors import ParameterError, ResolutionError, ShallowRegimeWarning
from .trimesh import TriMesh

TWO_PI = 2.0 * math.pi

DEFAULT_EXPORT_RES = 32

# Azimuthal span of the open-arc crease produced by gen_curved_crease.
CREASE_ARC_SPAN = math.pi / 2

# Largest mesh, in vertices, that a generator builds: below 2**31, so
# generators index their triangles in int32.  Analysing a generated mesh
# peaks at about 104 bytes per vertex from its sidecar and 173 from its OBJ
# (945k-vertex tube, RSS above the interpreter): 1.0 and 1.7 GB at the limit.
MAX_VERTICES = 10_000_000

# Cells per block in which a helical band's strips are filled, so that its
# temporaries stay a fixed size however long a strip is.
_STRIP_CELLS = 1 << 14


def _check_resolution(nu: int, nv: int, least_nu: int = 3, least_nv: int = 3) -> None:
    """ResolutionError unless nu >= least_nu and nv >= least_nv."""
    if nu < least_nu or nv < least_nv:
        raise ResolutionError(f"need nu >= {least_nu} and nv >= {least_nv}, got ({nu}, {nv})")


def _check_size(num_vertices: int) -> None:
    """ResolutionError if a mesh or a Gauss-map grid would exceed MAX_VERTICES;
    callers pass their exact vertex count before building arrays."""
    if num_vertices > MAX_VERTICES:
        raise ResolutionError(f"nu and nv give {num_vertices} vertices, "
                              f"over the limit of {MAX_VERTICES}")


@dataclass(frozen=True)
class MudguardSpec:
    """Doubly-curved inscription of a curved crease.

    R   sweep radius of the underlying crease circle, in [MIN_LENGTH, MAX_LENGTH]
    r   transverse arc radius, at least MIN_LENGTH and below R/2
    mu  half-arc angle; the transverse arc subtends the total fold angle 2*mu
    """

    R: float
    r: float
    mu: float

    def __post_init__(self):
        _check_length("sweep radius R", self.R)
        _check_length("arc radius r", self.r)
        if self.r >= 0.5 * self.R:
            raise ParameterError(
                f"arc radius r = {self.r} must be below R/2 = {0.5 * self.R}"
            )
        if not (0 < self.mu < math.pi / 2):
            raise ParameterError(f"half-arc angle mu must lie in (0, pi/2), got {self.mu}")


@dataclass(frozen=True)
class GoreSphereSpec:
    """Sphere of radius R approximated by n >= 3 developable gores joined along seams."""

    R: float
    n: int

    def __post_init__(self):
        _check_length("seam radius R", self.R)
        if self.n < 3:
            raise ParameterError(f"number of gores must be >= 3, got {self.n}")


# ---------------------------------------------------------------------------
# grid helpers
# ---------------------------------------------------------------------------

def _grid_triangles(ids: np.ndarray, pts: np.ndarray, flip: bool = False) -> np.ndarray:
    """Triangulate a quad grid of vertex ids with positions pts (same grid
    shape plus a trailing 3), splitting each cell along its shorter diagonal
    (keeps thin twisted strips well conditioned).  The first triangle of
    every cell comes first, then the second; flip reverses each winding."""
    v00, v10, v01, v11 = ids[:-1, :-1], ids[1:, :-1], ids[:-1, 1:], ids[1:, 1:]
    use_main = (_diagonal(pts[:-1, :-1], pts[1:, 1:])
                <= _diagonal(pts[1:, :-1], pts[:-1, 1:]))
    # main diagonal: (v00, v10, v11), (v00, v11, v01); anti: (v00, v10, v01), (v10, v11, v01)
    tris = np.empty((2,) + v00.shape + (3,), dtype=ids.dtype)
    first, last = (2, 0) if flip else (0, 2)
    tris[0, ..., first], tris[0, ..., 1], tris[0, ..., last] = v00, v10, v01
    np.copyto(tris[0, ..., last], v11, where=use_main)
    tris[1, ..., first], tris[1, ..., 1], tris[1, ..., last] = v10, v11, v01
    np.copyto(tris[1, ..., first], v00, where=use_main)
    return tris.reshape(-1, 3)


def _diagonal(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """|p - q| over the last axis, summed as np.linalg.norm sums it,
    sqrt((d0*d0 + d1*d1) + d2*d2), from the grid slices without copying them."""
    total = None
    for c in range(3):
        d = np.subtract(p[..., c], q[..., c])
        d *= d
        total = d if total is None else np.add(total, d, out=total)
    return np.sqrt(total, out=total)


# ---------------------------------------------------------------------------
# helical band: smooth cylinder and twisted-prismatic tube
# ---------------------------------------------------------------------------

def _helical_band(a, alpha, n_strips, nu, nv, flatten):
    """Build the band of n_strips helical strips; flatten=True replaces each
    strip by straight rulings (the prismatic tube), False keeps points on the
    cylinder.  Each strip fills its own slices of the vertex and triangle
    arrays, a block of rows at a time."""
    _check_resolution(nu, nv)
    nu += nu % 2  # the helical seam shift below needs an even count
    h = TWO_PI * a * math.cos(alpha) / n_strips
    l_shift = TWO_PI * a * math.sin(alpha)
    length, m = (TWO_PI * a, 0) if l_shift == 0.0 else (2.0 * l_shift, nu // 2)
    # n_strips lines of nu + 1, the last strip's interior m columns short
    n_line = nu + 1
    num_vertices = n_strips * n_line * nv - m * (nv - 1)
    _check_size(num_vertices)
    xhat, yhat = np.array([[math.sin(alpha), math.cos(alpha)], [math.cos(alpha), -math.sin(alpha)]])
    x = np.linspace(0.0, length, nu + 1)
    t = np.arange(1, nv) / nv

    def wrap(dev):
        s, z = dev[..., 0], dev[..., 1]
        return np.stack([a * np.cos(s / a), a * np.sin(s / a), z], axis=-1)

    vertices = np.empty((num_vertices, 3))
    triangles = np.empty((2 * nv * (n_strips * nu - m), 3), dtype=np.int32)
    # crease-line vertices first, line j at developed offset j*h*yhat
    line_pts = vertices[:n_strips * n_line].reshape(n_strips, n_line, 3)
    line_pts[:] = wrap(np.arange(n_strips)[:, None, None] * h * yhat + x[:, None] * xhat)

    step = max(2, _STRIP_CELLS // nv)  # vertex rows per block
    for j in range(n_strips):  # the strips before j are all nu + 1 rows long
        jn, shift = (j + 1) % n_strips, (m if j == n_strips - 1 else 0)
        rows, offset = nu + 1 - shift, (n_strips + j * (nv - 1)) * n_line
        interior = vertices[offset:offset + rows * (nv - 1)].reshape(rows, nv - 1, 3)
        cells = triangles[2 * j * nu * nv:][:2 * (rows - 1) * nv].reshape(2, rows - 1, nv, 3)
        for lo in range(0, rows, step):  # fill rows lo..hi-1, then the cells above lo-1
            hi = min(lo + step, rows)
            if flatten:  # (1 - t)*p0 + t*p1, a coordinate plane at a time
                p0, p1 = line_pts[j, shift + lo:shift + hi], line_pts[jn, lo:hi]
                for c in range(3):
                    plane = interior[lo:hi, :, c]
                    np.multiply(p0[:, c, None], 1.0 - t, out=plane)
                    plane += p1[:, c, None] * t
            else:
                interior[lo:hi] = wrap((j * h + t * h)[None, :, None] * yhat
                                       + x[shift + lo:shift + hi, None, None] * xhat)
            r = np.arange(max(lo - 1, 0), hi)
            ids = np.empty((len(r), nv + 1), dtype=np.int32)
            ids[:, 0], ids[:, nv] = j * n_line + shift + r, jn * n_line + r
            ids[:, 1:nv] = offset + (nv - 1) * r[:, None] + np.arange(nv - 1)
            cells[:, r[0]:hi - 1] = _grid_triangles(ids, vertices[ids], flip=True).reshape(
                2, -1, nv, 3)
    polylines = {
        j + 1: np.arange(j * n_line, (j + 1) * n_line) for j in range(n_strips)
    }
    return TriMesh(vertices, triangles, polylines)


def gen_cylinder(spec: TubeSpec, nu: int, nv: int) -> TriMesh:
    """Open circular cylinder with helical lines at angle alpha recorded as
    zero-fold crease polylines.  The line spacing is adjusted to the nearest
    value that closes the hoop; large adjustments are warned about."""
    if spec.alpha >= math.pi / 2:
        raise ParameterError("alpha = pi/2 (hoop-aligned lines) degenerates the strip construction")
    hoop = TWO_PI * spec.a * math.cos(spec.alpha)
    if hoop / spec.h > MAX_VERTICES:  # a line has vertices of its own; inf must not reach round
        raise ResolutionError(f"a and h give {hoop / spec.h:.3g} lines, over the limit of "
                              f"{MAX_VERTICES} vertices")
    n_lines = max(3, round(hoop / spec.h))
    h_eff = hoop / n_lines
    if abs(h_eff - spec.h) > 0.05 * spec.h:
        warnings.warn(
            f"line spacing adjusted from {spec.h:.6g} to {h_eff:.6g} to close the hoop",
            ShallowRegimeWarning,
            stacklevel=2,
        )
    return _helical_band(spec.a, spec.alpha, n_lines, nu, nv, flatten=False)


def gen_twisted_prismatic_tube(
    a: float, alpha: float, n_strips: int, nu: int, nv: int
) -> TriMesh:
    """Twisted-prismatic tube on a cylinder of radius a: n_strips ruled
    strips, each flat normal to the creases, joined along helical crease
    polylines at angle alpha to the axis.  Each strip is
    2*pi*a*cos(alpha)/n_strips wide, the width that closes the cross-section;
    the parameters are checked as tube_spec_for_strips checks them.
    """
    tube_spec_for_strips(a, alpha, n_strips)
    return _helical_band(a, alpha, n_strips, nu, nv, flatten=True)


# ---------------------------------------------------------------------------
# twisted patch
# ---------------------------------------------------------------------------

def gen_twisted_patch(
    kxy: float, a_len: float, b_len: float, mu: float, nu: int, nv: int
) -> TriMesh:
    """Graph mesh of z = kxy*x*y over a centred a_len x b_len rectangle.

    For mu > 0 each half-plane (y > 0, y < 0) is rigidly rotated about the
    x-axis so the fold opens by 2*mu; the x-axis row is the crease.
    """
    if not (a_len > 0 and b_len > 0):
        raise ParameterError(f"patch side lengths must be positive, got {a_len}, {b_len}")
    if not math.isfinite(kxy):
        raise ParameterError(f"twist curvature kxy must be finite, got {kxy}")
    _check_length("patch side a_len", a_len)
    _check_length("patch side b_len", b_len)
    _check_length("patch corner height |kxy|*a_len*b_len/4", abs(kxy) * a_len * b_len / 4,
                  positive=False)
    if not (0 <= mu < math.pi / 2):
        raise ParameterError(f"half fold angle mu must lie in [0, pi/2), got {mu}")
    _check_resolution(nu, nv)
    if abs(kxy) * max(a_len, b_len) > 0.3:
        warnings.warn(
            "patch is outside the shallow-twist regime (|kxy|*size > 0.3)",
            ShallowRegimeWarning,
            stacklevel=2,
        )
    nv += nv % 2  # keep the y = 0 crease row on the grid
    _check_size((nu + 1) * (nv + 1))
    x = np.linspace(-a_len / 2, a_len / 2, nu + 1)
    y = np.linspace(-b_len / 2, b_len / 2, nv + 1)
    X, Y = np.meshgrid(x, y, indexing="ij")
    Z = kxy * X * Y
    if mu > 0:
        # rotate the y>0 half by -mu and the y<0 half by +mu about the x-axis
        theta = np.where(Y > 0, -mu, np.where(Y < 0, mu, 0.0))
        Y, Z = Y * np.cos(theta) - Z * np.sin(theta), Y * np.sin(theta) + Z * np.cos(theta)
    grid = np.stack([X, Y, Z], axis=-1)
    verts = grid.reshape(-1, 3)
    ids = np.arange((nu + 1) * (nv + 1), dtype=np.int32).reshape(nu + 1, nv + 1)
    tris = _grid_triangles(ids, grid)
    return TriMesh(verts, tris, {1: ids[:, nv // 2].copy()})


# ---------------------------------------------------------------------------
# curved crease with conical strips
# ---------------------------------------------------------------------------

def gen_curved_crease(spec: CreaseSpec, strip_width: float, nu: int, nv: int) -> TriMesh:
    """Circular-arc crease of radius R flanked by two conical strips.

    The crease lies in the z = 0 plane, which bisects the total fold angle;
    each strip leaves the crease along straight rulings inclined at mu to the
    crease's (vertical) tangent plane: d = -sin(mu)*rho_hat +/- cos(mu)*z_hat.
    At mu = 0 the two strips join into a smooth cylindrical band.
    """
    if spec.is_straight:
        raise ParameterError("gen_curved_crease needs a finite crease radius")
    if not 0 < strip_width < spec.R / 4:
        raise ParameterError(
            f"strip width must lie in (0, R/4) to avoid cone self-intersection, "
            f"got {strip_width} with R = {spec.R}"
        )
    _check_length("strip width", strip_width)
    _check_resolution(nu, nv)
    _check_size((nu + 1) * (2 * nv + 1))
    phi = np.linspace(0.0, CREASE_ARC_SPAN, nu + 1)
    rho_hat = np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)
    zhat = np.array([0.0, 0.0, 1.0])
    v = np.linspace(-strip_width, strip_width, 2 * nv + 1)
    side = np.sign(v)[None, :, None]
    dist = np.abs(v)[None, :, None]
    ruling = -math.sin(spec.mu) * rho_hat[:, None, :] + side * math.cos(spec.mu) * zhat
    pts = spec.R * rho_hat[:, None, :] + dist * ruling
    verts = pts.reshape(-1, 3)
    ids = np.arange((nu + 1) * (2 * nv + 1), dtype=np.int32).reshape(nu + 1, 2 * nv + 1)
    tris = _grid_triangles(ids, pts)
    return TriMesh(verts, tris, {1: ids[:, nv].copy()})


# ---------------------------------------------------------------------------
# mudguard surface of revolution
# ---------------------------------------------------------------------------

def mudguard_surface(spec: MudguardSpec):
    """Parametric map (phi, eps) of the mudguard: a transverse arc of radius r
    subtending 2*mu, swept about the axis, tangent to the conical strips of
    the discrete crease it inscribes."""
    c = spec.R - spec.r / math.cos(spec.mu)

    def fn(phi, eps):
        phi = np.asarray(phi, dtype=float)
        eps = np.asarray(eps, dtype=float)
        d = c + spec.r * np.cos(eps)
        out = np.empty((3,) + np.broadcast_shapes(phi.shape, eps.shape))  # x, y, z planes
        np.multiply(d, np.cos(phi), out=out[0, ...])
        np.multiply(d, np.sin(phi), out=out[1, ...])
        np.multiply(spec.r, np.sin(eps), out=out[2, ...])
        return np.moveaxis(out, 0, -1)

    return fn


def gen_mudguard(spec: MudguardSpec, nu: int, nv: int) -> TriMesh:
    """Mudguard band: closed in the sweep direction, open across the arc."""
    _check_resolution(nu, nv)
    _check_size(nu * (nv + 1))
    fn = mudguard_surface(spec)
    phi = np.linspace(0.0, TWO_PI, nu + 1)[:-1]
    eps = np.linspace(-spec.mu, spec.mu, nv + 1)
    verts = fn(phi[:, None], eps[None, :]).reshape(-1, 3)  # a copy: fn's planes are freed
    grid = verts.reshape(nu, nv + 1, 3)
    ids = np.arange(nu * (nv + 1), dtype=np.int32).reshape(nu, nv + 1)
    wrapped = np.vstack([ids, ids[:1]])  # close the hoop
    tris = _grid_triangles(wrapped, np.concatenate([grid, grid[:1]], axis=0))
    return TriMesh(verts, tris)


# ---------------------------------------------------------------------------
# gore sphere
# ---------------------------------------------------------------------------

def gen_gore_sphere(spec: GoreSphereSpec, nu: int, nv: int) -> TriMesh:
    """Closed genus-0 mesh of n cylindrical gores joined along meridian seams.

    Each gore is bent only about its central meridian (rulings are horizontal
    chords), so gore interiors are developable; all curvature sits in the
    seam polylines and the two shared pole vertices.
    """
    _check_resolution(nu, nv, least_nu=4, least_nv=2)
    R, n = spec.R, spec.n
    _check_size(2 + n * (nu - 1) * nv)  # poles, seams, gore interiors
    beta = math.pi / n
    theta = np.linspace(-math.pi / 2, math.pi / 2, nu + 1)[1:-1]
    ni = len(theta)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    rho = R * cos_t / math.cos(beta)
    # seam j: ids 2 + j*ni + i, lying in the plane at azimuth 2*pi*j/n
    seams = [np.stack([rho * math.cos(TWO_PI * j / n), rho * math.sin(TWO_PI * j / n),
                       R * sin_t], axis=-1) for j in range(n)]
    verts = [np.array([[0.0, 0.0, -R], [0.0, 0.0, R]]), *seams]
    tris = []
    f = 2.0 * np.arange(1, nv) / nv - 1.0  # interior ruling fractions
    w = f[None, :] * (R * cos_t * math.tan(beta))[:, None]
    offset = 2 + n * ni
    for j in range(n):
        phi_c = TWO_PI * (j + 0.5) / n
        e1 = np.array([math.cos(phi_c), math.sin(phi_c), 0.0])
        u = np.array([-math.sin(phi_c), math.cos(phi_c), 0.0])
        interior = (
            (R * cos_t)[:, None, None] * e1
            + w[:, :, None] * u
            + (R * sin_t)[:, None, None] * np.array([0.0, 0.0, 1.0])
        )
        verts.append(interior.reshape(-1, 3))
        ids = np.empty((ni, nv + 1), dtype=np.int32)
        ids[:, 0] = 2 + j * ni + np.arange(ni)
        ids[:, nv] = 2 + (j + 1) % n * ni + np.arange(ni)
        ids[:, 1:nv] = offset + np.arange(ni * (nv - 1)).reshape(ni, nv - 1)
        offset += ni * (nv - 1)
        grid = np.concatenate([seams[j][:, None], interior, seams[(j + 1) % n][:, None]], axis=1)
        tris.append(_grid_triangles(ids, grid, flip=True))
        # pole fans: south pole 0 below the first row, north pole 1 above the last
        tris.append(np.stack([np.zeros(nv, np.int32), ids[0, 1:], ids[0, :-1]], axis=1))
        tris.append(np.stack([np.ones(nv, np.int32), ids[-1, :-1], ids[-1, 1:]], axis=1))
    polylines = {j + 1: 2 + j * ni + np.arange(ni) for j in range(n)}
    return TriMesh(np.concatenate(verts), np.concatenate(tris), polylines)
