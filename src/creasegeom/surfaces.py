"""Parametric constructors and triangulators for the creased-shell geometries:
smooth and twisted-prismatic tubes, folded twisted patches, curved creases
with conical side strips, the mudguard surface of revolution, and gore
spheres.  All generators are deterministic given (spec, resolution)."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .creases import CreaseSpec
from .curvature import TubeSpec, _check_length, tube_spec_for_strips
from .errors import ParameterError, ResolutionError
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


def _check_resolution(nu: int, nv: int, least_nu: int = 3, least_nv: int = 3) -> None:
    """ResolutionError unless nu and nv are integers, nu >= least_nu and nv >= least_nv."""
    if not all(isinstance(k, Integral) for k in (nu, nv)) or nu < least_nu or nv < least_nv:
        raise ResolutionError(f"need integers nu >= {least_nu} and nv >= {least_nv}, "
                              f"got ({nu!r}, {nv!r})")


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
        if not (isinstance(self.n, Integral) and self.n >= 3):
            raise ParameterError(f"number of gores must be an integer >= 3, got {self.n!r}")


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
# bands of ruled strips joined along crease lines: the smooth cylinder, the
# twisted-prismatic tube and the gores of the gore sphere
# ---------------------------------------------------------------------------

def _strip_ids(head, n, rows, nv, m, j, r=None):
    """Vertex ids across strip j of a band, nv + 1 for each of the strip's
    rows r (all of them by default): line j at row r + shift, the strip's
    interior, then line (j + 1) % n at row r.  A band's vertices are head,
    its n lines of rows each, then each strip's interior row by row; shift
    is the seam shift m for the last strip, which is m rows short, and 0 for
    the others.  j may be an array of strips, r then one of rows."""
    shift = m * (j == n - 1)
    r = np.arange(rows - shift) if r is None else r
    ids = np.empty(np.broadcast(j, r).shape + (nv + 1,), dtype=np.int32)
    ids[..., 0], ids[..., nv] = head + j * rows + shift + r, head + (j + 1) % n * rows + r
    first = head + (n + j * (nv - 1)) * rows + (nv - 1) * r  # each row's first interior id
    ids[..., 1:nv] = first[..., None] + np.arange(nv - 1)
    return ids


def _band(head, lines, nv, m, interior=None):
    """Closed band of n ruled strips nv cells across, joined along its n crease
    lines (n, rows, 3) and laid out as _strip_ids says.  A strip's interior
    is (1 - k/nv) p0 + (k/nv) p1, k = 1..nv-1, between its line points p0 and
    p1 of a row, unless interior(j, rows) gives strip j's at line j's rows."""
    (n, rows), nh = lines.shape[:2], len(head)
    vertices = np.empty((nh + n * rows * nv - m * (nv - 1), 3))
    vertices[:nh], vertices[nh:nh + n * rows] = head, lines.reshape(-1, 3)
    triangles = np.empty((2 * nv * (n * (rows - 1) - m), 3), dtype=np.int32)
    t, done = np.arange(1, nv) / nv, 0
    for j in range(n):  # each strip filled, then triangulated, in one pass
        ids = _strip_ids(nh, n, rows, nv, m, j)
        inner = vertices[ids[0, 1]:ids[-1, nv - 1] + 1].reshape(len(ids), nv - 1, 3)
        if interior is None:  # (1 - t) p0 + t p1 at ids[:, 0] and ids[:, nv], a plane at a time
            p0, p1 = lines[j, rows - len(ids):], lines[(j + 1) % n, :len(ids)]
            for c in range(3):
                np.multiply(p0[:, c, None], 1.0 - t, out=inner[..., c])
                inner[..., c] += p1[:, c, None] * t
        else:
            inner[:] = interior(j, slice(rows - len(ids), rows))
        cells = 2 * nv * (len(ids) - 1)
        triangles[done:done + cells] = _grid_triangles(ids, vertices[ids], flip=True)
        done += cells
    polylines = {j + 1: nh + j * rows + np.arange(rows) for j in range(n)}
    return TriMesh(vertices, triangles, polylines)


def _helical_band(a, alpha, n_strips, nu, nv, flatten):
    """The band of n_strips helical strips on a cylinder of radius a between
    helical lines at angle alpha; flatten=True joins the lines by straight
    rulings (the prismatic tube), False keeps each strip on the cylinder."""
    _check_resolution(nu, nv)
    nu += nu % 2  # the helical seam shift below needs an even count
    h = TWO_PI * a * math.cos(alpha) / n_strips
    l_shift = TWO_PI * a * math.sin(alpha)
    length, m = (TWO_PI * a, 0) if l_shift == 0.0 else (2.0 * l_shift, nu // 2)
    _check_size(n_strips * (nu + 1) * nv - m * (nv - 1))  # lines of nu + 1, the last strip m short
    xhat, yhat = np.array([[math.sin(alpha), math.cos(alpha)], [math.cos(alpha), -math.sin(alpha)]])
    x = np.linspace(0.0, length, nu + 1)

    def wrap(dev):
        s, z = dev[..., 0], dev[..., 1]
        return np.stack([a * np.cos(s / a), a * np.sin(s / a), z], axis=-1)

    def cylinder(j, rows):
        return wrap((j * h + np.arange(1, nv) / nv * h)[None, :, None] * yhat
                    + x[rows, None, None] * xhat)

    # line j at developed offset j*h*yhat
    lines = wrap(np.arange(n_strips)[:, None, None] * h * yhat + x[:, None] * xhat)
    return _band(np.empty((0, 3)), lines, nv, m, None if flatten else cylinder)


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


def gen_gore_sphere(spec: GoreSphereSpec, nu: int, nv: int) -> TriMesh:
    """Closed genus-0 mesh of n cylindrical gores joined along meridian seams.

    A gore is the ruled strip between two seams, its rulings horizontal
    chords, so it is developable, bent only about its central meridian; all
    curvature sits in the seam polylines and the two shared pole vertices.
    The gores are a band on the seams, each closed by a fan to either pole.
    """
    _check_resolution(nu, nv, least_nu=4, least_nv=2)
    R, n = spec.R, spec.n
    _check_size(2 + n * (nu - 1) * nv)  # poles, seams, gore interiors
    theta = np.linspace(-math.pi / 2, math.pi / 2, nu + 1)[1:-1]
    rho = R * np.cos(theta) / math.cos(math.pi / n)
    # seam j lies in the plane at azimuth 2*pi*j/n
    seams = np.stack([np.stack([rho * math.cos(TWO_PI * j / n), rho * math.sin(TWO_PI * j / n),
                                R * np.sin(theta)], axis=-1) for j in range(n)])
    band = _band(np.array([[0.0, 0.0, -R], [0.0, 0.0, R]]), seams, nv, 0)
    # each gore's first row fans to south pole 0, its last to north pole 1
    ends = _strip_ids(2, n, nu - 1, nv, 0, np.arange(n)[:, None], np.array([0, nu - 2]))
    ends[:, 0] = ends[:, 0, ::-1]  # the south fan winds the other way
    fans = np.empty((n, 2, nv, 3), dtype=np.int32)
    fans[..., 0], fans[..., 1], fans[..., 2] = [[0], [1]], ends[..., :-1], ends[..., 1:]
    return TriMesh(band.vertices, np.concatenate([band.triangles, fans.reshape(-1, 3)]),
                   band.crease_polylines)


# ---------------------------------------------------------------------------
# twisted patch
# ---------------------------------------------------------------------------

def gen_twisted_patch(
    kxy: float, a_len: float, b_len: float, mu: float, nu: int, nv: int
) -> TriMesh:
    """Graph mesh of z = kxy*x*y over a centred a_len x b_len rectangle.

    For mu > 0 each half-plane (y > 0, y < 0) is rigidly rotated about the
    x-axis so the fold opens by 2*mu; the x-axis row is the crease.  The
    graph's Gaussian curvature is -kxy^2 at the origin only, and
    -kxy^2 / (1 + kxy^2 (x^2 + y^2))^2 elsewhere, so the mesh's interior
    defect density, the graph's mean K, is smaller in magnitude than kxy^2,
    to leading order by 2 kxy^2 <x^2 + y^2> relative, the mean taken over
    the rectangle (0.077 against 0.083 for kxy = 0.5 on the unit square).
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
    if math.isinf(spec.R):
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
