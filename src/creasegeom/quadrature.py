"""Deterministic 1-D Gauss–Legendre quadrature over many integrals at once,
the two closed-form totals it verifies, the mudguard hoop integral and the
gore-sphere seam total, and the creased tube's ruled-strip total."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from .errors import ParameterError


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights (scaled to sum to 2) of the n-node Gauss–Legendre
    rule on [-1, 1]: Newton's method on P_n from k P_k = (2k - 1) x P_(k-1) - (k - 1) P_(k-2)."""
    x = -np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(10):  # 5 steps at n = 16 and 32
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)  # P_n'(x)
        x = x - p1 / slope
        if np.abs(p1 / slope).max() <= 1e-16:
            break
    w = 2.0 / ((1.0 - x * x) * slope * slope)
    return (x - x[::-1]) / 2, (w + w[::-1]) / w.sum()


_RULES = tuple(_gauss_legendre(n) for n in (16, 32))  # the 16-node rule checks the 32-node one


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def _out(x: np.ndarray):  # a Python scalar for shape ()
    return x.item() if x.ndim == 0 else x


def integrate(f: Callable[..., np.ndarray], lo, hi, args: tuple = ()) -> QuadratureResult:
    """Gauss–Legendre integration of f over [lo, hi], for one integral or
    many: lo, hi and the arrays in args broadcast to one shape, one integral
    per element, as do value and error_estimate (floats for shape ());
    evaluations counts them all.  f(x, *params) maps an ndarray x of
    abscissae, and for each entry of args the values of the integrals x's
    points belong to, to an ndarray of x's shape; each rule is one call.
    The value is the 32-node rule's; the error estimate is its distance
    from the 16-node rule plus 8 eps times the integral of |f|, a bound for
    smooth integrands such as the totals' below, and only a warning for
    others.  Raises ParameterError if f is not finite or not of x's shape.
    """
    shape = np.broadcast_shapes(*map(np.shape, (lo, hi, *args)))
    lo, hi, *args = (np.ravel(np.broadcast_to(x, shape)) for x in (lo, hi, *args))
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    (coarse, _), (value, magnitude) = (_rule(f, nodes, weights, mid, half, args)
                                       for nodes, weights in _RULES)
    err = np.abs(value - coarse) + 8.0 * np.finfo(float).eps * magnitude
    evaluations = sum(len(nodes) for nodes, _ in _RULES) * len(lo)
    return QuadratureResult(_out(value.reshape(shape)), _out(err.reshape(shape)), evaluations)


def _rule(f, nodes, weights, mid, half, args):
    """Each integral's Gauss–Legendre sum of f and of |f|, added node by node
    so that an integral's bits do not depend on the rest of its batch."""
    x = mid + half * nodes[:, None]  # a row per node, a column per integral
    y = np.asarray(f(x, *(np.broadcast_to(p, x.shape) for p in args)), dtype=float)
    if y.shape != x.shape:
        raise ParameterError(f"integrand returned shape {y.shape} for {x.shape} points")
    if not np.isfinite(y).all():
        raise ParameterError(f"integrand not finite at x = {x[~np.isfinite(y)][0]}")
    total = magnitude = 0.0
    for w, row in zip(weights, y):
        total, magnitude = total + w * row, magnitude + w * np.abs(row)
    return half * total, np.abs(half) * magnitude


def mudguard_closed_form(R, r, mu):
    """Total solid angle of the mudguard surface: 4*pi*R*sin(mu) / [R - r*(1 - cos(mu))]."""
    return 4.0 * np.pi * R * np.sin(mu) / (R - r * (1.0 - np.cos(mu)))


def mudguard_total(specs) -> QuadratureResult:
    """Total solid angle of the mudguard model by quadrature, for comparison
    with mudguard_closed_form.

    Integrates the local Gaussian curvature
    (1/r) * cos(eps) / [R - r*(1 - cos(mu))] over the transverse arc (length
    element r * d(eps)) and a hoop of length 2*pi*R.  Takes a MudguardSpec,
    or a list of them for one batched quadrature and array fields; value
    and error are 2*pi*R times integrate's, evaluations its total."""
    R, r, mu = (np.vectorize(attrgetter(k), otypes=[float])(specs) for k in ("R", "r", "mu"))
    quad = integrate(lambda eps, d: np.cos(eps) / d, -mu, mu, args=(R - r * (1.0 - np.cos(mu)),))
    hoop = 2.0 * np.pi * R
    return QuadratureResult(_out(hoop * quad.value), _out(hoop * quad.error_estimate),
                            quad.evaluations)


def tube_strip_total(specs):
    """Total Gaussian curvature and area of one strip of the twisted-prismatic
    tube per unit crease length, the integrals over t in [0, 1] of K W and W.

    The strip is the ruled surface X(x, t) = (1 - t) P0(x) + t P1(x) between
    adjacent unit-speed helices, the same at every x by the screw symmetry.
    At x = 0, in units of a, with s = sin(alpha), c = cos(alpha), w = h/a,
    theta = w c and g = 1 - cos(theta): D = P1 - P0 = (-g, sin(theta), -w s),
    d0 = P0' = (0, s, c) and e = P1' - P0' = -s (sin(theta), g, 0).  So
    X_x x X_t = d0 x D + t e x D has squared length W^2 = p - r t (1 - t),
    p = (w s^2 + c sin(theta))^2 + g^2, r = 2 s^2 g (w^2 s^2 + 2 g), and
    X_xt . (X_x x X_t) = e . (d0 x D) = m = s (w s^2 sin(theta) + 2 c g) for
    every t.  As X_tt = 0, the second fundamental form gives
    K W = -m^2 / W^3, whose integral over [0, 1] is -4 m^2 / ((4p - r) sqrt(p))
    (with u = t - 1/2 and q = p - r/4, W^2 = q + r u^2, and u / (q W) is an
    antiderivative of W^-3): exact even where theta nears pi and K W peaks
    sharply, which 32 quadrature nodes would miss.  Takes a TubeSpec or a list of them, as mudguard_total does;
    returns (curvature, area): the curvature a float or an array, as
    mudguard_closed_form returns, divided by a; the area integrate's
    QuadratureResult, value and error multiplied by a."""
    a, alpha, h = (np.vectorize(attrgetter(k), otypes=[float])(specs) for k in ("a", "alpha", "h"))
    s, c, w = np.sin(alpha), np.cos(alpha), h / a
    theta = w * c  # the turn about the axis from P0 to P1
    g = 2.0 * np.sin(0.5 * theta) ** 2  # 1 - cos(theta) without its cancellation at small theta
    p = (w * s * s + c * np.sin(theta)) ** 2 + g * g
    r = 2.0 * s * s * g * ((w * s) ** 2 + 2.0 * g)
    m2 = (s * (w * s * s * np.sin(theta) + 2.0 * c * g)) ** 2
    total = -4.0 * m2 / ((4.0 * p - r) * np.sqrt(p)) / a
    area = integrate(lambda t, p, r: np.sqrt(p - r * t * (1.0 - t)), 0.0, 1.0, args=(p, r))
    return (_out(total),
            QuadratureResult(_out(area.value * a), _out(area.error_estimate * a),
                             area.evaluations))


def gore_sphere_total(specs) -> QuadratureResult:
    """Total seam solid angle of an n-gore sphere in the small-angle seam model.

    n * integral over latitude of 2*sin((pi/n)*cos(theta)): the crease law
    2*sin(mu)/R along each seam, with the small-angle half fold
    mu = (pi/n)*cos(theta).  Approaches 4*pi from below as n grows.  A model,
    not the exact seam rate: gen_gore_sphere's seams carry 4*pi/n each,
    3.1% above the model's share at n = 6.  Takes a GoreSphereSpec or a list
    of them; value and error are n times integrate's, evaluations its total.
    """
    n = np.vectorize(attrgetter("n"), otypes=[float])(specs)
    quad = integrate(lambda theta, beta: 2.0 * np.sin(beta * np.cos(theta)),
                     -np.pi / 2, np.pi / 2, args=(np.pi / n,))
    return QuadratureResult(_out(n * quad.value), _out(n * quad.error_estimate), quad.evaluations)
