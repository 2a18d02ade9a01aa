"""Deterministic 1-D adaptive quadrature and the two closed-form totals it
verifies: the mudguard hoop integral and the gore-sphere seam total."""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np

from .errors import ParameterError, QuadratureError

DEFAULT_TOL = 1e-10
MAX_EVALUATIONS = 1_000_000
_BLOCK = 1024  # integrals refined together: 1,024 gore-sphere integrals peak at 5.7 MB traced


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int | np.ndarray  # a total, or mudguard_total's per-spec counts


def _out(x: np.ndarray):  # a Python scalar for shape ()
    return x.item() if x.ndim == 0 else x


def integrate(
    f: Callable[..., np.ndarray],
    lo,
    hi,
    tol: float = DEFAULT_TOL,
    max_evals: int = MAX_EVALUATIONS,
    args: tuple = (),
) -> QuadratureResult:
    """Adaptive Simpson integration of f over [lo, hi], for one integral or
    many: lo, hi and the arrays in args broadcast to one shape, one integral
    per element, as do value and error_estimate (floats for shape ());
    evaluations counts them all.  f(x, *params) maps an ndarray x of
    abscissae, and for each entry of args the values of the integrals x's
    points belong to, to an ndarray of x's shape; each refinement level of
    up to 1,024 integrals is one call.  Bit for bit, each integral's value,
    error estimate (the accumulated Richardson correction) and evaluations
    are those of refining one interval at a time, last in, first out, and
    summing in that order.  Raises QuadratureError, best estimates attached,
    naming the integrals over max_evals evaluations, and ParameterError if
    f is not finite.
    """
    value, err, evals = _simpson(f, lo, hi, tol, max_evals, args)
    return QuadratureResult(_out(value), _out(err), int(evals.sum()))


def _simpson(f, lo, hi, tol, max_evals, args):
    """integrate's value, error estimate and evaluations, each per integral."""
    if not tol > 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    shape = np.broadcast_shapes(*map(np.shape, (lo, hi, *args)))
    lo, hi, *args = (np.ravel(np.broadcast_to(x, shape)) for x in (lo, hi, *args))
    parts = zip(*(_refine(f, lo[k:k + _BLOCK], hi[k:k + _BLOCK], [x[k:k + _BLOCK] for x in args],
                          tol, max_evals) for k in range(0, max(len(lo), 1), _BLOCK)))
    total, err, evals, failed = (np.concatenate(x).reshape(shape) for x in parts)
    if failed.any():
        raise QuadratureError(f"evaluation cap {max_evals} reached before tol {tol}" + (
            f" in integrals {np.flatnonzero(failed).tolist()}" if shape else ""),
            best=_out(total), error_estimate=_out(err), evaluations=_out(evals))
    return total, err, evals


def _refine(f, lo, hi, args, tol, max_evals):
    """(value, error, evaluations, failed) of a block, a level at a time."""
    count, span = len(lo), np.abs(hi - lo)

    def feval(x: np.ndarray, i: np.ndarray) -> np.ndarray:
        y = np.asarray(f(x, *(p[i] for p in args)), dtype=float)
        if y.shape != x.shape:
            raise ParameterError(f"integrand returned shape {y.shape} for {x.shape} points")
        if not np.isfinite(y).all():
            raise ParameterError(f"integrand not finite at x = {x[~np.isfinite(y)][0]}")
        return y

    # One level's intervals: owning integral i, [a, b], f at a, the midpoint
    # and b, and Simpson estimate s; they share the tolerance t.
    i = np.flatnonzero(lo != hi)
    a, b = lo[i], hi[i]
    fa, fm, fb = np.split(feval(np.concatenate((a, 0.5 * (a + b), b)), np.tile(i, 3)), 3)
    s, t = (b - a) * (fa + 4.0 * fm + fb) / 6.0, float(tol)
    nodes = np.zeros(count, dtype=int)  # intervals refined, 2 evaluations each
    failed, sums = np.zeros(count, dtype=bool), np.zeros((count, 2))  # value, error
    leaves = [(np.zeros(0, dtype=int), np.zeros(0), np.zeros((0, 2)))]  # i, a, piece
    while len(i):
        more = np.bincount(i, minlength=count)
        over = (more > 0) & (3 + 2 * (nodes + more) > max_evals)
        if over.any():  # where the one-interval refinement stops within this level
            failed, more[over], live = failed | over, 0, ~over[i]
            sums[:, 0] += np.bincount(i[~live], weights=s[~live], minlength=count)
            i, a, b, fa, fm, fb, s = (x[live] for x in (i, a, b, fa, fm, fb, s))
        nodes += more
        m = 0.5 * (a + b)
        halves = np.concatenate((0.5 * (a + m), 0.5 * (m + b)))
        flm, frm = np.split(feval(halves, np.tile(i, 2)), 2)
        s_left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
        s_right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
        delta = s_left + s_right - s
        leaf = (np.abs(delta) <= 15.0 * t) | (np.abs(b - a) < 1e-14 * span[i])
        piece = np.stack((s_left + s_right + delta / 15.0, np.abs(delta) / 15.0), axis=1)
        leaves.append((i[leaf], a[leaf], piece[leaf]))
        k = ~leaf  # children: every left half, then every right half
        i, a, b = np.tile(i[k], 2), np.concatenate((a[k], m[k])), np.concatenate((m[k], b[k]))
        fa, fm, fb = (np.concatenate((x[k], y[k])) for x, y in ((fa, fm), (flm, frm), (fm, fb)))
        s, t = np.concatenate((s_left[k], s_right[k])), t / 2.0
    # An integral's accepted intervals tile [lo, hi]; the one-interval run
    # visits them from hi's end, by start a (only a zero-width one, which adds
    # 0, ties).  np.add.at adds in index order, one piece at a time.
    owner, start, piece = (np.concatenate(x) for x in zip(*leaves))
    order = np.argsort(np.where((hi > lo)[owner], -start, start), kind="stable")
    np.add.at(sums, owner[order], piece[order])
    return sums[:, 0], sums[:, 1], np.where(lo != hi, 3 + 2 * nodes, 0), failed


def mudguard_closed_form(R, r, mu):
    """Total solid angle of the mudguard surface: 4*pi*R*sin(mu) / [R - r*(1 - cos(mu))]."""
    return 4.0 * np.pi * R * np.sin(mu) / (R - r * (1.0 - np.cos(mu)))


def mudguard_total(specs) -> QuadratureResult:
    """Total solid angle of the mudguard model by quadrature, for comparison
    with mudguard_closed_form.

    Integrates the local Gaussian curvature
    (1/r) * cos(eps) / [R - r*(1 - cos(mu))] over the transverse arc (length
    element r * d(eps)) and a hoop of length 2*pi*R.  Takes a MudguardSpec,
    or a list of them for one batched quadrature and array fields (evaluations
    per spec: an int for one spec, an int64 array for a list)."""
    R, r, mu = (np.vectorize(attrgetter(k), otypes=[float])(specs) for k in ("R", "r", "mu"))
    value, err, evals = _simpson(lambda eps, d: np.cos(eps) / d, -mu, mu, DEFAULT_TOL,
                                 MAX_EVALUATIONS, (R - r * (1.0 - np.cos(mu)),))
    value, err = 2.0 * np.pi * R * value, 2.0 * np.pi * R * err  # a hoop of length 2*pi*R
    return QuadratureResult(_out(value), _out(err), _out(evals))


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
