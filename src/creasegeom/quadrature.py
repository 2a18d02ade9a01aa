"""Deterministic 1-D adaptive quadrature and the two closed-form totals it
verifies: the mudguard hoop integral and the gore-sphere seam total."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ParameterError, QuadratureError

DEFAULT_TOL = 1e-10
MAX_EVALUATIONS = 1_000_000


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ParameterError("error estimate must be >= 0")


def integrate(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    max_evals: int = MAX_EVALUATIONS,
) -> QuadratureResult:
    """Adaptive Simpson integration of f over [lo, hi].

    Deterministic given its inputs.  The returned error estimate is the
    accumulated Richardson correction; for smooth integrands the true error
    is comfortably below `tol`.  Raises QuadratureError (best estimate
    attached) if the evaluation cap is hit before the tolerance is met.
    """
    if not tol > 0:
        raise ParameterError(f"tolerance must be positive, got {tol}")
    if lo == hi:
        return QuadratureResult(value=0.0, error_estimate=0.0, evaluations=0)

    evals = 0

    def feval(x: float) -> float:
        nonlocal evals
        evals += 1
        y = f(x)
        if not math.isfinite(y):
            raise ParameterError(f"integrand not finite at x = {x}")
        return y

    fa, fm, fb = feval(lo), feval(0.5 * (lo + hi)), feval(hi)
    whole = (hi - lo) * (fa + 4.0 * fm + fb) / 6.0

    # Explicit stack of (a, b, fa, fm, fb, S, tol) intervals; LIFO order keeps
    # the refinement deterministic.
    stack = [(lo, hi, fa, fm, fb, whole, tol)]
    total = 0.0
    err = 0.0
    while stack:
        a, b, fa, fm, fb, s, t = stack.pop()
        m = 0.5 * (a + b)
        if evals + 2 > max_evals:
            best = total + s + sum(item[5] for item in stack)
            raise QuadratureError(
                f"evaluation cap {max_evals} reached before tol {tol}",
                best=best,
                error_estimate=err,
                evaluations=evals,
            )
        flm = feval(0.5 * (a + m))
        frm = feval(0.5 * (m + b))
        s_left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
        s_right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
        delta = s_left + s_right - s
        if abs(delta) <= 15.0 * t or abs(b - a) < 1e-14 * abs(hi - lo):
            total += s_left + s_right + delta / 15.0
            err += abs(delta) / 15.0
        else:
            stack.append((a, m, fa, flm, fm, s_left, t / 2.0))
            stack.append((m, b, fm, frm, fb, s_right, t / 2.0))
    return QuadratureResult(value=total, error_estimate=err, evaluations=evals)


@dataclass(frozen=True)
class MudguardTotal:
    """Mudguard total solid angle evaluated both ways."""

    by_quadrature: QuadratureResult
    closed_form: float

    @property
    def residual(self) -> float:
        return self.by_quadrature.value - self.closed_form


def mudguard_closed_form(R: float, r: float, mu: float) -> float:
    """Total solid angle of the mudguard surface: 4*pi*R*sin(mu) / [R - r*(1 - cos(mu))]."""
    return 4.0 * math.pi * R * math.sin(mu) / (R - r * (1.0 - math.cos(mu)))


def mudguard_total(spec) -> MudguardTotal:
    """Total solid angle of the mudguard model, by quadrature and closed form.

    The quadrature side integrates the local Gaussian curvature
    (1/r) * cos(eps) / [R - r*(1 - cos(mu))] over the transverse arc and a
    complete hoop of length 2*pi*R.  Takes a MudguardSpec.  Raises
    ArithmeticError if the two routes disagree beyond the quadrature error.
    """
    R, r, mu = spec.R, spec.r, spec.mu
    denom = R - r * (1.0 - math.cos(mu))
    hoop = 2.0 * math.pi * R

    def integrand(eps: float) -> float:
        return math.cos(eps) / denom  # (1/r) * cos(eps)/denom * r

    quad = integrate(integrand, -mu, mu)
    quad = QuadratureResult(
        value=hoop * quad.value,
        error_estimate=hoop * quad.error_estimate,
        evaluations=quad.evaluations,
    )
    closed = mudguard_closed_form(R, r, mu)
    slack = 100.0 * max(quad.error_estimate, DEFAULT_TOL * max(1.0, abs(closed)))
    if abs(quad.value - closed) > slack:
        raise ArithmeticError(
            f"quadrature {quad.value!r} and closed form {closed!r} disagree "
            f"beyond tolerance {slack!r}"
        )
    return MudguardTotal(by_quadrature=quad, closed_form=closed)


def gore_sphere_total(spec) -> float:
    """Total seam solid angle of an n-gore sphere in the small-angle seam model.

    n * integral over latitude of 2*sin((pi/n)*cos(theta)): the crease law
    2*sin(mu)/R along each seam, with the small-angle half fold
    mu = (pi/n)*cos(theta).  Approaches 4*pi from below as n grows.  A model,
    not the exact seam rate: gen_gore_sphere's seams carry 4*pi/n each,
    3.1% above the model's share at n = 6.
    """
    n = spec.n
    beta = math.pi / n

    def integrand(theta: float) -> float:
        return 2.0 * math.sin(beta * math.cos(theta))

    quad = integrate(integrand, -math.pi / 2, math.pi / 2)
    return n * quad.value
