"""Verification suites cross-checking every closed form in the library
against an independent oracle: discrete angle defects, numerical Gauss maps,
or adaptive quadrature.  Each check is reported as a VerificationReport; a
suite passes iff every report in it passes."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import creases, curvature, oracle, quadrature, surfaces
from .errors import ParameterError

# Canonical doubly-curved crease parameters used for the Gauss-map check.
CANONICAL_MUDGUARD = dict(R=10.0, r=0.1, mu=0.2)


@dataclass(frozen=True)
class VerificationReport:
    """One closed-form-vs-oracle comparison.

    residual is in the units named by metadata["residual_kind"]
    ("relative", "absolute" or "ratio").
    """

    case_name: str
    closed_form: float
    oracle: float
    residual: float
    tolerance: float
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        """|residual| <= tolerance."""
        return abs(self.residual) <= self.tolerance

    def to_json_dict(self) -> dict:
        return {
            "case_name": self.case_name,
            "closed_form": self.closed_form,
            "oracle": self.oracle,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "metadata": self.metadata,
        }


def _report(case, closed, oracle_value, residual, tol, kind, **meta):
    return VerificationReport(
        case_name=case,
        closed_form=float(closed),
        oracle=float(oracle_value),
        residual=float(residual),
        tolerance=float(tol),
        metadata={"residual_kind": kind, **meta},
    )


def _rel(case, closed, oracle_value, tol, **meta):
    scale = max(abs(closed), abs(oracle_value))
    residual = (oracle_value - closed) / scale if scale else 0.0
    return _report(case, closed, oracle_value, residual, tol, "relative", **meta)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_tube_balance() -> list[VerificationReport]:
    """Strip vs crease specific curvature across a parameter grid, plus the
    cubic scaling of the residual in the strip width."""
    reports = []
    for a in (1.0, 2.0):
        for alpha in (math.pi / 6, math.pi / 4, math.pi / 3):
            for ratio in (0.01, 0.02, 0.05):
                spec = curvature.TubeSpec(a=a, alpha=alpha, h=ratio * a)
                rep = creases.tube_balance(spec)
                bound = ((ratio * math.cos(alpha) ** 2) ** 2) / 24.0
                reports.append(_report(
                    f"tube-balance a={a} alpha={alpha:.4f} h/a={ratio}", -rep.strip_term,
                    rep.crease_term, rep.relative_residual, bound, "relative",
                    a=a, alpha=alpha, h=spec.h,
                ))
    # residual(h) / residual(h/2) should be ~8 (cubic in h)
    a, alpha = 1.0, math.pi / 4
    for ratio in (0.02, 0.05):
        r1 = creases.tube_balance(curvature.TubeSpec(a, alpha, ratio * a)).residual
        r2 = creases.tube_balance(curvature.TubeSpec(a, alpha, ratio * a / 2)).residual
        scaling = r1 / r2
        reports.append(_report(f"tube-balance cubic scaling h/a={ratio}",
                               8.0, scaling, scaling - 8.0, 0.4, "ratio", a=a, alpha=alpha))
    return reports


def suite_crease_law() -> list[VerificationReport]:
    """Discrete crease rate on the curved-crease mesh converges to 2*sin(mu)/R."""
    resolutions = (64, 128, 256)
    spec = creases.CreaseSpec(R=2.0, mu=math.pi / 6)
    exact = creases.crease_specific_curvature(spec)
    reports = []
    errors = []
    for nu in resolutions:
        mesh = surfaces.gen_curved_crease(spec, strip_width=0.3, nu=nu, nv=max(4, nu // 8))
        rate = oracle.angle_defect(mesh).crease_rates[1]
        errors.append(abs(rate - exact) / exact)
        reports.append(_rel(f"crease-law rate nu={nu}", exact, rate, 0.01,
                            R=spec.R, mu=spec.mu, nu=nu))
    for coarse, fine, e0, e1 in zip(resolutions, resolutions[1:], errors, errors[1:]):
        ratio = e1 / e0 if e0 else 0.0
        reports.append(_report(f"crease-law error contraction nu={coarse}->{fine}",
                               0.0, ratio, ratio, 0.55, "ratio"))
    return reports


def suite_mudguard() -> list[VerificationReport]:
    """Closed form vs quadrature on a parameter grid, vs the Gauss map of the
    generated surface at canonical parameters, and the r -> 0 limit."""
    gauss_res = 256
    grid = [(R, ratio, mu) for R in (1.0, 2.0, 10.0) for ratio in (0.001, 0.01, 0.05)
            for mu in (0.1, 0.2, 0.4)]
    total = quadrature.mudguard_total([surfaces.MudguardSpec(R, ratio * R, mu)
                                       for R, ratio, mu in grid])
    reports = [_rel(f"mudguard quadrature R={R} r/R={ratio} mu={mu}", closed, value, 1e-8,
                    R=R, r=ratio * R, mu=mu, evaluations=evaluations)
               for (R, ratio, mu), closed, value, evaluations in zip(
                   grid, total.closed_form, total.by_quadrature.value,
                   total.by_quadrature.evaluations.tolist())]
    spec = surfaces.MudguardSpec(**CANONICAL_MUDGUARD)
    closed = quadrature.mudguard_closed_form(spec.R, spec.r, spec.mu)
    swept = oracle.gauss_map_integrate(
        surfaces.mudguard_surface(spec),
        (0.0, 2.0 * math.pi, -spec.mu, spec.mu),
        nu=gauss_res, nv=gauss_res,
    )
    reports.append(_rel("mudguard gauss map canonical", closed, swept.value, 1e-3,
                        converged=swept.converged, error_estimate=swept.error_estimate,
                        extrapolated=swept.extrapolated, **CANONICAL_MUDGUARD))
    # r -> 0: the closed form approaches 4*pi*sin(mu) with O(r/R) deficit
    mu = 0.3
    limit = 4.0 * math.pi * math.sin(mu)
    for ratio in (1e-3, 1e-4):
        closed = quadrature.mudguard_closed_form(1.0, ratio, mu)
        deficit = abs(closed - limit) / limit
        reports.append(_report(f"mudguard r->0 limit r/R={ratio}",
                               limit, closed, deficit, ratio, "relative", mu=mu))
    return reports


def suite_gore() -> list[VerificationReport]:
    """Seam quadrature total against 4*pi, its 1/n^2 deficit scaling, and
    Gauss-Bonnet on generated gore-sphere meshes.

    Only the n -> infinity limit of the small-angle seam model is checked.
    At finite n no report compares the model with the mesh, whose seams
    carry 4*pi/n each: the model is 3.0% low at n = 6 and 0.76% at n = 12."""
    four_pi = 4.0 * math.pi
    ns = (1000, 8, 16, 32, 64)
    totals = quadrature.gore_sphere_total([surfaces.GoreSphereSpec(1.0, n) for n in ns]).value
    reports = [_rel("gore total n=1000", four_pi, totals[0], 1e-4, n=1000)]
    deficits = {n: four_pi - total for n, total in zip(ns[1:], totals[1:])}
    for n in (8, 16, 32):
        ratio = deficits[n] / deficits[2 * n]
        reports.append(_report(f"gore deficit scaling n={n}->{2 * n}",
                               4.0, ratio, ratio - 4.0, 0.4, "ratio"))
    nu, nv = 48, 6
    for n in (6, 8):
        mesh = surfaces.gen_gore_sphere(surfaces.GoreSphereSpec(R=1.0, n=n), nu, nv)
        total_defect = oracle.angle_defect(mesh).total_defect
        reports.append(_report(f"gore mesh gauss-bonnet n={n}", four_pi, total_defect,
                               total_defect - four_pi, 1e-9, "absolute", nu=nu, nv=nv))
    return reports


def suite_twist_independence() -> list[VerificationReport]:
    """Twisting along a crease changes nothing: the closed form is bit-for-bit
    twist-independent, and folding the twisted patch leaves its discrete total
    defect unchanged."""
    patch_res = 256
    reports = []
    base = creases.crease_specific_curvature(creases.CreaseSpec(R=2.0, mu=0.4, twist=0.0))
    worst = max(
        abs(creases.crease_specific_curvature(creases.CreaseSpec(R=2.0, mu=0.4, twist=t)) - base)
        for t in (-10.0, 0.0, 10.0)
    )
    reports.append(_report("twist-independence closed form", base, base + worst, worst, 0.0,
                           "absolute", twists=[-10.0, 0.0, 10.0]))
    totals = {}
    for mu in (0.0, 0.2):
        mesh = surfaces.gen_twisted_patch(0.1, 1.0, 1.0, mu, patch_res, patch_res)
        totals[mu] = oracle.angle_defect(mesh).total_defect
    reports.append(_rel("twist-independence patch defect mu=0 vs 0.2",
                        totals[0.0], totals[0.2], 0.01, kxy=0.1, nu=patch_res))
    return reports


def suite_strip_curvature() -> list[VerificationReport]:
    """Interior angle-defect density of the twisted-prismatic tube against the
    closed-form strip Gaussian curvature."""
    a, alpha, n_strips, res = 1.0, math.pi / 4, 12, 256
    spec = curvature.tube_spec_for_strips(a, alpha, n_strips)
    expected = curvature.gaussian_curvature(curvature.prismatic_curvatures(spec))
    mesh = surfaces.gen_twisted_prismatic_tube(spec, n_strips, res, res)
    density = oracle.angle_defect(mesh).interior_defect_density()
    return [
        _rel(
            "strip-curvature tube density", expected, density, 0.02,
            a=a, alpha=alpha, n_strips=n_strips, nu=res, nv=res,
        )
    ]


def suite_mohr() -> list[VerificationReport]:
    """Random-state property checks: Gaussian curvature by product rule vs by
    Mohr circle, and rotation invariance of the principal values.  The states
    and angles are drawn in turn (kxx, kyy, kxy, phi per state), as
    random.uniform draws them, lo + (hi - lo) * random(); then each
    curvature function runs once on the arrays."""
    count, seed = 10_000, 20260824
    rng = random.Random(seed)
    lo = np.array([[-10.0], [-10.0], [-10.0], [0.0]])
    hi = np.array([[10.0], [10.0], [10.0], [math.pi]])
    unit = np.fromiter(iter(rng.random, None), dtype=float, count=4 * count)
    draws = lo + (hi - lo) * unit.reshape(count, 4).T
    state = curvature.CurvatureState(kxx=draws[0], kyy=draws[1], kxy=draws[2])
    scale = np.maximum(1.0, (draws[:3] ** 2).max(axis=0))
    circle = curvature.mohr_circle(state)
    by_circle = circle.center**2 - circle.radius**2
    worst_k = np.max(np.abs(curvature.gaussian_curvature(state) - by_circle) / scale)
    p = curvature.principal_curvatures(state)
    q = curvature.principal_curvatures(state.rotated(draws[3]))
    pscale = np.maximum(1.0, np.abs(p).max(axis=0))
    worst_p = np.max(np.abs(np.subtract(p, q)) / pscale)
    return [
        _report(
            "mohr gaussian-curvature identity", 0.0, worst_k, worst_k, 1e-12,
            "relative", count=count, seed=seed,
        ),
        _report(
            "mohr rotation invariance", 0.0, worst_p, worst_p, 1e-12,
            "relative", count=count, seed=seed,
        ),
    ]


_SUITES = {
    "tube-balance": suite_tube_balance,
    "crease-law": suite_crease_law,
    "mudguard": suite_mudguard,
    "gore": suite_gore,
    "twist-independence": suite_twist_independence,
    "strip-curvature": suite_strip_curvature,
    "mohr": suite_mohr,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str) -> list[VerificationReport]:
    """Run one named suite, or every suite for name = 'all'."""
    if name != "all" and name not in _SUITES:
        raise ParameterError(
            f"unknown suite {name!r}; choose from all, {', '.join(_SUITES)}"
        )
    reports = []
    for suite in _SUITES if name == "all" else (name,):
        reports.extend(_SUITES[suite]())
    return reports
