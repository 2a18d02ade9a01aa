"""Verification suites; a suite passes iff each of its VerificationReports
does.  Closed forms are compared with an oracle (the angle defects of a mesh
in crease-law, gore, twist-independence and strip-curvature, the Gauss map
in one mudguard report), with their own model by quadrature (27 mudguard
reports), with a limit (mudguard r -> 0), or with identities: algebraic
ones (mohr) and one that holds by construction (Gauss-Bonnet on a closed
gore mesh).  In tube-balance the ruled strip's second fundamental form,
integrated in closed form, is compared with the crease law at the exact
fold; strip-curvature compares the tube mesh's density with that strip's
exact mean K, its total over its area.  So 13 of the 66 reports of
run_suite("all") test a closed form against an independent oracle.  Each
crease's law is creases.crease_law at that crease's (kappa, phi+, phi-)."""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field

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
        return {**asdict(self), "passed": self.passed}


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
    """The tube carries no Gaussian curvature overall: its ruled strip's
    total per unit crease length, in closed form, against the crease law
    at creases.tube_crease, 2*kappa*sin(mu) at the exact fold mu.  Over a
    parameter grid, and on the tubes that close with 6 and 48 strips."""
    cases = [(f"a={a} alpha={alpha:.4f} h/a={ratio}", curvature.TubeSpec(a, alpha, ratio * a))
             for a in (1.0, 2.0) for alpha in (math.pi / 6, math.pi / 4, math.pi / 3)
             for ratio in (0.01, 0.02, 0.05)]
    cases += [(f"closing N={n} alpha={math.pi / 4:.4f}",
               curvature.tube_spec_for_strips(1.0, math.pi / 4, n)) for n in (6, 48)]
    names, specs = zip(*cases)
    total, area = quadrature.tube_strip_total(list(specs))
    reports = []
    for name, spec, strip, width in zip(names, specs, total.tolist(), area.value.tolist()):
        crease = creases.tube_crease(spec)
        reports.append(_rel(f"tube-balance {name}", creases.crease_law(*crease), -strip, 1e-13,
                            a=spec.a, alpha=spec.alpha, h=spec.h, mu=crease[1],
                            area_over_h=width / spec.h))
    return reports


def suite_crease_law() -> list[VerificationReport]:
    """Discrete crease rate on the curved-crease mesh converges to the law, 2*sin(mu)/R."""
    resolutions = (32, 64, 128)
    spec = creases.CreaseSpec(R=2.0, mu=math.pi / 6)
    exact = creases.crease_law(*creases.curved_crease(spec))
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
    specs = [surfaces.MudguardSpec(R, ratio * R, mu) for R, ratio, mu in grid]
    total = quadrature.mudguard_total(specs)
    closed = quadrature.mudguard_closed_form(*(np.array([getattr(s, k) for s in specs])
                                               for k in ("R", "r", "mu")))
    reports = [_rel(f"mudguard quadrature R={R} r/R={ratio} mu={mu}", c, value, 1e-8,
                    R=R, r=ratio * R, mu=mu, error_estimate=err)
               for (R, ratio, mu), c, value, err in zip(
                   grid, closed, total.value, total.error_estimate.tolist())]
    spec = surfaces.MudguardSpec(**CANONICAL_MUDGUARD)
    closed = quadrature.mudguard_closed_form(spec.R, spec.r, spec.mu)
    swept = oracle.gauss_map_integrate(
        surfaces.mudguard_surface(spec),
        (0.0, 2.0 * math.pi, -spec.mu, spec.mu),
        nu=gauss_res, nv=gauss_res,
    )
    reports.append(_rel("mudguard gauss map canonical", closed, swept.value, 1e-3,
                        converged=swept.converged, anchor_stride=swept.anchor_stride,
                        error_estimate=swept.error_estimate,
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


def _first_of_worst(reading, target, order):
    """Of the readings within 1e-12 relative of the one farthest from target
    (mirror images, equal to rounding), the index least by order."""
    worst = reading.flat[np.argmax(np.abs(reading - target))]
    return min(zip(*np.nonzero(np.isclose(reading, worst, rtol=1e-12, atol=0.0))), key=order)


def suite_gore() -> list[VerificationReport]:
    """Gore-sphere meshes at 48x6 with n = 6 and 8 against the crease law
    along seams whose curvature and fold vary (creases.gore_seam): the worst
    seam vertex's defect over half its two segments against the law at the
    latitude of its z, skipping the rows beside the poles; the worst seam's
    total against the law's 4*pi/n; and Gauss-Bonnet, which holds on any
    closed genus-0 mesh by construction.  Of mirror-image readings, the
    reports name the lowest seam id and theta >= 0."""
    four_pi, nu, nv = 4.0 * math.pi, 48, 6
    reports, gauss_bonnet = [], []
    for n in (6, 8):
        spec = surfaces.GoreSphereSpec(R=1.0, n=n)
        mesh = surfaces.gen_gore_sphere(spec, nu, nv)
        field = oracle.angle_defect(mesh)
        seams = sorted(mesh.crease_polylines)
        chains = np.array([mesh.crease_polylines[seam] for seam in seams])
        points = mesh.vertices[chains]
        segments = np.linalg.norm(np.diff(points, axis=1), axis=2)
        rate = field.defect[chains[:, 1:-1]] / (0.5 * (segments[:, :-1] + segments[:, 1:]))
        theta = np.arcsin(points[:, 1:-1, 2] / spec.R)
        law = creases.crease_law(*creases.gore_seam(spec, theta))
        at = _first_of_worst(rate / law, 1.0, lambda at: (at[0], theta[at] < 0))
        totals = np.array([field.crease_totals[seam] for seam in seams])
        [total_at] = _first_of_worst(totals, four_pi / n, lambda at: at)
        reports += [_rel(f"gore seam rate n={n}", law[at], rate[at], 1e-3, n=n, nu=nu, nv=nv,
                         seam=seams[at[0]], theta=float(theta[at])),
                    _rel(f"gore seam total n={n}", four_pi / n, totals[total_at], 1e-3, n=n,
                         nu=nu, nv=nv, seam=seams[total_at])]
        total_defect = field.total_defect
        gauss_bonnet.append(_report(f"gore mesh gauss-bonnet n={n}", four_pi, total_defect,
                                    total_defect - four_pi, 1e-9, "absolute", nu=nu, nv=nv))
    return reports + gauss_bonnet


def suite_twist_independence() -> list[VerificationReport]:
    """The crease law ignores torsion: on 12-strip tubes at 64x16 (12,000
    vertices) with helical creases of torsion/curvature cot(alpha) = 2.41 and
    0.41, crease 1's rate less its strips' share (interior density times the
    crease vertices' lumped area) is the law at creases.tube_crease, mu exact."""
    a, n_strips, nu, nv = 1.0, 12, 64, 16
    reports = []
    for alpha in (math.pi / 8, 3 * math.pi / 8):
        mesh = surfaces.gen_twisted_prismatic_tube(a, alpha, n_strips, nu, nv)
        field = oracle.angle_defect(mesh)
        chain = mesh.crease_polylines[1]
        area = field.lumped_area[chain[~field.boundary_mask[chain]]].sum()
        length = field.crease_totals[1] / field.crease_rates[1]  # what crease_rates divides by
        rate = (field.crease_totals[1] - field.interior_defect_density() * area) / length
        crease = creases.tube_crease(curvature.tube_spec_for_strips(a, alpha, n_strips))
        reports.append(_rel(f"twist-independence tube crease alpha={alpha:.4f}",
                            creases.crease_law(*crease), rate, 1e-3, a=a, alpha=alpha,
                            n_strips=n_strips, nu=nu, nv=nv, curvature=crease[0],
                            torsion=math.sin(alpha) * math.cos(alpha) / a, mu=crease[1]))
    return reports


def suite_strip_curvature() -> list[VerificationReport]:
    """Interior angle-defect density of the 12-strip tube at 64x32 (23,968
    vertices) against the ruled strip's exact mean Gaussian curvature, its
    total over its area."""
    a, alpha, n_strips, nu, nv = 1.0, math.pi / 4, 12, 64, 32
    total, area = quadrature.tube_strip_total(curvature.tube_spec_for_strips(a, alpha, n_strips))
    expected = total / area.value
    mesh = surfaces.gen_twisted_prismatic_tube(a, alpha, n_strips, nu, nv)
    density = oracle.angle_defect(mesh).interior_defect_density()
    return [_rel("strip-curvature tube density", expected, density, 0.02,
                 a=a, alpha=alpha, n_strips=n_strips, nu=nu, nv=nv)]


def suite_mohr() -> list[VerificationReport]:
    """Random-state property checks: Gaussian curvature by product rule vs by
    Mohr circle, and rotation invariance of the principal values, over 512
    seeded states.  Each state draws kxx, kyy, kxy and then its angle phi."""
    count, seed = 512, 20260824
    rng = random.Random(seed)
    worst_k = worst_p = 0.0
    for _ in range(count):
        state = curvature.CurvatureState(*(rng.uniform(-10.0, 10.0) for _ in range(3)))
        phi = rng.uniform(0.0, math.pi)
        scale = max(1.0, state.kxx**2, state.kyy**2, state.kxy**2)
        circle = curvature.mohr_circle(state)
        by_circle = circle.center**2 - circle.radius**2
        worst_k = max(worst_k, abs(curvature.gaussian_curvature(state) - by_circle) / scale)
        p = curvature.principal_curvatures(state)
        q = curvature.principal_curvatures(state.rotated(phi))
        pscale = max(1.0, abs(p[0]), abs(p[1]))
        worst_p = max(worst_p, abs(p[0] - q[0]) / pscale, abs(p[1] - q[1]) / pscale)
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
