"""Acceptance gate: the seven criteria the library must meet, each printed as
a single pass/fail line.  Each criterion runs its verification suite and
asserts that every report passed at the tolerance pinned here, so a suite's
tolerance can never drift looser.  Inputs that the suites do not cover are
asserted directly."""

import math

import numpy as np
import pytest

from creasegeom import (
    GoreSphereSpec,
    TriMesh,
    angle_defect,
    creases,
    gen_gore_sphere,
    mudguard_closed_form,
    oracle,
    run_suite,
    surfaces,
)


def report(capsys, number, title, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({title}): {detail}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    return line


def check_suite(capsys, number, title, suite, count, pinned, extra_ok=True, extra=""):
    """Run `suite`, which must yield `count` reports, each with tolerance
    pinned(report) and passed."""
    reports = run_suite(suite)
    assert len(reports) == count
    for r in reports:
        assert r.tolerance == pinned(r), r.case_name
    failed = [r.case_name for r in reports if not r.passed]
    ok = not failed and extra_ok
    line = report(
        capsys, number, title, ok,
        f"{count - len(failed)}/{count} {suite} checks pass at pinned tolerances"
        + (f", failed: {failed}" if failed else "") + extra,
    )
    assert ok, line
    return reports


def by_prefix(table):
    """pinned() looking up the case name's prefix in `table`."""
    def pinned(r):
        return next(tol for prefix, tol in table.items() if r.case_name.startswith(prefix))
    return pinned


def test_criterion_1_tube_balance(capsys):
    # the strip total against the crease law at the exact fold, to rounding
    check_suite(capsys, 1, "tube balance", "tube-balance", 20, lambda r: 1e-13)


def test_criterion_2_crease_law(capsys):
    reports = check_suite(capsys, 2, "crease law", "crease-law", 5, by_prefix({
        "crease-law rate": 0.01,
        "crease-law error contraction": 0.55,
    }))
    assert all(r.closed_form == pytest.approx(0.5)
               for r in reports if r.case_name.startswith("crease-law rate"))


def test_crease_law_rates_fail_mu_in_place_of_sin_mu(monkeypatch):
    # the rungs read the law to 2.5e-5 and finer, so the 1% tolerance catches
    # a law 4.7% high (mu = pi/6 = 0.524 against sin(mu) = 0.5)
    monkeypatch.setattr(creases, "crease_law", lambda kappa, phi_plus, phi_minus:
                        kappa * (phi_plus - phi_minus))
    rates = [r for r in run_suite("crease-law") if r.case_name.startswith("crease-law rate ")]
    assert [r.metadata["nu"] for r in rates] == [32, 64, 128]
    assert all(r.residual == pytest.approx(-0.045, abs=1e-3) and not r.passed for r in rates)


def test_one_law_with_plus_sin_phi_minus_fails_every_crease_report(monkeypatch):
    # every fold is bisected, so the mutated law reads 0 on every crease; the
    # crease-law rungs then divide by it, to infinite errors and nan ratios
    monkeypatch.setattr(creases, "crease_law", lambda kappa, phi_plus, phi_minus:
                        kappa * (np.sin(phi_plus) + np.sin(phi_minus)))
    with np.errstate(divide="ignore", invalid="ignore"):
        reports = [r for suite in ("tube-balance", "crease-law", "gore", "twist-independence")
                   for r in run_suite(suite)]
    law = [r for r in reports if not r.case_name.startswith(("gore seam total", "gore mesh"))]
    assert len(law) == 20 + 5 + 2 + 2
    assert not [r.case_name for r in law if r.passed]


def test_criterion_3_twist_independence(capsys):
    reports = check_suite(capsys, 3, "twist independence", "twist-independence", 2, by_prefix({
        "twist-independence tube crease": 1e-3,
    }))
    ratios = [r.metadata["torsion"] / r.metadata["curvature"] for r in reports]
    assert ratios[0] > 2 * ratios[1]  # one law at torsion/curvature 2.41 and 0.41


def test_twist_independence_fails_the_shallow_fold(monkeypatch):
    # the 64x16 tubes read the law to +5.1e-4 and -2.4e-4; (h/2a) cos^2(alpha)
    # in place of the exact fold reads -1.9e-3 at alpha = pi/8
    monkeypatch.setattr(creases, "tube_half_fold_angle",
                        lambda spec: spec.h / (2 * spec.a) * math.cos(spec.alpha) ** 2)
    low, _ = run_suite("twist-independence")
    assert (low.metadata["nu"], low.metadata["nv"]) == (64, 16)
    assert low.metadata["alpha"] == math.pi / 8 and not low.passed


def test_twist_independence_fails_without_the_strip_share(monkeypatch):
    # the strips' share is about 6% of crease 1's defect at nv = 16
    monkeypatch.setattr(oracle.DefectField, "interior_defect_density", lambda field: 0.0)
    reports = run_suite("twist-independence")
    assert [(r.metadata["nu"], r.metadata["nv"]) for r in reports] == [(64, 16)] * 2
    assert all(r.residual < -0.05 and not r.passed for r in reports)


def test_criterion_4_mudguard(capsys):
    def pinned(r):
        if r.case_name.startswith("mudguard r->0 limit r/R="):
            return float(r.case_name.rsplit("=", 1)[1])  # deficit O(r/R)
        return by_prefix({"mudguard quadrature": 1e-8, "mudguard gauss map": 1e-3})(r)

    # the suite takes r/R = 1e-3 and 1e-4; r/R = 1e-2 is checked here
    limit = 4 * math.pi * math.sin(0.3)
    deficit = abs(mudguard_closed_form(1.0, 1e-2, 0.3) - limit) / limit
    check_suite(capsys, 4, "mudguard", "mudguard", 30, pinned, deficit <= 1e-2,
                f", r/R=1e-2 deficit {deficit:.2e} <= 1e-2")


def test_criterion_5_gore_sphere(capsys):
    # the suite meshes at 48x6 with n = 6, 8; 32x4 with n = 6, 8, 12 is checked here
    gb_worst = max(
        abs(angle_defect(gen_gore_sphere(GoreSphereSpec(R=1.0, n=n), 32, 4)).total_defect
            - 4 * math.pi)
        for n in (6, 8, 12)
    )
    check_suite(capsys, 5, "gore sphere", "gore", 6, by_prefix({
        "gore seam rate": 1e-3,
        "gore seam total": 1e-3,
        "gore mesh gauss-bonnet": 1e-9,
    }), gb_worst <= 1e-9, f", Gauss-Bonnet at 32x4 worst {gb_worst:.2e} <= 1e-9")


@pytest.mark.parametrize("mirrored", [False, True])
def test_gore_reports_name_seam_1_and_theta_at_least_0(monkeypatch, mirrored):
    # the worst readings tie to rounding over the n mirror-image seams and the
    # latitudes +-theta; the mesh mirrored in z swaps each tie's two latitudes
    generate = surfaces.gen_gore_sphere

    def mirror(spec, nu, nv):
        mesh = generate(spec, nu, nv)
        return TriMesh(mesh.vertices * [1.0, 1.0, -1.0], mesh.triangles[:, ::-1],
                       mesh.crease_polylines)

    if mirrored:
        monkeypatch.setattr(surfaces, "gen_gore_sphere", mirror)
    seams = [r for r in run_suite("gore") if r.case_name.startswith("gore seam")]
    assert [(r.case_name, r.metadata["seam"]) for r in seams] == [
        ("gore seam rate n=6", 1), ("gore seam total n=6", 1),
        ("gore seam rate n=8", 1), ("gore seam total n=8", 1)]
    assert all(r.metadata["theta"] >= 0.0 for r in seams[::2])


def test_criterion_6_strip_curvature_oracle(capsys):
    check_suite(capsys, 6, "strip curvature oracle", "strip-curvature", 1, by_prefix({
        "strip-curvature tube density": 0.02,
    }))


def test_strip_curvature_fails_interior_defects_scaled_by_3_percent(monkeypatch):
    # the 64x32 tube reads the closed form to +2.8e-5, so the 2% tolerance
    # still catches a kernel whose interior defects are 3% large
    kernel = oracle.angle_defect

    def scaled(mesh):
        field = kernel(mesh)
        field.defect[~(field.boundary_mask | field.crease_mask)] *= 1.03
        return field

    monkeypatch.setattr(oracle, "angle_defect", scaled)
    [r] = run_suite("strip-curvature")
    assert (r.metadata["nu"], r.metadata["nv"]) == (64, 32)
    assert r.residual == pytest.approx(-0.03 / 1.03, abs=1e-4)  # density of K < 0
    assert not r.passed


def test_criterion_7_mohr_property_suite(capsys):
    check_suite(capsys, 7, "Mohr property suite", "mohr", 2, by_prefix({
        "mohr gaussian-curvature identity": 1e-12,
        "mohr rotation invariance": 1e-12,
    }))
