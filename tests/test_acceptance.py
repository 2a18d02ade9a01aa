"""Acceptance gate: the seven criteria the library must meet, each printed as
a single pass/fail line.  Each criterion runs its verification suite and
asserts that every report passed at the tolerance pinned here, so a suite's
tolerance can never drift looser.  Inputs that the suites do not cover are
asserted directly."""

import math

import pytest

from creasegeom import (
    GoreSphereSpec,
    angle_defect,
    gen_gore_sphere,
    mudguard_closed_form,
    run_suite,
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
    def pinned(r):
        if r.case_name.startswith("tube-balance cubic scaling"):
            return 0.4  # h-halving ratio within 8 +/- 0.4
        m = r.metadata  # relative residual within (h/a cos^2 alpha)^2 / 24
        return ((m["h"] / m["a"] * math.cos(m["alpha"]) ** 2) ** 2) / 24.0

    check_suite(capsys, 1, "tube balance", "tube-balance", 20, pinned)


def test_criterion_2_crease_law(capsys):
    reports = check_suite(capsys, 2, "crease law", "crease-law", 5, by_prefix({
        "crease-law rate": 0.01,
        "crease-law error contraction": 0.55,
    }))
    assert all(r.closed_form == pytest.approx(0.5)
               for r in reports if r.case_name.startswith("crease-law rate"))


def test_criterion_3_twist_independence(capsys):
    check_suite(capsys, 3, "twist independence", "twist-independence", 2, by_prefix({
        "twist-independence closed form": 0.0,
        "twist-independence patch defect": 0.01,
    }))


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
        "gore total": 1e-4,
        "gore deficit scaling": 0.4,
        "gore mesh gauss-bonnet": 1e-9,
    }), gb_worst <= 1e-9, f", Gauss-Bonnet at 32x4 worst {gb_worst:.2e} <= 1e-9")


def test_criterion_6_strip_curvature_oracle(capsys):
    check_suite(capsys, 6, "strip curvature oracle", "strip-curvature", 1, by_prefix({
        "strip-curvature tube density": 0.02,
    }))


def test_criterion_7_mohr_property_suite(capsys):
    check_suite(capsys, 7, "Mohr property suite", "mohr", 2, by_prefix({
        "mohr gaussian-curvature identity": 1e-12,
        "mohr rotation invariance": 1e-12,
    }))
