import math

import numpy as np
import pytest

from creasegeom import (
    CreaseSpec,
    GoreSphereSpec,
    ParameterError,
    TubeSpec,
    crease_law,
    gen_curved_crease,
    gen_gore_sphere,
    gen_twisted_prismatic_tube,
    integrate,
    tube_half_fold_angle,
    tube_spec_for_strips,
    tube_strip_total,
)
from creasegeom.creases import curved_crease, gore_seam, tube_crease

try:
    from hypothesis import given, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def test_crease_spec_validation():
    with pytest.raises(ParameterError):
        CreaseSpec(R=0.0, mu=0.2)
    with pytest.raises(ParameterError):
        CreaseSpec(R=math.nan, mu=0.2)
    with pytest.raises(ParameterError):
        CreaseSpec(R=2.0, mu=math.pi / 2)
    with pytest.raises(ParameterError, match="finite crease radius"):
        gen_curved_crease(CreaseSpec(R=math.inf, mu=0.3), 0.1, 8, 4)


def test_crease_specific_curvature():
    # 2 sin(mu) / R; a straight crease has kappa = 0
    assert crease_law(*curved_crease(CreaseSpec(R=2.0, mu=math.pi / 6))) == pytest.approx(0.5)
    assert crease_law(*curved_crease(CreaseSpec(R=math.inf, mu=0.4))) == 0.0
    assert crease_law(0.0, 0.3, -0.1) == 0.0


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
@given(kappa=st.floats(-1e300, 1e300), mu=st.floats(0.0, math.pi / 2),
       more=st.lists(st.tuples(st.floats(-1e300, 1e300), st.floats(0.0, math.pi / 2)),
                     max_size=8))
def test_bisected_fold_is_twice_kappa_sin_mu_bit_for_bit(kappa, mu, more):
    # sin(mu) - sin(-mu) doubles sin(mu) exactly, and so one rounding of the
    # same product remains
    assert crease_law(kappa, mu, -mu) == 2.0 * kappa * np.sin(mu)
    kappas, mus = np.array([(kappa, mu), *more]).T
    assert np.array_equal(crease_law(kappas, mus, -mus), 2.0 * kappas * np.sin(mus))


def test_tube_crease_fold_angle():
    spec = TubeSpec(a=1.0, alpha=math.pi / 4, h=0.05)
    # the h -> 0 limit of the fold, 2 mu = (h/a) cos^2(alpha) = 0.025
    two_mu = (spec.h / spec.a) * math.cos(spec.alpha) ** 2
    assert two_mu == pytest.approx(0.025)
    assert 2.0 * tube_half_fold_angle(spec) == pytest.approx(two_mu, rel=1e-4)


def mesh_half_fold_angle(a, alpha, n_strips, nu):
    """Half the angle between the tangent planes of strips 1 and 2 at the
    middle vertex of the crease they share, each plane spanned by the crease
    tangent (a central difference) and that strip's ruling, which joins equal
    positions on adjacent crease polylines."""
    mesh = gen_twisted_prismatic_tube(a, alpha, n_strips, nu, 4)
    before, crease, after = (mesh.vertices[mesh.crease_polylines[k]] for k in (1, 2, 3))
    i = nu // 2
    tangent = crease[i + 1] - crease[i - 1]
    n1 = np.cross(before[i] - crease[i], tangent)
    n2 = np.cross(tangent, after[i] - crease[i])
    return 0.5 * math.atan2(np.linalg.norm(np.cross(n1, n2)), np.dot(n1, n2))


@pytest.mark.parametrize("a, alpha, n_strips", [
    (1.0, math.pi / 4, 12), (1.0, math.pi / 8, 24), (1.0, 1.2, 5), (1.0, 0.3, 7),
    (2.5, 0.7, 9), (0.2, 1.0, 16), (1.0, 0.0, 12), (3.0, 0.0, 5),
])
def test_tube_half_fold_angle_matches_mesh_strip_planes(a, alpha, n_strips):
    mu = tube_half_fold_angle(tube_spec_for_strips(a, alpha, n_strips))
    assert mesh_half_fold_angle(a, alpha, n_strips, 4096) == pytest.approx(mu, rel=1e-8)


def test_tube_half_fold_angle_tends_to_shallow_limit():
    # 1 - 2 mu / ((h/a) cos^2 alpha) quarters each time the strip count doubles
    gaps = []
    for n_strips in (12, 24, 48, 96):
        spec = tube_spec_for_strips(1.0, math.pi / 4, n_strips)
        shallow = (spec.h / spec.a) * math.cos(spec.alpha) ** 2
        gaps.append(1.0 - 2.0 * tube_half_fold_angle(spec) / shallow)
    assert gaps[:3] == pytest.approx([2.9e-3, 7.1e-4, 1.8e-4], rel=0.03)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert coarse / fine == pytest.approx(4.0, rel=0.01)


def test_tube_balance_canonical():
    spec = TubeSpec(a=1.0, alpha=math.pi / 4, h=0.05)
    total, area = tube_strip_total(spec)
    assert total == pytest.approx(-crease_law(*tube_crease(spec)), rel=1e-13)
    # the shallow strip term -(h/a^2) sin^2 cos^2 = -h/4, off at O((h/a)^2)
    assert total == pytest.approx(-0.0125, rel=1e-4)
    assert area.value == pytest.approx(spec.h, rel=1e-4)


@pytest.mark.parametrize("a, alpha, h", [(1.0, 1.2, 10.0), (1.0, 1.2, 8.0), (1.0, 0.7, 5.0)])
def test_tube_balance_where_the_strip_nears_the_axis(a, alpha, h):
    # theta = (h/a) cos(alpha) near pi: K W peaks sharply at mid-strip, where
    # 32 quadrature nodes read the balance only to 2.9e-4, 7.4e-6 and 8.6e-9
    spec = TubeSpec(a, alpha, h)
    assert tube_strip_total(spec)[0] == pytest.approx(-crease_law(*tube_crease(spec)),
                                                      rel=1e-13)


def test_tube_strip_total_of_a_batch_is_each_specs_single_call():
    specs = [TubeSpec(1.0, math.pi / 4, 0.05), TubeSpec(2.0, 0.3, 0.01),
             tube_spec_for_strips(1.5, 1.2, 7), TubeSpec(0.5, 0.0, 0.1)]
    total, area = tube_strip_total(specs)
    for i, spec in enumerate(specs):
        one_total, one_area = tube_strip_total(spec)
        assert isinstance(one_total, float) and one_total == total[i]
        assert (one_area.value, one_area.error_estimate) == (area.value[i],
                                                             area.error_estimate[i])
    assert area.evaluations == len(specs) * one_area.evaluations


def test_tube_strip_area_at_twelve_strips():
    # the ruled strip is narrower than the developed one: the trap for a
    # mesh-measured balance that divides by h
    spec = tube_spec_for_strips(1.0, math.pi / 4, 12)
    assert round(tube_strip_total(spec)[1].value / spec.h, 6) == 0.995718


def test_tube_strip_total_at_axial_and_hoop_lines():
    total, area = tube_strip_total(TubeSpec(1.0, 0.0, 0.05))
    assert total == 0.0 and area.value > 0.0
    spec = TubeSpec(1.0, math.pi / 2, 0.05)
    assert tube_strip_total(spec)[0] == pytest.approx(-crease_law(*tube_crease(spec)),
                                                      rel=1e-15)


# -- gore seams --------------------------------------------------------------

def unit_normal(mesh, triangle):
    a, b, c = mesh.vertices[triangle]
    normal = np.cross(b - a, c - a)
    return normal / np.linalg.norm(normal)


@pytest.mark.parametrize("R, n", [(1.0, 3), (2.5, 6), (1.0, 12)])
def test_gore_seam_half_fold_matches_mesh_faces(R, n):
    # every face of a gore is a chord of its cylinder: its normal is the
    # gore's at the mid latitude of its two rows, so half the dihedral angle
    # across a seam edge is the law's mu there
    spec = GoreSphereSpec(R=R, n=n)
    mesh = gen_gore_sphere(spec, 24, 4)
    for chain in mesh.crease_polylines.values():
        theta = np.arcsin(mesh.vertices[chain, 2] / R)
        _, mu, _ = gore_seam(spec, 0.5 * (theta[:-1] + theta[1:]))
        for i in range(len(chain) - 1):
            at_edge = (mesh.triangles == chain[i]).any(1) & (mesh.triangles == chain[i + 1]).any(1)
            n1, n2 = (unit_normal(mesh, t) for t in mesh.triangles[at_edge])
            half_fold = 0.5 * math.atan2(np.linalg.norm(np.cross(n1, n2)), np.dot(n1, n2))
            assert half_fold == pytest.approx(mu[i], rel=1e-12)


@pytest.mark.parametrize("n", [6, 12, 1000])
def test_gore_seam_law_integrates_to_four_pi_over_n(n):
    # ds = R sqrt(sin^2(theta) / cos^2(beta) + cos^2(theta)) dtheta on the seam ellipse
    spec, beta = GoreSphereSpec(R=2.0, n=n), math.pi / n

    def law_ds(theta):
        ds = spec.R * np.sqrt((np.sin(theta) / math.cos(beta)) ** 2 + np.cos(theta) ** 2)
        return crease_law(*gore_seam(spec, theta)) * ds

    total = integrate(law_ds, -math.pi / 2, math.pi / 2)
    assert abs(total.value - 4 * math.pi / n) <= total.error_estimate
    assert total.value == pytest.approx(4 * math.pi / n, rel=1e-13)
