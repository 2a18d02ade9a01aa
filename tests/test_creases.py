import math

import numpy as np
import pytest

from creasegeom import (
    CreaseSpec,
    ParameterError,
    TubeSpec,
    crease_specific_curvature,
    gen_twisted_prismatic_tube,
    tube_half_fold_angle,
    tube_spec_for_strips,
    tube_strip_total,
)


def test_crease_spec_validation():
    with pytest.raises(ParameterError):
        CreaseSpec(R=0.0, mu=0.2)
    with pytest.raises(ParameterError):
        CreaseSpec(R=math.nan, mu=0.2)
    with pytest.raises(ParameterError):
        CreaseSpec(R=2.0, mu=math.pi / 2)
    assert CreaseSpec(R=math.inf, mu=0.3).is_straight
    assert not CreaseSpec(R=2.0, mu=0.3).is_straight


def test_crease_specific_curvature():
    # 2 sin(mu) / R
    assert crease_specific_curvature(CreaseSpec(R=2.0, mu=math.pi / 6)) \
        == pytest.approx(0.5)
    assert crease_specific_curvature(CreaseSpec(R=math.inf, mu=0.4)) == 0.0


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


def crease_term(spec):
    """2 kappa sin(mu) with kappa = sin^2(alpha)/a and the exact fold mu."""
    return 2.0 * math.sin(spec.alpha) ** 2 / spec.a * math.sin(tube_half_fold_angle(spec))


def test_tube_balance_canonical():
    spec = TubeSpec(a=1.0, alpha=math.pi / 4, h=0.05)
    total, area = tube_strip_total(spec)
    assert total == pytest.approx(-crease_term(spec), rel=1e-13)
    # the shallow strip term -(h/a^2) sin^2 cos^2 = -h/4, off at O((h/a)^2)
    assert total == pytest.approx(-0.0125, rel=1e-4)
    assert area.value == pytest.approx(spec.h, rel=1e-4)


@pytest.mark.parametrize("a, alpha, h", [(1.0, 1.2, 10.0), (1.0, 1.2, 8.0), (1.0, 0.7, 5.0)])
def test_tube_balance_where_the_strip_nears_the_axis(a, alpha, h):
    # theta = (h/a) cos(alpha) near pi: K W peaks sharply at mid-strip, where
    # 32 quadrature nodes read the balance only to 2.9e-4, 7.4e-6 and 8.6e-9
    spec = TubeSpec(a, alpha, h)
    assert tube_strip_total(spec)[0] == pytest.approx(-crease_term(spec), rel=1e-13)


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
    assert tube_strip_total(spec)[0] == pytest.approx(-crease_term(spec), rel=1e-15)
