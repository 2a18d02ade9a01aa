import math

import pytest

from creasegeom import (
    CreaseSpec,
    ParameterError,
    ShallowRegimeWarning,
    TubeSpec,
    crease_specific_curvature,
    curved_crease_patch_solid_angle,
    strip_specific_curvature,
    tube_balance,
    tube_crease_fold_angle,
    twisted_crease_solid_angle,
    twisted_patch_solid_angle,
)


def test_twisted_patch_solid_angle_exact_form():
    # -dxi * 2 sin(dgamma/2), not the small-angle product
    assert twisted_patch_solid_angle(0.1, 0.2) == pytest.approx(
        -0.1 * 2 * math.sin(0.1)
    )
    assert twisted_patch_solid_angle(0.0, 0.2) == 0.0


def test_twisted_patch_small_angle_limit():
    dxi, dgamma = 1e-4, 1e-4
    assert twisted_patch_solid_angle(dxi, dgamma) == pytest.approx(
        -dxi * dgamma, rel=1e-8
    )


def test_twisted_crease_scales_by_cos_mu():
    base = twisted_patch_solid_angle(0.1, 0.2)
    assert twisted_crease_solid_angle(0.1, 0.2, 0.3) == pytest.approx(
        base * math.cos(0.3)
    )
    # mu = 0 reduces exactly, bit for bit
    assert twisted_crease_solid_angle(0.1, 0.2, 0.0) == base


def test_curved_crease_patch_solid_angle():
    # dxi * 2 sin(mu), positive orientation, independent of patch width
    assert curved_crease_patch_solid_angle(0.5, math.pi / 6) == pytest.approx(0.5)
    assert curved_crease_patch_solid_angle(0.2, 0.0) == 0.0


def test_solid_angle_signs_oppose():
    assert twisted_patch_solid_angle(0.1, 0.2) < 0
    assert curved_crease_patch_solid_angle(0.1, 0.2) > 0


def test_large_extent_warns():
    with pytest.warns(ShallowRegimeWarning):
        twisted_patch_solid_angle(1.0, 0.2)


def test_extent_validation():
    with pytest.raises(ParameterError):
        twisted_patch_solid_angle(-0.1, 0.2)
    with pytest.raises(ParameterError):
        twisted_crease_solid_angle(0.1, 0.2, -0.01)
    with pytest.raises(ParameterError):
        curved_crease_patch_solid_angle(0.1, math.pi / 2)


def test_crease_spec_validation():
    with pytest.raises(ParameterError):
        CreaseSpec(R=0.0, mu=0.2)
    with pytest.raises(ParameterError):
        CreaseSpec(R=math.nan, mu=0.2)
    with pytest.raises(ParameterError):
        CreaseSpec(R=2.0, mu=math.pi / 2)
    with pytest.raises(ParameterError):
        CreaseSpec(R=2.0, mu=0.2, twist=math.inf)
    assert CreaseSpec(R=math.inf, mu=0.3).is_straight
    assert not CreaseSpec(R=2.0, mu=0.3).is_straight


def test_crease_specific_curvature():
    # 2 sin(mu) / R
    assert crease_specific_curvature(CreaseSpec(R=2.0, mu=math.pi / 6)) \
        == pytest.approx(0.5)
    assert crease_specific_curvature(CreaseSpec(R=math.inf, mu=0.4)) == 0.0


def test_crease_rate_is_twist_independent_bitwise():
    rates = {
        crease_specific_curvature(CreaseSpec(R=2.0, mu=0.4, twist=t))
        for t in (-10.0, -1.0, 0.0, 1.0, 10.0)
    }
    assert len(rates) == 1


def test_tube_crease_fold_angle():
    spec = TubeSpec(a=1.0, alpha=math.pi / 4, h=0.05)
    # 2 mu = (h/a) cos^2(alpha) = 0.025
    assert tube_crease_fold_angle(spec) == pytest.approx(0.025)


def test_tube_balance_canonical():
    spec = TubeSpec(a=1.0, alpha=math.pi / 4, h=0.05)
    rep = tube_balance(spec)
    assert rep.strip_term == pytest.approx(-0.0125)
    assert rep.crease_term == pytest.approx(2 * 0.5 * math.sin(0.0125), rel=1e-15)
    assert rep.residual == pytest.approx(rep.strip_term + rep.crease_term)
    bound = ((spec.h / spec.a) * math.cos(spec.alpha) ** 2) ** 2 / 24.0
    assert rep.relative_residual <= bound


def test_tube_balance_residual_is_sine_gap():
    # residual = 2 (sin^2 a / a)(sin x - x), x = (h/2a) cos^2(alpha), exactly
    spec = TubeSpec(a=2.0, alpha=math.pi / 3, h=0.08)
    rep = tube_balance(spec)
    x = (spec.h / (2 * spec.a)) * math.cos(spec.alpha) ** 2
    s = math.sin(spec.alpha)
    expected = 2.0 * (s * s / spec.a) * (math.sin(x) - x)
    assert rep.residual == pytest.approx(expected, rel=1e-12)


def test_tube_balance_residual_cubic_in_h():
    a, alpha = 1.0, math.pi / 4
    r1 = tube_balance(TubeSpec(a, alpha, 0.04)).residual
    r2 = tube_balance(TubeSpec(a, alpha, 0.02)).residual
    assert r1 / r2 == pytest.approx(8.0, rel=0.05)

