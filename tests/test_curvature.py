import math
import random
import warnings

import pytest

from creasegeom import (
    CurvatureState,
    MohrCircle,
    ParameterError,
    TubeSpec,
    cylinder_curvatures,
    gaussian_curvature,
    mohr_circle,
    principal_curvatures,
    prismatic_curvatures,
    tube_spec_for_strips,
)
from creasegeom.verify import suite_mohr

try:
    from hypothesis import given, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False


def test_cylinder_curvatures_helical_axes():
    spec = TubeSpec(a=1.0, alpha=math.pi / 4, h=0.05)
    state = cylinder_curvatures(spec)
    assert state.kxx == pytest.approx(0.5)
    assert state.kyy == pytest.approx(0.5)
    assert state.kxy == pytest.approx(0.5)
    # a cylinder is developable regardless of the axes used
    assert gaussian_curvature(state) == pytest.approx(0.0, abs=1e-15)


def test_cylinder_curvatures_axial_lines():
    spec = TubeSpec(a=2.0, alpha=0.0, h=0.05)
    state = cylinder_curvatures(spec)
    assert state.kxx == 0.0
    assert state.kyy == pytest.approx(0.5)
    assert state.kxy == 0.0


def test_prismatic_strip_flattens_across_lines():
    spec = TubeSpec(a=1.0, alpha=math.pi / 4, h=0.05)
    state = prismatic_curvatures(spec)
    assert state.kyy == 0.0
    assert state.kxx == cylinder_curvatures(spec).kxx
    assert state.kxy == cylinder_curvatures(spec).kxy
    assert gaussian_curvature(state) == pytest.approx(-0.25)


def test_mohr_circle_of_cylinder():
    # principal curvatures of any cylinder are 1/a and 0
    spec = TubeSpec(a=2.0, alpha=0.3, h=0.05)
    circle = mohr_circle(cylinder_curvatures(spec))
    assert circle.center == pytest.approx(0.25)
    assert circle.radius == pytest.approx(0.25)
    k1, k2 = principal_curvatures(cylinder_curvatures(spec))
    assert k1 == pytest.approx(0.5)
    assert k2 == pytest.approx(0.0, abs=1e-15)


def test_principal_curvatures_descending():
    k1, k2 = principal_curvatures(CurvatureState(kxx=-1.0, kyy=3.0, kxy=0.5))
    assert k1 >= k2


def test_gaussian_curvature_matches_mohr_identity():
    state = CurvatureState(kxx=1.2, kyy=-0.7, kxy=0.4)
    circle = mohr_circle(state)
    assert gaussian_curvature(state) == pytest.approx(
        circle.center**2 - circle.radius**2, rel=1e-14
    )


def test_rotation_preserves_invariants():
    state = CurvatureState(kxx=0.8, kyy=-0.3, kxy=0.6)
    for phi in (0.1, 0.7, 2.0):
        rot = state.rotated(phi)
        assert gaussian_curvature(rot) == pytest.approx(gaussian_curvature(state))
        assert rot.kxx + rot.kyy == pytest.approx(state.kxx + state.kyy)


def test_swapped_preserves_circle():
    state = CurvatureState(kxx=0.8, kyy=-0.3, kxy=0.6)
    swapped = CurvatureState(kxx=state.kyy, kyy=state.kxx, kxy=state.kxy)
    assert mohr_circle(swapped) == mohr_circle(state)


def test_tube_spec_for_strips_closure():
    spec = tube_spec_for_strips(1.0, math.pi / 4, 12)
    assert spec.h * 12 / math.cos(spec.alpha) == pytest.approx(2 * math.pi)


def test_tube_spec_for_strips_rejects_bad_input():
    with pytest.raises(ParameterError):
        tube_spec_for_strips(1.0, math.pi / 4, 2)
    with pytest.raises(ParameterError):
        tube_spec_for_strips(1.0, math.pi / 2, 12)
    with pytest.raises(ParameterError):
        tube_spec_for_strips(1.0, 2.0, 12)


def test_tube_spec_validation():
    with pytest.raises(ParameterError):
        TubeSpec(a=-1.0, alpha=0.5, h=0.05)
    with pytest.raises(ParameterError):
        TubeSpec(a=1.0, alpha=-0.1, h=0.05)
    with pytest.raises(ParameterError):
        TubeSpec(a=1.0, alpha=0.5, h=0.0)
    for name in ("kxx", "kyy", "kxy"):
        components = {"kxx": 0.0, "kyy": 0.0, "kxy": 0.0, name: math.nan}
        with pytest.raises(ParameterError, match=f"component {name} must be finite"):
            CurvatureState(**components)
    with pytest.raises(ParameterError, match="must be finite"):
        MohrCircle(center=math.nan, radius=1.0)
    with pytest.raises(ParameterError, match="must be finite"):
        MohrCircle(center=0.0, radius=math.inf)
    with pytest.raises(ParameterError, match="radius must be >= 0"):
        MohrCircle(center=0.0, radius=-1e-300)


def test_wide_strips_raise_no_warning():
    # the closed forms are exact at every width, so a wide strip is no regime to warn of
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        TubeSpec(a=1.0, alpha=0.5, h=0.5)
        tube_spec_for_strips(1.0, math.pi / 4, 3)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
@given(
    kxx=st.floats(-100, 100),
    kyy=st.floats(-100, 100),
    kxy=st.floats(-100, 100),
    phi=st.floats(0, math.pi),
)
def test_mohr_identity_property(kxx, kyy, kxy, phi):
    state = CurvatureState(kxx=kxx, kyy=kyy, kxy=kxy)
    circle = mohr_circle(state)
    scale = max(1.0, kxx * kxx, kyy * kyy, kxy * kxy)
    assert abs(gaussian_curvature(state) - (circle.center**2 - circle.radius**2)) \
        <= 1e-12 * scale
    p = principal_curvatures(state)
    q = principal_curvatures(state.rotated(phi))
    assert abs(p[0] - q[0]) <= 1e-9 * scale
    assert abs(p[1] - q[1]) <= 1e-9 * scale


def test_suite_mohr_matches_a_scalar_reference_loop():
    """The residuals of one scalar call per state, drawn as the suite draws
    them: over 10,000 states both identities hold, and the suite's residuals
    are the worst of the first 512 states, bit for bit."""
    rng = random.Random(20260824)
    worst_k, worst_p = 0.0, 0.0
    for i in range(10_000):
        if i == 512:
            first_512 = (worst_k, worst_p)
        state = CurvatureState(kxx=rng.uniform(-10.0, 10.0), kyy=rng.uniform(-10.0, 10.0),
                               kxy=rng.uniform(-10.0, 10.0))
        scale = max(1.0, state.kxx**2, state.kyy**2, state.kxy**2)
        circle = mohr_circle(state)
        worst_k = max(worst_k, abs(gaussian_curvature(state)
                                   - (circle.center**2 - circle.radius**2)) / scale)
        p = principal_curvatures(state)
        q = principal_curvatures(state.rotated(rng.uniform(0.0, math.pi)))
        pscale = max(1.0, abs(p[0]), abs(p[1]))
        worst_p = max(worst_p, abs(p[0] - q[0]) / pscale, abs(p[1] - q[1]) / pscale)
    assert worst_k <= 1e-12 and worst_p <= 1e-12
    identity, invariance = suite_mohr()
    assert (identity.residual, invariance.residual) == first_512
    assert identity.metadata["count"] == invariance.metadata["count"] == 512
    assert identity.passed and invariance.passed
