"""Pointwise curvature algebra for shallow creased shells.

Conventions used throughout the library: angles are in radians, lengths are
dimensionless but must be mutually consistent, and the twist curvature ``kxy``
is left-handed positive (a surface ``z = kxy * x * y`` has positive twist).
Principal curvatures are always returned in descending order.

CurvatureState (with rotated), MohrCircle, mohr_circle, principal_curvatures
and gaussian_curvature accept numpy arrays as well as floats: the same
formulas run on ufuncs, element by element, and the finiteness and radius
checks hold for every element.  Scalars keep the math-module path and its
Python floats.  numpy's hypot may round a Mohr radius one ulp away from
math.hypot; every other result agrees bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ShallowRegimeWarning

# Strip width to tube radius ratio beyond which the small-fold-angle closed
# forms degrade; gates a warning only, never an error.
SHALLOW_WIDTH_RATIO = 0.2


# The math module takes scalars only: a TypeError sends an array of several
# elements to numpy.  Trying math first keeps the scalar path at its old cost.
def _math(name: str, *args):
    """math.<name>(*args) on scalars, numpy's ufunc of that name on arrays."""
    try:
        return getattr(math, name)(*args)
    except TypeError:
        return getattr(np, name)(*args)


def _finite(value) -> bool:
    """Whether value, or every element of an array value, is finite."""
    try:
        return math.isfinite(value)
    except TypeError:
        return bool(np.isfinite(value).all())


def _any(flags) -> bool:
    """The truth of a scalar test, or whether an array test holds anywhere."""
    try:
        return bool(flags)
    except ValueError:  # an array of several elements has no single truth
        return bool(flags.any())


@dataclass(frozen=True)
class CurvatureState:
    """Components of the symmetric 2x2 curvature/twist tensor at a point."""

    kxx: float
    kyy: float
    kxy: float

    def __post_init__(self):
        for name in ("kxx", "kyy", "kxy"):
            if not _finite(getattr(self, name)):
                raise ParameterError(f"curvature component {name} must be finite")

    def rotated(self, phi: float) -> "CurvatureState":
        """The same tensor expressed in axes rotated by phi (a float or an array)."""
        c, s = _math("cos", phi), _math("sin", phi)
        return CurvatureState(
            kxx=self.kxx * c * c + 2.0 * self.kxy * s * c + self.kyy * s * s,
            kyy=self.kxx * s * s - 2.0 * self.kxy * s * c + self.kyy * c * c,
            kxy=(self.kyy - self.kxx) * s * c + self.kxy * (c * c - s * s),
        )


@dataclass(frozen=True)
class MohrCircle:
    """Mohr's circle of curvature vs twist: center C and radius B >= 0."""

    center: float
    radius: float

    def __post_init__(self):
        if not (_finite(self.center) and _finite(self.radius)):
            raise ParameterError("Mohr circle parameters must be finite")
        if _any(self.radius < 0):
            raise ParameterError("Mohr circle radius must be >= 0")


@dataclass(frozen=True)
class TubeSpec:
    """Creased-tube parameters.

    a      cylinder radius (> 0)
    alpha  inclination of the crease lines to the tube axis, in [0, pi/2];
           alpha = 0 means axial lines, alpha = pi/2 means hoop lines
    h      strip width measured normal to the creases (> 0)
    """

    a: float
    alpha: float
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0):
            raise ParameterError(f"tube radius a must be positive, got {self.a}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ParameterError(f"strip width h must be positive, got {self.h}")
        if not (0 <= self.alpha <= math.pi / 2):
            raise ParameterError(
                f"line angle alpha must lie in [0, pi/2], got {self.alpha}"
            )
        if self.h / self.a > SHALLOW_WIDTH_RATIO:
            warnings.warn(
                f"h/a = {self.h / self.a:.3g} exceeds {SHALLOW_WIDTH_RATIO}; "
                "small-fold-angle results degrade for wide strips",
                ShallowRegimeWarning,
                stacklevel=2,
            )


def tube_spec_for_strips(a: float, alpha: float, n_strips: int) -> TubeSpec:
    """Tube spec whose strip width closes the cross-section with `n_strips`.

    The closure condition is n_strips * h / cos(alpha) = 2*pi*a, i.e.
    h = 2*pi*a*cos(alpha) / n_strips measured normal to the creases.
    """
    if n_strips < 3:
        raise ParameterError(f"n_strips must be >= 3, got {n_strips}")
    if not (0 <= alpha <= math.pi / 2):
        raise ParameterError(f"line angle alpha must lie in [0, pi/2], got {alpha}")
    if math.cos(alpha) < 1e-12:
        raise ParameterError("hoop-aligned creases (alpha = pi/2) give zero-width strips")
    h = 2 * math.pi * a * math.cos(alpha) / n_strips
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShallowRegimeWarning)
        spec = TubeSpec(a=a, alpha=alpha, h=h)
    return spec


def cylinder_curvatures(spec: TubeSpec) -> CurvatureState:
    """Curvature state of a circular cylinder in line-aligned coordinates.

    x runs along the inclined lines, y normal to them within the surface:
    kxx = sin^2(alpha)/a, kyy = cos^2(alpha)/a, kxy = sin(alpha)cos(alpha)/a.
    """
    s, c = math.sin(spec.alpha), math.cos(spec.alpha)
    return CurvatureState(kxx=s * s / spec.a, kyy=c * c / spec.a, kxy=s * c / spec.a)


def prismatic_curvatures(spec: TubeSpec) -> CurvatureState:
    """Strip state of the twisted-prismatic tube: flat in y (kyy = 0)."""
    cyl = cylinder_curvatures(spec)
    return CurvatureState(kxx=cyl.kxx, kyy=0.0, kxy=cyl.kxy)


def mohr_circle(state: CurvatureState) -> MohrCircle:
    """Mohr's circle of a curvature state: C = (kxx+kyy)/2, B = sqrt(kxy^2 + ((kxx-kyy)/2)^2)."""
    center = 0.5 * (state.kxx + state.kyy)
    half_diff = 0.5 * (state.kxx - state.kyy)
    radius = _math("hypot", state.kxy, half_diff)
    return MohrCircle(center=center, radius=radius)


def principal_curvatures(state: CurvatureState) -> tuple[float, float]:
    """Principal curvatures C + B, C - B, largest first."""
    circle = mohr_circle(state)
    return (circle.center + circle.radius, circle.center - circle.radius)


def gaussian_curvature(state: CurvatureState) -> float:
    """Gaussian curvature kxx*kyy - kxy^2 (equals C^2 - B^2 of the Mohr circle)."""
    return state.kxx * state.kyy - state.kxy * state.kxy


def strip_specific_curvature(spec: TubeSpec) -> float:
    """Specific Gaussian curvature of one prismatic strip.

    Gaussian curvature of the strip times its normal width h:
    -(h/a^2) * sin^2(alpha) * cos^2(alpha). Negative for all alpha.
    """
    s, c = math.sin(spec.alpha), math.cos(spec.alpha)
    return -(spec.h / (spec.a * spec.a)) * s * s * c * c
