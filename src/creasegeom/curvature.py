"""Pointwise curvature algebra for creased and twisted shells.

Conventions used throughout the library: angles are in radians, lengths are
dimensionless but must be mutually consistent, and the twist curvature ``kxy``
is left-handed positive (a surface ``z = kxy * x * y`` has positive twist).
Principal curvatures are always returned in descending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

# Largest and smallest lengths that a spec accepts.  The mesh kernel squares
# the cross products of edge vectors, fourth powers of lengths, which
# overflow float64 near 1e77 and underflow to 0 near 1e-77.
MAX_LENGTH = 1e50
MIN_LENGTH = 1e-50


def _check_length(name: str, value: float, positive: bool = True) -> None:
    """ParameterError unless |value| is finite and at most MAX_LENGTH and, for
    a length that must be positive, at least MIN_LENGTH.  The specs check
    their lengths with it, so every caller refuses the same values."""
    if not abs(value) <= MAX_LENGTH:
        raise ParameterError(f"{name} must be finite and at most {MAX_LENGTH:g}, got {value}")
    if positive and not value >= MIN_LENGTH:
        raise ParameterError(f"{name} must be at least {MIN_LENGTH:g}, got {value}")


@dataclass(frozen=True)
class CurvatureState:
    """Components of the symmetric 2x2 curvature/twist tensor at a point."""

    kxx: float
    kyy: float
    kxy: float

    def __post_init__(self):
        for name in ("kxx", "kyy", "kxy"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"curvature component {name} must be finite")

    def rotated(self, phi: float) -> "CurvatureState":
        """The same tensor expressed in axes rotated by phi."""
        c, s = math.cos(phi), math.sin(phi)
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
        if not (math.isfinite(self.center) and math.isfinite(self.radius)):
            raise ParameterError("Mohr circle parameters must be finite")
        if self.radius < 0:
            raise ParameterError("Mohr circle radius must be >= 0")


@dataclass(frozen=True)
class TubeSpec:
    """Creased-tube parameters.

    a      cylinder radius, in [MIN_LENGTH, MAX_LENGTH]
    alpha  inclination of the crease lines to the tube axis, in [0, pi/2];
           alpha = 0 means axial lines, alpha = pi/2 means hoop lines
    h      strip width measured normal to the creases, in [MIN_LENGTH * a,
           MAX_LENGTH]: its lower limit is relative, since a tube of radius
           MIN_LENGTH closes with narrower strips
    """

    a: float
    alpha: float
    h: float

    def __post_init__(self):
        _check_length("tube radius a", self.a)
        _check_length("strip width h", self.h, positive=False)  # keeps h/a^2 finite
        if not self.h >= MIN_LENGTH * self.a:  # a / h at most 1e50: a line count stays finite
            raise ParameterError(f"strip width h must be at least {MIN_LENGTH:g} a = "
                                 f"{MIN_LENGTH * self.a:g}, got {self.h}")
        if not (0 <= self.alpha <= math.pi / 2):
            raise ParameterError(
                f"line angle alpha must lie in [0, pi/2], got {self.alpha}"
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
    return TubeSpec(a=a, alpha=alpha, h=2 * math.pi * a * math.cos(alpha) / n_strips)


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
    radius = math.hypot(state.kxy, half_diff)
    return MohrCircle(center=center, radius=radius)


def principal_curvatures(state: CurvatureState) -> tuple[float, float]:
    """Principal curvatures C + B, C - B, largest first."""
    circle = mohr_circle(state)
    return (circle.center + circle.radius, circle.center - circle.radius)


def gaussian_curvature(state: CurvatureState) -> float:
    """Gaussian curvature kxx*kyy - kxy^2 (equals C^2 - B^2 of the Mohr circle)."""
    return state.kxx * state.kyy - state.kxy * state.kxy

