"""Closed-form crease laws: the specific curvature 2*sin(mu)/R of a curved
crease, and the strip-vs-crease balance of the creased tube.

A crease is characterised by its half fold angle mu (the surface normal turns
by 2*mu across it), the radius of curvature R along it, and the twist along
it.  Canonical outputs keep the exact trigonometric forms; small-angle forms
are documented approximations only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curvature import TubeSpec, strip_specific_curvature
from .errors import ParameterError


@dataclass(frozen=True)
class CreaseSpec:
    """Curved-crease parameters.

    R      radius of curvature along the crease; math.inf for a straight crease
    mu     half fold angle, in [0, pi/2)
    twist  twist rate along the crease (any finite value; it never enters the
           specific curvature, see crease_specific_curvature)
    """

    R: float
    mu: float
    twist: float = 0.0

    def __post_init__(self):
        if math.isnan(self.R) or self.R <= 0:
            raise ParameterError(f"crease radius R must be > 0 or inf, got {self.R}")
        if not (0 <= self.mu < math.pi / 2):
            raise ParameterError(f"half fold angle mu must lie in [0, pi/2), got {self.mu}")
        if not math.isfinite(self.twist):
            raise ParameterError(f"twist rate must be finite, got {self.twist}")

    @property
    def is_straight(self) -> bool:
        return math.isinf(self.R)


@dataclass(frozen=True)
class BalanceReport:
    """Strip vs crease specific-curvature balance for a creased tube."""

    strip_term: float
    crease_term: float
    residual: float
    relative_residual: float


def crease_specific_curvature(spec: CreaseSpec) -> float:
    """Specific Gaussian curvature of a crease: 2*sin(mu)/R.

    Solid angle per unit arc length.  Zero for a straight crease.  The twist
    rate is deliberately ignored: twisting along a crease does not change its
    solid angle.
    """
    if spec.is_straight:
        return 0.0
    return 2.0 * math.sin(spec.mu) / spec.R


def tube_crease_fold_angle(spec: TubeSpec) -> float:
    """Total fold angle 2*mu across one crease of the creased tube.

    Equals the angle subtended between adjacent lines on the smooth cylinder:
    kyy * h = (h/a) * cos^2(alpha).  The half angle mu is half the return value.
    """
    c = math.cos(spec.alpha)
    return (spec.h / spec.a) * c * c


def tube_balance(spec: TubeSpec) -> BalanceReport:
    """Balance of specific Gaussian curvature between strips and creases.

    strip_term is the (negative) strip value, crease_term the exact crease
    value 2*(sin^2(alpha)/a)*sin((h/2a)*cos^2(alpha)); their sum is the
    residual, of order (h/a)^3.
    """
    strip_term = strip_specific_curvature(spec)
    s = math.sin(spec.alpha)
    mu = 0.5 * tube_crease_fold_angle(spec)
    crease_term = 2.0 * (s * s / spec.a) * math.sin(mu)
    residual = strip_term + crease_term
    scale = max(abs(strip_term), abs(crease_term))
    relative_residual = abs(residual) / scale if scale > 0 else 0.0
    return BalanceReport(
        strip_term=strip_term,
        crease_term=crease_term,
        residual=residual,
        relative_residual=relative_residual,
    )
