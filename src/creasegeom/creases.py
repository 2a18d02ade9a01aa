"""Closed-form crease laws: the specific curvature 2*sin(mu)/R of a curved
crease, and the exact fold angle of the creased tube, at which the law
balances the total of the tube's ruled strips (quadrature.tube_strip_total).

A crease is characterised by its half fold angle mu (the surface normal turns
by 2*mu across it) and the radius of curvature R along it.  Its torsion does
not enter the law; verify checks that on the tube's helical creases, whose
torsion-to-curvature ratio is cot(alpha).  Canonical outputs keep the exact
trigonometric forms; small-angle forms are documented approximations only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curvature import TubeSpec, _check_length
from .errors import ParameterError


@dataclass(frozen=True)
class CreaseSpec:
    """Curved-crease parameters.

    R   radius of curvature along the crease, in [MIN_LENGTH, MAX_LENGTH];
        math.inf for a straight crease
    mu  half fold angle, in [0, pi/2)
    """

    R: float
    mu: float

    def __post_init__(self):
        if self.R != math.inf:
            _check_length("crease radius R", self.R)
        if not (0 <= self.mu < math.pi / 2):
            raise ParameterError(f"half fold angle mu must lie in [0, pi/2), got {self.mu}")

    @property
    def is_straight(self) -> bool:
        return math.isinf(self.R)


def crease_specific_curvature(spec: CreaseSpec) -> float:
    """Specific Gaussian curvature of a crease: 2*sin(mu)/R.

    Solid angle per unit arc length.  Zero for a straight crease.
    """
    if spec.is_straight:
        return 0.0
    return 2.0 * math.sin(spec.mu) / spec.R


def tube_half_fold_angle(spec: TubeSpec) -> float:
    """Exact half fold angle mu of the twisted-prismatic tube's creases.

    Half the angle between the tangent planes of the two strips that meet at
    a crease, each spanned by the crease tangent and that strip's ruling:
    tan(mu) = 2a sin^2(hc/2a) / (h s^2 + a c sin(hc/a)), s = sin(alpha),
    c = cos(alpha).  At alpha = 0 it is h/2a.  As h -> 0 it tends to
    (h/2a) * cos^2(alpha), half the angle kyy * h subtended between adjacent
    lines on the smooth cylinder.
    """
    s, c = math.sin(spec.alpha), math.cos(spec.alpha)
    a, h = spec.a, spec.h
    return math.atan2(2.0 * a * math.sin(h * c / (2.0 * a)) ** 2,
                      h * s * s + a * c * math.sin(h * c / a))

