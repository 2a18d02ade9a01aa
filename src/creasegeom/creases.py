"""Closed-form crease laws: the specific curvature 2*sin(mu)/R of a curved
crease, the exact fold angle of the creased tube, at which the law balances
the total of the tube's ruled strips (quadrature.tube_strip_total), and the
crease of a gore sphere's seam, whose curvature and fold vary along it.

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


def tube_crease_specific_curvature(spec: TubeSpec) -> float:
    """2*kappa*sin(mu), kappa = sin^2(alpha)/a, at the exact fold mu: the
    negative of tube_strip_total's curvature.  Not through CreaseSpec, which
    refuses the mu >= pi/2 of a wide strip."""
    return 2.0 * (math.sin(spec.alpha) ** 2 / spec.a) * math.sin(tube_half_fold_angle(spec))


def gore_seam_crease(spec, theta: float) -> CreaseSpec:
    """The crease of a gore seam at latitude theta in [-pi/2, pi/2]; spec is
    a surfaces.GoreSphereSpec, beta = pi/n, q = 1 - sin^2(beta) cos^2(theta).

    gen_gore_sphere's seams are ellipses (A cos(theta), B sin(theta)) in
    mirror planes, A = R/cos(beta), B = R: kappa = AB/(A^2 sin^2 + B^2 cos^2)^1.5
    = cos^2(beta)/(R q^1.5) and ds = R sqrt(q)/cos(beta) dtheta.  In the seam
    plane's (radial, azimuthal, vertical) frame the gore normals either side
    are (cos(theta) cos(beta), +-cos(theta) sin(beta), sin(theta)), so
    sin(mu) = sin(beta) cos(theta) exactly, and 2 kappa sin(mu) ds =
    2 sin(beta) cos(beta) cos(theta) dtheta / q integrates to 4 beta = 4*pi/n
    for every R.  A circle of radius R folded at mu = beta cos(theta) carries
    3.0% less at n = 6."""
    beta = math.pi / spec.n
    sin_mu = math.sin(beta) * math.cos(theta)
    # The radius lies in [R cos(beta), R/cos^2(beta)], within [R/2, 4R], so
    # near the length limits it passes those a CreaseSpec checks on input:
    # the spec checks the fold, and the radius is set after.
    crease = CreaseSpec(R=1.0, mu=math.asin(sin_mu))
    object.__setattr__(crease, "R", spec.R * (1.0 - sin_mu * sin_mu) ** 1.5 / math.cos(beta) ** 2)
    return crease
