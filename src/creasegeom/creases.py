"""The one crease law, crease_law, and the creases it is read on, each
stated once as (kappa, phi+, phi-) with its fold bisected, phi+- = +-mu:
curved_crease; tube_crease at the exact fold, where the law balances the
tube's ruled strips (quadrature.tube_strip_total); and gore_seam, whose
curvature and fold vary along it.  Torsion does not enter the law; verify
checks that on the tube's helical creases, torsion/curvature cot(alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def crease_law(kappa, phi_plus, phi_minus):
    """Specific Gaussian curvature kappa*(sin(phi+) - sin(phi-)) of a crease
    of curvature kappa whose one-sided normals are cos(phi) N + sin(phi) B
    in its Frenet frame, on floats or arrays.  phi+- = +-mu gives
    2*kappa*sin(mu) bit for bit."""
    return kappa * (np.sin(phi_plus) - np.sin(phi_minus))


def curved_crease(spec: CreaseSpec) -> tuple:
    """(kappa, phi+, phi-) of the circular crease: (1/R, mu, -mu)."""
    return 1.0 / spec.R, spec.mu, -spec.mu


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


def tube_crease(spec: TubeSpec) -> tuple:
    """(kappa, phi+, phi-) of the tube's helical creases: (sin^2(alpha)/a, mu, -mu), mu exact."""
    mu = tube_half_fold_angle(spec)
    return math.sin(spec.alpha) ** 2 / spec.a, mu, -mu


def gore_seam(spec, theta) -> tuple:
    """(kappa, phi+, phi-) of a gore seam at latitudes theta in [-pi/2, pi/2],
    floats or arrays; spec is a surfaces.GoreSphereSpec, beta = pi/n.

    gen_gore_sphere's seams are ellipses (A cos(theta), B sin(theta)) in
    mirror planes, A = R/cos(beta), B = R: kappa = AB/(A^2 sin^2 + B^2 cos^2)^1.5
    = cos^2(beta)/(R q^1.5) and ds = R sqrt(q)/cos(beta) dtheta.  In the seam
    plane's (radial, azimuthal, vertical) frame the gore normals either side
    are (cos(theta) cos(beta), +-cos(theta) sin(beta), sin(theta)), so
    phi+- = +-mu, sin(mu) = sin(beta) cos(theta) = sqrt(1 - q), and the law
    2 kappa sin(mu) ds = 2 sin(beta) cos(beta) cos(theta) dtheta / q
    integrates to 4 beta = 4*pi/n for every R."""
    beta = math.pi / spec.n
    sin_mu = math.sin(beta) * np.cos(theta)
    mu = np.arcsin(sin_mu)
    return math.cos(beta) ** 2 / (spec.R * (1.0 - sin_mu * sin_mu) ** 1.5), mu, -mu
