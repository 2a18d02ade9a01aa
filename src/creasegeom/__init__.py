"""Gaussian curvature of creased and twisted thin shells.

Closed-form results (Mohr-circle strip curvature, the one crease law,
crease_law, read on curved creases, on the creased tube's at their exact
fold and on the gore sphere's seams, the tube's balance, the mudguard
total) next to independent discrete oracles (mesh angle defects, numerical
Gauss maps, Gauss–Legendre quadrature) that verify them.
"""

from .creases import CreaseSpec, crease_law, tube_half_fold_angle
from .curvature import (CurvatureState, MohrCircle, TubeSpec, cylinder_curvatures,
                        gaussian_curvature, mohr_circle, principal_curvatures,
                        prismatic_curvatures, tube_spec_for_strips)
from .errors import (InputFormatError, MeshError, OrientationError, ParameterError,
                     ResolutionError)
from .oracle import DefectField, GaussMapResult, angle_defect, gauss_map_integrate
from .quadrature import (QuadratureResult, integrate, mudguard_closed_form, mudguard_total,
                         tube_strip_total)
from .surfaces import (GoreSphereSpec, MudguardSpec, gen_curved_crease, gen_cylinder,
                       gen_gore_sphere, gen_mudguard, gen_twisted_patch,
                       gen_twisted_prismatic_tube, mudguard_surface)
from .trimesh import TriMesh, export_obj, load_obj
from .verify import VerificationReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # curvature
    "CurvatureState", "MohrCircle", "TubeSpec", "cylinder_curvatures",
    "prismatic_curvatures", "mohr_circle", "principal_curvatures",
    "gaussian_curvature", "tube_spec_for_strips",
    # creases
    "CreaseSpec", "crease_law", "tube_half_fold_angle",
    # quadrature
    "QuadratureResult", "integrate",
    "mudguard_closed_form", "mudguard_total", "tube_strip_total",
    # meshes and generators
    "TriMesh", "export_obj", "load_obj",
    "MudguardSpec", "GoreSphereSpec", "gen_cylinder",
    "gen_twisted_prismatic_tube", "gen_twisted_patch", "gen_curved_crease",
    "gen_mudguard", "gen_gore_sphere", "mudguard_surface",
    # oracles
    "DefectField", "GaussMapResult", "angle_defect", "gauss_map_integrate",
    # verification
    "VerificationReport", "run_suite",
    # errors
    "ParameterError", "ResolutionError", "MeshError",
    "OrientationError", "InputFormatError",
]
