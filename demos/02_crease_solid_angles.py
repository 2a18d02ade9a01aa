"""The crease law, and the balance inside a creased tube.

A curved crease of radius R and half fold angle mu carries Gaussian curvature
2 sin(mu)/R per unit length: walking along it, the surface normals sweep that
much solid angle on the unit sphere.  Below, the law stands next to the crease
rate that the angle-defect oracle measures on a curved-crease mesh; `creasegeom
verify --suite crease-law` checks the same comparison.

The twisted-prismatic tube balances two signs: its ruled strips carry
negative curvature, the folds between them positive curvature, and per unit
crease length the strip's total cancels the crease law 2 kappa sin(mu) at the
exact fold, to rounding, whatever the strip width; `creasegeom verify --suite
tube-balance` checks that balance.
"""

import math

from creasegeom import (
    CreaseSpec,
    TubeSpec,
    angle_defect,
    crease_specific_curvature,
    gen_curved_crease,
    tube_crease_specific_curvature,
    tube_strip_total,
)

print("crease law against the mesh (strip width 0.3, 256 x 32 mesh):")
print(f"{'R':>5} {'mu':>7} {'2 sin(mu)/R':>12} {'mesh rate':>12} {'rel error':>10}")
for R, mu in ((2.0, math.pi / 6), (2.0, 0.1), (4.0, math.pi / 6), (4.0, math.pi / 3)):
    spec = CreaseSpec(R=R, mu=mu)
    law = crease_specific_curvature(spec)
    mesh = gen_curved_crease(spec, strip_width=0.3, nu=256, nv=32)
    rate = angle_defect(mesh).crease_rates[1]
    print(f"{R:5.1f} {mu:7.4f} {law:12.8f} {rate:12.8f} {abs(rate - law) / law:10.2e}")

print("\ncreased-tube balance per unit crease length (a = 1, alpha = 45 degrees):")
print(f"{'h':>6} {'strip total':>12} {'crease term':>12} {'rel resid':>10} {'area/h':>9}")
specs = [TubeSpec(a=1.0, alpha=math.pi / 4, h=h) for h in (0.1, 0.05, 0.025, 0.0125)]
total, area = tube_strip_total(specs)
for spec, strip, width in zip(specs, total, area.value):
    crease = tube_crease_specific_curvature(spec)
    print(
        f"{spec.h:6.4f} {strip:12.8f} {crease:12.8f} "
        f"{abs(strip + crease) / crease:10.1e} {width / spec.h:9.6f}"
    )
print(
    "\nThe strip total comes from the ruled strip's second fundamental form, the\n"
    "crease term from the angle between adjacent strips' tangent planes. The ruled\n"
    "strip is a little narrower than the developed one (area/h < 1)."
)
