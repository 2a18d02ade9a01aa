"""The crease law, and the balance inside a creased tube.

A curved crease of radius R and half fold angle mu carries Gaussian curvature
2 sin(mu)/R per unit length: walking along it, the surface normals sweep that
much solid angle on the unit sphere.  Below, the law stands next to the crease
rate that the angle-defect oracle measures on a curved-crease mesh; `creasegeom
verify --suite crease-law` checks the same comparison.

The twisted-prismatic tube balances two signs: flat twisted strips carry
negative curvature, the folds between them carry positive curvature, and the
totals cancel to third order in the strip width; `creasegeom verify --suite
tube-balance` checks that residual and its cubic scaling.
"""

import math

from creasegeom import (
    CreaseSpec,
    TubeSpec,
    angle_defect,
    crease_specific_curvature,
    gen_curved_crease,
    tube_balance,
)

print("crease law against the mesh (strip width 0.3, 256 x 32 mesh):")
print(f"{'R':>5} {'mu':>7} {'2 sin(mu)/R':>12} {'mesh rate':>12} {'rel error':>10}")
for R, mu in ((2.0, math.pi / 6), (2.0, 0.1), (4.0, math.pi / 6), (4.0, math.pi / 3)):
    spec = CreaseSpec(R=R, mu=mu)
    law = crease_specific_curvature(spec)
    mesh = gen_curved_crease(spec, strip_width=0.3, nu=256, nv=32)
    rate = angle_defect(mesh).crease_rates[1]
    print(f"{R:5.1f} {mu:7.4f} {law:12.8f} {rate:12.8f} {abs(rate - law) / law:10.2e}")

print("\ncreased-tube balance (a = 1, alpha = 45 degrees):")
print(f"{'h':>6} {'strip term':>12} {'crease term':>12} {'residual':>12} {'rel':>10}")
for h in (0.1, 0.05, 0.025, 0.0125):
    rep = tube_balance(TubeSpec(a=1.0, alpha=math.pi / 4, h=h))
    print(
        f"{h:6.4f} {rep.strip_term:12.8f} {rep.crease_term:12.8f} "
        f"{rep.residual:12.3e} {rep.relative_residual:10.2e}"
    )
print(
    "\nHalving h cuts the residual by ~8: the mismatch is the third-order gap "
    "sin(x) - x\nin the fold angle, exactly as the closed forms predict."
)
