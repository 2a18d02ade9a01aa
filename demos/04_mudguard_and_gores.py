"""Smoothing a crease (mudguard) and creasing a sphere (gores).

Two ways to trade smooth curvature for folds.  The mudguard replaces a curved
crease by a narrow doubly-curved band and its total solid angle barely
notices.  The gore sphere replaces a smooth sphere by developable gores and
its 4*pi of curvature migrates into the seams: along each, the crease law
2 kappa sin(mu), with the seam ellipse's curvature and its exact fold,
integrates to 4*pi/n.
"""

import math

from creasegeom import (
    GoreSphereSpec,
    MudguardSpec,
    angle_defect,
    gauss_map_integrate,
    gen_gore_sphere,
    mudguard_closed_form,
    mudguard_surface,
    mudguard_total,
)

print("mudguard: R = 10, mu = 0.2, shrinking the transverse arc radius r")
print(f"{'r':>8} {'closed form':>13} {'quadrature':>13} {'residual':>11}")
for r in (0.5, 0.1, 0.01, 0.001):
    closed = mudguard_closed_form(10.0, r, 0.2)
    value = mudguard_total(MudguardSpec(R=10.0, r=r, mu=0.2)).value
    print(f"{r:8.3f} {closed:13.8f} {value:13.8f} {value - closed:11.1e}")
limit = 4 * math.pi * math.sin(0.2)
print(f"   r->0 {limit:13.8f}  (4 pi sin mu: the sharp-crease law again)")

spec = MudguardSpec(R=10.0, r=0.1, mu=0.2)
swept = gauss_map_integrate(
    mudguard_surface(spec), (0.0, 2 * math.pi, -spec.mu, spec.mu), 128, 128
)
print(
    f"\nGauss map of the actual surface sweeps {swept.value:.8f} sr "
    f"(converged: {swept.converged}),\nagainst the closed form "
    f"{mudguard_closed_form(spec.R, spec.r, spec.mu):.8f} sr."
)

print("\ngore sphere (32 x 4 meshes): each seam carries 4 pi / n by the crease law")
print(f"{'n':>6} {'4 pi / n':>11} {'mesh seam':>11} {'rel gap':>9} {'poles':>9} "
      f"{'mesh total':>12}")
for n in (6, 12, 24, 48):
    field = angle_defect(gen_gore_sphere(GoreSphereSpec(R=1.0, n=n), 32, 4))
    law, seam = 4 * math.pi / n, field.crease_totals[1]  # every seam alike by symmetry
    print(
        f"{n:>6} {law:11.8f} {seam:11.8f} {seam / law - 1:9.1e} "
        f"{field.defect[0] + field.defect[1]:9.2e} {field.total_defect:12.8f}"
    )
print(
    "\nEvery mesh total reads 4 pi = 12.56637061: Gauss-Bonnet holds on the\n"
    "triangulation no matter how coarse. At this resolution the seams fall short\n"
    "of the law by about 1e-3, and the two pole vertices carry the rest."
)
