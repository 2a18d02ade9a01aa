"""Smoothing a crease (mudguard) and creasing a sphere (gores).

Two ways to trade smooth curvature for folds.  The mudguard replaces a curved
crease by a narrow doubly-curved band and its total solid angle barely
notices.  The gore sphere replaces a smooth sphere by flat-ish gores and its
4*pi of curvature simply migrates into the seams and survives the move.
"""

import math

from creasegeom import (
    GoreSphereSpec,
    MudguardSpec,
    angle_defect,
    gauss_map_integrate,
    gen_gore_sphere,
    gore_sphere_total,
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

print("\ngore sphere: seam totals approach 4 pi = 12.56637061 from below")
print(f"{'n':>6} {'seam total':>13} {'deficit':>11} {'mesh total':>13}")
for n in (6, 12, 24, 48):
    total = gore_sphere_total(GoreSphereSpec(R=1.0, n=n)).value
    mesh = gen_gore_sphere(GoreSphereSpec(R=1.0, n=n), 32, 4)
    mesh_total = angle_defect(mesh).total_defect
    print(
        f"{n:>6} {total:13.8f} {4 * math.pi - total:11.2e} {mesh_total:13.8f}"
    )
print(
    "\nEvery mesh column reads exactly 4 pi: Gauss-Bonnet holds on the "
    "triangulation\nno matter how coarse, while the quadrature column shows "
    "the 1/n^2 seam deficit."
)
