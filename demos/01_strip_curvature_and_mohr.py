"""Strip curvature of a creased tube, walked through on Mohr's circle.

A circular cylinder of radius a is developable: its curvature tensor in axes
aligned with helical lines at angle alpha has kxx*kyy - kxy^2 = 0.  Replace
each strip between adjacent lines by a flat ruled strip and the across-line
curvature kyy drops to zero, leaving K = -kxy^2 < 0 in every strip.  This
script prints that story for a range of line angles, and the balance of each
strip's total against the curvature of its crease.
"""

import math

from creasegeom import (
    TubeSpec,
    crease_law,
    creases,
    cylinder_curvatures,
    gaussian_curvature,
    mohr_circle,
    principal_curvatures,
    prismatic_curvatures,
    tube_strip_total,
)

A, H = 1.0, 0.05

print(f"cylinder radius a = {A}, strip width h = {H}\n")
print(f"{'alpha':>7} {'kxx':>8} {'kyy':>8} {'kxy':>8} {'K(cyl)':>9} {'K(strip)':>9}")
specs = [TubeSpec(a=A, alpha=math.radians(deg), h=H) for deg in (0, 15, 30, 45, 60, 75)]
for spec in specs:
    cyl = cylinder_curvatures(spec)
    strip = prismatic_curvatures(spec)
    print(
        f"{math.degrees(spec.alpha):>6.0f}d {cyl.kxx:8.4f} {cyl.kyy:8.4f} {cyl.kxy:8.4f} "
        f"{gaussian_curvature(cyl):9.5f} {gaussian_curvature(strip):9.5f}"
    )

print(
    "\nPer unit crease length, each ruled strip carries the total curvature below\n"
    "(its second fundamental form, in closed form), and each crease the crease law\n"
    "kappa (sin(mu) - sin(-mu)), kappa = sin^2(alpha)/a, at the exact fold mu\n"
    "(creases.tube_crease): the two cancel to rounding."
)
print(f"{'alpha':>7} {'strip total':>12} {'crease term':>12} {'rel resid':>10} {'area/h':>9}")
total, area = tube_strip_total(specs)
for spec, strip, width in zip(specs, total, area.value):
    crease = crease_law(*creases.tube_crease(spec))
    print(
        f"{math.degrees(spec.alpha):>6.0f}d {strip:12.8f} {crease:12.8f} "
        f"{abs(strip + crease) / crease if crease else 0.0:10.1e} {width / H:9.6f}"
    )
print(
    f"\nTo first order in h the strip total is h K(strip) = -(h/a^2) sin^2 cos^2,\n"
    f"which peaks at alpha = 45 degrees with magnitude h/(4 a^2) = {H / (4 * A * A):.6f}."
)

spec = TubeSpec(a=A, alpha=math.pi / 4, h=H)
circle = mohr_circle(cylinder_curvatures(spec))
k1, k2 = principal_curvatures(cylinder_curvatures(spec))
print(
    f"\nMohr circle at 45 degrees: center {circle.center:.4f}, radius "
    f"{circle.radius:.4f};\nprincipal curvatures {k1:.4f} and {k2:.4f} "
    "(the hoop and the generator of the cylinder)."
)
circle = mohr_circle(prismatic_curvatures(spec))
print(
    f"Flattening the strip moves the circle: center {circle.center:.4f}, "
    f"radius {circle.radius:.4f},\nso K = C^2 - B^2 = "
    f"{circle.center ** 2 - circle.radius ** 2:.5f} < 0."
)
