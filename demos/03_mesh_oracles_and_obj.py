"""Discrete oracles at work: angle defects on generated meshes, exported OBJ.

None of the numbers on the right-hand side below come from the closed forms:
they are sums of triangle angles on meshes.  That they land on the closed
forms is the point of the library.
"""

import math
import tempfile
from pathlib import Path

from creasegeom import (
    CreaseSpec,
    angle_defect,
    crease_law,
    creases,
    export_obj,
    gaussian_curvature,
    gen_curved_crease,
    gen_twisted_prismatic_tube,
    prismatic_curvatures,
    tube_spec_for_strips,
    tube_strip_total,
)

print("curved crease: R = 2, mu = 30 degrees, law says 2 sin(mu)/R = 0.5")
spec = CreaseSpec(R=2.0, mu=math.pi / 6)
law = crease_law(*creases.curved_crease(spec))
print(f"{'nu':>5} {'mesh rate':>12} {'rel error':>11}")
for nu in (32, 64, 128, 256):
    mesh = gen_curved_crease(spec, strip_width=0.3, nu=nu, nv=max(4, nu // 8))
    rate = angle_defect(mesh).crease_rates[1]
    print(f"{nu:>5} {rate:12.8f} {abs(rate - law) / law:11.2e}")

print("\ntwisted-prismatic tube: a = 1, alpha = 45 degrees, 12 strips")
tube_spec = tube_spec_for_strips(1.0, math.pi / 4, 12)
total, area = tube_strip_total(tube_spec)
mean = total / area.value  # the strip's total over its area
mesh = gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 128, 128)
field = angle_defect(mesh)
density = field.interior_defect_density()
print(f"  Mohr-circle strip K, -kxy^2:   {gaussian_curvature(prismatic_curvatures(tube_spec)):.7f}")
print(f"  ruled strip's exact mean K:    {mean:.7f}")
print(f"  defect density on the mesh:    {density:.7f} ({abs(density / mean - 1):.1e} from the mean)")
print(f"  mean crease rate on the mesh:  "
      f"{sum(field.crease_rates.values()) / len(field.crease_rates):.6f}")

out = Path(tempfile.mkdtemp()) / "tube.obj"
export_obj(mesh, out)
lines = out.read_text().splitlines()
print(f"\nexported {out} ({len(lines)} lines); crease groups carry the folds:")
for line in lines:
    if line.startswith("g "):
        print(f"  {line}")
