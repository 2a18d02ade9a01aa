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
    crease_specific_curvature,
    export_obj,
    gaussian_curvature,
    gen_curved_crease,
    gen_twisted_prismatic_tube,
    prismatic_curvatures,
    tube_spec_for_strips,
)

print("curved crease: R = 2, mu = 30 degrees, law says 2 sin(mu)/R = 0.5")
spec = CreaseSpec(R=2.0, mu=math.pi / 6)
law = crease_specific_curvature(spec)
print(f"{'nu':>5} {'mesh rate':>12} {'rel error':>11}")
for nu in (32, 64, 128, 256):
    mesh = gen_curved_crease(spec, strip_width=0.3, nu=nu, nv=max(4, nu // 8))
    rate = angle_defect(mesh).crease_rates[1]
    print(f"{nu:>5} {rate:12.8f} {abs(rate - law) / law:11.2e}")

print("\ntwisted-prismatic tube: a = 1, alpha = 45 degrees, 12 strips")
tube_spec = tube_spec_for_strips(1.0, math.pi / 4, 12)
expected = gaussian_curvature(prismatic_curvatures(tube_spec))
mesh = gen_twisted_prismatic_tube(1.0, math.pi / 4, 12, 128, 128)
field = angle_defect(mesh)
print(f"  strip K from closed form:      {expected:.6f}")
print(f"  defect density on the mesh:    {field.interior_defect_density():.6f}")
print(f"  mean crease rate on the mesh:  "
      f"{sum(field.crease_rates.values()) / len(field.crease_rates):.6f}")

out = Path(tempfile.mkdtemp()) / "tube.obj"
export_obj(mesh, out)
lines = out.read_text().splitlines()
print(f"\nexported {out} ({len(lines)} lines); crease groups carry the folds:")
for line in lines:
    if line.startswith("g "):
        print(f"  {line}")
