"""The benchmark's three workloads: seeded inputs, one op, and its output check.

Each workload builds its whole input list from the seed before the first
op, calls the program only through ``cli.main`` (and, in param-study,
``oracle.gauss_map_integrate``), and checks every op's outputs against a
stated tolerance.  ``run_op`` is the timed part; ``check`` runs after the
clock stops.  Tolerances that ``verify.py`` pins are reused with the same
values, so an op here passes exactly when the paper's own check would.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from pathlib import Path

from creasegeom import cli, oracle, surfaces

MAX_SPECS = 1024  # inputs drawn per run; a run wraps round if it uses more

# pinned in verify.py: suite_strip_curvature, suite_crease_law, suite_gore,
# suite_mudguard (quadrature and Gauss map)
STRIP_DENSITY_REL_TOL = 0.02
CREASE_RATE_REL_TOL = 0.01
GAUSS_BONNET_ABS_TOL = 1e-9
MUDGUARD_QUADRATURE_REL_TOL = 1e-8
GAUSS_MAP_REL_TOL = 1e-3
# OBJ stores 9 significant digits (relative rounding 5e-9).  The shortest
# edges here are about 1/800 of the coordinate size (curved-crease arcs), so
# one corner angle can move by about 2 * 5e-9 * 800 ~ 1e-5 rad; the sums in
# total_defect and the crease rates average such errors, and over 120
# seeded meshes differed by at most 2.8e-6 relative.
OBJ_ROUNDING_REL_TOL = 2e-5

SHAPES = ("cylinder", "tube", "twisted-patch", "curved-crease", "mudguard", "gore-sphere")
SWEEP_PARAMS = ("mu", "R", "r", "n", "alpha", "h")
MUDGUARD_SWEEPS = ("mu", "R", "r")
FLAG = {"a_len": "--a-len", "b_len": "--b-len"}


def _cli(argv) -> int:
    """cli.main with its stdout discarded; SystemExit becomes an exit code."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _close(a, b, rel, floor=0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), floor)


def _cycles(rng: random.Random, items, count: int) -> list:
    """`count` items taken from repeated seeded shuffles of `items`, so every
    item appears equally often in each whole cycle."""
    out = []
    while len(out) < count:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def mudguard_closed_form(R: float, r: float, mu: float) -> float:
    """4*pi*R*sin(mu) / (R - r*(1 - cos(mu))), evaluated here independently
    of creasegeom.quadrature."""
    return 4.0 * math.pi * R * math.sin(mu) / (R - r * (1.0 - math.cos(mu)))


class Workload:
    name = ""
    cycle = 1  # ops in one balanced cycle of inputs

    def __init__(self, seed: int):
        self.specs = self.make_specs(random.Random(f"{self.name}:{seed}"))

    def make_specs(self, rng: random.Random) -> list[dict]:
        raise NotImplementedError

    def run_op(self, spec: dict, work: Path) -> dict:
        raise NotImplementedError

    def check(self, spec: dict, out: dict) -> list[str]:
        """Problems found in one op's outputs; empty when the op is correct."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

class VerifyAll(Workload):
    """`creasegeom verify --suite all`: the paper's full reproduction.

    The suites are pinned, so every op is the same and the seed is only
    recorded.  The strip-curvature suite (angle_defect on a 757k-vertex
    tube) takes most of the time.
    """

    name = "verify-all"

    def __init__(self, seed: int, suite: str = "all", expected_checks: int = 66):
        self.suite = suite
        self.expected_checks = expected_checks
        super().__init__(seed)

    def make_specs(self, rng):
        return [{"suite": self.suite}]

    def run_op(self, spec, work):
        path = work / "verify.json"
        rc = _cli(["verify", "--suite", spec["suite"], "--json", path])
        return {"rc": rc, "cli_files": [path]}

    def check(self, spec, out):
        if out["rc"] != 0:
            return [f"verify exited {out['rc']}"]
        reports = json.loads(out["cli_files"][0].read_text())["reports"]
        passed = sum(bool(r["passed"]) for r in reports)
        if len(reports) != self.expected_checks or passed != len(reports):
            return [f"{passed}/{len(reports)} checks passed, "
                    f"expected {self.expected_checks}/{self.expected_checks}"]
        return []


# ---------------------------------------------------------------------------
# mesh-roundtrip
# ---------------------------------------------------------------------------

def _even(x: float, least: int) -> int:
    n = max(least, int(round(x)))
    return n + n % 2


class MeshRoundtrip(Workload):
    """generate -> analyze the OBJ -> analyze the sidecar, over all six shapes.

    Parameters are drawn inside each shape's valid, warning-free range and
    the resolution is solved so every mesh has about `target_vertices`
    vertices: the op cost then follows the vertex count, not the seed.
    """

    name = "mesh-roundtrip"
    cycle = len(SHAPES)

    def __init__(self, seed: int, target_vertices: int = 40_000):
        self.target = target_vertices
        self.band = (target_vertices // 2, 3 * target_vertices)
        super().__init__(seed)

    def make_specs(self, rng):
        return [self._spec(rng, shape) for shape in _cycles(rng, SHAPES, MAX_SPECS)]

    def _spec(self, rng, shape) -> dict:
        T = self.target
        u = rng.uniform
        if shape in ("cylinder", "tube"):
            a, alpha = u(0.5, 2.0), u(0.3, 1.2)
            # at least 10*pi*cos(alpha) lines keeps h/a <= 0.2 (no warning)
            least = math.ceil(10.0 * math.pi * math.cos(alpha))
            lines = rng.randint(max(least, 6), max(least, 6) + 20)
            nv = 4
            p = {"a": a, "alpha": alpha}
            if shape == "cylinder":
                # h that closes the hoop exactly, so no spacing adjustment
                p["h"] = 2.0 * math.pi * a * math.cos(alpha) / lines
            else:
                p["strips"] = lines
            p.update(nu=_even(T / (lines * nv), 4), nv=nv)
        elif shape == "twisted-patch":
            a_len, b_len = u(0.5, 2.0), u(0.5, 2.0)
            # |kxy| * size <= 0.2 bounds the graph's deviation from
            # K = -kxy^2, about 2*kxy^2*<x^2 + y^2>, by 1.4%
            kxy = rng.choice((-1.0, 1.0)) * u(0.3, 1.0) * 0.2 / max(a_len, b_len)
            nv = _even(math.sqrt(T * b_len / a_len), 4)
            p = {"kxy": kxy, "a_len": a_len, "b_len": b_len, "mu": u(0.0, 0.6),
                 "nu": max(4, round(T / (nv + 1))), "nv": nv}
        elif shape == "curved-crease":
            R = u(1.0, 4.0)
            p = {"R": R, "mu": u(0.1, 1.0), "width": R * u(0.05, 0.2),
                 "nu": max(8, round(T / 33)), "nv": 16}
        elif shape == "mudguard":
            R = u(2.0, 10.0)
            p = {"R": R, "r": R * u(0.01, 0.1), "mu": u(0.1, 0.8),
                 "nu": max(8, round(T / 41)), "nv": 40}
        else:  # gore-sphere
            n = rng.randint(4, 16)
            p = {"radius": u(0.5, 2.0), "n": n, "nu": max(4, round(T / (6 * n)) + 1), "nv": 6}
        return {"shape": shape, "params": p}

    def run_op(self, spec, work):
        obj = work / "mesh.obj"
        argv = ["generate", spec["shape"]]
        for key, value in spec["params"].items():
            argv += [FLAG.get(key, "--" + key), repr(value)]
        out = {"rc": {}, "cli_files": [work / "mesh.obj.json"]}
        out["rc"]["generate"] = _cli(argv + ["--out", obj])
        # mudguard carries no crease polylines: its OBJ analysis exits 3 by design
        if spec["shape"] != "mudguard":
            report = work / "from_obj.json"
            out["rc"]["analyze_obj"] = _cli(["analyze", "--in", obj, "--report", report])
            out["cli_files"].append(report)
        report = work / "from_sidecar.json"
        out["rc"]["analyze_sidecar"] = _cli(
            ["analyze", "--in", work / "mesh.obj.json", "--report", report])
        out["cli_files"].append(report)
        return out

    def check(self, spec, out):
        bad = [f"{step} exited {rc}" for step, rc in out["rc"].items() if rc != 0]
        if bad:
            return bad
        side = json.loads((out["cli_files"][-1]).read_text())
        problems = []
        nverts = side["mesh"]["num_vertices"]
        if not self.band[0] <= nverts <= self.band[1]:
            problems.append(f"{nverts} vertices outside band {self.band}")
        if "analyze_obj" in out["rc"]:
            obj = json.loads(out["cli_files"][1].read_text())
            problems += self._obj_agrees(obj, side)
        return problems + self._closed_forms(spec, side)

    @staticmethod
    def _obj_agrees(obj: dict, side: dict) -> list[str]:
        problems = []
        if not _close(obj["total_defect"], side["total_defect"], OBJ_ROUNDING_REL_TOL, 1.0):
            problems.append(f"total_defect OBJ {obj['total_defect']!r} "
                            f"vs sidecar {side['total_defect']!r}")
        if sorted(obj["creases"]) != sorted(side["creases"]):
            return problems + ["OBJ and sidecar report different crease ids"]
        # rates are per unit length and every shape here has lengths of
        # order 1, so the floor of 1 covers the zero-fold cylinder lines
        bad = [cid for cid, c in side["creases"].items()
               if not _close(obj["creases"][cid]["rate"], c["rate"], OBJ_ROUNDING_REL_TOL, 1.0)]
        if bad:
            cid = bad[0]
            problems.append(f"{len(bad)} crease rates differ, e.g. crease {cid}: OBJ "
                            f"{obj['creases'][cid]['rate']!r} vs sidecar "
                            f"{side['creases'][cid]['rate']!r}")
        return problems

    @staticmethod
    def _closed_forms(spec: dict, side: dict) -> list[str]:
        shape, p, cf = spec["shape"], spec["params"], side.get("closed_forms", {})
        if shape == "tube":
            got, want = side["interior_defect_density"], cf["strip_gaussian_curvature"]
            ok = _close(got, want, STRIP_DENSITY_REL_TOL)
        elif shape == "cylinder":
            # zero Gaussian curvature: tolerance taken on the scale of the
            # prismatic strip curvature kxy^2 of the same tube
            kxy = math.sin(p["alpha"]) * math.cos(p["alpha"]) / p["a"]
            got, want = side["interior_defect_density"], cf["strip_gaussian_curvature"]
            ok = abs(got - want) <= STRIP_DENSITY_REL_TOL * kxy * kxy
        elif shape == "twisted-patch":
            got, want = side["interior_defect_density"], cf["pointwise_gaussian_curvature"]
            ok = _close(got, want, STRIP_DENSITY_REL_TOL)
        elif shape == "curved-crease":
            got, want = side["creases"]["1"]["rate"], cf["crease_specific_curvature"]
            ok = _close(got, want, CREASE_RATE_REL_TOL)
        elif shape == "gore-sphere":
            got, want = side["total_defect"], 4.0 * math.pi
            ok = abs(got - want) <= GAUSS_BONNET_ABS_TOL
        else:  # mudguard
            got = cf["total_solid_angle"]
            want = mudguard_closed_form(p["R"], p["r"], p["mu"])
            if not _close(got, want, 1e-12):
                return [f"mudguard: reported closed form {got!r} vs {want!r}"]
            # the band is a torus strip, K dA = cos(eps) dphi deps; the
            # interior vertices' cells reach half a row short of each
            # boundary, so their defects sum to 2*pi * 2 sin(mu * (1 - 1/nv)).
            # The polygonal hoop falls short by about (2*pi/nu)^2 / 24
            # relative (measured for nu 24..976, nv 6..40, mu 0.1..0.8);
            # the tolerance (pi/nu)^2 is six times that.
            got = side["total_defect"]
            want = 4.0 * math.pi * math.sin(p["mu"] * (1.0 - 1.0 / p["nv"]))
            ok = _close(got, want, (math.pi / p["nu"]) ** 2)
        return [] if ok else [f"{shape}: mesh {got!r} vs closed form {want!r}"]


# ---------------------------------------------------------------------------
# param-study
# ---------------------------------------------------------------------------

class ParamStudy(Workload):
    """One `creasegeom sweep` of `steps` values, then one Gauss map of a
    mudguard at gauss_res^2 checked against its closed form.

    Sweeps over mu, R and r run one adaptive quadrature per step; n runs the
    gore-sphere quadrature; alpha and h are closed forms only.  No mesh code
    runs.  Quadrature cost grows with the arc half-angle mu and falls with
    R (the tolerance is absolute), so the seeded ranges of those two are
    kept narrow: the inputs differ by seed but an op's cost barely does.  The Gauss-map mudguard keeps r/R <= 0.01 and mu <= 0.3, where the
    closed form (a thin-arc law) is within 5e-4 of the surface's true total.
    """

    name = "param-study"
    cycle = len(SWEEP_PARAMS)

    def __init__(self, seed: int, steps: int = 2000, gauss_res: int = 512):
        self.steps = steps
        self.gauss_res = gauss_res
        super().__init__(seed)

    def make_specs(self, rng):
        return [self._spec(rng, param) for param in _cycles(rng, SWEEP_PARAMS, MAX_SPECS)]

    def _spec(self, rng, param) -> dict:
        u = rng.uniform
        ctx: dict = {}
        if param == "mu":
            R = u(4.0, 6.0)
            ctx = {"R": R, "r": R * u(0.001, 0.05)}
            lo, hi = u(0.05, 0.1), u(1.0, 1.1)
        elif param == "R":
            ctx = {"r": u(0.01, 0.1), "mu": u(0.4, 0.5)}
            lo = u(1.0, 1.5)
            hi = lo * u(8.0, 10.0)
        elif param == "r":
            ctx = {"R": u(4.0, 6.0), "mu": u(0.4, 0.5)}
            lo, hi = ctx["R"] * u(1e-4, 1e-3), ctx["R"] * u(0.1, 0.45)
        elif param == "n":
            ctx = {"R": u(0.5, 2.0)}
            lo = rng.randint(3, 40)
            hi = lo + self.steps - 1
        elif param == "alpha":
            a = u(0.5, 2.0)
            ctx = {"a": a, "h": a * u(0.01, 0.1)}
            lo, hi = u(0.0, 0.2), u(1.2, 1.55)
        else:  # h
            a = u(0.5, 2.0)
            ctx = {"a": a, "alpha": u(0.2, 1.3)}
            lo, hi = a * u(1e-4, 1e-3), a * u(0.05, 0.3)
        R = u(1.0, 10.0)
        mudguard = {"R": R, "r": R * u(0.001, 0.01), "mu": u(0.05, 0.3)}
        return {"param": param, "lo": lo, "hi": hi, "steps": self.steps, "ctx": ctx,
                "mudguard": mudguard, "res": self.gauss_res}

    def expected_rows(self, spec) -> int:
        lo, hi, steps = spec["lo"], spec["hi"], spec["steps"]
        if spec["param"] != "n":
            return steps
        return len({int(round(lo + (hi - lo) * i / (steps - 1))) for i in range(steps)})

    def run_op(self, spec, work):
        path = work / "sweep.csv"
        argv = ["sweep", "--param", spec["param"],
                "--range", f"{spec['lo']!r}:{spec['hi']!r}:{spec['steps']}", "--csv", path]
        for key, value in spec["ctx"].items():
            argv += ["--" + key, repr(value)]
        rc = _cli(argv)
        m = spec["mudguard"]
        gauss = oracle.gauss_map_integrate(
            surfaces.mudguard_surface(surfaces.MudguardSpec(**m)),
            (0.0, 2.0 * math.pi, -m["mu"], m["mu"]),
            nu=spec["res"], nv=spec["res"],
        )
        return {"rc": rc, "cli_files": [path], "gauss": gauss}

    def check(self, spec, out):
        if out["rc"] != 0:
            return [f"sweep exited {out['rc']}"]
        with open(out["cli_files"][0], newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        problems = []
        if len(rows) != self.expected_rows(spec):
            problems.append(f"{len(rows)} CSV rows, expected {self.expected_rows(spec)}")
        if spec["param"] in MUDGUARD_SWEEPS:
            i, j = header.index("residual"), header.index("mudguard_closed_form")
            worst = max((abs(float(r[i]) / float(r[j])) for r in rows), default=math.inf)
            if not worst <= MUDGUARD_QUADRATURE_REL_TOL:
                problems.append(f"mudguard residual {worst:.3e} relative")
        gauss, m = out["gauss"], spec["mudguard"]
        want = mudguard_closed_form(m["R"], m["r"], m["mu"])
        if not gauss.converged:
            problems.append("Gauss map did not converge")
        if not _close(gauss.value, want, GAUSS_MAP_REL_TOL):
            problems.append(f"Gauss map {gauss.value!r} vs closed form {want!r}")
        return problems


WORKLOADS = {w.name: w for w in (VerifyAll, MeshRoundtrip, ParamStudy)}
