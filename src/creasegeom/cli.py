"""Command-line front end: generate meshes, analyze them against the closed
forms, run verification suites, and sweep parameters to CSV.

Exit codes: 0 success, 1 verification failure, 2 usage/parameter error,
3 input-format error, 141 (128 + SIGPIPE) when stdout is closed early.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__, creases, curvature, oracle, quadrature, surfaces, verify
from .errors import InputFormatError, MeshError, ParameterError
from .trimesh import TriMesh, export_obj, load_obj

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INPUT_FORMAT = 3
EXIT_BROKEN_PIPE = 141

ANGLE_PARAMS = {"alpha", "mu"}
# Rows and their CSV text are held until the one write: below 80 MB traced at the cap.
_MAX_SWEEP_STEPS = 100_000


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, rows) -> None:
    """Write rows as csv.writer does when no field needs quoting, in one write."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(",".join(map(str, row)) + "\r\n" for row in rows))


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

# Every shape parameter: type and help text.  The generate flags, the sweep
# context flags and the sidecar check all read this table.
PARAMS = {
    "a": (float, "tube radius"),
    "alpha": (float, "line angle to the tube axis"),
    "h": (float, "strip width normal to the lines"),
    "strips": (int, "number of tube strips"),
    "kxy": (float, "twist curvature of the patch"),
    "a_len": (float, "patch x extent"),
    "b_len": (float, "patch y extent"),
    "mu": (float, "half fold angle"),
    "R": (float, "crease / sweep radius"),
    "r": (float, "mudguard transverse arc radius"),
    "width": (float, "curved-crease strip width"),
    "radius": (float, "gore-sphere seam radius"),
    "n": (int, "number of gores"),
    "nu": (int, "mesh resolution along the first parameter"),
    "nv": (int, "mesh resolution along the second parameter"),
}


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@dataclass(frozen=True)
class Shape:
    """One generated shape: its parameters (nu and nv besides), the spec
    built from them, the mesh generator and the closed-form summary that
    analyze compares the mesh against.  The last two take (spec, params)."""

    params: tuple[str, ...]
    spec: Callable[[dict], object]
    mesh: Callable[[object, dict], TriMesh]
    summary: Callable[[object, dict], dict]


def _balance_row(strip: float, spec) -> tuple:
    """For a TubeSpec and its ruled strip's total curvature per unit crease
    length: that total, the crease's 2*kappa*sin(mu) at the exact fold,
    their sum, and its size relative to the larger term."""
    crease = creases.tube_crease_specific_curvature(spec)
    scale = max(abs(strip), abs(crease))
    return strip, crease, strip + crease, abs(strip + crease) / scale if scale > 0 else 0.0


def _tube_summary(spec) -> dict:
    """The balance, and the ruled strip's exact mean K: its total over its area."""
    total, area = quadrature.tube_strip_total(spec)
    strip, crease, residual, _ = _balance_row(total, spec)
    return {"strip_gaussian_curvature": strip / area.value,
            "strip_specific_curvature": strip, "crease_specific_curvature": crease,
            "balance_residual": residual}


SHAPES = {
    "cylinder": Shape(
        ("a", "alpha", "h"),
        lambda p: curvature.TubeSpec(a=p["a"], alpha=p["alpha"], h=p["h"]),
        lambda s, p: surfaces.gen_cylinder(s, p["nu"], p["nv"]),
        lambda s, p: {"strip_gaussian_curvature":
                      curvature.gaussian_curvature(curvature.cylinder_curvatures(s))},
    ),
    "tube": Shape(
        ("a", "alpha", "strips"),
        lambda p: curvature.tube_spec_for_strips(p["a"], p["alpha"], p["strips"]),
        lambda s, p: surfaces.gen_twisted_prismatic_tube(
            p["a"], p["alpha"], p["strips"], p["nu"], p["nv"]
        ),
        lambda s, p: _tube_summary(s),
    ),
    "twisted-patch": Shape(
        ("kxy", "a_len", "b_len", "mu"),
        lambda p: None,  # the generator takes the parameters themselves
        lambda s, p: surfaces.gen_twisted_patch(
            p["kxy"], p["a_len"], p["b_len"], p["mu"], p["nu"], p["nv"]
        ),
        lambda s, p: {"pointwise_gaussian_curvature": -p["kxy"] ** 2},
    ),
    "curved-crease": Shape(
        ("R", "mu", "width"),
        lambda p: creases.CreaseSpec(R=p["R"], mu=p["mu"]),
        lambda s, p: surfaces.gen_curved_crease(s, p["width"], p["nu"], p["nv"]),
        lambda s, p: {"crease_specific_curvature": creases.crease_specific_curvature(s)},
    ),
    "mudguard": Shape(
        ("R", "r", "mu"),
        lambda p: surfaces.MudguardSpec(R=p["R"], r=p["r"], mu=p["mu"]),
        lambda s, p: surfaces.gen_mudguard(s, p["nu"], p["nv"]),
        lambda s, p: {"total_solid_angle": quadrature.mudguard_closed_form(s.R, s.r, s.mu)},
    ),
    "gore-sphere": Shape(
        ("radius", "n"),
        lambda p: surfaces.GoreSphereSpec(R=p["radius"], n=p["n"]),
        lambda s, p: surfaces.gen_gore_sphere(s, p["nu"], p["nv"]),
        lambda s, p: {
            "seam_total_solid_angle": s.n * (4.0 * math.pi / s.n),  # n seams of 4*pi/n
            "gauss_bonnet_total": 4.0 * math.pi,
        },
    ),
}


def _shape_params(shape: str, given: dict, label: Callable[[str], str]) -> dict:
    """The shape's parameters, nu and nv included, taken from `given` and
    type-checked (an int is accepted for a float).  Raises ParameterError
    naming, through `label`, every parameter that is missing, then the first
    of the wrong type."""
    names = SHAPES[shape].params + ("nu", "nv")
    missing = [label(name) for name in names if given.get(name) is None]
    if missing:
        raise ParameterError(f"{shape} needs {', '.join(missing)}")
    params = {}
    for name in names:
        kind, value = PARAMS[name][0], given[name]
        if isinstance(value, bool) or not isinstance(value, (int, kind)):
            raise ParameterError(f"{label(name)} must be {kind.__name__}, got {value!r}")
        params[name] = kind(value)
    return params


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    given = {name: getattr(args, name) for name in PARAMS}
    if args.degrees:
        for key in ANGLE_PARAMS:
            if given[key] is not None:
                given[key] = math.radians(given[key])
    params = _shape_params(args.shape, given, _flag)
    shape = SHAPES[args.shape]
    mesh = shape.mesh(shape.spec(params), params)
    mesh.validate()
    out = Path(args.out)
    export_obj(mesh, out)
    sidecar = {
        "tool": "creasegeom",
        "version": __version__,
        "shape": args.shape,
        "params": params,
        "obj": out.name,
    }
    _write_json(out.with_suffix(out.suffix + ".json"), sidecar)
    print(
        f"wrote {out} ({mesh.num_vertices} vertices, {mesh.num_triangles} "
        f"triangles, {len(mesh.crease_polylines)} creases) and sidecar"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _read_sidecar(path: Path) -> tuple[str, dict]:
    """(shape name, checked parameters) of a sidecar written by generate;
    InputFormatError naming the file if it is not one."""
    with open(path, "r", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    shape = sidecar.get("shape") if isinstance(sidecar, dict) else None
    given = sidecar.get("params") if isinstance(sidecar, dict) else None
    if not isinstance(shape, str) or not isinstance(given, dict):
        raise InputFormatError(f"{path}: not a creasegeom sidecar")
    if shape not in SHAPES:
        raise InputFormatError(
            f"{path}: unknown shape {shape!r}; choose from {', '.join(SHAPES)}"
        )
    try:
        return shape, _shape_params(shape, given, repr)
    except ParameterError as exc:
        raise InputFormatError(f"{path}: {exc}") from None


def cmd_analyze(args) -> int:
    path = Path(args.input)
    shape, params = None, None
    if path.suffix == ".json":
        shape, params = _read_sidecar(path)
        try:
            spec = SHAPES[shape].spec(params)
            mesh = SHAPES[shape].mesh(spec, params)
        except ParameterError as exc:  # a value no generator accepts
            raise InputFormatError(f"{path}: {exc}") from None
    else:
        mesh = load_obj(path)
        if not mesh.crease_polylines:
            raise InputFormatError(f"{path} carries no crease tags; analyze the JSON "
                                   "sidecar written by `generate` instead")
    try:
        field = oracle.angle_defect(mesh)
    except MeshError as exc:
        if shape is not None:  # a generator's fault, not the input's
            raise
        raise InputFormatError(f"{path}: {exc}") from None
    creases_out = {
        str(cid): {
            "rate": field.crease_rates[cid],
            "arc_length": field.crease_lengths[cid],
            "defect_total": field.crease_totals[cid],
        }
        for cid in sorted(mesh.crease_polylines)
    }
    report = {
        "tool": "creasegeom",
        "version": __version__,
        "input": path.name,
        "shape": shape,
        "params": params,
        "mesh": {
            "num_vertices": mesh.num_vertices,
            "num_triangles": mesh.num_triangles,
            "euler_characteristic": field.euler_characteristic,
        },
        "total_defect": field.total_defect,
        "creases": creases_out,
    }
    try:
        report["interior_defect_density"] = field.interior_defect_density()
    except MeshError:
        pass
    if shape is not None:
        report["closed_forms"] = SHAPES[shape].summary(spec, params)
    if args.report:
        _write_json(args.report, report)
    else:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
    if args.csv:
        _write_csv(args.csv, [("crease_id", "rate", "arc_length", "defect_total"),
                              *((cid, *row.values()) for cid, row in creases_out.items())])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    reports = verify.run_suite(args.suite)
    width = max(len(r.case_name) for r in reports)
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{status}  {r.case_name:<{width}}  residual {r.residual: .3e}"
            f"  tol {r.tolerance:.3e}"
        )
    failed = sum(not r.passed for r in reports)
    print(f"{len(reports) - failed}/{len(reports)} checks passed")
    if args.json:
        _write_json(
            args.json,
            {
                "tool": "creasegeom",
                "version": __version__,
                "suite": args.suite,
                "reports": [r.to_json_dict() for r in reports],
            },
        )
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_range(text: str, integral: bool):
    try:
        lo_s, hi_s, steps_s = text.split(":")
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError:
        raise ParameterError(f"range must be lo:hi:steps, got {text!r}") from None
    if not 2 <= steps <= _MAX_SWEEP_STEPS or hi <= lo:
        raise ParameterError(f"range needs hi > lo and 2 <= steps <= {_MAX_SWEEP_STEPS}: {text!r}")
    values = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    if not all(map(math.isfinite, values)):  # nan or inf ends, or (hi - lo) * i overflowed
        raise ParameterError(f"range needs finite values, got {text!r}")
    if integral:
        values = sorted({int(round(v)) for v in values})
    return values


def _mudguard_columns(specs: list):
    value = quadrature.mudguard_total(specs).value
    closed = quadrature.mudguard_closed_form(*(np.array([getattr(s, k) for s in specs])
                                               for k in ("R", "r", "mu")))
    return [x.tolist() for x in (closed, value, value - closed)]


def _tube_specs(cs) -> list:
    return [curvature.TubeSpec(a=c["a"], alpha=c["alpha"], h=c["h"]) for c in cs]


def _alpha_rows(cs):
    specs = _tube_specs(cs)
    for strip, spec in zip(quadrature.tube_strip_total(specs)[0].tolist(), specs):
        state = curvature.prismatic_curvatures(spec)
        circle = curvature.mohr_circle(state)
        yield strip, curvature.gaussian_curvature(state), circle.center, circle.radius


def _h_rows(cs):
    specs = _tube_specs(cs)
    return map(_balance_row, quadrature.tube_strip_total(specs)[0].tolist(), specs)


def _crease_mudguard_rows(cs):
    rates, specs = [], []
    for c in cs:
        rates.append(creases.crease_specific_curvature(creases.CreaseSpec(R=c["R"], mu=c["mu"])))
        specs.append(surfaces.MudguardSpec(R=c["R"], r=c["r"], mu=c["mu"]))
    return zip(rates, *_mudguard_columns(specs))


def _r_rows(cs):
    specs = [surfaces.MudguardSpec(R=c["R"], r=c["r"], mu=c["mu"]) for c in cs]
    return zip(*_mudguard_columns(specs), (4.0 * math.pi * math.sin(s.mu) for s in specs))


def _n_rows(cs):
    """n seams' total and each one's 4*pi/n, creases.gore_seam_crease's integral."""
    ns = [surfaces.GoreSphereSpec(c["R"], c["n"]).n for c in cs]
    return ((n * (4.0 * math.pi / n), 4.0 * math.pi / n) for n in ns)


_CREASE_MUDGUARD = ("crease_specific_curvature", "mudguard_closed_form",
                    "mudguard_quadrature", "residual")

# Swept parameter -> (CSV columns after the swept value, rows function).  A rows
# function maps the sweep contexts, one per value, to rows, in one batch.
SWEEPS = {
    "alpha": (("strip_specific_curvature", "gaussian_curvature", "mohr_center",
               "mohr_radius"), _alpha_rows),
    "h": (("strip_term", "crease_term", "residual", "relative_residual"), _h_rows),
    "mu": (_CREASE_MUDGUARD, _crease_mudguard_rows),
    "R": (_CREASE_MUDGUARD, _crease_mudguard_rows),
    "r": (("mudguard_closed_form", "mudguard_quadrature", "residual",
           "limit_4pi_sin_mu"), _r_rows),
    "n": (("gore_total", "seam_solid_angle"), _n_rows),
}

# Sweep context flags and their defaults.
SWEEP_CONTEXT = {"a": 1.0, "alpha": math.pi / 4, "h": 0.05, "mu": 0.2, "R": 10.0, "r": 0.1}


def cmd_sweep(args) -> int:
    if args.degrees and args.param in ANGLE_PARAMS:
        values = [math.radians(v) for v in _parse_range(args.range, integral=False)]
    else:
        values = _parse_range(args.range, integral=PARAMS[args.param][0] is int)
    ctx = {
        name: math.radians(getattr(args, name)) if args.degrees and name in ANGLE_PARAMS
        else getattr(args, name)
        for name in SWEEP_CONTEXT
    }
    columns, rows_of = SWEEPS[args.param]
    rows = [(value, *row) for value, row in
            zip(values, rows_of({**ctx, args.param: value} for value in values))]
    _write_csv(args.csv, [(args.param, *columns), *rows])
    print(f"wrote {len(rows)} rows to {args.csv}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="creasegeom",
        description="Gaussian curvature of creased tubes: generators, "
        "discrete oracles, and verification suites.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a mesh as OBJ + JSON sidecar")
    gen.add_argument("shape", choices=list(SHAPES))
    for name, (kind, text) in PARAMS.items():
        default = surfaces.DEFAULT_EXPORT_RES if name in ("nu", "nv") else None
        gen.add_argument(_flag(name), type=kind, default=default, help=text)
    gen.add_argument("--degrees", action="store_true", help="angles are degrees")
    gen.add_argument("--out", required=True, help="output OBJ path")
    gen.set_defaults(func=cmd_generate)

    ana = sub.add_parser("analyze", help="angle-defect analysis of a mesh")
    ana.add_argument("--in", dest="input", required=True,
                     help="OBJ file or JSON sidecar")
    ana.add_argument("--report", help="write the JSON report here instead of stdout")
    ana.add_argument("--csv", help="also write per-crease rates as CSV")
    ana.set_defaults(func=cmd_analyze)

    ver = sub.add_parser("verify", help="run closed-form vs oracle suites")
    ver.add_argument("--suite", default="all",
                     choices=("all",) + verify.SUITE_NAMES)
    ver.add_argument("--json", help="write the report array here")
    ver.set_defaults(func=cmd_verify)

    swp = sub.add_parser("sweep", help="sweep one parameter to CSV")
    swp.add_argument("--param", required=True, choices=list(SWEEPS))
    swp.add_argument("--range", required=True, help="lo:hi:steps")
    swp.add_argument("--csv", required=True, help="output CSV path")
    for name, default in SWEEP_CONTEXT.items():
        swp.add_argument(_flag(name), type=float, default=default, help=PARAMS[name][1])
    swp.add_argument("--degrees", action="store_true", help="angles are degrees")
    swp.set_defaults(func=cmd_sweep)
    return parser


def _to_devnull(stream) -> None:
    """Point stream's descriptor at the null device, so that the interpreter's
    exit-time flush of what the stream still holds succeeds."""
    with open(os.devnull, "w") as devnull, contextlib.suppress(OSError, ValueError):
        os.dup2(devnull.fileno(), stream.fileno())


def _error(message, status: int) -> int:
    """Print `error: message` to stderr and return status, which a full or
    closed stderr does not change."""
    try:
        print(f"error: {message}", file=sys.stderr, flush=True)
    except (OSError, ValueError):
        _to_devnull(sys.stderr)
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return status
    except BrokenPipeError:  # the reader left (`analyze ... | head`): not an input fault
        _to_devnull(sys.stdout)
        return EXIT_BROKEN_PIPE
    except (ParameterError, MeshError) as exc:
        return _error(exc, EXIT_USAGE)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # only analyze decodes a file, and these messages do not name it
        return _error(f"{getattr(args, 'input', '')}: {exc}", EXIT_INPUT_FORMAT)
    except (InputFormatError, OSError) as exc:
        return _error(exc, EXIT_INPUT_FORMAT)


if __name__ == "__main__":
    sys.exit(main())
