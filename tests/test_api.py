"""Guards against orphaned API: every public function of the closed-form,
generator, mesh, oracle and verification modules, and every public method
and property of the classes the package exports, is reached by the
verification suites or the command line, and the package exports exactly what
its __init__ binds."""

import ast
import inspect
import sys
from pathlib import Path

import creasegeom
from creasegeom import cli, creases, curvature, oracle, quadrature, surfaces, trimesh, verify

MODULES = (curvature, creases, quadrature, surfaces, trimesh, oracle, verify)


def public_functions():
    """{'module.name': code object} of the functions each module defines."""
    return {
        f"{module.__name__.rsplit('.', 1)[1]}.{name}": fn.__code__
        for module in MODULES
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and not name.startswith("_")
        and fn.__module__ == module.__name__
    }


def public_methods():
    """{'Class.name': code object} of the public methods and properties of
    the classes the package exports."""
    methods = {}
    for cls_name in creasegeom.__all__:
        cls = getattr(creasegeom, cls_name)
        for name, attr in vars(cls).items() if inspect.isclass(cls) else ():
            fn = attr.fget if isinstance(attr, property) else attr
            if inspect.isfunction(fn) and not name.startswith("_"):
                methods[f"{cls_name}.{name}"] = fn.__code__
    return methods


def cli_runs(tmp_path):
    """One small run of every subcommand: verify --suite all --json, generate
    and analyze (sidecar) of each shape, analyze of one OBJ, and a two-step
    sweep of each parameter."""
    runs = [["verify", "--suite", "all", f"--json={tmp_path / 'verify.json'}"]]
    params = {"a": 1, "alpha": 0.7, "h": 0.2, "strips": 6, "kxy": 0.1, "a_len": 1,
              "b_len": 1, "mu": 0.2, "R": 2, "r": 0.1, "width": 0.3, "radius": 1, "n": 6}
    for shape, spec in cli.SHAPES.items():
        out = tmp_path / f"{shape}.obj"
        flags = [f"{cli._flag(name)}={params[name]}" for name in spec.params]
        runs.append(["generate", shape, *flags, "--nu=8", "--nv=4", f"--out={out}"])
        runs.append(["analyze", f"--in={out}.json", f"--report={out}.report.json"])
    runs.append(["analyze", f"--in={tmp_path / 'tube.obj'}",
                 f"--report={tmp_path / 'tube.obj.obj-report.json'}"])
    for param in cli.SWEEPS:
        lo, hi = {"n": (4, 8), "R": (1, 2)}.get(param, (0.1, 0.2))
        runs.append(["sweep", f"--param={param}", f"--range={lo}:{hi}:2",
                     f"--csv={tmp_path / param}.csv"])
    return runs


def test_public_functions_are_reached(tmp_path, capsys):
    public = {**public_functions(), **public_methods()}
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [cli.main(argv) for argv in cli_runs(tmp_path)]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(codes), capsys.readouterr().err
    reached = {name for name, code in public.items() if code in seen}
    assert reached == set(public)


def test_all_equals_the_names_init_binds():
    tree = ast.parse(Path(creasegeom.__file__).read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(target.id for target in node.targets)
    bound.discard("__all__")
    assert len(creasegeom.__all__) == len(set(creasegeom.__all__))
    assert set(creasegeom.__all__) == bound
