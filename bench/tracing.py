"""Layer spans for the benchmark's traced runs.

The tracer replaces public functions of ``creasegeom`` with timing wrappers
for the duration of one op and puts the originals back afterwards, so an
untraced op runs exactly the code a user runs.  Nothing under ``src/`` is
edited.  A function is patched under every name that binds it: ``cli.py``
imports ``export_obj``/``load_obj`` by name, ``surfaces.py`` imports
``tube_spec_for_strips``, and ``verify.py`` keeps its suites in the
``_SUITES`` table, so patching only the defining module would miss calls.

Spans nest.  A span's self time is its duration minus the time covered by
the spans it encloses, so ``oracle.angle_defect`` does not include the
``TriMesh.validate`` and ``boundary_vertex_mask`` calls it makes.  Several
functions may share one layer name (the six generators are all
``surfaces.gen``); their self times and calls add up.  A traced name
that the program no longer has is skipped and listed in ``missing``, so a
refactor of the program shows up as a zero layer and a note, not a crash.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter

MB = 1e6


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_vertices(tracer, args, kwargs, result):
    tracer.counts["surfaces.gen.vertices"] += result.num_vertices


def _count_export(tracer, args, kwargs, result):
    tracer.counts["trimesh.export_obj.bytes"] += _path_size(
        kwargs.get("path", args[1] if len(args) > 1 else None)
    )


def _count_load(tracer, args, kwargs, result):
    tracer.counts["trimesh.load_obj.bytes"] += _path_size(
        kwargs.get("path", args[0] if args else None)
    )


def _count_triangles(tracer, args, kwargs, result):
    mesh = kwargs.get("mesh", args[0] if args else None)
    tracer.counts["oracle.angle_defect.triangles"] += mesh.num_triangles


def _count_gauss_map(tracer, args, kwargs, result):
    tracer.counts["oracle.gauss_map.cells"] += result.nu * result.nv
    tracer.counts["oracle.gauss_map.converged"] += bool(result.converged)


def _count_evaluations(tracer, args, kwargs, result):
    tracer.counts["quadrature.integrate.evaluations"] += result.evaluations


def _public_functions(module):
    """Functions defined in `module` whose names do not start with '_'."""
    return [
        name for name, value in vars(module).items()
        if inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not name.startswith("_")
    ]


class Tracer:
    """Per-layer self time, inclusive time, calls, work counts and peaks.

    With memory=True every span flagged for memory also records the peak
    of tracemalloc's traced memory above its value at span entry.
    tracemalloc slows allocation-heavy Python (``load_obj`` runs about ten
    times slower under it), so a memory pass is kept apart from the passes
    whose times are reported.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.self_s: dict[str, float] = defaultdict(float)
        self.inclusive_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_mb: dict[str, float] = defaultdict(float)
        self._open: list[list[float]] = []   # child time of each open span
        self._mem_open: list[list[int]] = []  # [base, peak seen] per memory span
        self._started_tracemalloc = False
        self._patches: list[tuple[object, str, object, bool]] = []
        self.missing: set[str] = set()  # traced names the program no longer has

    # -- spans -------------------------------------------------------------

    def _mem_enter(self) -> None:
        if not self._mem_open and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_open:
            # the reset below would lose the enclosing span's peak so far
            outer = self._mem_open[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        self._mem_open.append([current, current])

    def _mem_exit(self, layer: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self._mem_open.pop()
        self.peak_mb[layer] = max(self.peak_mb[layer], (max(peak, seen) - base) / MB)
        if not self._mem_open and self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False

    def span(self, layer: str, fn, count=None, memory: bool = False):
        """Wrap fn so each call is recorded as a span of `layer`."""
        open_spans = self._open
        self_s, inclusive_s, calls = self.self_s, self.inclusive_s, self.calls
        track_memory = memory and self.memory

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if track_memory:
                self._mem_enter()
            children = [0.0]
            open_spans.append(children)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                open_spans.pop()
                self_s[layer] += elapsed - children[0]
                inclusive_s[layer] += elapsed
                calls[layer] += 1
                if open_spans:
                    open_spans[-1][0] += elapsed
                if track_memory:
                    self._mem_exit(layer)
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original, wrapper) -> None:
        for module in [m for k, m in sys.modules.items()
                       if k == "creasegeom" or k.startswith("creasegeom.")]:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._patches.append((module, name, original, False))

    def _patch_method(self, cls, name, layer, **kw) -> None:
        original = cls.__dict__.get(name)
        if original is None:
            self.missing.add(f"{cls.__name__}.{name}")
            return
        setattr(cls, name, self.span(layer, original, **kw))
        self._patches.append((cls, name, original, False))

    def install(self) -> None:
        """Wrap every traced creasegeom function (the layer table in README.md)."""
        from creasegeom import cli, creases, curvature, oracle, quadrature, surfaces, verify
        from creasegeom import trimesh

        def wrap(module, name, layer, **kw):
            original = getattr(module, name, None)
            if original is None:
                self.missing.add(f"{module.__name__}.{name}")
                return
            self._patch_everywhere(original, self.span(layer, original, **kw))

        for name in _public_functions(surfaces):
            if name.startswith("gen_"):
                wrap(surfaces, name, "surfaces.gen", count=_count_vertices, memory=True)
        TriMesh = trimesh.TriMesh
        self._patch_method(TriMesh, "validate", "trimesh.validate", memory=True)
        self._patch_method(TriMesh, "boundary_vertex_mask", "trimesh.topology")
        self._patch_method(TriMesh, "euler_characteristic", "trimesh.topology")
        wrap(trimesh, "export_obj", "trimesh.export_obj", count=_count_export)
        wrap(trimesh, "load_obj", "trimesh.load_obj", count=_count_load, memory=True)
        wrap(oracle, "angle_defect", "oracle.angle_defect",
             count=_count_triangles, memory=True)
        wrap(oracle, "gauss_map_integrate", "oracle.gauss_map", count=_count_gauss_map)
        wrap(quadrature, "integrate", "quadrature.integrate", count=_count_evaluations)
        for module in (curvature, creases):
            for name in _public_functions(module):
                wrap(module, name, module.__name__.rsplit(".", 1)[1])
        suites = getattr(verify, "_SUITES", None)
        if suites is None:
            self.missing.add("creasegeom.verify._SUITES")
            suites = {}
        for suite_name, fn in list(suites.items()):
            wrapped = self.span(f"verify.{suite_name}", fn)
            suites[suite_name] = wrapped
            self._patches.append((suites, suite_name, fn, True))
        wrap(verify, "run_suite", "verify")
        wrap(cli, "main", "cli")

    def uninstall(self) -> None:
        for owner, name, original, is_item in reversed(self._patches):
            if is_item:
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._patches.clear()
