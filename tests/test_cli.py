import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest

from creasegeom import MeshError, __version__, cli, creases, load_obj, surfaces, trimesh
from creasegeom.cli import main


def run(argv):
    return main([str(a) for a in argv])


def test_version(capsys):
    with pytest.raises(SystemExit) as excinfo:
        run(["--version"])
    assert excinfo.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_generate_gore_sphere(tmp_path, capsys):
    out = tmp_path / "s.obj"
    assert run(["generate", "gore-sphere", "--n", 8, "--radius", 1,
                "--out", out]) == 0
    mesh = load_obj(out)
    assert len(mesh.crease_polylines) == 8
    sidecar = json.loads((tmp_path / "s.obj.json").read_text())
    assert sidecar["shape"] == "gore-sphere"
    assert sidecar["params"]["n"] == 8
    assert sidecar["version"] == __version__


def test_generate_tube_watertight_hoop(tmp_path, capsys):
    out = tmp_path / "t.obj"
    assert run(["generate", "tube", "--a", 1, "--alpha", math.pi / 4,
                "--strips", 12, "--out", out]) == 0
    mesh = load_obj(out)
    mesh.validate()
    assert len(mesh.crease_polylines) == 12


def test_generate_parameter_error_exit_2(tmp_path, capsys):
    out = tmp_path / "bad.obj"
    assert run(["generate", "tube", "--a", 1, "--alpha", 2.0,
                "--strips", 12, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_degrees_flag(tmp_path, capsys):
    out_rad = tmp_path / "rad.obj"
    out_deg = tmp_path / "deg.obj"
    assert run(["generate", "curved-crease", "--R", 2, "--mu", math.pi / 6,
                "--width", 0.3, "--out", out_rad]) == 0
    assert run(["generate", "curved-crease", "--R", 2, "--mu", 30, "--degrees",
                "--width", 0.3, "--out", out_deg]) == 0
    assert out_rad.read_bytes() == out_deg.read_bytes()


@pytest.mark.parametrize("degrees, radians", [
    ("--param alpha --range 10:20:3",
     f"--param alpha --range {math.radians(10)!r}:{math.radians(20)!r}:3"),
    ("--param h --range 0.01:0.08:8 --alpha 45",
     "--param h --range 0.01:0.08:8 --alpha 0.7853981633974483"),
], ids=["swept-angle", "context-angle"])
def test_sweep_degrees_flag(tmp_path, capsys, degrees, radians):
    csv_deg, csv_rad = tmp_path / "deg.csv", tmp_path / "rad.csv"
    assert run(["sweep", *degrees.split(), "--degrees", "--csv", csv_deg]) == 0
    assert run(["sweep", *radians.split(), "--csv", csv_rad]) == 0
    assert csv_deg.read_bytes() == csv_rad.read_bytes()


@pytest.fixture
def csv_rows(monkeypatch):
    """The rows of each CSV the CLI writes, as it passes them to _write_csv."""
    written, write = [], cli._write_csv

    def spy(path, rows):
        written.append(list(rows))
        write(path, written[-1])

    monkeypatch.setattr(cli, "_write_csv", spy)
    return written


def csv_writer_bytes(rows):
    text = io.StringIO(newline="")
    csv.writer(text).writerows(rows)
    return text.getvalue().encode("utf-8")


@pytest.mark.parametrize("argv, shows", [
    ("--param alpha --range 0:1.5:7", ""),
    ("--param alpha --range 10:80:5 --degrees", ""),
    ("--param h --range 0.001:0.3:6 --alpha 30 --degrees", ""),
    ("--param mu --range 0.1:1.2:4 --R 1e-8 --r 1e-9", "e-"),
    ("--param R --range 1:10:4", ""),
    ("--param r --range 0.001:0.4:4", ""),
    ("--param n --range 3:1e19:3", "\n10000000000000000000,"),
], ids=["alpha", "alpha-degrees", "h-degrees", "mu-exponents", "R", "r", "n-above-int64"])
def test_sweep_csv_bytes_equal_csv_writers(tmp_path, capsys, csv_rows, argv, shows):
    path = tmp_path / "s.csv"
    assert run(["sweep", *argv.split(), "--csv", path]) == 0
    [rows] = csv_rows
    assert path.read_bytes() == csv_writer_bytes(rows)
    assert shows in path.read_text()


def test_analyze_csv_bytes_equal_csv_writers(tmp_path, capsys, csv_rows):
    out = tmp_path / "t.obj"
    assert run(["generate", "tube", "--a", 1, "--alpha", 0.7, "--strips", 8,
                "--nu", 40, "--nv", 6, "--out", out]) == 0
    for source in (out, f"{out}.json"):
        path = tmp_path / "rates.csv"
        assert run(["analyze", "--in", source, "--report", tmp_path / "r.json",
                    "--csv", path]) == 0
        assert path.read_bytes() == csv_writer_bytes(csv_rows[-1])
        assert len(csv_rows[-1]) == 9  # the header and 8 creases
    assert len(csv_rows) == 2


ROUNDTRIP_ARGS = {
    "cylinder": ["--a", 1, "--alpha", 0.7, "--h", 0.1, "--nu", 40, "--nv", 6],
    "tube": ["--a", 1, "--alpha", 0.7, "--strips", 8, "--nu", 40, "--nv", 6],
    "twisted-patch": ["--kxy", 0.1, "--a-len", 1, "--b-len", 1, "--mu", 0.2,
                      "--nu", 30, "--nv", 30],
    "curved-crease": ["--R", 2, "--mu", math.pi / 6, "--width", 0.3, "--nu", 64, "--nv", 8],
    "mudguard": ["--R", 10, "--r", 0.1, "--mu", 0.2, "--nu", 64, "--nv", 16],
    "gore-sphere": ["--radius", 1, "--n", 8, "--nu", 24, "--nv", 4],
}


def test_analyze_sidecar_and_obj_agree(tmp_path, capsys):
    # OBJ stores 9 significant digits, so the two routes agree within the
    # bench's OBJ rounding bound, 2e-5 relative with a floor of 1
    def close(x):
        return pytest.approx(x, rel=2e-5, abs=2e-5)

    for shape, args in ROUNDTRIP_ARGS.items():
        out = tmp_path / f"{shape}.obj"
        assert run(["generate", shape, *args, "--out", out]) == 0
        rep_obj, rep_side = tmp_path / f"{shape}.obj.report", tmp_path / f"{shape}.side.report"
        assert run(["analyze", "--in", f"{out}.json", "--report", rep_side]) == 0
        b = json.loads(rep_side.read_text())
        if shape == "mudguard":  # no crease polylines: only the sidecar route measures it
            assert b["creases"] == {} and math.isfinite(b["total_defect"])
            assert run(["analyze", "--in", out, "--report", rep_obj]) == 3
            continue
        assert run(["analyze", "--in", out, "--report", rep_obj]) == 0
        a = json.loads(rep_obj.read_text())
        assert a["total_defect"] == close(b["total_defect"]), shape
        assert sorted(a["creases"]) == sorted(b["creases"]) != [], shape
        for cid, crease in b["creases"].items():
            for key in ("rate", "arc_length", "defect_total"):
                assert a["creases"][cid][key] == close(crease[key]), (shape, cid, key)
        if shape == "curved-crease":  # the sidecar route adds the closed form
            assert b["closed_forms"]["crease_specific_curvature"] == pytest.approx(0.5)
            assert b["creases"]["1"]["rate"] == pytest.approx(0.5, rel=1e-2)


CROSSING_CREASES_OBJ = """\
v 0 0 0
v 1 0 0
v 2 0 0
v 0 1 0
v 1 1 0.3
v 2 1 0
v 0 2 0
v 1 2 0
v 2 2 0
f 1 2 5
f 1 5 4
f 2 3 6
f 2 6 5
f 4 5 8
f 4 8 7
f 5 6 9
f 5 9 8
g crease_1
l 4 5 6
g crease_2
l 2 5 8
"""


def test_analyze_creases_sharing_a_vertex(tmp_path, capsys):
    # two creases cross at the lifted centre, the only non-boundary vertex:
    # its defect counts towards both creases and towards no interior density
    obj, report = tmp_path / "cross.obj", tmp_path / "cross.json"
    obj.write_text(CROSSING_CREASES_OBJ)
    assert run(["analyze", "--in", obj, "--report", report]) == 0
    data = json.loads(report.read_text())
    centre = data["total_defect"]
    assert centre == pytest.approx(0.25147687493752713, rel=1e-12)
    assert [c["defect_total"] for c in data["creases"].values()] == [centre, centre]
    assert data["creases"]["1"]["rate"] == data["creases"]["2"]["rate"]
    assert "interior_defect_density" not in data


def test_analyze_joins_crease_records_that_share_their_junction(tmp_path, capsys):
    obj = tmp_path / "crease.obj"
    assert run(["generate", "curved-crease", "--R", 2, "--mu", 0.5, "--width", 0.3,
                "--out", obj]) == 0
    capsys.readouterr()
    head, record = obj.read_text().rstrip("\n").rsplit("\n", 1)
    chain = record.split()[1:]
    middle = len(chain) // 2
    variants = {
        "whole": [chain],
        "split": [chain[:middle + 1], chain[middle:]],  # both records hold the middle vertex
        "edges": [chain[i:i + 2] for i in range(len(chain) - 1)],  # l 1 2, l 2 3, ...
        "doubled-back": [chain, chain[-2:-4:-1]],  # ends, then steps back over two vertices
    }
    outcomes = {}
    for name, records in variants.items():
        run_dir = tmp_path / name  # the same file names in each, for the reports
        run_dir.mkdir()
        path = run_dir / "crease.obj"
        path.write_text(head + "\n" + "".join(f"l {' '.join(r)}\n" for r in records))
        code = run(["analyze", "--in", path, "--report", run_dir / "report.json",
                    "--csv", run_dir / "vertices.csv"])
        captured = capsys.readouterr()
        outcomes[name] = (code, *(text.replace(str(run_dir), "") for text in captured), *(
            (run_dir / f).read_bytes() for f in ("report.json", "vertices.csv") if code == 0))
    assert outcomes["whole"][0] == 0
    assert outcomes["split"] == outcomes["edges"] == outcomes["whole"]
    code, _, err = outcomes["doubled-back"]
    assert code == 3 and "crease 1 polyline is self-intersecting" in err


def test_analyze_deterministic_reports(tmp_path, capsys):
    out = tmp_path / "g.obj"
    run(["generate", "gore-sphere", "--n", 6, "--radius", 1, "--out", out])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(["analyze", "--in", out, "--report", r1]) == 0
    assert run(["analyze", "--in", out, "--report", r2]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_analyze_sidecar_of_a_wide_strip_cylinder_lets_no_warning_escape(tmp_path, capsys):
    # h/a = 0.3: neither building the spec nor the closed-form summary warns
    out = tmp_path / "c.obj"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["generate", "cylinder", "--a", 1, "--alpha", 0.6, "--h", 0.3,
                    "--nu", 16, "--nv", 8, "--out", out]) == 0
        assert run(["analyze", "--in", f"{out}.json", "--report", tmp_path / "r.json"]) == 0
    assert [str(w.message) for w in caught] == []
    assert "closed_forms" in json.loads((tmp_path / "r.json").read_text())


def test_cylinder_spacing_adjustment_warns_once_per_command(tmp_path, capsys):
    # h sits between 8 and 9 lines per hoop: generate and the sidecar analyze
    # each build the mesh once, and each says once that the spacing moved
    out = tmp_path / "c.obj"
    h = 2 * math.pi * math.cos(0.4) / 8.45
    for argv in (["generate", "cylinder", "--a", 1, "--alpha", 0.4, "--h", h, "--nu", 16,
                  "--nv", 4, "--out", out],
                 ["analyze", "--in", f"{out}.json", "--report", tmp_path / "r.json"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv) == 0
        assert [(w.category, str(w.message).startswith("line spacing adjusted"))
                for w in caught] == [(UserWarning, True)]


def test_cylinder_sidecar_reports_no_crease_balance(tmp_path, capsys):
    # the cylinder's lines are not folds: its closed form is its Gaussian
    # curvature alone, and the tube's keeps the balance of strips and creases
    for shape, flags in (("cylinder", ["--h", 0.1]), ("tube", ["--strips", 8])):
        out = tmp_path / f"{shape}.obj"
        assert run(["generate", shape, "--a", 1, "--alpha", 0.7, *flags, "--nu", 64,
                    "--nv", 16, "--out", out]) == 0
        assert run(["analyze", "--in", f"{out}.json", "--report", tmp_path / "r.json"]) == 0
        closed = json.loads((tmp_path / "r.json").read_text())["closed_forms"]
        if shape == "cylinder":
            assert list(closed) == ["strip_gaussian_curvature"]
            assert abs(closed["strip_gaussian_curvature"]) <= 1e-15
        else:
            assert sorted(closed) == ["balance_residual", "crease_specific_curvature",
                                      "strip_gaussian_curvature", "strip_specific_curvature"]
            assert abs(closed["balance_residual"]) <= 1e-13 * closed["crease_specific_curvature"]


def test_analyze_gore_sphere_gauss_bonnet(tmp_path, capsys):
    out = tmp_path / "g.obj"
    run(["generate", "gore-sphere", "--n", 8, "--radius", 1,
         "--nu", 48, "--nv", 6, "--out", out])
    rep = tmp_path / "rep.json"
    csv_path = tmp_path / "rates.csv"
    assert run(["analyze", "--in", out, "--report", rep, "--csv", csv_path]) == 0
    report = json.loads(rep.read_text())
    assert report["total_defect"] == pytest.approx(4 * math.pi, abs=1e-9)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "crease_id,rate,arc_length,defect_total"
    assert len(lines) == 9


def test_analyze_untagged_obj_exit_3(tmp_path, capsys):
    out = tmp_path / "m.obj"
    run(["generate", "mudguard", "--R", 10, "--r", 0.1, "--mu", 0.2,
         "--out", out])
    assert run(["analyze", "--in", out]) == 3
    assert "sidecar" in capsys.readouterr().err
    # but the sidecar route works
    assert run(["analyze", "--in", tmp_path / "m.obj.json"]) == 0


def test_analyze_missing_file_exit_3(tmp_path, capsys):
    assert run(["analyze", "--in", tmp_path / "nope.obj"]) == 3


@pytest.mark.parametrize("argv", [
    ["generate", "tube", "--a", 1, "--alpha", 0.7, "--strips", 6, "--nu", 8, "--nv", 4, "--out"],
    ["analyze", "--in", "t.obj.json", "--report"],
    ["analyze", "--in", "t.obj", "--csv"],
    ["sweep", "--param", "alpha", "--range", "0.1:1:5", "--csv"],
    ["verify", "--suite", "mohr", "--json"],
], ids=["generate-out", "analyze-report", "analyze-csv", "sweep-csv", "verify-json"])
def test_unwritable_output_path_exit_3(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(["generate", "tube", "--a", 1, "--alpha", 0.7, "--strips", 6,
                "--nu", 8, "--nv", 4, "--out", "t.obj"]) == 0
    capsys.readouterr()
    assert run(argv + [os.path.join("missing", "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert os.path.join("missing", "out") in err


@pytest.mark.parametrize("face", ["f 1 2 9", "f -3 -2 -1", "f 0 1 2"])
def test_analyze_out_of_range_obj_index_exit_3(tmp_path, capsys, face):
    path = tmp_path / "x.obj"
    path.write_text(f"v 0 0 0\nv 1 0 0\nv 0 1 0\n{face}\ng crease_1\nl 1 2\n")
    assert run(["analyze", "--in", path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "x.obj:4: face index out of range" in err


def test_verify_fast_suites(tmp_path, capsys):
    report = tmp_path / "verify.json"
    assert run(["verify", "--suite", "tube-balance", "--json", report]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    payload = json.loads(report.read_text())
    assert payload["suite"] == "tube-balance"
    assert all(r["passed"] for r in payload["reports"])
    assert run(["verify", "--suite", "mohr"]) == 0
    assert run(["verify", "--suite", "gore"]) == 0


def test_sweep_alpha_extremum(tmp_path, capsys):
    csv_path = tmp_path / "alpha.csv"
    assert run(["sweep", "--param", "alpha", "--range", "0.1:1.47:41",
                "--csv", csv_path]) == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    values = {float(r[0]): abs(float(r[1])) for r in rows}
    best = max(values, key=values.get)
    assert best == pytest.approx(math.pi / 4, abs=0.05)
    assert values[best] == pytest.approx(0.05 / 4, rel=1e-2)


def test_sweep_h_balances_exactly(tmp_path, capsys):
    csv_path = tmp_path / "h.csv"
    assert run(["sweep", "--param", "h", "--range", "0.01:0.3:30",
                "--csv", csv_path]) == 0
    header, *lines = csv_path.read_text().splitlines()
    assert header == "h,strip_term,crease_term,residual,relative_residual"
    rows = [[float(x) for x in line.split(",")] for line in lines]
    assert len(rows) == 30 and rows[-1][0] == 0.3
    for h, strip, crease, residual, relative in rows:
        assert strip < 0.0 < crease and residual == strip + crease
        assert abs(relative) <= 1e-13


def test_sweep_n_monotone(tmp_path, capsys):
    csv_path = tmp_path / "n.csv"
    assert run(["sweep", "--param", "n", "--range", "4:64:13",
                "--csv", csv_path]) == 0
    rows = [list(map(float, line.split(",")))
            for line in csv_path.read_text().splitlines()[1:]]
    # each seam's share 4*pi/n falls as n grows; the n seams keep 4*pi
    seams = [seam for _, _, seam in rows]
    assert seams == sorted(seams, reverse=True) and len(set(seams)) == len(seams)
    assert all(total == pytest.approx(4 * math.pi, rel=1e-15) for _, total, _ in rows)


def test_sweep_bad_range_exit_2(tmp_path, capsys):
    assert run(["sweep", "--param", "h", "--range", "oops",
                "--csv", tmp_path / "x.csv"]) == 2


@pytest.mark.parametrize("text", ["nan:1:5", "0:inf:5", "0.1:1e308:3", "-1e308:1e308:4"])
@pytest.mark.parametrize("param", sorted(cli.SWEEPS))
def test_sweep_non_finite_range_exit_2(tmp_path, capsys, param, text):
    csv_path = tmp_path / "x.csv"
    assert run(["sweep", "--param", param, f"--range={text}", "--csv", csv_path]) == 2
    assert "range" in assert_one_line_error(capsys)
    assert not csv_path.exists()


def test_sweep_step_cap_exit_2_before_any_value(tmp_path, capsys):
    import tracemalloc

    for steps in (cli._MAX_SWEEP_STEPS + 1, 10**8):
        tracemalloc.start()
        try:
            code = run(["sweep", "--param", "alpha", "--range", f"0:1:{steps}",
                        "--csv", tmp_path / "x.csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert f"steps <= {cli._MAX_SWEEP_STEPS}" in assert_one_line_error(capsys)
        assert peak < 400_000  # the cap's value list alone would take about 3 MB


def test_sweep_n_above_int64_keeps_exact_gore_counts(tmp_path, capsys):
    csv_path = tmp_path / "n.csv"
    assert run(["sweep", "--param", "n", "--range", "3:1e19:3", "--csv", csv_path]) == 0
    rows = csv_path.read_text().splitlines()[1:]
    # each seam carries 4*pi/n exactly; n seams carry 4*pi to rounding
    assert rows == [
        "3,12.566370614359172,4.1887902047863905",
        "5000000000000000000,12.566370614359172,2.5132741228718344e-18",
        "10000000000000000000,12.566370614359172,1.2566370614359172e-18",
    ]
    for row in rows:
        n, total, seam = row.split(",")
        assert float(seam) == 4 * math.pi / int(n)
        assert float(total) == pytest.approx(4 * math.pi, rel=1e-15)


@pytest.mark.parametrize("param, text", [("n", "3:2002:2000"), ("mu", "0.05:1.05:2000")])
def test_quadrature_sweep_batches_its_rows(tmp_path, capsys, monkeypatch, param, text):
    # 4,000 integrand calls when each row runs its own quadrature; one
    # batched call makes one per Gauss-Legendre rule.  The gore seams' 4*pi/n
    # is a closed form, so the `n` sweep makes none.
    from creasegeom import quadrature

    calls = 0
    integrate = quadrature.integrate

    def counting(f, *args, **kwargs):
        def counted(*a):
            nonlocal calls
            calls += 1
            return f(*a)
        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counting)
    assert run(["sweep", "--param", param, "--range", text,
                "--csv", tmp_path / "x.csv"]) == 0
    assert calls == (0 if param == "n" else 2)


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_generate_missing_flag_exit_2(tmp_path, capsys):
    out = tmp_path / "t.obj"
    assert run(["generate", "tube", "--a", 1, "--out", out]) == 2
    assert "tube needs --alpha, --strips" in assert_one_line_error(capsys)
    assert not out.exists()


def tube_sidecar(tmp_path):
    out = tmp_path / "t.obj"
    assert run(["generate", "tube", "--a", 1, "--alpha", 0.7, "--strips", 6,
                "--nu", 8, "--nv", 4, "--out", out]) == 0
    return tmp_path / "t.obj.json"


@pytest.mark.parametrize("edit, message", [
    (lambda s: s.update(shape="cone"), "unknown shape 'cone'"),
    (lambda s: s["params"].pop("nu"), "tube needs 'nu'"),
    (lambda s: s["params"].update(strips="12"), "'strips' must be int, got '12'"),
])
def test_analyze_bad_sidecar_exit_3(tmp_path, capsys, edit, message):
    path = tube_sidecar(tmp_path)
    sidecar = json.loads(path.read_text())
    edit(sidecar)
    path.write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert run(["analyze", "--in", path]) == 3
    err = assert_one_line_error(capsys)
    assert "t.obj.json" in err and message in err


def test_analyze_short_vertex_record_exit_3(tmp_path, capsys):
    path = tmp_path / "x.obj"
    path.write_text("v 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\ng crease_1\nl 1 2\n")
    assert run(["analyze", "--in", path]) == 3
    assert "x.obj:1: a vertex needs 3 coordinates" in assert_one_line_error(capsys)


def truncated_sidecar(tmp_path):
    path = tube_sidecar(tmp_path)
    path.write_text(path.read_text()[:40])
    return path


def utf16_obj(tmp_path):
    path = tmp_path / "x.obj"
    path.write_bytes(b"\xff\xfev 0 0 0\n")
    return path


@pytest.mark.parametrize("make", [truncated_sidecar, utf16_obj, lambda p: p],
                         ids=["truncated-sidecar", "utf16-obj", "directory"])
def test_analyze_unreadable_input_exit_3(tmp_path, capsys, make):
    path = make(tmp_path)
    capsys.readouterr()
    assert run(["analyze", "--in", path]) == 3
    assert path.name in assert_one_line_error(capsys)


TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"


@pytest.mark.parametrize("records, message", [
    ("v 0 1 1e999\nf 1 2 3\n", "x.obj:4: non-finite coordinate"),
    ("v 0 1 0.5.5\nf 1 2 3\n", "x.obj:4: could not convert string to float: '0.5.5'"),
    ("f 1 2 99999999999999999999\n", "x.obj:4: face index out of range 1..3"),
    ("f 1 2 3x\n", "x.obj:4: invalid literal for int() with base 10: '3x'"),
    ("f 1 2 3\ng crease_1\nl 1 99999999999999999999\n",
     "x.obj:6: polyline index out of range 1..3"),
    ("f 1 2 3\ng crease_1\nl 1 2e0\n", "x.obj:6: invalid literal for int() with base 10: '2e0'"),
], ids=["v-overflow", "v-not-a-number", "f-overflow", "f-not-a-number",
        "l-overflow", "l-not-a-number"])
def test_analyze_malformed_obj_number_exit_3(tmp_path, capsys, records, message):
    path = tmp_path / "x.obj"
    path.write_text(TRIANGLE + records + "g crease_1\nl 1 2\n")
    assert run(["analyze", "--in", path]) == 3
    assert message in assert_one_line_error(capsys)


@pytest.mark.parametrize("records, message", [
    ("v 1 1 0\nf 1 2 3\nf 1 2 3\n", "inconsistent winding"),
    ("v 0 -1 0\nv 0 0 1\nf 1 2 3\nf 2 1 4\nf 1 2 5\n", "non-manifold edge"),
    ("v 2 0 0\nf 1 2 4\nf 1 3 2\n", "degenerate triangle"),
    ("f 1 2 3\n", "crease 1 has no non-boundary vertices"),
], ids=["mis-wound", "non-manifold", "degenerate", "one-triangle"])
def test_analyze_broken_obj_geometry_exit_3(tmp_path, capsys, records, message):
    path = tmp_path / "x.obj"
    path.write_text(TRIANGLE + records + "g crease_1\nl 1 2\n")
    assert run(["analyze", "--in", path]) == 3
    err = assert_one_line_error(capsys)
    assert f"error: {path}: " in err and message in err


def test_analyze_obj_whose_areas_overflow_exit_3(tmp_path, capsys):
    path = tmp_path / "huge.obj"
    path.write_text("v 0 0 0\nv 1e300 0 0\nv 0 1e300 0\nv 1e300 1e300 1e299\n"
                    "f 1 2 3\nf 2 4 3\ng crease_1\nl 2 3\n")
    assert run(["analyze", "--in", path]) == 3
    assert "triangle 0 has a non-finite area" in assert_one_line_error(capsys)


@pytest.mark.parametrize("flags, message", [
    ("cylinder --a=1e300 --alpha=0.7 --h=1e299", "tube radius a must be finite and at most"),
    ("tube --a=1e300 --alpha=0.7 --strips=6", "tube radius a must be finite and at most"),
    ("curved-crease --R=1e300 --mu=0.2 --width=1e299", "crease radius R must be finite"),
    ("mudguard --R=1e300 --r=1e299 --mu=0.2", "sweep radius R must be finite"),
    ("gore-sphere --radius=1e300 --n=6", "seam radius R must be finite"),
    ("twisted-patch --kxy=nan --a-len=1 --b-len=1 --mu=0.1", "kxy must be finite, got nan"),
    ("twisted-patch --kxy=-inf --a-len=1 --b-len=1 --mu=0.1", "kxy must be finite, got -inf"),
    ("twisted-patch --kxy=1 --a-len=nan --b-len=1 --mu=0.1", "must be positive, got nan, 1.0"),
    ("twisted-patch --kxy=1 --a-len=1 --b-len=nan --mu=0.1", "must be positive, got 1.0, nan"),
    ("twisted-patch --kxy=1 --a-len=inf --b-len=1 --mu=0.1", "patch side a_len must be finite"),
    ("twisted-patch --kxy=1 --a-len=1 --b-len=1e300 --mu=0.1", "patch side b_len must be finite"),
    ("twisted-patch --kxy=1e300 --a-len=1 --b-len=1 --mu=0.1", "patch corner height"),
], ids=["cylinder-a", "tube-a", "curved-crease-R", "mudguard-R", "gore-sphere-radius",
        "kxy-nan", "kxy-inf", "a_len-nan", "b_len-nan", "a_len-inf", "b_len-huge",
        "height-huge"])
def test_generate_overflowing_parameters_exit_2_before_the_kernel(tmp_path, capsys,
                                                                  flags, message):
    out = tmp_path / "x.obj"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["generate", *flags.split(), "--nu=8", "--nv=4", f"--out={out}"]) == 2
    assert message in assert_one_line_error(capsys)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


TINY_LENGTH_FLAGS = {  # L is the shape's smallest length; each flag set accepts 1e-50
    "cylinder": ("--a={L} --alpha=0.6 --h={L}", "tube radius a"),
    "tube": ("--a={L} --alpha=0.7 --strips=6", "tube radius a"),
    "twisted-patch": ("--kxy=0 --a-len={L} --b-len=1e-49 --mu=0.1", "patch side a_len"),
    "curved-crease": ("--R=1e-49 --mu=0.2 --width={L}", "strip width"),
    "mudguard": ("--R=1e-49 --r={L} --mu=0.2", "arc radius r"),
    "gore-sphere": ("--radius={L} --n=6", "seam radius R"),
}


@pytest.mark.parametrize("shape", sorted(TINY_LENGTH_FLAGS))
def test_generate_accepts_min_length_and_refuses_less_with_exit_2(tmp_path, capsys, shape):
    flags, name = TINY_LENGTH_FLAGS[shape]
    out = tmp_path / "x.obj"
    assert run(["generate", shape, *flags.format(L="1e-50").split(), "--nu=8", "--nv=4",
                f"--out={out}"]) == 0
    assert run(["analyze", "--in", f"{out}.json", f"--report={tmp_path / 'r.json'}"]) == 0
    out.unlink()
    capsys.readouterr()
    assert run(["generate", shape, *flags.format(L="1e-51").split(), "--nu=8", "--nv=4",
                f"--out={out}"]) == 2
    assert assert_one_line_error(capsys) == f"error: {name} must be at least 1e-50, got 1e-51\n"
    assert not out.exists()


def test_generate_tube_with_a_below_min_length_names_a(tmp_path, capsys):
    out = tmp_path / "x.obj"
    assert run(["generate", "tube", "--a=1e-300", "--alpha=0.7", "--strips=6", "--nu=8",
                "--nv=4", f"--out={out}"]) == 2
    assert assert_one_line_error(capsys) == "error: tube radius a must be at least 1e-50, got 1e-300\n"


# Each length-bearing spec field: generate flags and sweep arguments that set
# it to {L}, every other length in range, and its name in the message.
SPEC_LENGTHS = {
    "TubeSpec.a": ("cylinder --a={L} --alpha=0.6 --h=0.01", "h --range=0.01:0.02:2 --a={L}",
                   "tube radius a"),
    "TubeSpec.h": ("cylinder --a=1 --alpha=0.6 --h={L}", "alpha --range=0.1:0.2:2 --h={L}",
                   "strip width h"),
    "CreaseSpec.R": ("curved-crease --R={L} --mu=0.2 --width=0.1",
                     "mu --range=0.1:0.2:2 --R={L}", "crease radius R"),
    "MudguardSpec.R": ("mudguard --R={L} --r=0.1 --mu=0.2", "r --range=0.01:0.02:2 --R={L}",
                       "sweep radius R"),
    "MudguardSpec.r": ("mudguard --R=10 --r={L} --mu=0.2", "mu --range=0.1:0.2:2 --r={L}",
                       "arc radius r"),
    "GoreSphereSpec.R": ("gore-sphere --radius={L} --n=6", "n --range=3:5:3 --R={L}",
                         "seam radius R"),
}


@pytest.mark.parametrize("field, value", [
    (field, value) for field in SPEC_LENGTHS for value in (1e-60, 1e60)
])
def test_spec_lengths_are_refused_alike_by_generate_sidecar_and_sweep(tmp_path, capsys,
                                                                      field, value):
    gen_flags, sweep_args, name = SPEC_LENGTHS[field]
    limit = "1e-50 a = 1e-50" if field == "TubeSpec.h" else "1e-50"  # h's is relative to a = 1
    message = (f"{name} must be at least {limit}, got {value}" if value < 1
               else f"{name} must be finite and at most 1e+50, got {value}")
    shape, *flags = gen_flags.format(L=value).split()
    out = tmp_path / "x.obj"
    assert run(["generate", shape, *flags, "--nu=8", "--nv=4", f"--out={out}"]) == 2
    assert assert_one_line_error(capsys) == f"error: {message}\n"
    assert not out.exists()

    params = {"nu": 8, "nv": 4}
    for flag in flags:
        key, text = flag[2:].split("=")
        params[key] = cli.PARAMS[key][0](text)
    sidecar = tmp_path / "x.obj.json"
    sidecar.write_text(json.dumps({"tool": "creasegeom", "shape": shape, "params": params}))
    assert run(["analyze", "--in", sidecar]) == 3
    assert assert_one_line_error(capsys) == f"error: {sidecar}: {message}\n"

    csv_path = tmp_path / "x.csv"
    assert run(["sweep", "--param", *sweep_args.format(L=value).split(),
                f"--csv={csv_path}"]) == 2
    assert assert_one_line_error(capsys) == f"error: {message}\n"
    assert not csv_path.exists()


# A gore seam's radius runs from R cos(pi/n) to R / cos^2(pi/n), R/2 to 4R at
# n = 3, so at the length limits the seam's crease passes the limits that a
# CreaseSpec checks on input; input past them is still refused.
def test_gore_seam_crease_at_the_length_limits_and_crease_input_past_them(tmp_path, capsys):
    theta = np.arange(9) * math.pi / 8 - math.pi / 2
    for R in (1e-50, 1e50):
        for n in (3, 6):
            spec, unit = surfaces.GoreSphereSpec(R, n), surfaces.GoreSphereSpec(1.0, n)
            law = creases.crease_law(*creases.gore_seam(spec, theta))
            at_unit = creases.crease_law(*creases.gore_seam(unit, theta))
            assert law == pytest.approx(at_unit / R, rel=1e-15, abs=0.0)
    assert 1.0 / creases.gore_seam(surfaces.GoreSphereSpec(1e50, 3), 1.5)[0] > 1e50
    assert 1.0 / creases.gore_seam(surfaces.GoreSphereSpec(1e-50, 3), 0.0)[0] < 1e-50

    out, csv_path = tmp_path / "x.obj", tmp_path / "x.csv"
    assert run(["generate", "curved-crease", "--R=1e51", "--mu=0.2", "--width=0.1",
                "--nu=8", "--nv=4", f"--out={out}"]) == 2
    assert assert_one_line_error(capsys) == (
        "error: crease radius R must be finite and at most 1e+50, got 1e+51\n")
    assert run(["sweep", "--param=R", "--range=1e49:1e51:3", f"--csv={csv_path}"]) == 2
    assert assert_one_line_error(capsys) == (
        "error: crease radius R must be finite and at most 1e+50, got 5.05e+50\n")
    assert not out.exists() and not csv_path.exists()


# h's lower limit is 1e-50 a, not MIN_LENGTH: a tube of radius 1e-50 closes
# with narrower strips, and a / h at most 1e50 keeps a cylinder's line count
# finite.  An h sweep that starts below it is refused before any row.
def test_sweep_refuses_h_below_its_limit_relative_to_a(tmp_path, capsys):
    csv_path = tmp_path / "x.csv"
    assert run(["sweep", "--param", "h", "--range=1e-60:1e-3:2", f"--csv={csv_path}"]) == 2
    assert assert_one_line_error(capsys) == (
        "error: strip width h must be at least 1e-50 a = 1e-50, got 1e-60\n")
    assert not csv_path.exists()


@pytest.mark.parametrize("args", ["alpha --range=0.1:0.2:2 --h=1e-100",
                                  "h --range=1e-100:1e-51:2"])
def test_sweep_takes_h_down_to_its_limit_at_the_smallest_radius(tmp_path, args):
    csv_path = tmp_path / "x.csv"
    assert run(["sweep", "--param", *args.split(), "--a=1e-50", f"--csv={csv_path}"]) == 0
    assert len(csv_path.read_text().splitlines()) == 3


@pytest.mark.parametrize("flags, message", [
    ("--R=1e-60 --r=1e-61", "crease radius R must be at least 1e-50, got 1e-60"),
], ids=["spec"])
def test_sweep_mu_at_tiny_radii_exits_2(tmp_path, capsys, flags, message):
    csv_path = tmp_path / "mu.csv"
    assert run(["sweep", "--param=mu", "--range=0.1:1.2:2", *flags.split(),
                f"--csv={csv_path}"]) == 2
    assert assert_one_line_error(capsys) == f"error: {message}\n"
    assert not csv_path.exists()


def test_sweep_mu_at_tiny_radii_writes_rows(tmp_path, capsys):
    # in range, with an integrand of about 1e8: the quadrature's error is
    # relative to it, so these rows match the closed form as R = 10 does
    csv_path = tmp_path / "mu.csv"
    assert run(["sweep", "--param=mu", "--range=0.1:1.2:2", "--R=1e-8", "--r=1e-9",
                f"--csv={csv_path}"]) == 0
    rows = [row.split(",") for row in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == 2
    for _, _, closed, _, residual in rows:
        assert abs(float(residual) / float(closed)) <= 1e-8


def test_analyze_sidecar_mesh_error_stays_exit_2(tmp_path, capsys, monkeypatch):
    path = tube_sidecar(tmp_path)

    def broken(mesh):
        raise MeshError("generator fault")

    monkeypatch.setattr(cli.oracle, "angle_defect", broken)
    capsys.readouterr()
    assert run(["analyze", "--in", path]) == 2
    assert "generator fault" in assert_one_line_error(capsys)


def test_resolution_cap_exit_codes(tmp_path, capsys, monkeypatch):
    sidecar = tube_sidecar(tmp_path)  # 6 strips at nu=8, nv=4: 204 vertices
    monkeypatch.setattr(surfaces, "MAX_VERTICES", 100)
    capsys.readouterr()
    out = tmp_path / "big.obj"
    assert run(["generate", "tube", "--a", 1, "--alpha", 0.7, "--strips", 6,
                "--nu", 8, "--nv", 4, "--out", out]) == 2
    assert "over the limit of 100" in assert_one_line_error(capsys)
    assert not out.exists()
    # the narrowest strips TubeSpec takes, h = 1e-50 a, give 4.81e50 lines,
    # refused before round() sees them
    assert run(["generate", "cylinder", "--a=1e50", "--alpha=0.7", "--h=1",
                "--out", out]) == 2
    assert "4.81e+50 lines, over the limit of 100" in assert_one_line_error(capsys)
    assert run(["analyze", "--in", sidecar]) == 3
    err = assert_one_line_error(capsys)
    assert "t.obj.json" in err and "over the limit of 100" in err


def test_analyze_sorts_edges_once(tmp_path, capsys, monkeypatch):
    out = tmp_path / "g.obj"
    assert run(["generate", "gore-sphere", "--n", 6, "--radius", 1,
                "--nu", 8, "--nv", 3, "--out", out]) == 0
    calls = []
    topology = trimesh._edge_topology

    def counted(*args):
        calls.append(1)
        return topology(*args)

    monkeypatch.setattr(trimesh, "_edge_topology", counted)
    report = tmp_path / "r.json"
    assert run(["analyze", "--in", out, "--report", report]) == 0
    assert len(calls) == 1
    assert json.loads(report.read_text())["mesh"]["euler_characteristic"] == 2


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_exits_141_quietly(tmp_path, capsys, monkeypatch):
    sidecar = tube_sidecar(tmp_path)
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert run(["analyze", "--in", tmp_path / "t.obj"]) == 141
    assert run(["analyze", "--in", sidecar]) == 141
    assert capsys.readouterr().err == ""
    assert run(["analyze", "--in", tmp_path / "missing.obj"]) == 3  # input still 3
    assert "missing.obj" in assert_one_line_error(capsys)


def test_closed_stdout_pipe_in_a_subprocess(tmp_path, capsys):
    # the shell's `creasegeom analyze --in t.obj | true`: the reader is gone
    # before the report is written, and the interpreter's exit stays quiet;
    # stdout is block-buffered, as it is for a pipe unless PYTHONUNBUFFERED
    tube_sidecar(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        for argv in (["analyze", "--in", "t.obj"], ["generate", "gore-sphere", "--n", "6",
                                                    "--radius", "1", "--out", "g.obj"]):
            proc = subprocess.run(
                [sys.executable, "-m", "creasegeom.cli", *argv], cwd=tmp_path, env=env,
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (141, ""), argv
    finally:
        os.close(write_end)


@pytest.mark.parametrize("target", ["/dev/full", "closed-pipe"])
def test_unwritable_stderr_keeps_exit_3(tmp_path, target):
    # `creasegeom analyze --in bad.obj 2>/dev/full` (or `2>&1 | true`) under
    # `python -m` and as the console script calls main(): the message cannot
    # be written, yet the exit code stays 3 and the interpreter's exit is quiet
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full on this system")
    (tmp_path / "bad.obj").write_text("v 0 0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    if target == "/dev/full":
        stderr = os.open(target, os.O_WRONLY)
    else:
        read_end, stderr = os.pipe()
        os.close(read_end)
    try:
        for entry in (["-m", "creasegeom.cli"],
                      ["-c", "import sys; from creasegeom.cli import main; sys.exit(main())"]):
            proc = subprocess.run(
                [sys.executable, *entry, "analyze", "--in", "bad.obj"], cwd=tmp_path,
                env=env, stdout=subprocess.PIPE, stderr=stderr, text=True, timeout=120,
            )
            assert (proc.returncode, proc.stdout) == (3, ""), entry
    finally:
        os.close(stderr)


try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:
    HAVE_HYPOTHESIS = False

# A valid, analyzable OBJ: a square fan around vertex 5 with crease 1 on a diagonal.
FUZZ_OBJ = (b"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0.5 0.5 0.1\n"
            b"f 1 2 5\nf 2 3 5\nf 3 4 5\nf 4 1 5\ng crease_1\nl 1 5 3\n")


if HAVE_HYPOTHESIS:  # mutated OBJ bytes through main()
    @settings(max_examples=100, deadline=None)
    @given(edits=st.lists(
        st.tuples(st.integers(0, len(FUZZ_OBJ)), st.sampled_from(["insert", "replace", "delete"]),
                  st.sampled_from(list(b"0123456789 \t\r\n/#vfgl-+.e\xff"))),
        max_size=6,
    ))
    def test_analyze_mutated_obj_exits_0_or_3(tmp_path_factory, edits):
        data = bytearray(FUZZ_OBJ)
        for pos, op, byte in edits:
            span = slice(pos, pos) if op == "insert" else slice(pos, pos + 1)
            data[span] = b"" if op == "delete" else bytes([byte])
        path = tmp_path_factory.getbasetemp() / "fuzz.obj"
        path.write_bytes(bytes(data))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(["analyze", "--in", path])
        assert code in (0, 3)
        if code == 3:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


# A small sidecar of each shape, as generate writes it.
FUZZ_SIDECARS = {
    shape: (json.dumps({"obj": f"{shape}.obj", "params": {**params, "nu": 8, "nv": 4},
                        "shape": shape, "tool": "creasegeom", "version": __version__},
                       indent=2, sort_keys=True) + "\n").encode()
    for shape, params in {
        "cylinder": {"a": 1.0, "alpha": 0.7, "h": 0.2},
        "tube": {"a": 1.0, "alpha": 0.7, "strips": 6},
        "twisted-patch": {"kxy": 0.1, "a_len": 1.0, "b_len": 1.0, "mu": 0.2},
        "curved-crease": {"R": 2.0, "mu": 0.5, "width": 0.3},
        "mudguard": {"R": 2.0, "r": 0.1, "mu": 0.6},
        "gore-sphere": {"radius": 1.0, "n": 6},
    }.items()
}


def run_quietly(argv):
    """(exit code, stderr) of main(argv); failures must be one `error:` line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return code


if HAVE_HYPOTHESIS:  # mutated sidecar bytes and random generate flags through main()
    @settings(max_examples=100, deadline=None)
    @given(shape=st.sampled_from(sorted(FUZZ_SIDECARS)), edits=st.lists(
        st.tuples(st.integers(0, 200), st.sampled_from(["insert", "replace", "delete"]),
                  st.sampled_from(list(b'0123456789 \n",:{}[]-+.eE\xff'))),
        max_size=6,
    ))
    def test_analyze_mutated_sidecar_exits_0_2_or_3(tmp_path_factory, shape, edits):
        data = bytearray(FUZZ_SIDECARS[shape])
        for pos, op, byte in edits:
            pos %= len(data) + 1
            span = slice(pos, pos) if op == "insert" else slice(pos, pos + 1)
            data[span] = b"" if op == "delete" else bytes([byte])
        path = tmp_path_factory.getbasetemp() / "fuzz.obj.json"
        path.write_bytes(bytes(data))
        # a digit inserted into a size can ask for millions of vertices; a
        # lower cap keeps each mesh small and sends those to the cap's check.
        # A digit inserted into h ("h":10.2) gives a valid cylinder whose
        # spacing must move to close the hoop, which warns as documented.
        with unittest.mock.patch.object(surfaces, "MAX_VERTICES", 20_000), \
                warnings.catch_warnings():
            warnings.filterwarnings("ignore", "line spacing adjusted", UserWarning)
            run_quietly(["analyze", "--in", path])

    # Flag values: valid, invalid and extreme.  Counts and resolutions are
    # 3..48 or over the vertex cap, so every mesh built is small; float
    # lengths keep a cylinder's line count a / h below 10 unless one is extreme.
    FUZZ_FLOATS = st.sampled_from([-1.0, 0.0, 1e-300, 0.25, 0.7, 1.0, 2.0, 1e300,
                                   math.inf, -math.inf, math.nan])
    FUZZ_SIZES = st.one_of(st.integers(3, 48), st.sampled_from([10**7, 10**9]))

    @settings(max_examples=60, deadline=None)
    @given(shape=st.sampled_from(sorted(cli.SHAPES)), degrees=st.booleans(),
           flags=st.fixed_dictionaries({}, optional={
               name: FUZZ_SIZES if kind is int else FUZZ_FLOATS
               for name, (kind, _) in cli.PARAMS.items()
           }))
    def test_generate_random_flags_exits_0_2_or_3(tmp_path_factory, shape, degrees, flags):
        out = tmp_path_factory.getbasetemp() / "fuzz-gen.obj"
        argv = ["generate", shape, f"--out={out}", *(["--degrees"] if degrees else [])]
        argv += [f"{cli._flag(name)}={value}" for name, value in flags.items()]
        with warnings.catch_warnings():  # random cylinders may need their spacing adjusted
            warnings.filterwarnings("ignore", "line spacing adjusted", UserWarning)
            run_quietly(argv)
