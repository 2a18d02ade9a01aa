"""Write every output of the creasegeom command line into one directory, so
that two source trees can be compared byte for byte:

    PYTHONPATH=src python tools/cli_outputs.py OUTDIR
    diff -r OUTDIR_A OUTDIR_B

Each command runs as its own `python -m creasegeom.cli` process, from the
creasegeom that this script imports, with OUTDIR as its working directory
(so no output names an absolute path).  It runs `verify --suite all --json`;
`generate` of all six shapes at two resolutions, of one tube of many
mesh-kernel blocks and of two meshes with exponent-form coordinates, each
followed by `analyze` of the OBJ and of the JSON sidecar (report and CSV);
`analyze` of that tube's OBJ with comments breaking its runs of `v` and `f`
lines around each OBJ load block boundary, of two copies with a face
index that int32 cannot hold (refused with exit 3), of a copy with one
face record indented (which sends it to the record-by-record parser), and of
a copy with its face records in a seeded random order (no generator writes
such a mesh, and the kernel's per-vertex sums depend on triangle order);
`sweep` of every parameter, of alpha in degrees, of mu and n over 2,500
values (mu's a batch of 2,500 integrals, n's closed forms), of mu at tiny
radii and of n near 1e9; a few inputs that must
be refused, whose stderr and exit code are the output; and `--version` and
every `--help`.
Beside each command's files it writes NAME.stdout, NAME.stderr and NAME.exit.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import creasegeom

SHAPES = {
    "cylinder": "--a 1 --alpha 0.7 --h 0.1",
    "tube": "--a 1 --alpha 0.7 --strips 8",
    "twisted-patch": "--kxy 0.1 --a-len 1 --b-len 1 --mu 0.2",
    "curved-crease": "--R 2 --mu 0.5 --width 0.3",
    "mudguard": "--R 10 --r 0.1 --mu 0.2",
    "gore-sphere": "--radius 1 --n 8",
}

# The second resolution is odd, where some generators round up to even.
RESOLUTIONS = {"default": "", "odd": "--nu 9 --nv 5"}

# Meshes of many mesh-kernel blocks (8,192 triangles each): this tube has
# 122,880 triangles, so the kernel sums across 15 blocks.
LARGE = {"tube-blocks": "tube --a 1 --alpha 0.7 --strips 8 --nu 512 --nv 16"}

# Meshes whose coordinates `%.9g` writes in exponent form (|x| < 1e-4 or
# >= 1e9), which the OBJ writer formats one value at a time.
EXPONENT_FORM = {
    "twisted-patch-tiny": "twisted-patch --kxy 0.1 --a-len 1e-5 --b-len 1e-5 --mu 0.2 "
                          "--nu 9 --nv 5",
    "mudguard-huge": "mudguard --R 2e9 --r 2e7 --mu 0.2 --nu 9 --nv 5",
}

# load_obj parses `v` and `f` lines in blocks of this many (trimesh._LOAD_BLOCK).
LOAD_BLOCK = 1 << 13

# Rewrites (first index a, rest of the record) -> record of one face in the
# second load block: two first indices that int32 cannot hold (a + 2**32
# narrows back to a itself), and an indent.
FACE_REWRITES = {"index-plus-2-32": lambda a, rest: b"f %d %s" % (int(a) + 2**32, rest),
                 "2-31": lambda a, rest: b"f %d %s" % (2**31, rest),
                 "indented": lambda a, rest: b" f %s %s" % (a, rest)}

SWEEPS = {
    "alpha": "--param alpha --range 0.1:1.4:50",
    "alpha-degrees": "--param alpha --range 5:80:16 --degrees",
    "h": "--param h --range 0.01:0.08:20",
    "mu": "--param mu --range 0.1:1.2:20",
    "R": "--param R --range 2:50:20",
    "r": "--param r --range 0.01:0.5:20",
    "n": "--param n --range 3:200:30",
    # 2,500 integrals in one batch, evaluated at 16 + 32 nodes each, and
    # 2,500 rows of the gore seams' closed form
    "mu-blocks": "--param mu --range 0.1:1.2:2500",
    "n-blocks": "--param n --range 3:2502:2500",
    # an integrand of about 1e8 (R = 1e-8), and seams of about 1.3e-8 each
    "mu-tiny-radii": "--param mu --range 0.1:1.2:2 --R=1e-8 --r=1e-9",
    "n-near-1e9": "--param n --range 999999999:1000000000:2",
}

# Inputs refused with exit 2 (parameter error) or 3 (input-format error).
REFUSED = {
    "cylinder-hoop-lines": "generate cylinder --a 1 --alpha 90 --degrees --h 0.1 --out x.obj",
    "tube-two-strips": "generate tube --a 1 --alpha 0.7 --strips 2 --out x.obj",
    "mudguard-wide-arc": "generate mudguard --R 1 --r 0.5 --mu 0.2 --out x.obj",
    "analyze-missing-file": "analyze --in missing.obj",
}

HELP = ["", "generate", "analyze", "verify", "sweep"]


def run(outdir: Path, name: str, args: str) -> None:
    """Run `creasegeom ARGS` in outdir and keep its stdout, stderr and exit code."""
    env = dict(os.environ, COLUMNS="80",  # argparse wraps --help to the terminal width
               PYTHONPATH=str(Path(creasegeom.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-m", "creasegeom.cli", *args.split()],
                          cwd=outdir, env=env, capture_output=True)
    (outdir / f"{name}.stdout").write_bytes(done.stdout)
    (outdir / f"{name}.stderr").write_bytes(done.stderr)
    (outdir / f"{name}.exit").write_text(f"{done.returncode}\n")


def split_runs(source: Path, target: Path) -> None:
    """Copy an OBJ with a comment line before each `v` or `f` record whose
    index is one less than, equal to or one more than a multiple of LOAD_BLOCK."""
    lines, seen = [], {b"v": 0, b"f": 0}
    for line in source.read_bytes().splitlines(keepends=True):
        kind = line.split(b" ", 1)[0]
        if kind in seen:
            if (seen[kind] + 1) % LOAD_BLOCK <= 2:
                lines.append(b"# split\n")
            seen[kind] += 1
        lines.append(line)
    target.write_bytes(b"".join(lines))


def rewrite_face(source: Path, target: Path, new) -> None:
    """Copy an OBJ with face record LOAD_BLOCK + 1, `f a rest`, made new(a, rest)."""
    lines = source.read_bytes().splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.startswith(b"f ")][LOAD_BLOCK + 1]
    _, a, rest = lines[at].split(b" ", 2)
    lines[at] = new(a, rest)
    target.write_bytes(b"".join(lines))


def shuffle_faces(source: Path, target: Path) -> None:
    """Copy an OBJ with its face records permuted in a seeded random order."""
    lines = source.read_bytes().splitlines(keepends=True)
    at = [i for i, line in enumerate(lines) if line.startswith(b"f ")]
    faces = [lines[i] for i in at]
    random.Random(17).shuffle(faces)
    for i, face in zip(at, faces):
        lines[i] = face
    target.write_bytes(b"".join(lines))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    run(outdir, "verify", "verify --suite all --json verify.json")
    meshes = {f"{shape}-{res}": f"{shape} {params} {res_args}"
              for shape, params in SHAPES.items() for res, res_args in RESOLUTIONS.items()}
    for name, args in {**meshes, **LARGE, **EXPONENT_FORM}.items():
        run(outdir, f"generate-{name}", f"generate {args} --out {name}.obj")
        run(outdir, f"analyze-obj-{name}", f"analyze --in {name}.obj "
                                           f"--report {name}.obj.report --csv {name}.obj.csv")
        run(outdir, f"analyze-sidecar-{name}", f"analyze --in {name}.obj.json "
                                               f"--report {name}.json.report "
                                               f"--csv {name}.json.csv")
    split_runs(outdir / "tube-blocks.obj", outdir / "tube-blocks-split.obj")
    run(outdir, "analyze-obj-tube-blocks-split", "analyze --in tube-blocks-split.obj "
        "--report tube-blocks-split.obj.report --csv tube-blocks-split.obj.csv")
    for name, new in FACE_REWRITES.items():
        rewrite_face(outdir / "tube-blocks.obj", outdir / f"tube-blocks-{name}.obj", new)
        run(outdir, f"analyze-obj-tube-blocks-{name}", f"analyze --in tube-blocks-{name}.obj "
            f"--report tube-blocks-{name}.obj.report --csv tube-blocks-{name}.obj.csv")
    shuffle_faces(outdir / "tube-blocks.obj", outdir / "tube-blocks-shuffled.obj")
    run(outdir, "analyze-obj-tube-blocks-shuffled", "analyze --in tube-blocks-shuffled.obj "
        "--report tube-blocks-shuffled.obj.report --csv tube-blocks-shuffled.obj.csv")
    for name, args in SWEEPS.items():
        run(outdir, f"sweep-{name}", f"sweep {args} --csv sweep-{name}.csv")
    for name, args in REFUSED.items():
        run(outdir, f"refused-{name}", args)
    run(outdir, "version", "--version")
    for command in HELP:
        run(outdir, f"help-{command or 'main'}", f"{command} --help")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
