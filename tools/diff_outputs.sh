#!/bin/sh
# Compare every command-line output of the working tree with those of a git
# revision, byte for byte:
#
#     tools/diff_outputs.sh [REV]        # REV defaults to HEAD
#
# REV is extracted with `git archive` into a temporary directory, and
# tools/cli_outputs.py (the working tree's copy, so both sides run the same
# commands) runs once with each tree's src/ first on PYTHONPATH.  diff -r then
# compares the two output directories.  The temporary directory is removed,
# and the exit status is diff's: 0 identical, 1 different, 2 trouble.
set -eu
rev=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 2' INT TERM
mkdir "$tmp/tree"
git -C "$root" archive "$rev" src | tar -x -C "$tmp/tree"
PYTHONPATH="$tmp/tree/src${PYTHONPATH:+:$PYTHONPATH}" python3 "$root/tools/cli_outputs.py" "$tmp/rev" || exit 2
PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" python3 "$root/tools/cli_outputs.py" "$tmp/work" || exit 2
status=0
diff -r "$tmp/rev" "$tmp/work" || status=$?
exit "$status"
