#!/usr/bin/env bash
# The snapshot image file end to end through the CLI (DESIGN.md §12.6):
# saving the same aged world twice writes identical bytes, a saved image
# resumes, and a cut-off copy is refused with the loader's own message.
#
# Usage: snapshot_cli_smoke.sh <path to run_experiment>
set -euo pipefail

run_experiment="$1"
snap="$(mktemp -d)"
trap 'rm -rf "$snap"' EXIT
args=(--app miniMD --manager thp --duration 0.01 --scale 0.05)

"$run_experiment" "${args[@]}" --snapshot-out "$snap/a.snap" > /dev/null
"$run_experiment" "${args[@]}" --snapshot-out "$snap/b.snap" > /dev/null
cmp "$snap/a.snap" "$snap/b.snap"
"$run_experiment" "${args[@]}" --snapshot-in "$snap/a.snap" > /dev/null
head -c 100000 "$snap/a.snap" > "$snap/cut.snap"
if "$run_experiment" "${args[@]}" --snapshot-in "$snap/cut.snap" > /dev/null 2> "$snap/cut.err"; then
  echo "a cut-off image was accepted"
  exit 1
fi
cat "$snap/cut.err"
grep -q "snapshot: truncated image file" "$snap/cut.err"
echo "snapshot CLI smoke passed"
