#!/usr/bin/env bash
# The snapshot image file end to end through the CLI (DESIGN.md §12.6):
# saving the same aged world twice writes identical bytes, a saved image
# resumes, and a cut-off copy or an image from an older format version is
# refused with the loader's own message.
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
# The version word follows the 4-byte magic; 8 is the previous format
# and 7, 6, 5 and 4 the ones before it.
for v in 4 5 6 7 8; do
  cp "$snap/a.snap" "$snap/v$v.snap"
  printf "\\x0$v\\x00\\x00\\x00" | dd of="$snap/v$v.snap" bs=1 seek=4 conv=notrunc status=none
  if "$run_experiment" "${args[@]}" --snapshot-in "$snap/v$v.snap" > /dev/null 2> "$snap/v$v.err"; then
    echo "a version-$v image was accepted"
    exit 1
  fi
  cat "$snap/v$v.err"
  grep -q "snapshot: unsupported image version" "$snap/v$v.err"
done
echo "snapshot CLI smoke passed"
