#!/usr/bin/env bash
# Multi-node runs end to end through the CLI (DESIGN.md §13): the trial
# runtime does not depend on how many workers drive the per-node
# engines, a traced run reports every node's counters from the merged
# registry, and bad counts are refused with a one-line message.
#
# Usage: cluster_cli_smoke.sh <path to run_experiment>
set -euo pipefail

run_experiment="$1"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
args=(--nodes 2 --scale 0.05 --duration 0.05 --trials 1)

runtime() { "$run_experiment" "${args[@]}" "$@" | grep '^runtime:'; }
one="$(runtime --cluster-jobs 1)"
two="$(runtime --cluster-jobs 2)"
pool="$(runtime --jobs 2)"
echo "$one"
if [[ "$one" != "$two" || "$one" != "$pool" ]]; then
  echo "runtime differs: '$one' (--cluster-jobs 1), '$two' (--cluster-jobs 2), '$pool' (--jobs 2)"
  exit 1
fi

"$run_experiment" "${args[@]}" --trace-out "$out/t.json" > "$out/trace.txt"
for prefix in buddy. fault.; do
  if ! grep -Eq "^  ${prefix//./\\.}[a-z_.]+ +[1-9][0-9]*$" "$out/trace.txt"; then
    echo "no nonzero ${prefix} counter in the --trace-out report"
    cat "$out/trace.txt"
    exit 1
  fi
done

refused() {
  local message="$1"
  shift
  local rc=0
  "$run_experiment" "$@" > /dev/null 2> "$out/err.txt" || rc=$?
  cat "$out/err.txt"
  if [[ $rc -ne 1 ]] || ! grep -qF -e "$message" "$out/err.txt"; then
    echo "expected exit 1 with '$message' for: $* (rc $rc)"
    exit 1
  fi
}
refused "--nodes needs an integer >= 1 (got '0')" --nodes 0 --cluster-jobs 1
refused "--cluster-jobs needs an integer >= 0 (got 'abc')" --nodes 2 --cluster-jobs abc
refused "--jobs needs an integer >= 0 (got '-1')" --jobs -1
echo "cluster CLI smoke passed"
