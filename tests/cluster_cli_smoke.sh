#!/usr/bin/env bash
# Multi-node runs end to end through the CLI (DESIGN.md §13): the trial
# runtime does not depend on how many workers drive the per-node
# engines, trials honour --topology and --trials with or without
# --cluster-jobs, a traced run reports every node's counters from the
# merged registry, an SMP storm's --trace-out writes its events as Chrome
# JSON with a .csv beside it, and a bad number for any numeric flag, or a snapshot
# flag on the cluster model, is refused with a one-line message that
# names the flag. The examples refuse a bad positional argument the same
# way, and a figure bench refuses a flag it does not know.
#
# Usage: cluster_cli_smoke.sh <run_experiment> <quickstart> <serving_demo>
#                             [<fig2_thp_fault_table>]
set -euo pipefail

run_experiment="$1"
quickstart="$2"
serving_demo="$3"
fig2="${4:-}"
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

# Flat and tree price a collective alike up to the 32-port switch radix,
# so the topology check runs 64 nodes.
wide=(--app HPCCG --manager thp --profile none --nodes 64 --trials 1 --scale 0.05
      --duration 0.05 --seed 7)
flat="$("$run_experiment" "${wide[@]}" --topology flat | grep '^runtime:')"
tree="$("$run_experiment" "${wide[@]}" --topology tree | grep '^runtime:')"
tree_one="$("$run_experiment" "${wide[@]}" --topology tree --cluster-jobs 1 | grep '^runtime:')"
echo "flat $flat; tree $tree"
if [[ "$tree" != "$tree_one" || "$tree" == "$flat" ]]; then
  echo "topology ignored: '$flat' (flat), '$tree' (tree), '$tree_one' (tree --cluster-jobs 1)"
  exit 1
fi

# --cluster-jobs changes who drives the engines, never which runs are
# made: a sampled run exports every trial either way.
sampled=(--trials 3 --sample-interval 20000000)
"$run_experiment" "${args[@]}" "${sampled[@]}" --metrics-out "$out/m.om" > /dev/null
"$run_experiment" "${args[@]}" "${sampled[@]}" --metrics-out "$out/mj.om" --cluster-jobs 1 \
  > /dev/null
for trial in 0 1 2; do
  if ! grep -qF "trial=\"$trial\"" "$out/mj.om"; then
    echo "--cluster-jobs 1 dropped trial $trial from the metrics export"
    exit 1
  fi
done
cmp "$out/m.om" "$out/mj.om"

"$run_experiment" "${args[@]}" --trace-out "$out/t.json" > "$out/trace.txt"
for prefix in buddy. fault.; do
  if ! grep -Eq "^  ${prefix//./\\.}[a-z_.]+ +[1-9][0-9]*$" "$out/trace.txt"; then
    echo "no nonzero ${prefix} counter in the --trace-out report"
    cat "$out/trace.txt"
    exit 1
  fi
done

# The SMP storm exports through the same writer as every traced run, with
# no telemetry counters: a JSON array of event records ("ph" is each
# record's phase), plus the .csv twin.
"$run_experiment" --experiment smp --cores 4 --trace-out "$out/smp.json" > /dev/null
if [[ "$(head -c 1 "$out/smp.json")" != "[" ]] || ! grep -q '"ph":' "$out/smp.json"; then
  echo "--experiment smp --trace-out wrote no trace events to $out/smp.json"
  exit 1
fi
if [[ ! -s "$out/smp.json.csv" ]]; then
  echo "--experiment smp --trace-out wrote no .csv beside the JSON"
  exit 1
fi

refused_by() {
  local binary="$1" message="$2"
  shift 2
  local rc=0
  "$binary" "$@" > /dev/null 2> "$out/err.txt" || rc=$?
  cat "$out/err.txt"
  if [[ $rc -ne 1 ]] || ! grep -qF -e "$message" "$out/err.txt"; then
    echo "expected exit 1 with '$message' for: $(basename "$binary") $* (rc $rc)"
    exit 1
  fi
}
refused() { refused_by "$run_experiment" "$@"; }
refused "--nodes needs an integer >= 1 (got '0')" --nodes 0 --cluster-jobs 1
refused "--cluster-jobs needs an integer >= 0 (got 'abc')" --nodes 2 --cluster-jobs abc
refused "--jobs needs an integer >= 0 (got '-1')" --jobs -1
refused "--trials needs an integer >= 1 (got 'abc')" --trials abc
refused "--cores needs an integer >= 1 (got 'abc')" --cores abc
refused "--seed needs an integer >= 0 (got '7x')" --seed 7x
refused "--scale needs a number > 0 (got '0')" --scale 0
refused "--duration needs a number > 0 (got 'abc')" --duration abc
refused "--rate needs a number > 0 (got '1e400')" --experiment server --rate 1e400
snapshot_refusal="--snapshot-out/--snapshot-in support single-node hpc runs only"
refused "$snapshot_refusal" --nodes 1 --cluster-jobs 1 --snapshot-out "$out/x.img"
refused "$snapshot_refusal" --nodes 1 --cluster-jobs 1 --snapshot-in "$out/missing.img"
refused_by "$quickstart" "cores needs an integer >= 1 (got 'abc')" HPCCG abc
refused_by "$serving_demo" "mean_rps needs a number > 0 (got 'abc')" abc
if [[ -n "$fig2" ]]; then
  refused_by "$fig2" "unknown flag or missing value '--cores'" --cores 4
  refused_by "$fig2" "unknown flag or missing value '--trials'" --trials
fi
echo "cluster CLI smoke passed"
