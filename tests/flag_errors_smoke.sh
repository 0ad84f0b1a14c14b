#!/usr/bin/env bash
# Malformed numeric flags are usage errors: df_run's --jobs,
# --checkpoint-every and --claim-ttl, and a figure bench's --jobs, must
# each exit non-zero with a message naming the flag (they used to run
# with the value read as 0, or wrapped to 2^64 - N). Manifest values
# outside their knob's domain must fail the same way, naming the key,
# before any point runs: pb_period = 0 used to die with SIGFPE (exit
# 136) on the first cycle, and local_latency = 0 ran. So must a grid
# point whose knobs break a joint rule: grid.flit_phits = 8, 16 with
# packet_phits = 8 used to pass --dry-run and fail only after point 0 ran.
#
#   tests/flag_errors_smoke.sh <path-to-df_run> [path-to-a-figure-bench]
set -uo pipefail

DF_RUN=${1:?usage: flag_errors_smoke.sh <path-to-df_run> [bench]}
BENCH=${2:-}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
printf 'name = flags\nh = 2\nwarmup_cycles = 10\nmeasure_cycles = 10\n' \
  > "$WORK/m.txt"
# Keep a run that wrongly goes ahead small and free of side effects.
export DF_H=2 DF_WARMUP=10 DF_MEASURE=10 DF_MAX_H=2 DF_BENCH_JSON=

status=0
expect_usage_error() {  # <flag> <command...>
  local flag=$1
  shift
  if "$@" > "$WORK/out" 2>&1; then
    echo "FAIL: '$*' exited 0"
    status=1
  elif ! grep -q -- "$flag" "$WORK/out"; then
    echo "FAIL: '$*' did not name $flag:"
    cat "$WORK/out"
    status=1
  fi
}

run_dir=--run-dir="$WORK/run"
expect_usage_error --jobs "$DF_RUN" "$WORK/m.txt" "$run_dir" --jobs=abc
expect_usage_error --checkpoint-every "$DF_RUN" "$WORK/m.txt" "$run_dir" \
  --checkpoint-every=-5
expect_usage_error --claim-ttl "$DF_RUN" "$WORK/m.txt" "$run_dir" \
  --claim-ttl=soon
expect_usage_error --claim-ttl "$DF_RUN" "$WORK/m.txt" "$run_dir" \
  --claim-ttl=nan
# <key> <manifest lines...>: the manifest must be refused naming <key>,
# not crash (exit >= 128 is a signal), and leave no point file behind;
# --dry-run must refuse it too.
expect_domain_error() {
  local key=$1
  shift
  printf '%s\n' 'name = domain' 'h = 2' 'warmup_cycles = 10' \
    'measure_cycles = 10' "$@" > "$WORK/d.txt"
  rm -rf "$WORK/drun"
  "$DF_RUN" "$WORK/d.txt" --run-dir="$WORK/drun" > "$WORK/out" 2>&1
  local code=$?
  if [[ $code -eq 0 || $code -ge 128 ]]; then
    echo "FAIL: manifest with '$*' exited $code"
    status=1
  elif ! grep -q -- "$key" "$WORK/out"; then
    echo "FAIL: manifest with '$*' did not name $key:"
    cat "$WORK/out"
    status=1
  fi
  if compgen -G "$WORK/drun/point_*.csv" > /dev/null; then
    echo "FAIL: manifest with '$*' ran a point before failing"
    status=1
  fi
  if "$DF_RUN" "$WORK/d.txt" --dry-run > "$WORK/out" 2>&1; then
    echo "FAIL: --dry-run of a manifest with '$*' exited 0"
    status=1
  fi
}

expect_domain_error pb_period 'routing = pb' 'pb_period = 0'
expect_domain_error pb_period 'routing = pb' 'grid.pb_period = 10, 0'
expect_domain_error local_latency 'local_latency = 0'
expect_domain_error 'manifest point 1 (series flit_phits=16)' \
  'packet_phits = 8' 'grid.flit_phits = 8, 16'
if [[ -n "$BENCH" ]]; then
  expect_usage_error --jobs "$BENCH" --jobs=abc
fi
exit $status
