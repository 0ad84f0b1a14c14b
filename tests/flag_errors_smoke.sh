#!/usr/bin/env bash
# Malformed numeric flags are usage errors: df_run's --jobs,
# --checkpoint-every and --claim-ttl, and a figure bench's --jobs, must
# each exit non-zero with a message naming the flag (they used to run
# with the value read as 0, or wrapped to 2^64 - N).
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
if [[ -n "$BENCH" ]]; then
  expect_usage_error --jobs "$BENCH" --jobs=abc
fi
exit $status
