#!/bin/sh
# Usage: gate_flags_test.sh GATE_BINARY...
# Each perf gate must reject a bad count or an unknown flag (bench_util.h
# ParseGateFlags) with exit 2 before it times anything. --only is unknown:
# a gate always runs all its workloads.
status=0
for bin in "$@"; do
  for args in "--reps -1" "--reps 0" "--reps abc" "--reps 3x" \
      "--warmup -1" "--reps" "--only grouped_count"; do
    # shellcheck disable=SC2086  # $args holds a flag and its value
    "$bin" $args > /dev/null 2>&1
    code=$?
    if [ "$code" -ne 2 ]; then
      echo "FAIL: $(basename "$bin") $args exited $code, want 2"
      status=1
    fi
  done
done
exit $status
