#!/usr/bin/env bash
# Crash-recovery gauntlet (DESIGN.md §17.5): kill -9 the recovery_drill
# writer mid-I/O at every durability fault site, reopen, and assert that
# no acked fact was lost and no torn state survived. Each site gets two
# rounds on the same database — the second crash lands on top of
# already-recovered state, so recovery-of-recovery is covered too. The
# whole matrix runs twice: one fact per store call (batch 1), and 16
# facts per call (batch 16), where a kill can land inside a call's run
# of records and verify allows only a prefix of that call beyond the
# acks.
#
#   BUILD_DIR=build scripts/run_recovery_gauntlet.sh
#
# DRILL_OPS (default 120) sets the per-round op count. The drill exits
# 137 when the armed kill fires; a round where the fault never triggers
# (op count too low to reach the Nth I/O) completes cleanly, which
# verify also accepts — the matrix is deliberately redundant.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
DRILL="$BUILD_DIR/examples/recovery_drill"
OPS="${DRILL_OPS:-120}"

if [[ ! -x "$DRILL" ]]; then
  cmake -B "$BUILD_DIR" -S .
  cmake --build "$BUILD_DIR" -j"$(nproc)" --target recovery_drill
fi

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

failures=0
for batch in 1 16; do
  for site in wal_append wal_fsync image_page_write checkpoint; do
    for n in 1 3 7; do
      db="$WORK/gauntlet_b${batch}_${site}_${n}.edb"
      echo "=== kill -9 at $site (I/O #$n), batch $batch ==="
      set +e
      EDUCE_FAULT_POINT="$site:kill:$n" "$DRILL" crash "$db" "$OPS" "$batch"
      rc=$?
      set -e
      echo "--- crash exit $rc (137 = died at the armed fault)"
      if ! "$DRILL" verify "$db"; then
        echo "!!! LOST DATA: kill at $site:$n, batch $batch" >&2
        failures=$((failures + 1))
        continue
      fi
      # Round two: crash again on top of the recovered database, at a
      # different I/O count, then verify the combined ack set.
      set +e
      EDUCE_FAULT_POINT="$site:kill:$((n + 2))" \
        "$DRILL" crash "$db" "$OPS" "$batch"
      rc=$?
      set -e
      echo "--- second crash exit $rc"
      if ! "$DRILL" verify "$db"; then
        echo "!!! LOST DATA: second kill at $site, batch $batch" >&2
        failures=$((failures + 1))
      fi
    done
  done
done

if [[ "$failures" -ne 0 ]]; then
  echo "recovery gauntlet: $failures failed round(s)" >&2
  exit 1
fi
echo "recovery gauntlet: every crash/verify round clean"
