#!/usr/bin/env bash
# Pins the bytes urcm_report prints: the report is a pure function of the
# compiler and the cache model, so its SHA-256 must equal the
# REPORT_DIGEST that perfbench/run.py checks on every timed run. Runs the
# report once without a store, then twice against a fresh --trace-store
# directory (the first run records the traces, the second is served from
# them), and compares all three.
#
# Usage: scripts/report_digest.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."
BUILD=${1:-build}
REPORT="$BUILD/tools/urcm_report"

WANT=$(python3 - <<'PY'
import re
text = open("perfbench/run.py").read()
print(re.search(r'^REPORT_DIGEST = "([0-9a-f]{64})"$', text, re.M).group(1))
PY
)

WORK=$(mktemp -d /tmp/urcm_report_digest.XXXXXX)
trap 'rm -rf "$WORK"' EXIT
"$REPORT" > "$WORK/cold.md"
"$REPORT" --trace-store="$WORK/store" > "$WORK/record.md"
"$REPORT" --trace-store="$WORK/store" > "$WORK/warm.md"
for run in cold record warm; do
  GOT=$(sha256sum "$WORK/$run.md" | cut -d' ' -f1)
  if [ "$GOT" != "$WANT" ]; then
    echo "urcm_report ($run): sha256 $GOT, perfbench/run.py expects $WANT" >&2
    exit 1
  fi
done
echo "urcm_report digest ok (cold, recording, warm): $WANT"
