#!/bin/sh
# Trace replay through the sacsim CLI: the run banner and the JSON
# records name the trace file (not the default benchmark), and an
# access whose sector the machine's lines cannot hold fails cleanly
# before the run, naming the file and line.
#
# Usage: sacsim_trace_test.sh <path to sacsim>
set -eu
sacsim=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

fail() {
    echo "FAIL: $1"
    cat out.txt err.txt 2>/dev/null || true
    exit 1
}

"$sacsim" --benchmark RN --org mem --apw 2 --scale 8 --record rn.trace \
    > /dev/null
"$sacsim" --trace rn.trace --org mem --apw 2 --scale 8 > out.txt 2> err.txt
grep -q '^trace rn.trace on ' out.txt || fail "banner does not name the trace"
if grep -q '^workload ' out.txt; then fail "banner names a benchmark"; fi

# Records carry the trace's stem, not the profile that only supplies
# the kernel list.
"$sacsim" --trace rn.trace --org mem --apw 2 --scale 8 --json rn.json \
    > out.txt 2> err.txt
grep -q '"label":"rn/Memory-side"' rn.json || fail "label is not the stem"
grep -q '"benchmark":"rn"' rn.json || fail "benchmark is not the stem"
if grep -q 'CFD' rn.json; then fail "record names the default benchmark"; fi

echo "0 0 0 1000 5 R 1" >> rn.trace
line=$(wc -l < rn.trace)
if "$sacsim" --trace rn.trace --org mem --apw 2 --scale 8 \
    > out.txt 2> err.txt; then
    fail "sector 5 on a 1-sector line was accepted"
fi
grep -q "^sacsim: rn.trace:$line: sector 5 does not fit" err.txt ||
    fail "error does not name the file and line"
echo "ok"
