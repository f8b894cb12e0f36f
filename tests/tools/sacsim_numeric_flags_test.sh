#!/bin/sh
# Malformed numeric flag values through the sacsim CLI: --apw 0, a
# negative --apw and trailing characters on integer and real-valued
# flags each exit nonzero at once, naming the flag, before any run.
#
# Usage: sacsim_numeric_flags_test.sh <path to sacsim>
set -eu
sacsim=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

check() {
    flag=$1
    value=$2
    if "$sacsim" --benchmark RN --org mem --scale 8 "$flag" "$value" \
        > out.txt 2> err.txt; then
        echo "FAIL: $flag $value was accepted"
        cat out.txt err.txt
        exit 1
    fi
    if ! grep -q -- "$flag" err.txt; then
        echo "FAIL: $flag $value error does not name the flag"
        cat err.txt
        exit 1
    fi
    if [ -s out.txt ]; then
        echo "FAIL: $flag $value started a run"
        cat out.txt
        exit 1
    fi
}

for apw in 0 -3 12x 1073741825 99999999999999999999; do
    check --apw "$apw"
done
check --seed -1
check --max-cycles 10k
check --input-scale 1x
check --interchip-bw 100x
check --max-wall-ms 5s
echo "ok"
