#!/bin/sh
# Hostile bandwidth flags through the sacsim CLI: a value bandwidth
# credit cannot represent (NaN, infinity, below 1e-6 B/cycle) exits
# nonzero before any simulation, naming the config field.
#
# Usage: sacsim_bandwidth_test.sh <path to sacsim>
set -eu
sacsim=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cd "$dir"

for bw in nan inf 1e-300 0; do
    if "$sacsim" --benchmark RN --org mem --apw 2 --scale 8 \
        --interchip-bw "$bw" > out.txt 2> err.txt; then
        echo "FAIL: --interchip-bw $bw was accepted"
        cat out.txt err.txt
        exit 1
    fi
    if ! grep -q 'GpuConfig.interChipBw' err.txt; then
        echo "FAIL: --interchip-bw $bw error does not name the field"
        cat err.txt
        exit 1
    fi
done
echo "ok"
