#!/bin/sh
# bench.sh — the standing benchmarks (ISSUE 2 and ISSUE 5 acceptance).
#
# First sweeps the multi-stream Snapify-IO capture of an 8 GiB-class
# device image over 1/2/4/8 streams, enforcing the shape (4 streams
# >= 2x over serial; all rows byte-identical) and recording the raw
# numbers in BENCH_capture.json. Then runs the dedup-store swap-cycle
# comparison — repeated swap-out of a mostly-unchanged image through the
# content-addressed store vs plain files — enforcing >= 3x fewer bytes
# shipped with byte-identical content, and recording BENCH_dedup.json.
# Then sweeps stop-the-world vs live (pre-copy) migration downtime
# over a 1-8 GiB image grid — enforcing byte-identical restores and a
# live downtime that stays bounded while stop-the-world grows linearly —
# and records BENCH_migrate.json. Finally runs the federation scenario —
# cross-host migration ping-pong (warm legs must dedup >= 2x against the
# destination store) plus k=2 replication, a host kill, repair, and a
# byte-identical restart-from-replica — recording BENCH_federation.json.
# Last comes the fleet control-plane benchmark — the seeded bursty job
# trace against 120 model-backed hosts at three oversubscription ratios,
# recording placement rate, swap-latency percentiles, and the
# utilization-vs-oversubscription curve in BENCH_fleet.json.
# All land at the repository root.
#
# Every recorded field is virtual time: deterministic, and gated exactly
# by `snapbench -check baselines/`. What the simulator costs to run on the
# wall clock is not recorded here; bench/ (BENCHMARK.json) is the one wall
# ruler.
#
#   bench.sh          regenerate the full-scale BENCH_*.json at the root
#   bench.sh -smoke   regenerate the smoke-scale baselines/ the verify.sh
#                     regression gate compares against
set -eu

cd "$(dirname "$0")/.."

# One loop serves both halves. Each entry is snapbench's flag for the
# benchmark, the BENCH_<name>.json it records, and the full-scale banner —
# the five standing benchmarks, in the order experiments.All lists them.
prefix= smoke=
if [ "${1:-}" = "-smoke" ]; then
    echo "==> regenerating smoke-scale regression-gate baselines (baselines/)"
    mkdir -p baselines
    prefix=baselines/ smoke=-smoke
fi

while IFS='|' read -r flag name banner; do
    [ -n "$smoke" ] || echo "==> $banner"
    go run ./cmd/snapbench "-$flag" $smoke -json "${prefix}BENCH_$name.json"
done <<'EOF'
parallel|capture|parallel capture sweep (8 GiB image, streams 1/2/4/8)
store|dedup|dedup store swap cycles (1 GiB image, 4 cycles, plain vs store)
migrate|migrate|migration downtime sweep (1-8 GiB images, stop-the-world vs live)
federation|federation|federation scenario (cross-host dedup ping-pong + host-kill recovery)
fleet|fleet|fleet control plane (120 hosts, 2400 jobs, oversubscription sweep)
EOF
