#!/bin/sh
# verify.sh — the one-command tier-1 gate (ROADMAP.md "Tier-1 verify").
#
# Runs, in order: formatting, go vet, the build, the Snapify-specific
# static analyzers (cmd/snapifylint — exits non-zero on any unjustified
# finding), the full test suite under the race detector, the reach ratchet
# (scripts/reach.sh), then the coverage floors and the tiers below. Run it
# from anywhere inside the module; it cds to the module root first.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l $(git ls-files '*.go'))
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> one wire codec (no encoding/binary in the protocol files)"
# Every COI/Snapify control message and every Snapify-IO message is a
# field list over internal/wire (DESIGN.md §3, §8). A hand-rolled offset
# in core, in snapifyio, or in coi's protocol files is a second definition
# of a layout; the command/pipeline/buffer channels and HandleMeta
# (offload.go, pipeline.go, buffer.go, meta.go) are out of scope.
if grep -l '"encoding/binary"' $(git ls-files 'internal/core/*.go' 'internal/snapifyio/*.go' \
    internal/coi/daemon.go internal/coi/snapify.go internal/coi/upload.go internal/coi/download.go internal/coi/snapify_host.go \
    internal/coi/export.go internal/coi/process.go internal/coi/msg.go | grep -v '_test\.go$'); then
    echo "verify: the files above import encoding/binary; code the message in msg.go instead" >&2
    exit 1
fi

echo "==> snapifylint -stats ./internal/... ./cmd/... ./examples/..."
# All eight analyzers run here: errcheck, wallclock, paniclib, rawprint,
# faultgate, storegate, and the two CFG-based ones, maporder (over the
# module call graph) and closeleak. A //nolint directive that suppresses
# nothing or names no analyzer fails the gate too. -stats prints the
# per-analyzer finding-count and wall-clock summary so gate cost and
# noise stay visible in CI logs. bench/ is not linted.
go run ./cmd/snapifylint -stats ./internal/... ./cmd/... ./examples/...

echo "==> go test -race ./..."
# ./... includes ./cmd/snapbench, whose tests drive the command's run()
# in-process: usage errors, the -json/-trace one-document rule, the
# baseline gate's refusal of extra selectors.
go test -race ./...

echo "==> reach ratchet (scripts/reach.sh)"
# Every entry point built with coverage over the module and run over the
# product surface (DESIGN.md §12, "Reach ratchet"): a function outside
# bench/ that never runs fails the gate unless scripts/reach.allow lists
# it with a reason, and an entry whose function runs or is gone fails it
# too, so the list only shrinks. Its verdict is the same at any GOMAXPROCS.
sh scripts/reach.sh

echo "==> coverage floors (internal/snapstore, internal/core, internal/blcr, internal/coi, internal/snapifyio, internal/fleetd, internal/experiments, internal/blob, internal/scif, internal/workloads)"
# Per-package statement-coverage floors for the packages that hold the
# durability-critical logic (the dedup store, the snapshot protocol, the
# checkpoint / restart engine with its context-file codec, and the two
# daemons that speak the control and data protocols), the fleet
# controller above them, the experiment registry every reported number comes out
# of, the content representation under every region and COI buffer
# (internal/blob), and the two packages every offload call runs through:
# the SCIF transport whose RDMA moves COI buffer data (internal/scif) and
# the benchmark apps whose kernel checksums every run (internal/workloads).
# The floors sit a few points under the measured
# coverage at the time each floor was set, so they trip on real test
# erosion, not on formatting-level churn. Raise a floor when coverage
# grows; never lower one without a written justification in the PR.
cover_fail=0
printf '%-24s %10s %8s\n' "package" "coverage" "floor"
for spec in "./internal/snapstore/:74.0" "./internal/core/:81.0" "./internal/blcr/:77.0" "./internal/coi/:65.0" "./internal/snapifyio/:77.3" "./internal/fleetd/:88.0" "./internal/experiments/:77.0" "./internal/blob/:90.4" "./internal/scif/:88.5" "./internal/workloads/:72.7"; do
    pkg=${spec%:*}
    floor=${spec#*:}
    pct=$(go test -cover "$pkg" | awk '{for (i=1;i<=NF;i++) if ($i ~ /%$/) {gsub(/%/,"",$i); print $i}}')
    if [ -z "$pct" ]; then
        echo "coverage: no percentage reported for $pkg" >&2
        cover_fail=1
        continue
    fi
    printf '%-24s %9s%% %7s%%\n' "$pkg" "$pct" "$floor"
    if [ "$(awk -v p="$pct" -v f="$floor" 'BEGIN{print (p < f) ? 1 : 0}')" = 1 ]; then
        echo "coverage: $pkg at $pct% is below the $floor% floor" >&2
        cover_fail=1
    fi
done
[ "$cover_fail" = 0 ]

echo "==> fuzz smoke (5s per target, committed seed corpora)"
# Short native-Go fuzz runs over the external parsing surfaces: the
# snapstore manifest decoder (bytes off the VFS / off the wire from a
# federation peer), the Chrome-trace parser (CI artifacts, user
# exports), the BLCR context-file and delta decoders (snapshot
# directories outlive the build that wrote them), the two control
# protocols' request decoders (bytes off a SCIF connection, which the
# fault plan truncates and corrupts), and the fault plan's own JSON
# decoder (a -faults file, and what the chaos sweeps arm their per-index
# faults from), the flight-dump reader (dump files `snapifyctl analyze
# flight` reads back, possibly cut short by the crash that wrote them);
# and two differential targets, blob.Buffer's overlay
# against a flat []byte oracle under random op programs, and
# snapstore.Digest's window-grain chunk address against the spec computed
# from the flat bytes under random literal / zero / seeded extent mixes. The committed corpora
# under testdata/fuzz/ replay first; 5s of mutation on top catches
# regressions in input hardening without turning the gate into a fuzzing
# campaign. Crashers minimize into testdata/fuzz/ and fail the gate until
# fixed.
go test -run '^$' -fuzz '^FuzzDecodeManifest$' -fuzztime 5s ./internal/snapstore/
go test -run '^$' -fuzz '^FuzzDigest$' -fuzztime 5s ./internal/snapstore/
go test -run '^$' -fuzz '^FuzzParseChromeTrace$' -fuzztime 5s ./internal/obs/analyze/
go test -run '^$' -fuzz '^FuzzRestartContext$' -fuzztime 5s ./internal/blcr/
go test -run '^$' -fuzz '^FuzzApplyDelta$' -fuzztime 5s ./internal/blcr/
go test -run '^$' -fuzz '^FuzzControlDecode$' -fuzztime 5s ./internal/coi/
go test -run '^$' -fuzz '^FuzzWireDecode$' -fuzztime 5s ./internal/snapifyio/
go test -run '^$' -fuzz '^FuzzParsePlan$' -fuzztime 5s ./internal/faultinject/
go test -run '^$' -fuzz '^FuzzBufferOps$' -fuzztime 5s ./internal/blob/
go test -run '^$' -fuzz '^FuzzDecodeFlightDump$' -fuzztime 5s ./internal/obs/

echo "==> chaos tier (fault-injection sweeps + seed replay, -count=2)"
# The chaos tier re-runs the deterministic fault-injection sweeps twice
# under the race detector: every single-fault case must end atomic (no
# torn snapshot, no orphan .partial) or retryable, and the seeded runs
# (seeds pinned inside the tests: 1, 7, 0xC0FFEE) must replay to
# byte-identical Chrome traces. -count=2 makes cross-run nondeterminism
# a failure, not a flake. core also carries the chunk-digest cache's two
# cases: TestChaosPrecopyWriterRace (a writer thread races the pre-copy
# rounds' epoch cuts; the final digest list must equal the full
# recompute) and TestChaosLostDirtyRangeIsInvisibleToVerify (a dropped
# dirty-range record, caught by the oracle while Store.Verify reports
# clean), and the store upload's crash cases (TestChaosStore*), among
# them TestChaosStoreDaemonCrashMidWindow: the host daemon dies between a
# window's negotiation and its last chunk, and the retry must offer the
# whole digest list in one message, ship only what is missing and leave
# nothing pending; and the store read stream's two sweeps
# (TestChaosStoreRestoreSweep, TestChaosStagingRoundSweep): a daemon crash
# and a chunk fault at every pull of a swap-in and of a staging round.
# snapstore carries the federation chaos cases
# (TestChaosFederation*), and fleetd the control-plane cases
# (TestChaosFleet*: host kill mid-evacuation-wave, capture crash
# mid-preemption, seed replay), the platform backend's host kill
# mid-replication (TestChaosFleetKillDuringReplication), and the fleet
# benchmark's full 120-host shape at 200 % over trace seeds 1-20
# (TestBenchShapeNoStranding): Run's end-of-run invariant and liveness
# checks must pass on every seed.
go test -race -count=2 -run 'TestChaos|TestSeedReplay|TestBenchShapeNoStranding' ./internal/core/ ./internal/snapstore/ ./internal/fleetd/

echo "==> cold store capture determinism (-count=50, GOMAXPROCS 1 and 8)"
# The windowed digest -> negotiate -> ship pass of a cold one-stream store
# capture is priced from sizes alone; fifty runs on one P and fifty on
# eight must report one Report.Capture value to the nanosecond (the test
# keeps the first value it saw across -count iterations).
GOMAXPROCS=1 go test -count=50 -run '^TestColdStoreCaptureDeterministic$' ./internal/core/
GOMAXPROCS=8 go test -count=50 -run '^TestColdStoreCaptureDeterministic$' ./internal/core/

echo "==> store read stream determinism (-count=50, GOMAXPROCS 1 and 8)"
# A swap-in over the store read stream and a pre-copy staging round over it
# are one stream each, the link's only flow, so they too are priced from
# sizes alone: one restore and one staging duration, to the nanosecond.
GOMAXPROCS=1 go test -count=50 -run '^TestStoreRestoreDeterministic$' ./internal/core/
GOMAXPROCS=8 go test -count=50 -run '^TestStoreRestoreDeterministic$' ./internal/core/

echo "==> snapbench -parallel -smoke -trace (the trace file the analyzer step reads)"
# The one smoke invocation left: snapifyctl's critical-path analyzer
# below needs a trace file. Every standing benchmark's shape check and
# trace validation run inside the baseline gate at the end, on the same
# smoke-scale replays the store, migrate and fleet smokes used to repeat.
trace_out=$(mktemp /tmp/snapify_trace_smoke.XXXXXX.json)
go run ./cmd/snapbench -parallel -smoke -trace "$trace_out"

echo "==> snapifyctl analyze critical-path (smoke trace)"
# The critical-path analyzer must decompose the smoke trace into a chain
# whose summed segments exactly tile the end-to-end window (the analyzer
# errors out otherwise — integer-equality, no tolerance).
go run ./cmd/snapifyctl analyze critical-path "$trace_out"
rm -f "$trace_out"

echo "==> snapbench -check baselines/ (benchmark regression gate)"
# Replays every committed smoke-scale baseline at its recorded parameters
# and fails on a drifted field (every field is virtual time, so exactly
# reproducible — a drift means the data path changed and the baselines,
# and their analysis, must be regenerated deliberately with
# scripts/bench.sh -smoke), on a replay that breaks one of its benchmark's
# CheckShape claims, or on one whose trace is not a valid Chrome trace.
go run ./cmd/snapbench -check baselines/

echo "verify: all gates passed"
