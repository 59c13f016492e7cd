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
# Every COI/Snapify message on every channel (lifecycle, agent pipe,
# command channels, run-function pipelines), the control record,
# HandleMeta and every Snapify-IO message is a field list over
# internal/wire (DESIGN.md §3, §8). A hand-rolled offset anywhere in core,
# snapifyio or coi is a second definition of a layout.
if grep -l '"encoding/binary"' $(git ls-files 'internal/core/*.go' 'internal/snapifyio/*.go' \
    'internal/coi/*.go' | grep -v '_test\.go$'); then
    echo "verify: the files above import encoding/binary; code the message in msg.go instead" >&2
    exit 1
fi

echo "==> fault keys only behind an armed injector"
# A nil injector costs one atomic load (DESIGN.md §10): a site reads the
# injector, and only when a plan is armed builds its key and calls Fire.
# Chaining Injector().Fire( builds the key before the nil check, on every
# message of every run.
if git grep -n 'Injector()\.Fire(' -- '*.go' ':!*_test.go'; then
    echo "verify: the lines above build a fault key with no plan armed; use 'if inj := ….Injector(); inj != nil { inj.Fire(…) }' (DESIGN.md §10)" >&2
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
specs="./internal/snapstore/:74.0 ./internal/core/:81.0 ./internal/blcr/:77.0 ./internal/coi/:65.0 ./internal/snapifyio/:77.3 ./internal/fleetd/:88.0 ./internal/experiments/:77.0 ./internal/blob/:90.4 ./internal/scif/:88.5 ./internal/workloads/:74.3"
pkgs=
for spec in $specs; do
    pkgs="$pkgs ${spec%:*}"
done
# One go test over the ten packages, so they build and run side by side.
# Each package's output is one block ending in its "ok" or "FAIL" line:
# a passing package has its coverage on that line, a failing one on the
# line before it. Test failures are the race step's to report; a package
# that reports no coverage (it did not build) fails the floor below.
report=$(go test -cover $pkgs 2>&1) || true
printf '%-24s %10s %8s\n' "package" "coverage" "floor"
for spec in $specs; do
    pkg=${spec%:*}
    floor=${spec#*:}
    ip=snapify/${pkg#./}
    pct=$(printf '%s\n' "$report" | awk -v ip="${ip%/}" '
        $1 == "ok" || ($1 == "FAIL" && NF > 1) {
            if ($2 == ip) {
                for (i = 3; i <= NF; i++) if ($i ~ /%$/) cov = $i
                sub(/%/, "", cov)
                print cov
                exit
            }
            cov = ""
            next
        }
        $1 == "coverage:" { cov = $2 }')
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
# flight` reads back, possibly cut short by the crash that wrote them),
# the COI handle-state decoder (bytes read back out of a restored host
# process image), the COI command-channel, pipeline and control-record
# decoders (the card's channels, and the control region a restore brings
# back);
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
go test -run '^$' -fuzz '^FuzzChannelDecode$' -fuzztime 5s ./internal/coi/
go test -run '^$' -fuzz '^FuzzDecodeHandleMeta$' -fuzztime 5s ./internal/coi/
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
# a failure, not a flake. The capture and restore sweeps run every case
# twice, striped (two streams) and, under "streams1", on the one-stream
# data path with the same retry policy: a one-stream capture recovers by
# redo, a one-stream restore by reopening its whole stream at the failed
# offset. core also carries the chunk-digest cache's two
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
# and a chunk fault at every pull of a swap-in and of a staging round,
# failing cleanly with no retry policy and, for the swap-in, ridden out
# with one ("retry4").
# snapstore carries the federation chaos cases
# (TestChaosFederation*), and fleetd the control-plane cases
# (TestChaosFleet*: host kill mid-evacuation-wave, capture crash
# mid-preemption, seed replay), the platform backend's host kill
# mid-replication (TestChaosFleetKillDuringReplication), and the fleet
# benchmark's full 120-host shape at 200 % over trace seeds 1-20
# (TestBenchShapeNoStranding): Run's end-of-run invariant and liveness
# checks must pass on every seed. TestDecisionTracePinned holds every
# event of that shape, at 200 % and 100 %, to its pinned digest.
go test -race -count=2 -run 'TestChaos|TestSeedReplay|TestBenchShapeNoStranding|TestDecisionTracePinned' ./internal/core/ ./internal/snapstore/ ./internal/fleetd/

echo "==> cold store capture determinism (-count=50, GOMAXPROCS 1 and 8)"
# The windowed digest -> negotiate -> ship pass of a cold one-stream store
# capture is priced from sizes alone; fifty runs on one P and fifty on
# eight must report one Report.Capture value to the nanosecond (the test
# keeps the first value it saw across -count iterations).
GOMAXPROCS=1 go test -count=50 -run '^TestColdStoreCaptureDeterministic$' ./internal/core/
GOMAXPROCS=8 go test -count=50 -run '^TestColdStoreCaptureDeterministic$' ./internal/core/

echo "==> store read stream determinism and the hole guards (-count=50, GOMAXPROCS 1 and 8)"
# A swap-in over the store read stream, a pre-copy staging round over it
# and a swap-in from a plain file are one stream each, the link's only
# flow, so they too are priced from sizes alone, to the nanosecond; and a
# retry-enabled swap-in must cost exactly what its retry-free twin does.
# The two hole guards ride along: zero chunks over a seeded region are
# written and charged (the restored regions equal the frozen ones), and a
# swap-in no hole can reach (a store image with no zero chunk, a plain
# zero-rich one) costs its pinned pre-hole figure. So does the sweep's
# guard: a capture the page-table sweep cannot shorten (a cold store
# capture with no untouched seed-0 chunk, a plain zero-rich one) costs its
# pinned pre-sweep figure.
store_read='^(TestStoreRestoreDeterministic|TestStoreRestoreWritesHolesOverSeededRegions|TestSwapinWithoutHolesUnchanged|TestColdStoreCaptureWithoutZeroChunksUnchanged)$'
GOMAXPROCS=1 go test -count=50 -run "$store_read" ./internal/core/
GOMAXPROCS=8 go test -count=50 -run "$store_read" ./internal/core/

echo "==> local-store paths (-count=50, GOMAXPROCS 1 and 8)"
# The paper's local-store save and reload — a stop-the-world migration, a
# store swap and a plain checkpoint of a process with a 4 MiB buffer —
# cost their pinned figures from before the live switch-over got a path
# of its own, and the live switch-over's double-buffered save and adopted
# reload cost their formulas, to the nanosecond on every run. A live
# migration's pre-save re-sends only what was written since, and every
# buffer comes back as it was at pause: written after the pre-save,
# created after it, destroyed after it, raced by a writer during it, and
# after an aborted session left its tracker armed. The runtime libraries
# leave the switch-over only when the session pre-saved them for the card
# it restores onto; every other switch-over pays for them as before.
local_store='^(TestPaperLocalStorePathUnchanged|TestLiveSwitchOverAdoptsLocalStore|TestPresaveBufferWrittenAfterLastRound|TestPresaveBufferCreatedAfter|TestPresaveRacingWriter|TestAbortAfterPresaveLeavesNoLocalStore|TestPresavedBufferDestroyedLeavesNoLocalStore|TestAbortedPresaveNeverTrusted|TestRuntimeLibsFollowThePresave)$'
GOMAXPROCS=1 go test -count=50 -run "$local_store" ./internal/core/
GOMAXPROCS=8 go test -count=50 -run "$local_store" ./internal/core/

echo "==> striped restore shard pricing (-count=50, GOMAXPROCS 1 and 8)"
# A striped restore cuts its page runs into at most one shard per stream,
# each shard one worker's pipeline, and is priced as the scan plus the
# slowest shard; fifty runs on one P and fifty on eight must report one
# Duration per worker count, so goroutine order never reaches a price.
GOMAXPROCS=1 go test -count=50 -run '^TestParallelRestartOneShardPerStream$' ./internal/blcr/
GOMAXPROCS=8 go test -count=50 -run '^TestParallelRestartOneShardPerStream$' ./internal/blcr/

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
