#!/bin/sh
# reach.sh — the reach ratchet (DESIGN.md §12, "Reach ratchet").
#
# Builds every entry point of the module with statement coverage over the
# whole module (go build -cover -coverpkg=./...), runs the product surface
# below, merges the profiles with go tool covdata and fails when
#   - a function outside bench/ never ran and scripts/reach.allow does not
#     list it;
#   - a listed function ran, or no longer exists: the list only shrinks;
#   - an entry of the list gives no reason from the four allowed ones;
#   - a non-test package of the module is missing from the merged profile:
#     no entry point links it, so it is dead as a whole. Packages whose
#     non-test files import "testing" are test harnesses and are skipped.
# It prints the statement reach outside bench/. bench/'s own functions are
# out of scope; its six workloads are in the surface because some product
# functions (blob.Splice) have no other caller.
#
# The verdict must not depend on the Go scheduler: every function the
# surface reaches, it reaches on every run at any GOMAXPROCS. That is why
# the faulted captures below arm faults keyed to one stream ("snapifyio.chunk"
# keyed by stripe offset) or to the whole daemon, never a link fault whose
# ordinal two streams race for (ROADMAP item 1).
#
#   sh scripts/reach.sh
set -eu

cd "$(dirname "$0")/.."
allow=scripts/reach.allow

work=$(mktemp -d "${TMPDIR:-/tmp}/snapify_reach.XXXXXX")
trap 'rm -rf "$work"' EXIT INT TERM
bin=$work/bin
export GOCOVERDIR="$work/cov"
mkdir -p "$bin" "$GOCOVERDIR" "$work/flight" "$work/out"

mains="cmd/snapbench cmd/snapifyctl cmd/snapifyiod cmd/snapifylint
examples/quickstart examples/incremental examples/migration
examples/fault_tolerance examples/swap_scheduler examples/mpi_checkpoint bench"
for m in $mains; do
    go build -cover -coverpkg=./... -o "$bin/$(basename "$m")" "./$m"
done

# run executes one surface command with its output in $work/out. A command
# that fails is reported but does not decide the verdict: each one's
# correctness is gated by its own verify.sh step, and reach is what this
# script judges (a crash that cuts the surface short shows up as functions
# at 0 %).
# fails runs one whose failure path is what the surface needs, and reports
# it only if it succeeds.
n=0
run() {
    n=$((n + 1))
    if ! "$@" >"$work/out/$n.log" 2>&1; then
        echo "reach: note: '$*' exited non-zero (log: last lines below)" >&2
        tail -n 5 "$work/out/$n.log" >&2
    fi
}
fails() {
    n=$((n + 1))
    if "$@" >"$work/out/$n.log" 2>&1; then
        echo "reach: note: '$*' was expected to fail and did not" >&2
    fi
}

# snapbench: every table and figure with their claims, the baseline gate,
# the five standing benchmarks at smoke scale (one with -json, one with
# -trace -analyze), the ablations and two faulted captures. The first plan
# severs stream 0 at its second chunk (a detached stripe that resumes); the
# second crashes the host's Snapify-IO daemon, which dumps the flight
# recorder into SNAPIFY_FLIGHT_DIR for `snapifyctl analyze flight`. Last,
# the gate replays a faulted-capture document whose figures are wrong, so
# it reports a drift on every run. The document is written here, not taken
# from the -faults run: that run's shape check still fails now and then
# (ROADMAP item 1), and then it writes no document.
run "$bin/snapbench" -all -check
run "$bin/snapbench" -fig 11 -check # again on its own: -all stops at a failed claim
run "$bin/snapbench" -check baselines/
run "$bin/snapbench" -parallel -smoke -trace "$work/trace.json" -analyze
run "$bin/snapbench" -store -smoke -json "$work/store.json"
run "$bin/snapbench" -migrate -smoke
run "$bin/snapbench" -federation -smoke
run "$bin/snapbench" -fleet -smoke
run "$bin/snapbench" -ablations
cat >"$work/drop.json" <<'EOF'
[{"site": "snapifyio.chunk", "key": "0", "kind": "drop", "nth": 2}]
EOF
cat >"$work/crash.json" <<'EOF'
[{"site": "snapifyio.daemon", "key": "host", "kind": "crash", "nth": 5}]
EOF
run "$bin/snapbench" -faults "$work/drop.json" -smoke
SNAPIFY_FLIGHT_DIR="$work/flight" run "$bin/snapbench" -faults "$work/crash.json" -smoke
mkdir -p "$work/gate"
cat >"$work/gate/BENCH_faults.json" <<'EOF'
{"benchmark": "faulted-capture", "image_bytes": 268435456,
 "plan": [{"site": "snapifyio.chunk", "key": "0", "kind": "drop", "nth": 2}],
 "clean": {"label": "clean", "capture_ns": 1}, "faulted": {"label": "faulted", "capture_ns": 1}}
EOF
fails "$bin/snapbench" -check "$work/gate/"

# snapifyctl: the default demo, a store-mode sequence through every store
# subcommand plus trace and metrics, the offline analyzers, the fleet views.
run "$bin/snapifyctl"
run "$bin/snapifyctl" swapout store swapin 1 migrate 2 store store ls store stat \
    store verify store gc trace "$work/ctl_trace.json" metrics
run "$bin/snapifyctl" analyze critical-path "$work/trace.json"
for dump in "$work"/flight/*.json; do
    run "$bin/snapifyctl" analyze flight "$dump"
done
run "$bin/snapifyctl" fleet status
run "$bin/snapifyctl" fleet queue

run "$bin/snapifyiod"
for e in quickstart incremental migration fault_tolerance swap_scheduler mpi_checkpoint; do
    run "$bin/$e"
done

# snapifylint over the whole tree: ./... includes the frozen bench/, whose
# findings make it exit 1 (ROADMAP, Smaller debts) and reach the report path.
fails "$bin/snapifylint" -stats ./...
fails "$bin/snapifylint" -json ./bench
run "$bin/snapifylint" -list

# bench/: the six workloads, traced, as BENCHMARK.json names them.
for w in offload_run ckpt_plain swap_cold swap_warm migrate_live fleet_oversub; do
    run "$bin/bench" -spans-dir "$work" -workload "$w" -seed 1 -seconds 2 -trace 1
done

go tool covdata func -i="$GOCOVERDIR" >"$work/func.txt"
go tool covdata textfmt -i="$GOCOVERDIR" -o "$work/profile.txt"

# Non-test packages an entry point should link (test harnesses excluded).
go list -f '{{if .GoFiles}}{{.ImportPath}}{{range .Imports}}{{if eq . "testing"}} harness{{end}}{{end}}{{end}}' ./... |
    awk 'NF == 1 && $1 != "snapify/bench"' >"$work/pkgs.txt"

# func.txt lines read "snapify/<file>:<line>:<tab>...<name><tab>...<pct>%",
# in line order within a file; profile.txt lines read
# "snapify/<file>:<line>.<col>,<line>.<col> <statements> <count>". A
# function with no statements reads 0.0% however often it runs, so one
# with no statement-bearing block starting between its line and the next
# function's is skipped.
awk -v allowfile="$allow" -v pkgfile="$work/pkgs.txt" -v profile="$work/profile.txt" '
BEGIN {
    fail = 0
    while ((getline line < allowfile) > 0) {
        if (line ~ /^[ \t]*(#|$)/) continue
        split(line, f, /[ \t]+/)
        key = f[1] " " f[2]
        reason = line
        sub(/^[^ \t]+[ \t]+[^ \t]+[ \t]+/, "", reason)
        if (reason !~ /^(oracle|fault arm|paper API|item [0-9]+)([:;,]|$| )/) {
            printf "reach: %s: entry \"%s\" needs a reason: oracle, fault arm, paper API or item N\n", allowfile, line
            fail = 1
        }
        if (key in allowed) {
            printf "reach: %s: %s is listed twice\n", allowfile, key
            fail = 1
        }
        allowed[key] = 1
        nallow++
    }
    while ((getline p < pkgfile) > 0) want[p] = 1
    while ((getline line < profile) > 0) {
        if (line ~ /^mode:/) continue
        split(line, b, " ")
        file = b[1]; sub(/:.*/, "", file)
        start = b[1]; sub(/^[^:]*:/, "", start); sub(/\..*/, "", start)
        if (b[2] > 0) block[file, start + 0] = 1
        if (file ~ /^snapify\/bench\//) continue
        stmts += b[2]
        if (b[3] > 0) hit += b[2]
    }
}
$1 == "total" { next }
{
    n++
    loc = $1; sub(/:$/, "", loc)
    rfile[n] = loc; sub(/:[0-9]+$/, "", rfile[n])
    rline[n] = loc; sub(/^.*:/, "", rline[n]); rline[n] += 0
    rname[n] = $2
    rzero[n] = ($NF == "0.0%")
}
END {
    for (i = 1; i <= n; i++) {
        file = rfile[i]
        pkg = file; sub(/\/[^\/]*$/, "", pkg)
        seen[pkg] = 1
        if (file ~ /^snapify\/bench\//) continue
        next_line = (i < n && rfile[i + 1] == file) ? rline[i + 1] : rline[i] + 100000
        has = 0
        for (l = rline[i]; l < next_line && !has; l++) if ((file, l) in block) has = 1
        if (!has) continue
        key = substr(file, length("snapify/") + 1) " " rname[i]
        funcs++
        exists[key] = 1
        if (rzero[i]) {
            zero++
            if (!(key in allowed)) {
                printf "reach: %s never runs: delete it, add the product path that should reach it to scripts/reach.sh, or list it in %s with a reason\n", key, allowfile
                fail = 1
            }
        } else if (key in allowed) {
            printf "reach: %s runs now: delete its entry from %s (the list only shrinks)\n", key, allowfile
            fail = 1
        }
    }
    for (k in allowed) if (!(k in exists)) {
        printf "reach: %s is listed in %s but no longer exists: delete its entry\n", k, allowfile
        fail = 1
    }
    for (p in want) if (!(p in seen)) {
        printf "reach: package %s is in no entry point'\''s profile: nothing links it\n", p
        fail = 1
    }
    printf "reach: %d of %d statements outside bench/ run (%.1f %%); %d of %d functions never run, %d allowed\n", hit, stmts, 100 * hit / stmts, zero, funcs, nallow
    exit fail
}' "$work/func.txt"
