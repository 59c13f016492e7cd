package main

import (
	"bufio"
	"fmt"
	"strconv"
	"strings"

	"snapify/internal/obs"
	"snapify/internal/platform"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
)

// This file reads the per-layer counters the platform already exposes —
// Fabric.Traffic, the metrics registry, the virtual-clock tracer,
// Store.Stats — as deltas over one repetition's timed section. Nothing
// here reaches into a layer's private state.

// fabricCounts is a snapshot of what crossed the fabric and what the
// platform recorded up to a point in a repetition.
type fabricCounts struct {
	pcie, peer int64
	spans      int
	drains     int64
}

func fabricBefore(plat *platform.Platform) fabricCounts {
	var c fabricCounts
	f := plat.Server.Fabric
	for a := 0; a < f.Nodes(); a++ {
		for b := 0; b < f.Nodes(); b++ {
			if a == b {
				continue
			}
			n := f.Traffic(simnet.NodeID(a), simnet.NodeID(b))
			if a == int(simnet.HostNode) || b == int(simnet.HostNode) {
				c.pcie += n
			} else {
				c.peer += n
			}
		}
	}
	c.spans = len(plat.Obs.TracerOf().Spans())
	c.drains = sumMetric(plat.Obs.MetricsOf(), "coi_channel_drains_total")
	return c
}

// platformLayers writes the simnet, obs, snapifyio and coi counters of
// the timed section that started at before, which ran ops ops and paused
// the offload process pauses times.
func platformLayers(out map[string]float64, plat *platform.Platform, before fabricCounts, ops, pauses int) {
	now := fabricBefore(plat)
	out["simnet.pcie_mib"] = float64(now.pcie-before.pcie) / float64(simclock.MiB)
	out["simnet.peer_mib"] = float64(now.peer-before.peer) / float64(simclock.MiB)
	out["obs.spans_per_op"] = ratio(float64(now.spans-before.spans), float64(ops))
	out["coi.drained_msgs_per_pause"] = ratio(float64(now.drains-before.drains), float64(pauses))

	// Retries: stream-level resumes show as stream_retry spans, daemon-level
	// trouble as aborts and remote errors. All zero without faults — the
	// oracle holds the benchmark to that.
	reg := plat.Obs.MetricsOf()
	retries := sumMetric(reg, "snapifyio_aborts_total") + sumMetric(reg, "snapifyio_remote_errors_total")
	for _, sp := range plat.Obs.TracerOf().Spans() {
		if sp.Name == "stream_retry" {
			retries++
		}
	}
	out["snapifyio.retries"] = float64(retries)
}

// sumMetric sums every series of one counter or gauge family, read from
// the registry's text exposition (the registry's only read surface that
// enumerates label sets).
func sumMetric(reg *obs.Registry, name string) int64 {
	var total int64
	sc := bufio.NewScanner(strings.NewReader(reg.Expose()))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			if v, err := strconv.ParseInt(rest[i+1:], 10, 64); err == nil {
				total += v
			}
		}
	}
	return total
}

// negotiation totals the store_negotiate spans: chunks offered and
// chunks the store asked for — the useful-work ratio of the have/need
// round.
type negotiation struct{ total, needed int64 }

func negotiated(plat *platform.Platform) negotiation {
	var n negotiation
	for _, sp := range plat.Obs.TracerOf().Spans() {
		if sp.Name == "store_negotiate" {
			n.total += sp.Args["chunks_total"]
			n.needed += sp.Args["chunks_needed"]
		}
	}
	return n
}

// storeOracle is the store's half of the oracle: fsck clean, then every
// snapshot released and collected must leave zero chunks (a refcount
// leak otherwise). It records the store's figures on the way.
func storeOracle(out map[string]float64, plat *platform.Platform, at simclock.Duration) (ok bool, err error) {
	st := plat.Store
	out["snapstore.dedup_ratio"] = st.Stats().DedupRatio()
	problems, _ := st.Verify()
	for _, p := range st.List() {
		if _, err := st.Release(p); err != nil {
			return false, fmt.Errorf("releasing %s: %w", p, err)
		}
	}
	if _, _, err := st.GC(at); err != nil {
		return false, fmt.Errorf("gc: %w", err)
	}
	left := st.Stats().Chunks
	out["snapstore.chunks_after_gc"] = float64(left)
	return len(problems) == 0 && left == 0, nil
}
