package core

// Seed-replay property (DESIGN.md §10): a chaos run is a pure function
// of its seed. Two fresh platforms driven through the same scenario
// under the same seeded fault plan must agree on the operation's
// outcome AND produce byte-identical Chrome-trace JSON — retries,
// backoffs, and injected faults land at the same virtual times.

import (
	"bytes"
	"encoding/json"
	"testing"

	"snapify/internal/faultinject"
	"snapify/internal/obs"
	"snapify/internal/simnet"
)

// seedReplayRun drives one platform through the seeded-fault capture
// scenario and returns the full Chrome trace plus the outcome. The
// scenario is serial (one stream, one worker) so fault ordinals match
// traffic deterministically — concurrent streams share link keys and
// would race for the Nth slot.
func seedReplayRun(t *testing.T, seed uint64) (trace []byte, outcome string) {
	t.Helper()
	r := newRig(t, "core_seedreplay", 1)
	r.count(t, 20)
	s := NewSnapshot("/snap/seedreplay", r.cp)
	if err := Pause(s); err != nil {
		t.Fatal(err)
	}
	menu := []faultinject.SiteKey{
		{Site: faultinject.SiteSend, Key: faultinject.LinkKey(simnet.NodeID(1).String(), simnet.HostNode.String())},
		{Site: faultinject.SiteChunk, Key: ""},
	}
	plan := faultinject.SeededPlan(seed, menu, 2, 6)
	r.plat.Server.Fabric.SetInjector(faultinject.New(plan, nil))
	err := s.Capture(CaptureOptions{
		Terminate:  true,
		Streams:    1,
		ChunkBytes: 64 * 1024,
		Retry:      RetryPolicy{MaxAttempts: 3},
	})
	if err == nil {
		err = Wait(s)
	}
	r.plat.Server.Fabric.SetInjector(nil)
	if err != nil {
		outcome = "capture error: " + err.Error()
	} else {
		if _, rerr := Swapin(s, 1, RestoreOptions{}); rerr != nil {
			t.Fatalf("swap-in after seeded capture: %v", rerr)
		}
		if got := r.count(t, 40); got != refSum(40) {
			t.Fatalf("restored computation = %d, want %d", got, refSum(40))
		}
		outcome = "ok"
	}
	trace = r.plat.Obs.TracerOf().ChromeTrace()
	if err := obs.ValidateChromeTrace(trace); err != nil {
		t.Fatalf("invalid Chrome trace: %v", err)
	}
	return trace, outcome
}

func TestSeedReplayIdenticalTraces(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xC0FFEE} {
		t1, o1 := seedReplayRun(t, seed)
		t2, o2 := seedReplayRun(t, seed)
		if o1 != o2 {
			t.Fatalf("seed %#x: outcomes differ across runs: %q vs %q", seed, o1, o2)
		}
		if !bytes.Equal(t1, t2) {
			t.Fatalf("seed %#x: Chrome traces differ across runs (%d vs %d bytes, outcome %q)",
				seed, len(t1), len(t2), o1)
		}
	}
}

// TestSeededPlanIsPure pins the seed -> plan derivation itself: the
// same inputs always yield the same plan, different seeds diverge.
func TestSeededPlanIsPure(t *testing.T) {
	menu := []faultinject.SiteKey{
		{Site: faultinject.SiteSend, Key: "mic0->host"},
		{Site: faultinject.SiteChunk},
	}
	a := faultinject.SeededPlan(42, menu, 4, 8)
	b := faultinject.SeededPlan(42, menu, 4, 8)
	ea, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	eb, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("same seed produced different plans:\n%s\nvs\n%s", ea, eb)
	}
	c := faultinject.SeededPlan(43, menu, 4, 8)
	ec, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ea, ec) {
		t.Fatal("different seeds produced identical plans")
	}
}
