package faultinject

import (
	"bytes"
	"encoding/json"
	"testing"

	"snapify/internal/obs"
	"snapify/internal/simclock"
)

func TestFireNthAndCount(t *testing.T) {
	in := New(Plan{{Site: SiteSend, Key: "mic0->host", Kind: Drop, Nth: 3, Count: 2}}, nil)
	var fired []int
	for i := 1; i <= 6; i++ {
		if in.Fire(SiteSend, "mic0->host") != nil {
			fired = append(fired, i)
		}
	}
	if len(fired) != 2 || fired[0] != 3 || fired[1] != 4 {
		t.Fatalf("fired on calls %v, want [3 4]", fired)
	}
	if got := in.FiredTotal(); got != 2 {
		t.Errorf("FiredTotal = %d, want 2", got)
	}
}

func TestFireKeyMatching(t *testing.T) {
	in := New(Plan{
		{Site: SiteSend, Key: "mic0->host", Kind: Drop}, // exact key
		{Site: SiteChunk, Kind: Corrupt},                // empty key: any
	}, nil)
	if in.Fire(SiteSend, "host->mic0") != nil {
		t.Error("wrong key fired")
	}
	if in.Fire(SiteRDMA, "mic0->host") != nil {
		t.Error("wrong site fired")
	}
	if f := in.Fire(SiteSend, "mic0->host"); f == nil || f.Kind != Drop {
		t.Errorf("exact key did not fire: %+v", f)
	}
	if f := in.Fire(SiteChunk, "4194304"); f == nil || f.Kind != Corrupt {
		t.Errorf("empty key did not match any chunk key: %+v", f)
	}
}

// Each fault counts its own matched calls: traffic at other keys must
// not advance an unrelated fault's ordinal.
func TestFireOrdinalsArePerFault(t *testing.T) {
	in := New(Plan{
		{Site: SiteSend, Key: "a->b", Kind: Drop, Nth: 2},
		{Site: SiteSend, Key: "c->d", Kind: Drop, Nth: 2},
	}, nil)
	if in.Fire(SiteSend, "a->b") != nil {
		t.Fatal("a->b fired on its first call")
	}
	// Lots of unrelated traffic on c->d's first slot only.
	if in.Fire(SiteSend, "c->d") != nil {
		t.Fatal("c->d fired on its first call")
	}
	if in.Fire(SiteSend, "a->b") == nil {
		t.Fatal("a->b did not fire on its second call")
	}
	if in.Fire(SiteSend, "c->d") == nil {
		t.Fatal("c->d did not fire on its second call")
	}
}

func TestFireFirstMatchWins(t *testing.T) {
	in := New(Plan{
		{Site: SiteSend, Kind: Slow},
		{Site: SiteSend, Kind: Drop},
	}, nil)
	if f := in.Fire(SiteSend, "x->y"); f == nil || f.Kind != Slow {
		t.Fatalf("got %+v, want the first armed fault (slow)", f)
	}
	// The losing fault's trigger was not consumed: it fires next call.
	if f := in.Fire(SiteSend, "x->y"); f == nil || f.Kind != Drop {
		t.Fatalf("got %+v, want the still-armed drop", f)
	}
}

func TestFireAtVirtualTime(t *testing.T) {
	var now simclock.Duration
	in := New(Plan{{Site: SiteDaemon, Key: "host", Kind: Crash, At: 100}}, func() simclock.Duration { return now })
	now = 99
	if in.Fire(SiteDaemon, "host") != nil {
		t.Fatal("fired before its virtual trigger time")
	}
	now = 100
	if in.Fire(SiteDaemon, "host") == nil {
		t.Fatal("did not fire at its virtual trigger time")
	}
	if in.Fire(SiteDaemon, "host") != nil {
		t.Fatal("fired past its shot budget")
	}
}

func TestFireAtWithoutClockNeverFires(t *testing.T) {
	in := New(Plan{{Site: SiteDaemon, Key: "host", Kind: Crash, At: 1}}, nil)
	for i := 0; i < 5; i++ {
		if in.Fire(SiteDaemon, "host") != nil {
			t.Fatal("At-triggered fault fired with no clock")
		}
	}
}

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if in.Fire(SiteSend, "a->b") != nil {
		t.Fatal("nil injector fired")
	}
	if in.FiredTotal() != 0 || in.Pending() != nil {
		t.Fatal("nil injector has state")
	}
}

func TestParsePlanEncodeRoundTrip(t *testing.T) {
	p := Plan{
		{Site: SiteSend, Key: "mic0->host", Kind: Drop, Nth: 3},
		{Site: SiteChunk, Kind: PartialWrite, Count: 2},
		{Site: SiteDaemon, Key: "host", Kind: Crash, At: 5_000_000},
		{Site: SiteRDMA, Key: "host->mic0", Kind: Slow, Factor: 4},
	}
	enc, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParsePlan(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := json.MarshalIndent(back, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatalf("round trip changed the plan:\n%s\nvs\n%s", enc, enc2)
	}
}

func TestParsePlanRejectsIncompleteFaults(t *testing.T) {
	if _, err := ParsePlan([]byte(`[{"key":"a->b"}]`)); err == nil {
		t.Fatal("plan without site/kind must be rejected")
	}
	if _, err := ParsePlan([]byte(`not json`)); err == nil {
		t.Fatal("malformed JSON must be rejected")
	}
}

func TestSeededPlanDeterministicAndBounded(t *testing.T) {
	menu := []SiteKey{{Site: SiteSend, Key: "mic0->host"}, {Site: SiteChunk}}
	a := SeededPlan(99, menu, 8, 5)
	b := SeededPlan(99, menu, 8, 5)
	if len(a) != 8 {
		t.Fatalf("plan has %d faults, want 8", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs across identical seeds: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Nth < 1 || a[i].Nth > 5 {
			t.Errorf("fault %d ordinal %d outside [1,5]", i, a[i].Nth)
		}
		found := false
		for _, sk := range menu {
			if a[i].Site == sk.Site && a[i].Key == sk.Key {
				found = true
			}
		}
		if !found {
			t.Errorf("fault %d targets %s/%q, not in the menu", i, a[i].Site, a[i].Key)
		}
	}
	if SeededPlan(99, nil, 8, 5) != nil || SeededPlan(99, menu, 0, 5) != nil {
		t.Error("degenerate menus must yield no plan")
	}
}

func TestPendingSortedAndShrinks(t *testing.T) {
	in := New(Plan{
		{Site: SiteSend, Key: "b", Kind: Drop},
		{Site: SiteChunk, Kind: Corrupt},
		{Site: SiteSend, Key: "a", Kind: Drop, Nth: 2},
	}, nil)
	p := in.Pending()
	if len(p) != 3 {
		t.Fatalf("pending %d, want 3", len(p))
	}
	if p[0].Key != "a" || p[1].Key != "b" || p[2].Site != SiteChunk {
		t.Fatalf("pending not sorted by (site,key,kind): %+v", p)
	}
	in.Fire(SiteSend, "b")
	if got := len(in.Pending()); got != 2 {
		t.Fatalf("pending after a shot: %d, want 2", got)
	}
}

func TestPublishMetricsCountsFires(t *testing.T) {
	reg := obs.NewRegistry()
	in := New(Plan{{Site: SiteSend, Kind: Drop, Count: 3}}, nil)
	in.PublishMetrics(reg)
	in.Fire(SiteSend, "a->b")
	in.Fire(SiteSend, "a->b")
	exp := reg.Expose()
	if !bytes.Contains([]byte(exp), []byte(`faultinject_fired_total{kind="drop",site="scif.send"} 2`)) &&
		!bytes.Contains([]byte(exp), []byte(`faultinject_fired_total{site="scif.send",kind="drop"} 2`)) {
		t.Fatalf("fired counter missing from exposition:\n%s", exp)
	}
}
