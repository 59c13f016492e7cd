package faultinject

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParsePlan throws arbitrary bytes at the fault-plan decoder — the
// -faults file of snapbench and snapifyctl, and what the chaos sweeps arm
// their per-index faults from. No input may panic it; a rejection is an
// error that names the package; an accepted plan has a site and a kind on
// every fault, survives Encode and ParsePlan unchanged, and can be armed
// and fired without panicking.
func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(`[{"site": "snapifyio.chunk", "key": "0", "kind": "drop", "nth": 3}]`))
	f.Add([]byte(`[{"site": "snapifyio.daemon", "key": "host", "kind": "crash", "nth": 7}]`))
	f.Add([]byte(`[{"site": "scif.rdma", "key": "mic0->host", "kind": "slow", "at_ns": 1500000, "count": 4, "factor": 8}]`))
	if seeded, err := json.MarshalIndent(SeededPlan(7, []SiteKey{{SiteSend, LinkKey("mic0", "host")}, {SiteChunk, "0"}}, 3, 9), "", "  "); err == nil {
		f.Add(seeded)
	}
	f.Add([]byte(`[{"site": "snapifyio.chunk"}]`))                 // no kind
	f.Add([]byte(`[{"site": "snapifyio.chunk", "kind": "drop", `)) // truncated
	f.Add([]byte(`[{"site": 3, "kind": "drop"}]`))                 // wrong type
	f.Add([]byte(`[{"site": "x", "kind": "drop", "nth": -9223372036854775808, "count": -1}]`))
	f.Add([]byte(`{"site": "x", "kind": "drop"}`)) // an object, not a list
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := ParsePlan(data)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "faultinject: ") {
				t.Fatalf("rejected with %q, want a faultinject error", err)
			}
			return
		}
		for i, fault := range plan {
			if fault.Site == "" || fault.Kind == "" {
				t.Fatalf("accepted plan[%d] without a site or a kind: %+v", i, fault)
			}
		}
		enc, err := json.MarshalIndent(plan, "", "  ")
		if err != nil {
			t.Fatalf("encoding an accepted plan: %v", err)
		}
		back, err := ParsePlan(enc)
		if err != nil {
			t.Fatalf("re-parsing an accepted plan: %v", err)
		}
		if !reflect.DeepEqual(back, plan) {
			t.Fatalf("round trip changed the plan:\n  in %+v\n out %+v", plan, back)
		}
		in := New(plan, nil)
		for _, fault := range plan {
			in.Fire(fault.Site, fault.Key)
		}
		in.Pending()
	})
}
