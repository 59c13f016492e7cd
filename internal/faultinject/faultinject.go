// Package faultinject provides deterministic, virtual-clock-safe fault
// injection for the Snapify simulation (DESIGN.md §10).
//
// A fault plan is an explicit list of Fault records — link drops,
// slowdowns, message corruption/truncation, daemon crashes, partial
// stripe writes — and an Injector arms a plan against the choke points
// that already exist in the data path: scif message sends, scif RDMA
// transfers, the Snapify-IO daemon's chunk service loop, and the COI
// daemon's request dispatch. The layers consult the injector through
// Fire(site, key); they never roll dice themselves.
//
// Determinism is the contract. A fault fires when its own matched-call
// ordinal reaches Nth (and keeps firing for Count consecutive matches),
// or — for time-triggered faults — when the injector's virtual clock
// has reached At. There is no real randomness anywhere: seeded plans
// are derived with a splitmix64 generator so the same seed over the
// same site menu always yields the same plan, and replaying a plan
// yields the identical trace (pinned by test).
package faultinject

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"snapify/internal/obs"
	"snapify/internal/simclock"
)

// Kind classifies what a fault does at its injection site.
type Kind string

// The fault kinds. Sites ignore kinds they cannot express (a Crash at
// a scif send site does nothing, for example); the chaos tier pins the
// meaningful (site, kind) pairs.
const (
	// Drop severs the connection: the message or transfer fails with a
	// connection reset and both endpoint halves are closed.
	Drop Kind = "drop"
	// Slow multiplies the virtual-time cost of the operation by Factor
	// (a link slowdown / congestion event). The operation succeeds.
	Slow Kind = "slow"
	// Corrupt flips a byte in the delivered copy of a message. The
	// receiver's protocol decoder rejects it as a clean error.
	Corrupt Kind = "corrupt"
	// Truncate delivers only a prefix of the message.
	Truncate Kind = "truncate"
	// Crash crashes the serving daemon: all of its connections die,
	// all of its in-progress assemblies are discarded (partial files
	// removed), and it restarts with fresh state.
	Crash Kind = "crash"
	// PartialWrite persists only a prefix of a chunk to the backing
	// file system and then fails the chunk. Coverage is only credited
	// for fully written chunks, so an idempotent replay repairs it.
	PartialWrite Kind = "partial_write"
)

// Site names an injection choke point. The set of sites is closed: the
// data path consults exactly these, and snapifylint's faultgate
// analyzer keeps the hook surface from leaking elsewhere.
type Site string

// The injection sites.
const (
	// SiteSend is scif.Endpoint.Send — every control message between a
	// stream client and a Snapify-IO daemon crosses it. Key: "a->b"
	// node-name pair (see LinkKey).
	SiteSend Site = "scif.send"
	// SiteRDMA is scif RDMA (VReadFrom/VWriteTo) — the bulk chunk
	// payload path. Key: "a->b" node-name pair.
	SiteRDMA Site = "scif.rdma"
	// SiteChunk is the Snapify-IO daemon's per-chunk service point
	// (write side). Key: decimal stripe offset of the stream, "0" for
	// unstriped streams — so a plan can target one stream index of a
	// parallel capture.
	SiteChunk Site = "snapifyio.chunk"
	// SiteDaemon is the Snapify-IO daemon crash point, consulted once
	// per served chunk. Key: node name ("host", "mic0", ...).
	SiteDaemon Site = "snapifyio.daemon"
	// SiteRequest is the COI daemon's capture/restore request
	// dispatch. Key: node name of the daemon.
	SiteRequest Site = "coi.request"
	// SiteStore is the snapshot store's mutation points. Key "commit"
	// fires between a manifest's temp write and its final rename (a
	// Crash there leaves the snapshot absent, never torn); key "gc"
	// fires once per chunk the sweep examines (a Crash abandons the
	// sweep mid-way — re-running GC must converge).
	SiteStore Site = "snapstore.op"
	// SiteFederation is the cross-host store federation's choke points.
	// Key "negotiate" fires when a ship negotiates against the
	// destination store, "chunk" once per chunk shipped cross-host,
	// "repair" once per replica re-established by the repair loop. A
	// Crash kills the destination host mid-op (the federation marks it
	// dead and the op fails with ErrHostDead); ships and repairs must
	// stay retryable against the surviving members.
	SiteFederation Site = "snapstore.federation"
)

// LinkKey renders the canonical key for a directed link fault at
// SiteSend/SiteRDMA: "from->to" using simnet node names.
func LinkKey(from, to string) string { return from + "->" + to }

// Fault is one armed fault. Matching: Site must equal the firing site
// and Key must equal the firing key (empty Key matches every key at
// the site). Trigger: if At > 0 the fault fires on the first matched
// call at or after virtual time At; otherwise it fires on the Nth
// matched call (1-based; 0 means 1). Either way it keeps firing for
// Count consecutive matched calls (0 means 1).
type Fault struct {
	Site  Site              `json:"site"`
	Key   string            `json:"key,omitempty"`
	Kind  Kind              `json:"kind"`
	Nth   int64             `json:"nth,omitempty"`
	Count int64             `json:"count,omitempty"`
	At    simclock.Duration `json:"at_ns,omitempty"`
	// Factor is the cost multiplier for Slow faults (0 means 2).
	Factor int64 `json:"factor,omitempty"`
}

// nth returns the 1-based trigger ordinal.
func (f Fault) nth() int64 {
	if f.Nth <= 0 {
		return 1
	}
	return f.Nth
}

// count returns how many consecutive matches fire.
func (f Fault) count() int64 {
	if f.Count <= 0 {
		return 1
	}
	return f.Count
}

// SlowFactor returns the effective cost multiplier of a Slow fault.
func (f Fault) SlowFactor() int64 {
	if f.Factor <= 1 {
		return 2
	}
	return f.Factor
}

// Plan is an ordered list of faults. Order matters only for Fire's
// first-match-wins rule when several faults trigger on the same call.
type Plan []Fault

// ParsePlan decodes a JSON fault plan (the snapbench -faults format:
// a JSON array of Fault objects).
func ParsePlan(data []byte) (Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("faultinject: parsing plan: %w", err)
	}
	for i, f := range p {
		if f.Site == "" || f.Kind == "" {
			return nil, fmt.Errorf("faultinject: plan[%d]: site and kind are required", i)
		}
	}
	return p, nil
}

// SiteKey is one candidate injection point for seeded plan derivation.
type SiteKey struct {
	Site Site
	Key  string
}

// Kinds a seeded plan draws from, in a fixed order. Crash and
// PartialWrite are site-specific, so the seeded menu sticks to the
// kinds every site can express.
var seededKinds = []Kind{Drop, Slow, Corrupt, Truncate}

// SeededPlan derives n faults from seed over the given menu of
// candidate sites, with trigger ordinals in [1, maxNth]. The
// derivation is a pure function of its arguments (splitmix64), so the
// same seed always produces the same plan — this is what makes a
// chaos run replayable from nothing but its seed.
func SeededPlan(seed uint64, menu []SiteKey, n, maxNth int) Plan {
	if len(menu) == 0 || n <= 0 {
		return nil
	}
	if maxNth < 1 {
		maxNth = 1
	}
	s := seed
	next := func() uint64 {
		// splitmix64 (Steele et al.): a tiny, well-mixed deterministic
		// generator — explicitly not a source of real randomness.
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	p := make(Plan, 0, n)
	for i := 0; i < n; i++ {
		sk := menu[next()%uint64(len(menu))]
		kind := seededKinds[next()%uint64(len(seededKinds))]
		p = append(p, Fault{
			Site: sk.Site,
			Key:  sk.Key,
			Kind: kind,
			Nth:  int64(next()%uint64(maxNth)) + 1,
		})
	}
	return p
}

// Injector arms a plan and answers Fire calls from the choke points.
// Each fault keeps a private counter of matched calls, so trigger
// ordinals are per-fault and independent of unrelated traffic at other
// (site, key) pairs. An Injector is safe for concurrent use. A nil
// Injector never fires.
type Injector struct {
	mu     sync.Mutex
	faults []armed
	now    func() simclock.Duration
	fired  map[string]*obs.Counter
	reg    *obs.Registry
}

type armed struct {
	Fault
	calls int64 // matched calls so far
	shots int64 // times fired
}

// New builds an injector over plan. now supplies the injector's
// virtual clock for At-triggered faults; it may be nil, in which case
// At faults never fire (ordinal faults are unaffected).
func New(plan Plan, now func() simclock.Duration) *Injector {
	in := &Injector{now: now}
	for _, f := range plan {
		in.faults = append(in.faults, armed{Fault: f})
	}
	return in
}

// PublishMetrics counts fired faults in reg as
// faultinject_fired_total{site,kind}.
func (in *Injector) PublishMetrics(reg *obs.Registry) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	in.reg = reg
	in.fired = make(map[string]*obs.Counter)
}

// Fire reports the fault, if any, that triggers on this call at
// (site, key). The matched-call counter of every matching fault
// advances regardless of whether it fires. First match wins when
// several faults trigger together.
func (in *Injector) Fire(site Site, key string) *Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var hit *Fault
	for i := range in.faults {
		a := &in.faults[i]
		if a.Site != site || (a.Key != "" && a.Key != key) {
			continue
		}
		a.calls++
		trigger := false
		if a.At > 0 {
			trigger = in.now != nil && in.now() >= a.At
		} else {
			trigger = a.calls >= a.nth()
		}
		if trigger && a.shots < a.count() && hit == nil {
			a.shots++
			f := a.Fault
			hit = &f
		}
	}
	if hit != nil && in.reg != nil {
		ck := string(hit.Site) + "\x00" + string(hit.Kind)
		c, ok := in.fired[ck]
		if !ok {
			c = in.reg.Counter("faultinject_fired_total",
				"Injected faults fired, by site and kind.",
				obs.L("site", string(hit.Site)), obs.L("kind", string(hit.Kind)))
			in.fired[ck] = c
		}
		c.Inc()
	}
	return hit
}

// FiredTotal returns how many faults have fired so far.
func (in *Injector) FiredTotal() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for i := range in.faults {
		n += in.faults[i].shots
	}
	return n
}

// Pending returns the armed faults that have not yet exhausted their
// shot budget, sorted by (site, key, kind) for deterministic output.
func (in *Injector) Pending() Plan {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var p Plan
	for i := range in.faults {
		a := in.faults[i]
		if a.shots < a.count() {
			p = append(p, a.Fault)
		}
	}
	sort.Slice(p, func(i, j int) bool {
		if p[i].Site != p[j].Site {
			return p[i].Site < p[j].Site
		}
		if p[i].Key != p[j].Key {
			return p[i].Key < p[j].Key
		}
		return p[i].Kind < p[j].Kind
	})
	return p
}
