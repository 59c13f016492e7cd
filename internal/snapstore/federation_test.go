package snapstore

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"snapify/internal/blob"
	"snapify/internal/faultinject"
	"snapify/internal/hostfs"
	"snapify/internal/obs"
	"snapify/internal/simclock"
)

// fedEnv is a federation over n fresh single-store hosts named h0..hN
// with a swappable injector, mirroring how the fleet arms chaos plans.
type fedEnv struct {
	fed   *Federation
	hosts map[string]*env
	inj   *faultinject.Injector
}

func newFedEnv(t *testing.T, n int) *fedEnv {
	t.Helper()
	fe := &fedEnv{hosts: make(map[string]*env)}
	fe.fed = NewFederation(obs.New(), DefaultLink(), func() *faultinject.Injector { return fe.inj })
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h%d", i)
		m := simclock.Default()
		e := &env{fs: hostfs.New(m)}
		e.st = New(m, e.fs, obs.New(), func() *faultinject.Injector { return fe.inj })
		fe.hosts[name] = e
		if err := fe.fed.Add(name, e.st); err != nil {
			t.Fatalf("add %s: %v", name, err)
		}
	}
	return fe
}

func (fe *fedEnv) arm(p faultinject.Plan) { fe.inj = faultinject.New(p, nil) }
func (fe *fedEnv) disarm()                { fe.inj = nil }

// seedDir builds a replicable snapshot directory on host name: one
// plain file and one store-resident snapshot.
func (fe *fedEnv) seedDir(t *testing.T, name, dir string, seed byte, n int64) blob.Blob {
	t.Helper()
	e := fe.hosts[name]
	content := testContent(seed, n)
	if _, err := e.fs.WriteFile(dir+"/context_host", testContent(seed+100, 512)); err != nil {
		t.Fatalf("seed plain file: %v", err)
	}
	putAll(t, e, dir+"/ctx", "", content, 1024)
	return content
}

// assertFsckClean runs Verify on every living host's store.
func (fe *fedEnv) assertFsckClean(t *testing.T) {
	t.Helper()
	for name, e := range fe.hosts {
		if !fe.fed.Alive(name) {
			continue
		}
		if problems, _ := e.st.Verify(); len(problems) != 0 {
			t.Fatalf("host %s fsck: %v", name, problems)
		}
	}
}

// TestFederationShipDedup pins the tentpole's cross-host dedup: the
// first ship of a snapshot moves every chunk, re-shipping a similar
// snapshot moves only the delta.
func TestFederationShipDedup(t *testing.T) {
	fe := newFedEnv(t, 2)
	content := testContent(1, 8*1024)
	putAll(t, fe.hosts["h0"], "/snap/a/ctx", "", content, 1024)

	s1, _, err := fe.fed.ShipDir("h0", "h1", "/snap/a")
	if err != nil {
		t.Fatalf("first ship: %v", err)
	}
	if s1.ChunksShipped != 8 || s1.ChunksDeduped != 0 {
		t.Fatalf("first ship = %+v, want 8 shipped", s1)
	}

	// A similar image: one chunk differs.
	similar := blob.Concat(testContent(99, 1024), content.Slice(1024, 7*1024))
	putAll(t, fe.hosts["h0"], "/snap/b/ctx", "", similar, 1024)
	s2, _, err := fe.fed.ShipDir("h0", "h1", "/snap/b")
	if err != nil {
		t.Fatalf("second ship: %v", err)
	}
	if s2.ChunksShipped != 1 || s2.ChunksDeduped != 7 {
		t.Fatalf("second ship = %+v, want 1 shipped + 7 deduped", s2)
	}

	// Byte identity: the destination manifest lists the same digests and
	// assembles the same bytes.
	src, _, _ := fe.hosts["h0"].st.Manifest("/snap/b/ctx")
	dst, _, err := fe.hosts["h1"].st.Manifest("/snap/b/ctx")
	if err != nil {
		t.Fatalf("dst manifest: %v", err)
	}
	if !reflect.DeepEqual(src.Chunks, dst.Chunks) {
		t.Fatalf("manifest digests differ across hosts")
	}
	if got := readAll(t, fe.hosts["h1"], "/snap/b/ctx"); !blob.Equal(got, similar) {
		t.Fatalf("shipped snapshot content differs")
	}
	fe.assertFsckClean(t)
}

// TestFederationShipFileDedup checks whole-file dedup for plain files:
// identical content ships bytes exactly once per destination.
func TestFederationShipFileDedup(t *testing.T) {
	fe := newFedEnv(t, 2)
	content := testContent(2, 4096)
	if _, err := fe.hosts["h0"].fs.WriteFile("/libs/runtime", content); err != nil {
		t.Fatalf("seed: %v", err)
	}
	s1, _, err := fe.fed.ShipDir("h0", "h1", "/libs")
	if err != nil || s1.BytesShipped != 4096 {
		t.Fatalf("first ship = %+v, %v", s1, err)
	}
	s2, _, err := fe.fed.ShipDir("h0", "h1", "/libs")
	if err != nil || s2.BytesShipped != 0 || s2.ChunksDeduped != 1 {
		t.Fatalf("re-ship = %+v, %v (want deduped)", s2, err)
	}
}

// TestFederationReplicateAndHolders checks k-way replication placement:
// deterministic holder set of size k, content present on every holder.
func TestFederationReplicateAndHolders(t *testing.T) {
	fe := newFedEnv(t, 3)
	content := fe.seedDir(t, "h0", "/ckpt/job1", 3, 4*1024)

	holders, _, err := fe.fed.ReplicateDir("h0", "/ckpt/job1", 2)
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
	if len(holders) != 2 || !contains(holders, "h0") {
		t.Fatalf("holders = %v, want h0 + 1 more", holders)
	}
	for _, h := range holders {
		if !fe.hosts[h].st.Has("/ckpt/job1/ctx") {
			t.Fatalf("holder %s missing snapshot", h)
		}
		if got := readAll(t, fe.hosts[h], "/ckpt/job1/ctx"); !blob.Equal(got, content) {
			t.Fatalf("holder %s content differs", h)
		}
		if !fe.hosts[h].fs.Exists("/ckpt/job1/context_host") {
			t.Fatalf("holder %s missing plain file", h)
		}
	}
	if lag := fe.fed.ReplicaLag(); lag != 0 {
		t.Fatalf("ReplicaLag = %d, want 0", lag)
	}
	// Replication is idempotent.
	again, _, err := fe.fed.ReplicateDir("h0", "/ckpt/job1", 2)
	if err != nil || !reflect.DeepEqual(again, holders) {
		t.Fatalf("re-replicate = %v, %v; want %v", again, err, holders)
	}
	fe.assertFsckClean(t)
}

// TestFederationReplicateRefreshesHolders re-captures a replicated
// directory on its source: replicating again must bring the existing
// holder up to date, not count its stale copy as a replica.
func TestFederationReplicateRefreshesHolders(t *testing.T) {
	fe := newFedEnv(t, 3)
	fe.seedDir(t, "h0", "/ckpt/job1", 3, 4*1024)
	holders, _, err := fe.fed.ReplicateDir("h0", "/ckpt/job1", 2)
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
	e := fe.hosts["h0"]
	if _, err := e.st.Release("/ckpt/job1/ctx"); err != nil {
		t.Fatalf("release: %v", err)
	}
	fresh := fe.seedDir(t, "h0", "/ckpt/job1", 5, 4*1024)
	again, _, err := fe.fed.ReplicateDir("h0", "/ckpt/job1", 2)
	if err != nil || !reflect.DeepEqual(again, holders) {
		t.Fatalf("re-replicate = %v, %v; want %v", again, err, holders)
	}
	for _, h := range holders {
		if got := readAll(t, fe.hosts[h], "/ckpt/job1/ctx"); !blob.Equal(got, fresh) {
			t.Errorf("holder %s keeps the previous capture", h)
		}
	}
	fe.assertFsckClean(t)
}

// TestFederationKillAndRepair kills a holder and checks the repair loop
// re-establishes k from the surviving copy.
func TestFederationKillAndRepair(t *testing.T) {
	fe := newFedEnv(t, 3)
	fe.seedDir(t, "h0", "/ckpt/job1", 4, 4*1024)
	holders, _, err := fe.fed.ReplicateDir("h0", "/ckpt/job1", 2)
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
	if err := fe.fed.KillHost(holders[0]); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if lag := fe.fed.ReplicaLag(); lag != 1 {
		t.Fatalf("ReplicaLag after kill = %d, want 1", lag)
	}
	rs, _, err := fe.fed.Repair(0)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rs.ReplicasAdded != 1 || rs.SetsLost != 0 {
		t.Fatalf("repair = %+v, want 1 replica added", rs)
	}
	if lag := fe.fed.ReplicaLag(); lag != 0 {
		t.Fatalf("ReplicaLag after repair = %d, want 0", lag)
	}
	if got := len(fe.fed.Holders("/ckpt/job1")); got != 2 {
		t.Fatalf("holders after repair = %d, want 2", got)
	}
	fe.assertFsckClean(t)
}

// TestFederationDropDir releases a replicated directory everywhere: no
// living copy keeps a manifest or a plain file, GC empties the stores,
// and the forgotten set no longer counts as lagging.
func TestFederationDropDir(t *testing.T) {
	fe := newFedEnv(t, 3)
	fe.seedDir(t, "h0", "/ckpt/job1", 4, 4*1024)
	holders, _, err := fe.fed.ReplicateDir("h0", "/ckpt/job1", 2)
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
	if err := fe.fed.KillHost(holders[1]); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if err := fe.fed.DropDir("/ckpt/job1"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	if lag := fe.fed.ReplicaLag(); lag != 0 {
		t.Fatalf("ReplicaLag after drop = %d, want 0", lag)
	}
	if got := fe.fed.Holders("/ckpt/job1"); len(got) != 0 {
		t.Fatalf("holders after drop = %v, want none", got)
	}
	for name, e := range fe.hosts {
		if !fe.fed.Alive(name) {
			continue
		}
		if files := e.fs.List("/ckpt/job1/"); len(files) != 0 {
			t.Errorf("host %s kept plain files %v", name, files)
		}
		if _, _, err := e.st.GC(0); err != nil {
			t.Fatalf("gc on %s: %v", name, err)
		}
		if st := e.st.Stats(); st.Manifests != 0 || st.Chunks != 0 {
			t.Errorf("host %s not empty after drop + gc: %+v", name, st)
		}
	}
	fe.assertFsckClean(t)
}

// TestFederationDeadHostRefused pins ErrHostDead on every op naming a
// killed member.
func TestFederationDeadHostRefused(t *testing.T) {
	fe := newFedEnv(t, 2)
	putAll(t, fe.hosts["h0"], "/snap/a/ctx", "", testContent(5, 1024), 1024)
	if err := fe.fed.KillHost("h1"); err != nil {
		t.Fatalf("kill: %v", err)
	}
	if _, _, err := fe.fed.ShipDir("h0", "h1", "/snap/a"); !errors.Is(err, ErrHostDead) {
		t.Fatalf("ship to dead host: %v, want ErrHostDead", err)
	}
	if _, _, err := fe.fed.ShipDir("h1", "h0", "/snap/a"); !errors.Is(err, ErrHostDead) {
		t.Fatalf("ship from dead host: %v, want ErrHostDead", err)
	}
	if _, err := fe.fed.StoreOf("h1"); !errors.Is(err, ErrHostDead) {
		t.Fatalf("StoreOf dead host: %v, want ErrHostDead", err)
	}
	if got := fe.fed.Members(); !reflect.DeepEqual(got, []string{"h0"}) {
		t.Fatalf("Members = %v, want [h0]", got)
	}
}

// TestChaosFederationDestCrashMidNegotiate injects a destination-store
// crash during the have/need negotiation of a cross-host ship: the ship
// fails with ErrHostDead, nothing is torn on either side, and the ship
// retries cleanly against a surviving member.
func TestChaosFederationDestCrashMidNegotiate(t *testing.T) {
	fe := newFedEnv(t, 3)
	content := testContent(6, 4*1024)
	putAll(t, fe.hosts["h0"], "/snap/a/ctx", "", content, 1024)

	fe.arm(faultinject.Plan{{Site: faultinject.SiteFederation, Key: "negotiate", Kind: faultinject.Crash}})
	_, _, err := fe.fed.ShipDir("h0", "h1", "/snap/a")
	if !errors.Is(err, ErrHostDead) {
		t.Fatalf("ship under crash: %v, want ErrHostDead", err)
	}
	if fe.fed.Alive("h1") {
		t.Fatalf("h1 still alive after injected crash")
	}
	fe.disarm()

	// Retry against a survivor: full ship, byte-identical.
	s, _, err := fe.fed.ShipDir("h0", "h2", "/snap/a")
	if err != nil {
		t.Fatalf("retry ship: %v", err)
	}
	if s.ChunksShipped != 4 {
		t.Fatalf("retry shipped %d chunks, want 4", s.ChunksShipped)
	}
	if got := readAll(t, fe.hosts["h2"], "/snap/a/ctx"); !blob.Equal(got, content) {
		t.Fatalf("retry content differs")
	}
	fe.assertFsckClean(t)
}

// TestChaosFederationHostKillMidReplication kills the destination while
// replica chunks are in flight: ReplicateDir surfaces the death, the
// surviving stores stay fsck-clean with no pending uploads, and Repair
// re-establishes the target k on another host.
func TestChaosFederationHostKillMidReplication(t *testing.T) {
	fe := newFedEnv(t, 3)
	fe.seedDir(t, "h0", "/ckpt/job1", 7, 4*1024)

	// Fire on the 3rd cross-host transfer: mid-dir, after the plain file
	// and some chunks landed.
	fe.arm(faultinject.Plan{{Site: faultinject.SiteFederation, Key: "chunk", Kind: faultinject.Crash, Nth: 3}})
	_, _, err := fe.fed.ReplicateDir("h0", "/ckpt/job1", 2)
	if !errors.Is(err, ErrHostDead) {
		t.Fatalf("replicate under kill: %v, want ErrHostDead", err)
	}
	fe.disarm()

	if lag := fe.fed.ReplicaLag(); lag != 1 {
		t.Fatalf("ReplicaLag = %d, want 1 (set below target)", lag)
	}
	rs, _, err := fe.fed.Repair(0)
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rs.ReplicasAdded != 1 {
		t.Fatalf("repair = %+v, want 1 replica added", rs)
	}
	holders := fe.fed.Holders("/ckpt/job1")
	if len(holders) != 2 {
		t.Fatalf("holders = %v, want 2", holders)
	}
	for _, h := range holders {
		if fe.hosts[h].st.PendingUploads() != 0 {
			t.Fatalf("holder %s has pending uploads", h)
		}
	}
	fe.assertFsckClean(t)
}

// TestChaosFederationRepairCrash crashes the repair loop mid-pass: the
// pass reports ErrInterrupted, and a re-run converges to target k —
// repair is idempotent like GC.
func TestChaosFederationRepairCrash(t *testing.T) {
	fe := newFedEnv(t, 4)
	fe.seedDir(t, "h0", "/ckpt/job1", 8, 4*1024)
	fe.seedDir(t, "h0", "/ckpt/job2", 9, 4*1024)
	for _, dir := range []string{"/ckpt/job1", "/ckpt/job2"} {
		if _, _, err := fe.fed.ReplicateDir("h0", dir, 2); err != nil {
			t.Fatalf("replicate %s: %v", dir, err)
		}
	}
	// Kill every non-h0 holder so both sets need repair.
	for _, dir := range []string{"/ckpt/job1", "/ckpt/job2"} {
		for _, h := range fe.fed.Holders(dir) {
			if h != "h0" {
				if err := fe.fed.KillHost(h); err != nil {
					t.Fatalf("kill %s: %v", h, err)
				}
			}
		}
	}
	lagBefore := fe.fed.ReplicaLag()
	if lagBefore == 0 {
		t.Fatalf("setup: expected lagging sets")
	}

	fe.arm(faultinject.Plan{{Site: faultinject.SiteFederation, Key: "repair", Kind: faultinject.Crash, Nth: 2}})
	_, _, err := fe.fed.Repair(0)
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("repair under crash: %v, want ErrInterrupted", err)
	}
	fe.disarm()

	// Re-run converges.
	if _, _, err := fe.fed.Repair(0); err != nil {
		t.Fatalf("repair re-run: %v", err)
	}
	if lag := fe.fed.ReplicaLag(); lag != 0 {
		t.Fatalf("ReplicaLag after re-run = %d, want 0", lag)
	}
	fe.assertFsckClean(t)
}

// TestChaosFederationSeededDeterminism replays a seeded fault plan over
// the same replication scenario twice and requires identical outcomes —
// the federation keeps the chaos tier's determinism property.
func TestChaosFederationSeededDeterminism(t *testing.T) {
	menu := []faultinject.SiteKey{
		{Site: faultinject.SiteFederation, Key: "negotiate"},
		{Site: faultinject.SiteFederation, Key: "chunk"},
		{Site: faultinject.SiteFederation, Key: "repair"},
	}
	run := func(seed uint64) string {
		fe := newFedEnv(t, 3)
		fe.seedDir(t, "h0", "/ckpt/job1", 10, 4*1024)
		fe.arm(faultinject.SeededPlan(seed, menu, 3, 5))
		_, _, repErr := fe.fed.ReplicateDir("h0", "/ckpt/job1", 2)
		_, _, fixErr := fe.fed.Repair(0)
		return fmt.Sprintf("rep=%v fix=%v holders=%v lag=%d members=%v",
			repErr, fixErr, fe.fed.Holders("/ckpt/job1"), fe.fed.ReplicaLag(), fe.fed.Members())
	}
	for _, seed := range []uint64{1, 7, 0xC0FFEE} {
		a, b := run(seed), run(seed)
		if a != b {
			t.Fatalf("seed %d not deterministic:\n  %s\n  %s", seed, a, b)
		}
	}
}

// TestFederationPerPairLinks pins that SetLink overrides change only
// the overridden pair's shipping time: the same payload shipped over a
// slow cross-rack pair must cost more virtual time than over the
// default pair, and LinkBetween must fall back to the uniform link for
// pairs without an override.
func TestFederationPerPairLinks(t *testing.T) {
	fe := newFedEnv(t, 3)
	slow := CrossRackLink()
	fe.fed.SetLink("h0", "h2", slow)

	if got := fe.fed.LinkBetween("h0", "h1"); got != DefaultLink() {
		t.Fatalf("unoverridden pair: got %+v, want default", got)
	}
	if got := fe.fed.LinkBetween("h2", "h0"); got != slow {
		t.Fatalf("override not symmetric: got %+v", got)
	}
	if a, b := fe.fed.LinkCost("h0", "h2", 1<<20), fe.fed.LinkCost("h0", "h1", 1<<20); a <= b {
		t.Fatalf("cross-rack cost %v not above in-rack %v", a, b)
	}

	content := testContent(3, 8*1024)
	putAll(t, fe.hosts["h0"], "/snap/fast/ctx", "", content, 1024)
	putAll(t, fe.hosts["h0"], "/snap/slow/ctx", "", content, 1024)
	_, fastDur, err := fe.fed.ShipDir("h0", "h1", "/snap/fast")
	if err != nil {
		t.Fatalf("fast ship: %v", err)
	}
	_, slowDur, err := fe.fed.ShipDir("h0", "h2", "/snap/slow")
	if err != nil {
		t.Fatalf("slow ship: %v", err)
	}
	if slowDur <= fastDur {
		t.Fatalf("cross-rack ship %v not slower than in-rack %v", slowDur, fastDur)
	}
}

// TestFederationClosestHolder pins replica-locality queries: the
// cheapest living holder by per-pair link cost wins, ties break by
// name, a local copy wins outright, and dead holders are skipped.
func TestFederationClosestHolder(t *testing.T) {
	fe := newFedEnv(t, 4)
	fe.seedDir(t, "h0", "/ckpt/jobA", 5, 4*1024)
	holders, _, err := fe.fed.ReplicateDir("h0", "/ckpt/jobA", 3)
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
	if len(holders) != 3 {
		t.Fatalf("holders = %v, want 3", holders)
	}
	// From a holder itself, the local copy wins with zero transfer.
	if got := fe.fed.ClosestHolder("/ckpt/jobA", holders[0], 1<<20); got != holders[0] {
		t.Fatalf("local holder: got %q, want %q", got, holders[0])
	}

	// Find a non-holder vantage point (fleet of 4, 3 holders).
	from := ""
	for _, n := range fe.fed.Members() {
		if !contains(holders, n) {
			from = n
		}
	}
	if from == "" {
		t.Fatalf("no non-holder member among %v", fe.fed.Members())
	}
	// Uniform links: ties break by name — the first sorted holder.
	if got := fe.fed.ClosestHolder("/ckpt/jobA", from, 1<<20); got != holders[0] {
		t.Fatalf("uniform tie-break: got %q, want %q", got, holders[0])
	}
	// Make every pair from `from` slow except to the last holder: that
	// holder becomes closest despite sorting last.
	for _, h := range holders[:len(holders)-1] {
		fe.fed.SetLink(from, h, CrossRackLink())
	}
	want := holders[len(holders)-1]
	if got := fe.fed.ClosestHolder("/ckpt/jobA", from, 1<<20); got != want {
		t.Fatalf("link-aware pick: got %q, want %q", got, want)
	}
	// Kill the closest holder: the query must skip it.
	if err := fe.fed.KillHost(want); err != nil {
		t.Fatalf("kill %s: %v", want, err)
	}
	if got := fe.fed.ClosestHolder("/ckpt/jobA", from, 1<<20); got == want || got == "" {
		t.Fatalf("dead holder not skipped: got %q", got)
	}
	if got := fe.fed.ClosestHolder("/no/such/dir", from, 1); got != "" {
		t.Fatalf("unknown dir: got %q, want empty", got)
	}
}
