package snapifyio

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"sync"

	"snapify/internal/blob"
	"snapify/internal/faultinject"
	"snapify/internal/obs"
	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/vfs"
)

// chunkSizeBuckets are the histogram bounds for per-chunk transfer sizes
// (the staging buffer caps a chunk, so 4 MiB is the common case and the
// 16 MiB bucket only fills under ablation-sized buffers).
var chunkSizeBuckets = []int64{
	64 * simclock.KiB, 256 * simclock.KiB, simclock.MiB, 4 * simclock.MiB, 16 * simclock.MiB,
}

// Daemon is the per-node Snapify-IO daemon: a remote server thread accepts
// SCIF connections from peer daemons and spawns a handler per connection to
// serve the local file system. Each connection carries one stream; the
// daemon keeps per-stream staging slots and assembles striped writes into
// whole files.
type Daemon struct {
	svc     *Service
	node    simnet.NodeID
	fs      vfs.NodeFS
	lst     *scif.Listener
	bufSize int64
	done    chan struct{}

	mu         sync.Mutex
	streams    map[int64]streamInfo
	assemblies map[string]*assembly
	eps        map[*scif.Endpoint]struct{}
	// store, when attached (AttachStore), serves store-mode streams and
	// have/need negotiations on this node.
	store ChunkStore
}

// chunkStore returns the attached store, or nil.
func (d *Daemon) chunkStore() ChunkStore {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.store
}

// streamInfo describes one stream this daemon is currently serving.
type streamInfo struct {
	mode  Mode
	path  string
	slots int
}

// ActiveStreams returns the number of streams the daemon is serving.
func (d *Daemon) ActiveStreams() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.streams)
}

func (d *Daemon) registerStream(id int64, info streamInfo) {
	d.mu.Lock()
	if d.streams == nil {
		d.streams = make(map[int64]streamInfo)
	}
	d.streams[id] = info
	d.mu.Unlock()
}

func (d *Daemon) unregisterStream(id int64) {
	d.mu.Lock()
	delete(d.streams, id)
	d.mu.Unlock()
}

// assembly is one striped write in progress: parallel streams deliver
// disjoint ranges of the same remote file, and the daemon tracks the
// exact byte ranges durably written (credited per chunk, merged, so an
// idempotent replay after a fault never double-counts). The file
// commits when the last stream departs with the declared size fully
// covered; an aborted stripe poisons the assembly and the last
// departing stream discards it. A *detached* stream — one whose
// connection died or that sent msgDetach — keeps the assembly alive so
// a replacement stream can resume from its acknowledgement watermark.
type assembly struct {
	sw       vfs.SparseWriter
	total    int64
	refs     int
	detached int
	aborted  bool
	spans    []span // sorted, disjoint byte ranges durably written
}

// span is one covered byte range [off, end).
type span struct{ off, end int64 }

// add merges [off, end) into the coverage set in place: the run of spans
// it overlaps or touches collapses into one. Caller holds d.mu.
func (a *assembly) add(off, end int64) {
	if end <= off {
		return
	}
	lo := sort.Search(len(a.spans), func(i int) bool { return a.spans[i].end >= off })
	hi := lo
	for ; hi < len(a.spans) && a.spans[hi].off <= end; hi++ {
		off = min(off, a.spans[hi].off)
		end = max(end, a.spans[hi].end)
	}
	a.spans = slices.Replace(a.spans, lo, hi, span{off, end})
}

// covered returns the total bytes durably written. Caller holds d.mu.
func (a *assembly) covered() int64 {
	var n int64
	for _, s := range a.spans {
		n += s.end - s.off
	}
	return n
}

// openAssembly joins (or starts) the striped write of path with the given
// total size. A join while detached streams are outstanding is a resume
// and consumes one detached slot.
func (d *Daemon) openAssembly(path string, total int64) (*assembly, error) {
	if total < 0 {
		return nil, fmt.Errorf("snapifyio: negative stripe total %d", total)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if a, ok := d.assemblies[path]; ok {
		if a.total != total {
			return nil, fmt.Errorf("snapifyio: stripe total %d for %q, other streams declared %d", total, path, a.total)
		}
		if a.aborted {
			return nil, fmt.Errorf("snapifyio: striped assembly of %q was aborted", path)
		}
		a.refs++
		if a.detached > 0 {
			a.detached--
		}
		return a, nil
	}
	sfs, ok := d.fs.(vfs.SparseFS)
	if !ok {
		return nil, fmt.Errorf("snapifyio: file system on %v does not support striped writes", d.node)
	}
	sw, err := sfs.CreateSparse(path, total)
	if err != nil {
		return nil, err
	}
	a := &assembly{sw: sw, total: total, refs: 1}
	d.assemblies[path] = a
	return a, nil
}

// credit records [off, off+n) of path as durably written.
func (d *Daemon) credit(asm *assembly, off, n int64) {
	d.mu.Lock()
	asm.add(off, off+n)
	d.mu.Unlock()
}

// coveredRange reports whether [off, end) is already durably written.
func (d *Daemon) coveredRange(asm *assembly, off, end int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, s := range asm.spans {
		if s.off <= off && end <= s.end {
			return true
		}
	}
	return false
}

// releaseAssembly drops one stripe's reference on a clean close or an
// abort. The stale-handle guard (a != asm) makes departures after a
// daemon crash harmless: the handle's assembly is gone, and a fresh one
// under the same path must not be touched.
func (d *Daemon) releaseAssembly(path string, asm *assembly, abort bool) error {
	d.mu.Lock()
	a, ok := d.assemblies[path]
	if !ok || a != asm {
		d.mu.Unlock()
		return nil
	}
	a.refs--
	if abort {
		a.aborted = true
	}
	// A clean close commits as soon as coverage is complete, even with
	// other references outstanding: once every byte is durably written
	// the only things the siblings can still do are close (harmless on a
	// committed assembly) or replay already-covered ranges (served from
	// coverage without touching the file). Waiting for refs==0 instead
	// would leave the commit racing against the departure of a severed
	// stream's handler, making the capture's outcome timing-dependent.
	complete := !abort && !a.aborted && a.covered() >= a.total
	discard := a.aborted && a.refs == 0
	if complete || discard {
		delete(d.assemblies, path)
	}
	d.mu.Unlock()
	if complete {
		return a.sw.Commit()
	}
	if discard {
		a.sw.Abort()
	}
	// Otherwise the assembly waits: either sibling streams are still
	// open (or have not opened yet — open/close order is free), or a
	// detached stream may resume. If coverage was lost for good (say a
	// daemon crash wiped it), no close can tell locally — the writer
	// verifies the committed file end-to-end and retries the capture,
	// discarding this pending assembly first.
	return nil
}

// detachAssembly parts a stream from its assembly without poisoning it:
// the coverage and partial file survive so a resumed stream can finish
// the job. If the departing stream was the last reference and coverage
// is already complete (a close handshake lost to a link fault after all
// data was acknowledged), the assembly commits here.
func (d *Daemon) detachAssembly(path string, asm *assembly) {
	d.mu.Lock()
	a, ok := d.assemblies[path]
	if !ok || a != asm {
		d.mu.Unlock()
		return
	}
	a.refs--
	a.detached++
	commit := !a.aborted && a.refs == 0 && a.covered() >= a.total
	discard := a.aborted && a.refs == 0
	if commit || discard {
		delete(d.assemblies, path)
	}
	d.mu.Unlock()
	if commit {
		a.sw.Commit() //nolint:errcheck // detach path: no peer is listening; the consumer validates the committed file
	}
	if discard {
		a.sw.Abort()
	}
}

// discardAssembly drops a pending assembly and removes its partial
// file. The cleanup path for a writer that exhausted its retries.
func (d *Daemon) discardAssembly(path string) {
	d.mu.Lock()
	a, ok := d.assemblies[path]
	if ok {
		delete(d.assemblies, path)
	}
	d.mu.Unlock()
	if ok {
		a.sw.Abort()
	}
}

// crash simulates a daemon crash and immediate restart (an injected
// Crash fault): every active connection dies, every in-progress
// assembly is discarded — partial files removed — and per-stream state
// is wiped. The listener stays bound: by the time a client observes the
// connection resets, the restarted daemon is already accepting again.
func (d *Daemon) crash() {
	// A daemon crash is exactly the incident the always-on flight
	// recorder exists for: freeze the recent-span ring before recovery
	// machinery overwrites it. The dump comes before the teardown, so the
	// dump of a client the reset fails is always the later, higher-Seq one.
	d.svc.obs.FlightOf().Trigger("snapifyio: injected daemon crash on " + d.node.String())
	d.teardown()
}

// teardown is the state-wiping half of crash, shared with the clean
// Service.Stop path — which must NOT trigger a flight dump: a planned
// shutdown is not an incident, and a dump there would overwrite the one
// a real failure just recorded.
func (d *Daemon) teardown() {
	// Connections reset in (remote, local) address order and assemblies
	// abort in path order: both teardowns touch the simulated network and
	// file systems, so iterating the maps directly would make post-crash
	// traces run-to-run nondeterministic.
	d.mu.Lock()
	eps := make([]*scif.Endpoint, 0, len(d.eps))
	for ep := range d.eps {
		eps = append(eps, ep)
	}
	d.eps = make(map[*scif.Endpoint]struct{})
	asms := d.assemblies
	d.assemblies = make(map[string]*assembly)
	d.streams = make(map[int64]streamInfo)
	cs := d.store
	d.mu.Unlock()
	if cs != nil {
		// Negotiated uploads die with the daemon; their durable chunks
		// stay, so a retrying capture ships only what is still missing.
		// They go before the connections do: a client that has seen its
		// reset may open the retry's upload at once, and a wipe that ran
		// after that would take the new upload with the old ones.
		cs.AbortAll()
	}
	// Partial files go before the connections too, for the same reason:
	// an abort removes the marker by path, so one that ran after the
	// reset could take the retry's fresh assembly marker with it, and a
	// client that has seen the reset must find no orphan left.
	paths := make([]string, 0, len(asms))
	for path := range asms {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		asms[path].sw.Abort()
	}
	scif.CloseAll(eps)
}

func (d *Daemon) trackEp(ep *scif.Endpoint) {
	d.mu.Lock()
	if d.eps == nil {
		d.eps = make(map[*scif.Endpoint]struct{})
	}
	d.eps[ep] = struct{}{}
	d.mu.Unlock()
}

func (d *Daemon) untrackEp(ep *scif.Endpoint) {
	d.mu.Lock()
	delete(d.eps, ep)
	d.mu.Unlock()
}

// remoteServer is the daemon's remote server thread (Section 6): it accepts
// SCIF connections and spawns a remote handler per connection.
func (d *Daemon) remoteServer() {
	for {
		ep, err := d.lst.Accept()
		if err != nil {
			return // listener closed: daemon shutting down
		}
		go d.remoteHandler(ep)
	}
}

// remoteHandler serves one connection from a peer daemon: a one-shot
// control request, or one file stream.
func (d *Daemon) remoteHandler(ep *scif.Endpoint) {
	d.trackEp(ep)
	defer d.untrackEp(ep)
	defer ep.Close() //nolint:errcheck // dropping the per-stream connection is the error signal; a close error has no recovery

	raw, _, err := ep.Recv()
	if err != nil {
		return
	}
	first, err := decode(raw)
	if err != nil {
		// A mangled request is refused in-band where its protocol has a
		// refusal; otherwise hanging up is the signal.
		if len(raw) > 0 {
			switch raw[0] {
			case msgOpen:
				send(ep, &openResp{Err: err.Error()})
			case msgStoreNegotiate, msgStoreWindow:
				send(ep, &negotiateResp{Err: err.Error()})
			case msgStoreDigests:
				send(ep, &digestsResp{Err: err.Error()})
			}
		}
		return
	}
	switch first.kind() {
	case msgMetricsDump:
		// SIGUSR1 analogue: dump the metrics registry and hang up.
		send(ep, &textMsg{Kind: msgMetricsResp, Text: d.svc.obs.MetricsOf().Expose()})
	case msgDiscard:
		// Control: drop a pending striped assembly and its partial file
		// (a writer gave up on resuming).
		path := first.(*textMsg).Text
		d.discardAssembly(path)
		if cs := d.chunkStore(); cs != nil {
			// A writer giving up on a path also abandons any negotiated
			// dedup upload of it; stored chunks stay for the next attempt.
			cs.AbortUpload(path)
		}
		d.svc.obs.MetricsOf().Counter("snapifyio_discards_total",
			"Pending striped assemblies discarded by control request.",
			obs.L("node", d.node.String())).Inc()
		send(ep, &textMsg{Kind: msgDiscardResp})
	case msgStoreNegotiate, msgStoreWindow:
		send(ep, d.serveNegotiate(first))
	case msgStoreDigests:
		send(ep, d.serveDigestPlan(first.(*textMsg).Text))
	case msgOpen:
		d.serveStream(ep, first.(*openMsg))
	}
}

// serveStream validates a stream declaration and serves the stream.
func (d *Daemon) serveStream(ep *scif.Endpoint, open *openMsg) {
	slots := len(open.Windows)
	if open.BufSize != d.bufSize {
		// Mismatched staging sizes would deadlock the chunk protocol.
		send(ep, &openResp{Err: "staging buffer size mismatch"})
		return
	}
	if slots < 1 || slots > MaxSlots {
		send(ep, &openResp{Err: fmt.Sprintf("stream wants %d staging slots, daemon allows 1..%d", slots, MaxSlots)})
		return
	}
	d.registerStream(open.StreamID, streamInfo{mode: open.Mode, path: open.Path, slots: slots})
	defer d.unregisterStream(open.StreamID)

	switch open.Mode {
	case Write:
		d.serveWrite(ep, open)
	case Read:
		d.serveRead(ep, open)
	}
}

// serveNegotiate answers a have/need control round against the attached
// chunk store: ask the store which chunks of the offered list (or window
// of it) it lacks, reply with the need set (or that the manifest committed
// on the spot). What the store refuses — a window outside the declared
// geometry, or for a path with no upload open — is the reply's error text.
func (d *Daemon) serveNegotiate(req msg) *negotiateResp {
	cs := d.chunkStore()
	if cs == nil {
		return &negotiateResp{Err: fmt.Sprintf("no chunk store attached on %v", d.node)}
	}
	resp := new(negotiateResp)
	var err error
	switch req := req.(type) {
	case *negotiateMsg:
		resp.Need, resp.Committed, resp.Dur, err = cs.Negotiate(req.Path, req.Parent, req.Size, req.ChunkBytes, req.Digests)
	case *windowMsg:
		resp.Need, resp.Committed, resp.Dur, err = cs.NegotiateWindow(req.Path, req.Parent, req.Size, req.ChunkBytes, req.First, req.Digests)
	}
	if err != nil {
		return &negotiateResp{Err: err.Error()}
	}
	return resp
}

// serveDigestPlan answers a digest-plan request against the attached
// chunk store: the live-migration destination asking "what should I be
// staging for this path right now?".
func (d *Daemon) serveDigestPlan(path string) *digestsResp {
	cs := d.chunkStore()
	if cs == nil {
		return &digestsResp{Err: fmt.Sprintf("no chunk store attached on %v", d.node)}
	}
	size, chunkBytes, digests, committed, ok, dur := cs.DigestPlan(path)
	return &digestsResp{OK: ok, Committed: committed, Dur: dur, Size: size, ChunkBytes: chunkBytes, Digests: digests}
}

func send(ep *scif.Endpoint, m msg) {
	ep.Send(encode(m)) //nolint:errcheck // peer teardown is handled by Recv errors
}

// chunkSink is where a write stream's drained chunks land: an append-mode
// file, a shared striped assembly, or the node's chunk store.
type chunkSink interface {
	// put persists one chunk at off (ignored by an append-mode file) and
	// returns the file-system time. partial is an injected partial-write
	// fault: persist at most a prefix, credit nothing, and return the
	// fault as the error — the resumed stream replays the whole chunk.
	put(off int64, content blob.Blob, partial bool) (simclock.Duration, error)
	// commit is the stream's clean close.
	commit() error
	// leave parts the stream without committing. abort discards what the
	// stream shares with its siblings; otherwise (a transport-class
	// failure, or a detach) whatever a replacement stream could resume
	// from survives.
	leave(abort bool)
}

// appendSink is the classic mode: one stream appends one file, which has
// nothing to resume from.
type appendSink struct{ fw vfs.Writer }

func (s appendSink) put(_ int64, content blob.Blob, partial bool) (simclock.Duration, error) {
	if partial {
		s.fw.WriteBlob(content.Slice(0, content.Len()/2)) //nolint:errcheck // injected fault: the chunk is nacked regardless of how the half-write fared
		return 0, errors.New("injected fault: partial write")
	}
	return s.fw.WriteBlob(content)
}
func (s appendSink) commit() error { return s.fw.Close() }
func (s appendSink) leave(bool)    { s.fw.Abort() }

// stripeSink writes one stream's byte range of a shared striped assembly.
// Aborting poisons the assembly for every sibling; detaching keeps it and
// its coverage for a watermark resume.
type stripeSink struct {
	d    *Daemon
	path string
	asm  *assembly
}

func (s stripeSink) put(off int64, content blob.Blob, partial bool) (simclock.Duration, error) {
	if partial {
		s.asm.sw.WriteBlobAt(off, content.Slice(0, content.Len()/2)) //nolint:errcheck // injected fault: the chunk is nacked regardless of how the half-write fared
		return 0, errors.New("injected fault: partial stripe write")
	}
	if s.d.coveredRange(s.asm, off, off+content.Len()) {
		// Idempotent replay of bytes that are already durable (a resumed
		// stream's watermark undercounts acked-but-uncredited chunks):
		// ack without touching the file — it may even have committed
		// under us.
		return 0, nil
	}
	dur, err := s.asm.sw.WriteBlobAt(off, content)
	if err == nil {
		s.d.credit(s.asm, off, content.Len())
	}
	return dur, err
}
func (s stripeSink) commit() error { return s.d.releaseAssembly(s.path, s.asm, false) }
func (s stripeSink) leave(abort bool) {
	if abort {
		s.d.releaseAssembly(s.path, s.asm, true) //nolint:errcheck // abort path: discarding the partial assembly is the handling
	} else {
		s.d.detachAssembly(s.path, s.asm)
	}
}

// storeSink feeds a negotiated dedup upload: each chunk is verified
// against its announced digest and stored once. There is no assembly and
// no partial file — chunks are durable and idempotent the moment they
// land, so a severed stream simply leaves the upload pending and a retry
// re-negotiates, shipping only what is still missing. commit asks the
// store to commit the manifest (a no-op until the last missing chunk has
// landed across all sibling streams).
type storeSink struct {
	cs   ChunkStore
	path string
}

func (s storeSink) put(off int64, content blob.Blob, partial bool) (simclock.Duration, error) {
	if partial {
		// The store admits whole verified chunks or nothing, so a partial
		// write degenerates to a failed chunk.
		return 0, errors.New("injected fault: partial chunk upload")
	}
	return s.cs.PutChunkAt(s.path, off, content)
}
func (s storeSink) commit() error {
	_, _, err := s.cs.CloseUpload(s.path)
	return err
}
func (s storeSink) leave(abort bool) {
	if abort {
		s.cs.AbortUpload(s.path)
	}
}

// openSink opens the sink a write stream declared.
func (d *Daemon) openSink(open *openMsg) (chunkSink, error) {
	st := open.Stripe
	if open.Striped && (st.Offset < 0 || st.Length < 0 || st.Offset+st.Length > st.Total) {
		return nil, fmt.Errorf("stripe [%d,%d) outside file of %d bytes", st.Offset, st.Offset+st.Length, st.Total)
	}
	switch {
	case open.Store:
		cs := d.chunkStore()
		if cs == nil {
			return nil, fmt.Errorf("no chunk store attached on %v", d.node)
		}
		if !open.Striped {
			// Store chunks are positioned by definition; the stripe
			// carries the offsets.
			return nil, errors.New("store-mode stream requires a stripe")
		}
		return storeSink{cs, open.Path}, nil
	case open.Striped:
		asm, err := d.openAssembly(open.Path, st.Total)
		if err != nil {
			return nil, err
		}
		return stripeSink{d, open.Path, asm}, nil
	default:
		fw, err := d.fs.Create(open.Path)
		if err != nil {
			return nil, err
		}
		return appendSink{fw}, nil
	}
}

// serveWrite drains the peer's staging slots into the stream's sink, one
// chunk-ready at a time: validate the request, consult the fault plan,
// pull the bytes with scif_vreadfrom, persist, acknowledge.
func (d *Daemon) serveWrite(ep *scif.Endpoint, open *openMsg) {
	sink, err := d.openSink(open)
	if err != nil {
		send(ep, &openResp{Err: err.Error()})
		return
	}
	send(ep, &openResp{})

	st := open.Stripe
	staging := make([]*slot, len(open.Windows))
	for i := range staging {
		staging[i] = newSlot(d.bufSize)
	}
	for {
		raw, _, err := ep.Recv()
		if err != nil {
			sink.leave(false) // peer vanished mid-stream
			return
		}
		m, err := decode(raw)
		if err != nil {
			sink.leave(false) // truncated or corrupted request
			return
		}
		switch m.kind() {
		case msgChunkReady:
			cr := m.(*chunkReady)
			nack := func(text string) {
				send(ep, &chunkAck{StreamID: open.StreamID, Slot: cr.Slot, Err: text})
			}
			// A request that breaks the stream's declaration is a peer
			// bug, not a transport fault: refuse it and abort.
			var bad string
			switch {
			case cr.StreamID != open.StreamID:
				bad = fmt.Sprintf("chunk for stream %d on stream %d", cr.StreamID, open.StreamID)
			case cr.Slot >= len(staging):
				bad = fmt.Sprintf("chunk names slot %d of %d", cr.Slot, len(staging))
			case !open.Striped && cr.FileOff >= 0:
				bad = "positioned chunk on an unstriped stream"
			case open.Striped && (cr.FileOff < st.Offset || cr.FileOff+cr.N > st.Offset+st.Length):
				bad = fmt.Sprintf("chunk [%d,%d) outside stripe [%d,%d)", cr.FileOff, cr.FileOff+cr.N, st.Offset, st.Offset+st.Length)
			}
			if bad != "" {
				nack(bad)
				sink.leave(true)
				return
			}
			// Consult the fault plan at the daemon's chunk service
			// point: a Crash fault takes the whole daemon down (and
			// back up, state wiped); chunk-level faults hit just this
			// stream, keyed by its stripe offset.
			inj := d.svc.net.Fabric().Injector()
			if f := inj.Fire(faultinject.SiteDaemon, d.node.String()); f != nil && f.Kind == faultinject.Crash {
				d.crash()
				return
			}
			partial := false
			if f := inj.Fire(faultinject.SiteChunk, strconv.FormatInt(st.Offset, 10)); f != nil {
				switch f.Kind {
				case faultinject.Drop:
					sink.leave(false)
					return
				case faultinject.PartialWrite:
					partial = true
				}
			}
			// Drain the peer's registered buffer with scif_vreadfrom.
			rdma, err := ep.VReadFrom(staging[cr.Slot], 0, cr.N, open.Windows[cr.Slot])
			if err != nil {
				sink.leave(false)
				return
			}
			fsWrite, err := sink.put(cr.FileOff, staging[cr.Slot].SnapshotRange(0, cr.N), partial)
			if err != nil {
				// A failed write aborts; an injected partial one detaches,
				// so the resumed stream can replay the chunk.
				nack(err.Error())
				sink.leave(!partial)
				return
			}
			send(ep, &chunkAck{StreamID: open.StreamID, Slot: cr.Slot, RDMA: rdma, FSWrite: fsWrite})
		case msgClose:
			resp := &textMsg{Kind: msgCloseResp}
			if err := sink.commit(); err != nil {
				resp.Text = err.Error()
			}
			send(ep, resp)
			return
		case msgAbort:
			sink.leave(true)
			return
		default: // msgDetach, or a message that has no business on a write stream
			sink.leave(false)
			return
		}
	}
}

// openSource opens what a read stream declared: chunks of a store-resident
// snapshot's digest plan, a byte range of a file, or a whole file.
func (d *Daemon) openSource(open *openMsg) (vfs.Reader, error) {
	switch {
	case open.Store:
		cs := d.chunkStore()
		if cs == nil {
			return nil, fmt.Errorf("no chunk store attached on %v", d.node)
		}
		if open.Striped {
			return nil, errors.New("store-mode read names chunks, not a stripe")
		}
		return newPlanReader(cs, open.Path, open.Chunks)
	case open.Striped:
		rfs, ok := d.fs.(vfs.RangeFS)
		if !ok {
			return nil, fmt.Errorf("snapifyio: file system on %v does not support range reads", d.node)
		}
		return rfs.OpenRange(open.Path, open.Stripe.Offset, open.Stripe.Length)
	default:
		return d.fs.Open(open.Path)
	}
}

// serveRead streams the declared source into the peer's staging slots, one
// pull at a time: validate the request, consult the fault plan, read the
// next piece, push it with scif_vwriteto, answer.
func (d *Daemon) serveRead(ep *scif.Endpoint, open *openMsg) {
	fr, err := d.openSource(open)
	if err != nil {
		send(ep, &openResp{Err: err.Error()})
		return
	}
	send(ep, &openResp{Size: fr.Size()})

	staging := make([]*slot, len(open.Windows))
	for i := range staging {
		staging[i] = newSlot(d.bufSize)
	}
	for {
		raw, _, err := ep.Recv()
		if err != nil {
			return
		}
		m, err := decode(raw)
		if err != nil {
			return // truncated or corrupted request
		}
		switch m.kind() {
		case msgPull:
			pull := m.(*pullMsg)
			here := &chunkHere{StreamID: open.StreamID, Slot: pull.Slot}
			nack := func(text string) {
				here.Err = text
				send(ep, here)
			}
			if pull.StreamID != open.StreamID {
				nack(fmt.Sprintf("pull for stream %d on stream %d", pull.StreamID, open.StreamID))
				return
			}
			if pull.Slot >= len(staging) {
				nack(fmt.Sprintf("pull names slot %d of %d", pull.Slot, len(staging)))
				return
			}
			// The read path consults the same fault plan as the write
			// path: restores face the same daemon crashes and chunk
			// faults captures do.
			inj := d.svc.net.Fabric().Injector()
			if f := inj.Fire(faultinject.SiteDaemon, d.node.String()); f != nil && f.Kind == faultinject.Crash {
				d.crash()
				return
			}
			if f := inj.Fire(faultinject.SiteChunk, strconv.FormatInt(open.Stripe.Offset, 10)); f != nil && f.Kind != faultinject.Slow {
				nack("injected fault: chunk read failed")
				return
			}
			chunk, fsRead, err := fr.Next(d.bufSize)
			if err == io.EOF {
				send(ep, here) // N == 0: end of file
				continue       // peer will close
			}
			if err != nil {
				nack(err.Error())
				return
			}
			staging[pull.Slot].WriteBlob(0, chunk)
			// Push into the peer's registered buffer with scif_vwriteto.
			rdma, err := ep.VWriteTo(staging[pull.Slot], 0, chunk.Len(), open.Windows[pull.Slot])
			if err != nil {
				return
			}
			here.N, here.FSRead, here.RDMA = chunk.Len(), fsRead, rdma
			send(ep, here)
		case msgClose, msgAbort, msgDetach:
			send(ep, &textMsg{Kind: msgCloseResp})
			return
		default:
			return
		}
	}
}

// open implements the library side: connect to the target daemon, register
// the staging slots, declare the stream (ID, slots, stripe), and return
// the file handle. The stream registers a bulk flow on the fabric for its
// lifetime, so concurrent streams share link bandwidth honestly.
func (d *Daemon) open(target simnet.NodeID, path string, mode Mode, opts OpenOptions) (*File, error) {
	slots := opts.Slots
	if slots == 0 {
		slots = 1
	}
	if slots < 1 || slots > MaxSlots {
		return nil, fmt.Errorf("snapifyio: %d staging slots requested, allowed 1..%d", slots, MaxSlots)
	}
	st := opts.Stripe
	if st.enabled() {
		if st.Offset < 0 || st.Length <= 0 {
			return nil, fmt.Errorf("snapifyio: bad stripe [%d,%d)", st.Offset, st.Offset+st.Length)
		}
		if mode == Write && st.Offset+st.Length > st.Total {
			return nil, fmt.Errorf("snapifyio: stripe [%d,%d) outside declared file of %d bytes", st.Offset, st.Offset+st.Length, st.Total)
		}
	}
	switch {
	case opts.Store && mode == Write && !st.enabled():
		return nil, errors.New("snapifyio: store-mode write stream needs a stripe (its chunks carry offsets)")
	case opts.Store && mode == Read && st.enabled():
		return nil, errors.New("snapifyio: store-mode read stream names chunks, not a stripe")
	case len(opts.Chunks) > 0 && !(opts.Store && mode == Read):
		return nil, errors.New("snapifyio: only a store-mode read stream names chunks")
	}

	model := d.svc.net.Fabric().Model()
	ep, err := d.svc.net.Connect(d.node, scif.Addr{Node: target, Port: Port})
	if err != nil {
		return nil, err
	}
	staging := make([]*slot, slots)
	windows := make([]int64, slots)
	var regCost simclock.Duration
	for i := range staging {
		staging[i] = newSlot(d.bufSize)
		win, rc, err := ep.Register(staging[i], 0, d.bufSize)
		if err != nil {
			ep.Close() //nolint:errcheck // dropping the per-stream connection is the error signal; a close error has no recovery
			return nil, err
		}
		windows[i] = win.Offset
		regCost += rc
	}
	streamID := d.svc.nextStreamID.Add(1)

	req := &openMsg{Mode: mode, StreamID: streamID, BufSize: d.bufSize, Windows: windows,
		Striped: st.enabled(), Stripe: st, Path: path, Store: opts.Store, Chunks: opts.Chunks}
	if _, err := ep.Send(encode(req)); err != nil {
		ep.Close() //nolint:errcheck // dropping the per-stream connection is the error signal; a close error has no recovery
		return nil, err
	}
	raw, _, err := ep.Recv()
	if err != nil {
		ep.Close() //nolint:errcheck // dropping the per-stream connection is the error signal; a close error has no recovery
		return nil, err
	}
	resp, err := expect[*openResp](raw, msgOpenResp)
	if err != nil {
		ep.Close() //nolint:errcheck // dropping the per-stream connection is the error signal; a close error has no recovery
		return nil, err
	}
	if resp.Err != "" {
		ep.Close() //nolint:errcheck // dropping the per-stream connection is the error signal; a close error has no recovery
		return nil, &RemoteError{Node: target, Path: path, Msg: resp.Err}
	}
	size := resp.Size

	// The stream is a bulk flow on the PCIe link for as long as it is
	// open: writes move node -> target, reads target -> node.
	fab := d.svc.net.Fabric()
	var release func()
	if mode == Write {
		release = fab.RegisterFlow(d.node, target)
	} else {
		release = fab.RegisterFlow(target, d.node)
	}

	mx := d.svc.obs.MetricsOf()
	nodeL := obs.L("node", d.node.String())
	modeL := obs.L("mode", mode.String())
	mx.Counter("snapifyio_streams_opened_total",
		"Streams opened through snapifyio_open.", nodeL, modeL).Inc()

	f := &File{
		node:     d.node,
		target:   target,
		mode:     mode,
		ep:       ep,
		slots:    staging,
		bufSize:  d.bufSize,
		model:    model,
		size:     size,
		streamID: streamID,
		release:  release,
		fileOff:  -1,
		bytesCtr: mx.Counter("snapifyio_stream_bytes_total",
			"Bytes streamed through Snapify-IO handles.", nodeL, modeL),
		chunkHist: mx.Histogram("snapifyio_chunk_bytes",
			"Per-chunk sizes moved through the staging slots.", chunkSizeBuckets, nodeL, modeL),
		abortCtr: mx.Counter("snapifyio_aborts_total",
			"Streams discarded via Abort.", nodeL),
		detachCtr: mx.Counter("snapifyio_detaches_total",
			"Streams detached for a later watermark resume.", nodeL),
		errCtr: mx.Counter("snapifyio_remote_errors_total",
			"Errors reported by the remote daemon on an open stream.", nodeL),
		// The open handshake: UNIX socket to the local daemon, SCIF
		// connect, window registration, request/response.
		pending: model.UnixSocketLatency + 2*model.SCIFMsgLatency + regCost,
	}
	if st.enabled() && mode == Write {
		f.fileOff = st.Offset
		f.stripeEnd = st.Offset + st.Length
	}
	return f, nil
}
