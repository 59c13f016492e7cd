package snapifyio

import (
	"errors"
	"fmt"

	"snapify/internal/scif"
	"snapify/internal/simclock"
	"snapify/internal/wire"
)

// This file is the Snapify-IO daemon protocol: every message is a struct
// plus the one field list that both encodes and decodes it. Nothing else
// in the package knows a byte offset. DESIGN.md §8 tabulates the layouts.

// Wire message types between Snapify-IO daemons.
const (
	msgOpen uint8 = iota + 1
	msgOpenResp
	msgChunkReady // write mode: staging buffer filled, please drain
	msgChunkAck   // write mode: drained and written, buffer reusable
	msgPull       // read mode: please fill my staging buffer
	msgChunkHere  // read mode: staging buffer filled (n=0 means EOF)
	msgClose
	msgCloseResp
	msgAbort
	msgMetricsDump // control: dump the service metrics registry (SIGUSR1 analogue)
	msgMetricsResp
	msgDetach  // write mode: stream departs but the striped assembly survives for a resume
	msgDiscard // control: drop a pending striped assembly and its partial file
	msgDiscardResp
	_                  // 15, retired: the whole-list negotiation, now a msgStoreWindow at First 0
	msgStoreWindowResp // control: the need set a msgStoreWindow's have/need negotiation found
	msgStoreDigests    // control: fetch the digest plan (pending upload or manifest) for a snapshot path
	msgStoreDigestsResp
	msgStoreWindow // control: one window of a have/need negotiation against the node's chunk store; answered by msgStoreWindowResp
	msgHoleHere    // read mode, store streams only: a zero chunk's bytes, nothing in the staging buffer
)

// errMalformed is what every rejected message unwraps to: too short for
// its fields, bytes left over, or an unknown type — a protocol bug or an
// injected truncation/corruption fault.
var errMalformed = errors.New("snapifyio: malformed message")

// msg is one wire message.
type msg interface {
	kind() uint8
	fields(c *wire.Cursor)
}

// bare is a message that is only its type byte: msgClose, msgAbort,
// msgDetach, msgMetricsDump.
type bare uint8

func (b bare) kind() uint8       { return uint8(b) }
func (bare) fields(*wire.Cursor) {}

// openMsg declares a stream: its staging slots (one registered window
// each), the byte range it carries, and where the bytes land or come from.
type openMsg struct {
	Mode     Mode
	StreamID int64
	BufSize  int64
	Windows  []int64
	Striped  bool
	Stripe   Stripe
	Path     string
	Store    bool
	// Chunks is what a store-mode read asks for: chunk indices of the
	// path's digest plan, in serving order (none: the whole plan). The list
	// is on the wire only behind Mode == Read and Store, so every other
	// open is the bytes it always was.
	Chunks []int
}

func (*openMsg) kind() uint8 { return msgOpen }
func (m *openMsg) fields(c *wire.Cursor) {
	wire.U8(c, &m.Mode)
	wire.U64(c, &m.StreamID)
	slots := len(m.Windows)
	wire.U8(c, &slots)
	wire.U64(c, &m.BufSize)
	wire.Elems(c, &m.Windows, slots, wire.U64[int64])
	wire.Bool(c, &m.Striped)
	wire.U64(c, &m.Stripe.Offset)
	wire.U64(c, &m.Stripe.Length)
	wire.U64(c, &m.Stripe.Total)
	wire.Str64(c, &m.Path)
	wire.Bool(c, &m.Store)
	if m.Store && m.Mode == Read {
		wire.List(c, wire.U64[int], &m.Chunks, wire.U64[int])
	}
}

// openResp carries the remote file size for a read stream. In every
// reply a non-empty Err is the daemon's refusal and the other fields are
// zero.
type openResp struct {
	Err  string
	Size int64
}

func (*openResp) kind() uint8 { return msgOpenResp }
func (m *openResp) fields(c *wire.Cursor) {
	wire.Str64(c, &m.Err)
	wire.U64(c, &m.Size)
}

// chunkReady says slot Slot holds N bytes for file offset FileOff (-1 on
// an append stream).
type chunkReady struct {
	StreamID int64
	Slot     int
	N        int64
	FileOff  int64
}

func (*chunkReady) kind() uint8 { return msgChunkReady }
func (m *chunkReady) fields(c *wire.Cursor) {
	wire.U64(c, &m.StreamID)
	wire.U8(c, &m.Slot)
	wire.U64(c, &m.N)
	wire.U64(c, &m.FileOff)
}

type chunkAck struct {
	StreamID int64
	Slot     int
	Err      string
	RDMA     simclock.Duration
	FSWrite  simclock.Duration
}

func (*chunkAck) kind() uint8 { return msgChunkAck }
func (m *chunkAck) fields(c *wire.Cursor) {
	wire.U64(c, &m.StreamID)
	wire.U8(c, &m.Slot)
	wire.Str64(c, &m.Err)
	wire.U64(c, &m.RDMA)
	wire.U64(c, &m.FSWrite)
}

type pullMsg struct {
	StreamID int64
	Slot     int
}

func (*pullMsg) kind() uint8 { return msgPull }
func (m *pullMsg) fields(c *wire.Cursor) {
	wire.U64(c, &m.StreamID)
	wire.U8(c, &m.Slot)
}

// chunkHere answers a pull; N == 0 is end of file.
type chunkHere struct {
	StreamID int64
	Slot     int
	Err      string
	N        int64
	FSRead   simclock.Duration
	RDMA     simclock.Duration
}

func (*chunkHere) kind() uint8 { return msgChunkHere }
func (m *chunkHere) fields(c *wire.Cursor) {
	wire.U64(c, &m.StreamID)
	wire.U8(c, &m.Slot)
	wire.Str64(c, &m.Err)
	wire.U64(c, &m.N)
	wire.U64(c, &m.FSRead)
	wire.U64(c, &m.RDMA)
}

// holeHere answers a pull on a store read stream whose next piece is a
// hole: N zero bytes of a chunk whose plan digest is the zero digest of
// its length. Nothing was read out of the store or pushed into the slot;
// FSRead is the plan lookup when the stream's first chunk is a hole, else
// 0. Only a store stream sends one, so a plain read's replies are the
// bytes they always were.
type holeHere struct {
	StreamID int64
	Slot     int
	N        int64
	FSRead   simclock.Duration
}

func (*holeHere) kind() uint8 { return msgHoleHere }
func (m *holeHere) fields(c *wire.Cursor) {
	wire.U64(c, &m.StreamID)
	wire.U8(c, &m.Slot)
	wire.U64(c, &m.N)
	wire.U64(c, &m.FSRead)
}

// textMsg is a message that is one string: the close and discard replies
// (an error text, empty on success), the metrics dump, and the discard
// and digest-plan requests (a path).
type textMsg struct {
	Kind uint8
	Text string
}

func (m *textMsg) kind() uint8           { return m.Kind }
func (m *textMsg) fields(c *wire.Cursor) { wire.Str64(c, &m.Text) }

// windowMsg offers one window of a dedup upload's digest list: Digests are
// those of chunks First, First+1, ... of the declared image. The window at
// First == 0 opens the upload; each later one continues it and restates
// the same geometry.
type windowMsg struct {
	Path       string
	Size       int64
	ChunkBytes int64
	First      int
	Digests    []string
}

func (*windowMsg) kind() uint8 { return msgStoreWindow }
func (m *windowMsg) fields(c *wire.Cursor) {
	wire.Str64(c, &m.Path)
	wire.U64(c, &m.Size)
	wire.U64(c, &m.ChunkBytes)
	wire.U64(c, &m.First)
	wire.List(c, wire.U64[int], &m.Digests, wire.Str64)
}

// negotiateResp lists the chunk indices the store lacks, of the list or
// the window the request offered.
type negotiateResp struct {
	Err       string
	Committed bool
	Dur       simclock.Duration
	Need      []int
}

func (*negotiateResp) kind() uint8 { return msgStoreWindowResp }
func (m *negotiateResp) fields(c *wire.Cursor) {
	wire.Str64(c, &m.Err)
	wire.Bool(c, &m.Committed)
	wire.U64(c, &m.Dur)
	wire.List(c, wire.U64[int], &m.Need, wire.U64[int])
}

// digestsResp is the digest plan for a path: OK is false when the store
// knows nothing about it.
type digestsResp struct {
	Err        string
	OK         bool
	Committed  bool
	Dur        simclock.Duration
	Size       int64
	ChunkBytes int64
	Digests    []string
}

func (*digestsResp) kind() uint8 { return msgStoreDigestsResp }
func (m *digestsResp) fields(c *wire.Cursor) {
	wire.Str64(c, &m.Err)
	wire.Bool(c, &m.OK)
	wire.Bool(c, &m.Committed)
	wire.U64(c, &m.Dur)
	wire.U64(c, &m.Size)
	wire.U64(c, &m.ChunkBytes)
	wire.List(c, wire.U64[int], &m.Digests, wire.Str64)
}

// newMsg returns an empty message of the given type, nil if there is none.
func newMsg(kind uint8) msg {
	switch kind {
	case msgOpen:
		return new(openMsg)
	case msgOpenResp:
		return new(openResp)
	case msgChunkReady:
		return new(chunkReady)
	case msgChunkAck:
		return new(chunkAck)
	case msgPull:
		return new(pullMsg)
	case msgChunkHere:
		return new(chunkHere)
	case msgHoleHere:
		return new(holeHere)
	case msgClose, msgAbort, msgDetach, msgMetricsDump:
		return bare(kind)
	case msgCloseResp, msgMetricsResp, msgDiscard, msgDiscardResp, msgStoreDigests:
		return &textMsg{Kind: kind}
	case msgStoreWindow:
		return new(windowMsg)
	case msgStoreWindowResp:
		return new(negotiateResp)
	case msgStoreDigestsResp:
		return new(digestsResp)
	}
	return nil
}

// put codes m into c: its type byte, then its fields.
func put(c *wire.Cursor, m msg) {
	k := m.kind()
	wire.U8(c, &k)
	m.fields(c)
}

// encode returns m's wire bytes in a buffer of their own: the one-off
// messages (handshakes, control requests, replies).
func encode(m msg) []byte {
	c := wire.Encoder()
	put(c, m)
	return c.Bytes()
}

// decode is the one decoder: the type byte picks the message, its field
// list consumes the rest. Every rejection unwraps to errMalformed.
func decode(raw []byte) (msg, error) { return decodeWith(new(wire.Cursor), raw, nil) }

// decodeWith decodes raw with c. A message of into's kind is decoded into
// into, overwriting every field; any other kind gets a fresh struct.
func decodeWith(c *wire.Cursor, raw []byte, into msg) (msg, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("%w: empty", errMalformed)
	}
	m := into
	if m == nil || m.kind() != raw[0] {
		m = newMsg(raw[0])
	}
	if m == nil {
		return nil, fmt.Errorf("%w: unknown type %d", errMalformed, raw[0])
	}
	c.Load(raw[1:])
	m.fields(c)
	if err := c.Err(); err != nil {
		return nil, fmt.Errorf("%w (type %d): %v", errMalformed, raw[0], err)
	}
	return m, nil
}

// awaited passes on a decoding's error, or refuses a well-formed message
// that is not the one the caller waits for.
func awaited(m msg, err error, want uint8) error {
	if err == nil && m.kind() != want {
		err = fmt.Errorf("snapifyio: protocol error: got message %d, want %d", m.kind(), want)
	}
	return err
}

// expect decodes raw and verifies it is the message the caller is waiting
// for.
func expect[M msg](raw []byte, kind uint8) (M, error) {
	m, err := decode(raw)
	if err := awaited(m, err, kind); err != nil {
		var none M
		return none, err
	}
	return m.(M), nil
}

// codec is the message scratch of one end of a stream. Send copies what
// it is given and a decoded message keeps no reference to its raw bytes,
// so one cursor each way serves every message of the stream; the
// per-chunk messages themselves are structs the stream loop owns and
// passes to send and to decode or expect.
type codec struct{ enc, dec wire.Cursor }

// send encodes m into the scratch buffer and sends it on ep.
func (k *codec) send(ep *scif.Endpoint, m msg) (simclock.Duration, error) {
	k.enc.Reset()
	put(&k.enc, m)
	return ep.Send(k.enc.Bytes())
}

// decode is decodeWith over the stream's cursor.
func (k *codec) decode(raw []byte, into msg) (msg, error) { return decodeWith(&k.dec, raw, into) }

// expect decodes raw into into and verifies it is that message.
func (k *codec) expect(raw []byte, into msg) error {
	m, err := k.decode(raw, into)
	return awaited(m, err, into.kind())
}
