package coi

import (
	"errors"
	"fmt"

	"snapify/internal/blcr"
	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/wire"
)

// This file is the COI/Snapify control protocol: every message the host,
// the COI daemon and the offload process exchange — on the lifecycle
// channel, the agent pipe, the command channels and the run-function
// pipelines — and the two records that outlive a message (the control
// record and HandleMeta) is a struct plus the one field list that both
// encodes and decodes it. internal/core fills a struct and reads a
// struct; the daemon decodes a request once and forwards its agent half;
// the agent takes the struct. Nothing outside this file knows a byte
// offset. DESIGN.md §3 tabulates the layouts.

// Daemon opcodes on the lifecycle channel. A reply's opcode is its
// request's plus one.
const (
	opLaunch uint8 = iota + 1
	opLaunchResp
	opDestroy
	opDestroyResp
	// Snapify service requests (Section 4.1): the daemon is the
	// coordinator of the pause/capture/resume/restore protocol.
	opSnapifyPause
	opSnapifyPauseResp
	opSnapifyDrain
	opSnapifyDrainResp
	opSnapifyCapture
	opSnapifyCaptureResp
	opSnapifyResume
	opSnapifyResumeResp
	opSnapifyRestore
	opSnapifyRestoreResp
	opAwaitReady
	opAwaitReadyResp
	// Live-migration extensions: a pre-copy round on the source card's
	// daemon (digest + ship while the process runs) and the staging
	// control on the destination card's daemon (sync staged chunks from
	// the host store, or drop them).
	opSnapifyPrecopy
	opSnapifyPrecopyResp
	opSnapifyPrecopyStage
	opSnapifyPrecopyStageResp
	// The pre-save: once the rounds end, the source card's agent saves
	// the local store to the destination card while the process runs.
	opSnapifyPresave
	opSnapifyPresaveResp
)

// Pipe opcodes between the daemon and the offload process's Snapify agent.
// The two Done messages are replies (their request's opcode plus one); the
// pause ack and resume done are bare.
const (
	pipePauseReq uint8 = iota + 30
	pipePauseAck
	pipeDrainReq
	pipeDrainDone
	pipeCaptureReq
	pipeCaptureDone
	pipeResumeReq
	pipeResumeDone
	pipePresaveReq
	pipePresaveDone
)

// Command-channel frames: every message on a command, event or log
// channel starts with one. A request frame carries one of the requests
// below (its opcode, then its fields) and is answered by a reply frame
// (cmdReply, then the one reply shape); the shutdown marker and its ack
// are bare.
const (
	cmdRequest     uint8 = 1
	cmdReply       uint8 = 2
	cmdShutdown    uint8 = 3 // Snapify's marker: no more commands until resume
	cmdShutdownAck uint8 = 4
)

// Command-channel requests. cmdBufferReregister is the restore path's: it
// re-registers a buffer's region on the new DMA channel (Section 4.3).
const (
	cmdPing uint8 = iota + 10
	cmdBufferCreate
	cmdBufferDestroy
	cmdPipelineCreate
	cmdBufferReregister uint8 = 20
)

// Run-function pipeline opcodes: the host's run request and the offload
// process's result.
const (
	plRun  uint8 = 1
	plDone uint8 = 2
)

// Message is one control message. Only this file defines them.
type Message interface {
	fields(c *wire.Cursor)
}

// Empty is a message with no fields: the bare agent-pipe messages and
// every reply that only reports success.
type Empty struct{}

func (*Empty) fields(*wire.Cursor) {}

// IDReq names one object by id: an offload process on the lifecycle
// channel (destroy, await-ready, pause, resume), a pipeline or buffer on
// the command channel.
type IDReq struct{ ID int }

func (m *IDReq) fields(c *wire.Cursor) { wire.U32(c, &m.ID) }

type launchReq struct {
	Binary     string
	BinarySize int64
}

func (m *launchReq) fields(c *wire.Cursor) {
	wire.Str32(c, &m.Binary)
	wire.U64(c, &m.BinarySize)
}

// launchResp lists the channels the host must connect to.
type launchResp struct {
	ProcID int
	Ports  []ChannelPort
}

func (m *launchResp) fields(c *wire.Cursor) {
	wire.U32(c, &m.ProcID)
	wire.List(c, wire.U32[int], &m.Ports, portField)
}

func portField(c *wire.Cursor, p *ChannelPort) {
	wire.Str32(c, &p.name)
	wire.U32(c, &p.port)
}

// DrainArgs is what the agent needs to drain (step 4 of Fig 3): where the
// local store goes. Align, here and below, is the host's virtual clock at
// which the operation begins, so card-side spans land on the shared
// timeline. Live marks the drain of a live migration's switch-over: the
// local store then streams double-buffered to the destination card, whose
// restore adopts it in place (DESIGN.md §13); every other drain saves it
// the paper's way. Presaved says this session's pre-save (PresaveArgs)
// succeeded: the drain then re-sends only a buffer written since.
type DrainArgs struct {
	Align          simclock.Duration
	LocalStoreNode simnet.NodeID
	Dir            string
	Live           bool
	Presaved       bool
}

func (m *DrainArgs) fields(c *wire.Cursor) {
	wire.U64(c, &m.Align)
	wire.U32(c, &m.LocalStoreNode)
	wire.Str32(c, &m.Dir)
	wire.Bool(c, &m.Live)
	wire.Bool(c, &m.Presaved)
}

// DrainReq is the host's drain request; the daemon forwards DrainArgs.
type DrainReq struct {
	ProcID int
	DrainArgs
}

func (m *DrainReq) fields(c *wire.Cursor) {
	wire.U32(c, &m.ProcID)
	m.DrainArgs.fields(c)
}

// PresaveArgs is what the agent needs for a live migration's pre-save:
// where the local store goes (DrainArgs's LocalStoreNode and Dir). Scope
// is the migration's trace scope.
type PresaveArgs struct {
	Align          simclock.Duration
	Scope          uint64
	LocalStoreNode simnet.NodeID
	Dir            string
}

func (m *PresaveArgs) fields(c *wire.Cursor) {
	wire.U64(c, &m.Align)
	wire.U64(c, &m.Scope)
	wire.U32(c, &m.LocalStoreNode)
	wire.Str32(c, &m.Dir)
}

// PresaveReq is the host's pre-save request; the daemon forwards
// PresaveArgs.
type PresaveReq struct {
	ProcID int
	PresaveArgs
}

func (m *PresaveReq) fields(c *wire.Cursor) {
	wire.U32(c, &m.ProcID)
	m.PresaveArgs.fields(c)
}

// DrainResp reports a local-store save: the drain's quiesce plus save, or
// a pre-save. LocalStoreBytes is the local store's size.
type DrainResp struct {
	Duration        simclock.Duration
	LocalStoreBytes int64
}

func (m *DrainResp) fields(c *wire.Cursor) {
	wire.U64(c, &m.Duration)
	wire.U64(c, &m.LocalStoreBytes)
}

// CaptureArgs is what the agent needs to capture: the mode, the data path
// (Streams striped Snapify-IO streams of ChunkBytes granularity; <= 1 is
// the paper's single stream), the retry policy, and the store flag of a
// dedup-aware capture, which is always a full image.
type CaptureArgs struct {
	Terminate  bool
	Mode       uint8
	Streams    int
	ChunkBytes int64
	Align      simclock.Duration
	Dir        string
	Retry      blcr.RetryPolicy
	Store      bool
}

func (m *CaptureArgs) fields(c *wire.Cursor) {
	wire.Bool(c, &m.Terminate)
	wire.U8(c, &m.Mode)
	wire.U16(c, &m.Streams)
	wire.U64(c, &m.ChunkBytes)
	wire.U64(c, &m.Align)
	wire.Str32(c, &m.Dir)
	wire.U16(c, &m.Retry.MaxAttempts)
	wire.Bool(c, &m.Store)
}

// CaptureReq is the host's capture request; the daemon forwards
// CaptureArgs.
type CaptureReq struct {
	ProcID int
	CaptureArgs
}

func (m *CaptureReq) fields(c *wire.Cursor) {
	wire.U32(c, &m.ProcID)
	m.CaptureArgs.fields(c)
}

// CaptureResp reports a finished capture. Scope keys the per-stream spans
// the shard workers emitted; the host derives its Report from them
// (Duration is the fallback when the platform runs without
// observability). ShippedBytes is what physically moved.
type CaptureResp struct {
	SnapshotBytes int64
	Duration      simclock.Duration
	Scope         uint64
	ShippedBytes  int64
}

func (m *CaptureResp) fields(c *wire.Cursor) {
	wire.U64(c, &m.SnapshotBytes)
	wire.U64(c, &m.Duration)
	wire.U64(c, &m.Scope)
	wire.U64(c, &m.ShippedBytes)
}

// RestoreReq rebuilds an offload process. The context comes from
// ContextDir (the base checkpoint); the saved local store from
// LocalStoreDir on LocalStoreNode (the latest pause — the host for
// checkpoint and swap, the daemon's own card for migration); DeltaDirs,
// if any, are replayed in order. Streams > 1 restores the base context
// over that many concurrent range streams, PageChunk bytes per read, and
// reloads the local store on as many workers. StoreResident says the context
// is read out of the host store's manifest, whose digest list can then
// seed the process's chunk-digest cache.
type RestoreReq struct {
	Binary         string
	ContextDir     string
	LocalStoreNode simnet.NodeID
	LocalStoreDir  string
	DeltaDirs      []string
	Streams        int
	Align          simclock.Duration
	Retry          blcr.RetryPolicy
	StoreResident  bool
}

func (m *RestoreReq) fields(c *wire.Cursor) {
	wire.Str32(c, &m.Binary)
	wire.Str32(c, &m.ContextDir)
	wire.U32(c, &m.LocalStoreNode)
	wire.Str32(c, &m.LocalStoreDir)
	wire.List(c, wire.U32[int], &m.DeltaDirs, wire.Str32)
	wire.U16(c, &m.Streams)
	wire.U64(c, &m.Align)
	wire.U16(c, &m.Retry.MaxAttempts)
	wire.Bool(c, &m.StoreResident)
}

// RestoreResp describes the restored process and its new channels.
type RestoreResp struct {
	ProcID          int
	ContextDur      simclock.Duration
	LocalStoreDur   simclock.Duration
	LocalStoreBytes int64
	Ports           []ChannelPort
}

func (m *RestoreResp) fields(c *wire.Cursor) {
	wire.U32(c, &m.ProcID)
	wire.U64(c, &m.ContextDur)
	wire.U64(c, &m.LocalStoreDur)
	wire.U64(c, &m.LocalStoreBytes)
	wire.List(c, wire.U32[int], &m.Ports, portField)
}

// PrecopyReq asks the source card for one pre-copy round. A round whose
// dirty set already fits under ShipFloor ships nothing.
type PrecopyReq struct {
	ProcID     int
	Round      int
	Align      simclock.Duration
	Scope      uint64
	ChunkBytes int64
	Streams    int
	ShipFloor  int64
	Dir        string
}

func (m *PrecopyReq) fields(c *wire.Cursor) {
	wire.U32(c, &m.ProcID)
	wire.U32(c, &m.Round)
	wire.U64(c, &m.Align)
	wire.U64(c, &m.Scope)
	wire.U64(c, &m.ChunkBytes)
	wire.U16(c, &m.Streams)
	wire.U64(c, &m.ShipFloor)
	wire.Str32(c, &m.Dir)
}

// PrecopyResp is one pre-copy round's outcome.
type PrecopyResp struct {
	Duration     simclock.Duration
	ImageBytes   int64
	DirtyBytes   int64
	ShippedBytes int64
	ChunksTotal  int
	ChunksNeeded int
	Skipped      bool
}

func (m *PrecopyResp) fields(c *wire.Cursor) {
	wire.U64(c, &m.Duration)
	wire.U64(c, &m.ImageBytes)
	wire.U64(c, &m.DirtyBytes)
	wire.U64(c, &m.ShippedBytes)
	wire.U32(c, &m.ChunksTotal)
	wire.U32(c, &m.ChunksNeeded)
	wire.Bool(c, &m.Skipped)
}

// Stage-control modes of a StageReq.
const (
	// StageSync pulls the current digest plan's missing chunks from the
	// host store into the destination daemon's staging area.
	StageSync uint8 = 0
	// StageDrop discards the staged chunks for the path (abort, or a
	// switch-over that failed after its terminating capture: the local
	// store saved beside the path is then the only copy of the process's
	// buffers, and a later restore still needs it).
	StageDrop uint8 = 1
	// StageDropAll discards the staged chunks and the local-store files
	// saved beside the path: a switch-over that failed while the source
	// process still runs, its buffers intact on its card.
	StageDropAll uint8 = 2
)

// StageReq is the destination card's side of a pre-copy round.
type StageReq struct {
	Mode  uint8
	Align simclock.Duration
	Scope uint64
	Path  string
}

func (m *StageReq) fields(c *wire.Cursor) {
	wire.U8(c, &m.Mode)
	wire.U64(c, &m.Align)
	wire.U64(c, &m.Scope)
	wire.Str32(c, &m.Path)
}

type StageResp struct {
	Duration     simclock.Duration
	FetchedBytes int64
	StagedBytes  int64
}

func (m *StageResp) fields(c *wire.Cursor) {
	wire.U64(c, &m.Duration)
	wire.U64(c, &m.FetchedBytes)
	wire.U64(c, &m.StagedBytes)
}

// bufferCreateReq allocates buffer ID, Size bytes of local store; the
// reply is an offsetResp.
type bufferCreateReq struct {
	ID   int
	Size int64
}

func (m *bufferCreateReq) fields(c *wire.Cursor) {
	wire.U32(c, &m.ID)
	wire.U64(c, &m.Size)
}

// portResp answers a pipeline create with its run-function channel's
// port; offsetResp answers a buffer create or re-registration with the
// buffer's RDMA offset.
type portResp struct{ Port int }

func (m *portResp) fields(c *wire.Cursor) { wire.U32(c, &m.Port) }

type offsetResp struct{ Offset int64 }

func (m *offsetResp) fields(c *wire.Cursor) { wire.U64(c, &m.Offset) }

// runReq asks a pipeline's server thread to run Func on Args; Seq numbers
// the pipeline's calls. Args runs to the end of the message.
type runReq struct {
	Seq  uint64
	Func string
	Args []byte
}

func (m *runReq) fields(c *wire.Cursor) {
	wire.U64(c, &m.Seq)
	wire.Str32(c, &m.Func)
	wire.Rest(c, &m.Args)
}

// runDone returns call Seq's result. Compute is the offload compute time
// the host's timeline advances by; Result runs to the end of the message
// and is the error text when Failed.
type runDone struct {
	Seq     uint64
	Failed  bool
	Compute simclock.Duration
	Result  []byte
}

func (m *runDone) fields(c *wire.Cursor) {
	wire.U64(c, &m.Seq)
	wire.Bool(c, &m.Failed)
	wire.U64(c, &m.Compute)
	wire.Rest(c, &m.Result)
}

// ctrlState is the control record at the front of the offload process's
// control region: the offload function in flight, if Active. Clearing it
// rewrites only the record's own bytes, so what follows a short record
// is stale; decodeCtrl reads from the front.
type ctrlState struct {
	Active     bool
	PipelineID uint32
	Seq        uint64
	Func       string
	Args       []byte
}

func (m *ctrlState) fields(c *wire.Cursor) {
	wire.Bool(c, &m.Active)
	wire.U32(c, &m.PipelineID)
	wire.U64(c, &m.Seq)
	wire.Str32(c, &m.Func)
	wire.Str32(c, &m.Args)
}

func (m *HandleMeta) fields(c *wire.Cursor) {
	wire.Str32(c, &m.BinaryName)
	wire.U32(c, &m.DevNode)
	wire.List(c, wire.U32[int], &m.Buffers, func(c *wire.Cursor, b *BufferMeta) {
		wire.U32(c, &b.ID)
		wire.U64(c, &b.Size)
		wire.U64(c, &b.Addr)
	})
	wire.List(c, wire.U32[int], &m.Pipelines, wire.U32[uint32])
}

// requestTable maps request opcodes to their name in diagnostics and
// their message type.
type requestTable map[uint8]struct {
	name string
	new  func() Message
}

// daemonRequests is what the COI daemon serves on the lifecycle channel;
// agentRequests what the offload process's agent serves on its pipe.
var (
	daemonRequests = requestTable{
		opLaunch:              {"launch", func() Message { return new(launchReq) }},
		opDestroy:             {"destroy", func() Message { return new(IDReq) }},
		opAwaitReady:          {"await-ready", func() Message { return new(IDReq) }},
		opSnapifyPause:        {"pause", func() Message { return new(IDReq) }},
		opSnapifyDrain:        {"drain", func() Message { return new(DrainReq) }},
		opSnapifyCapture:      {"capture", func() Message { return new(CaptureReq) }},
		opSnapifyResume:       {"resume", func() Message { return new(IDReq) }},
		opSnapifyRestore:      {"restore", func() Message { return new(RestoreReq) }},
		opSnapifyPrecopy:      {"precopy", func() Message { return new(PrecopyReq) }},
		opSnapifyPrecopyStage: {"precopy-stage", func() Message { return new(StageReq) }},
		opSnapifyPresave:      {"presave", func() Message { return new(PresaveReq) }},
	}
	agentRequests = requestTable{
		pipePauseReq:   {"agent pause", func() Message { return new(Empty) }},
		pipeDrainReq:   {"agent drain", func() Message { return new(DrainArgs) }},
		pipeCaptureReq: {"agent capture", func() Message { return new(CaptureArgs) }},
		pipeResumeReq:  {"agent resume", func() Message { return new(Empty) }},
		pipePresaveReq: {"agent presave", func() Message { return new(PresaveArgs) }},
	}
	// commandRequests is what an offload process's command-channel server
	// threads serve inside a request frame.
	commandRequests = requestTable{
		cmdPing:             {"ping", func() Message { return new(Empty) }},
		cmdBufferCreate:     {"buffer-create", func() Message { return new(bufferCreateReq) }},
		cmdBufferDestroy:    {"buffer-destroy", func() Message { return new(IDReq) }},
		cmdPipelineCreate:   {"pipeline-create", func() Message { return new(IDReq) }},
		cmdBufferReregister: {"buffer-reregister", func() Message { return new(IDReq) }},
	}
)

// MalformedError rejects bytes that are not the message they should be:
// too short for its fields, bytes left over, a boolean that is neither 0
// nor 1, an opcode or a frame nobody serves.
type MalformedError struct {
	What string // "capture request", "restore reply", ...
	Err  error
}

func (e *MalformedError) Error() string { return "coi: malformed " + e.What + ": " + e.Err.Error() }
func (e *MalformedError) Unwrap() error { return e.Err }

// remoteError is a failure the peer reported in a reply.
type remoteError string

func (e remoteError) Error() string { return string(e) }

// reply is the one response shape, on the lifecycle channel, the agent
// pipe and the command channel alike: 0 then the body's fields, or 1 then
// the error text to the end of the message.
type reply struct {
	failed bool
	text   string
	body   Message
}

func (r *reply) fields(c *wire.Cursor) {
	wire.Bool(c, &r.failed)
	if r.failed {
		wire.Rest(c, &r.text)
	} else {
		r.body.fields(c)
	}
}

// encode returns the opcodes ops, then m's fields, built on a reused
// encoder: the bytes are good until c's next Reset. A record has no
// opcode.
func encode(c *wire.Cursor, m Message, ops ...uint8) []byte {
	c.Reset()
	for i := range ops {
		wire.U8(c, &ops[i])
	}
	m.fields(c)
	return c.Bytes()
}

// encodeMsg returns op followed by m's fields.
func encodeMsg(op uint8, m Message) []byte { return encode(wire.Encoder(), m, op) }

// encodeCommand returns the request frame carrying op and m's fields.
func encodeCommand(op uint8, m Message) []byte { return encode(wire.Encoder(), m, cmdRequest, op) }

// encodeReply returns the reply with opcode op: body on success, err's
// text on failure.
func encodeReply(op uint8, body Message, err error) []byte {
	if err != nil {
		return encodeMsg(op, &reply{failed: true, text: err.Error()})
	}
	return encodeMsg(op, &reply{body: body})
}

// decode runs m's field list over raw, after the opcodes ops, on a reused
// cursor c; what names the message in the rejection.
func decode(c *wire.Cursor, raw []byte, what string, m Message, ops ...uint8) error {
	c.Load(raw)
	for _, want := range ops {
		var op uint8
		wire.U8(c, &op)
		if _, err := c.Prefix(); err == nil && op != want {
			return &MalformedError{what, fmt.Errorf("opcode %d, want %d", op, want)}
		}
	}
	m.fields(c)
	if err := c.Err(); err != nil {
		return &MalformedError{what, err}
	}
	return nil
}

// decode is the one request decoder: the opcode picks the message, its
// field list consumes the rest. An empty message or an opcode the table
// does not serve yields a nil message.
func (t requestTable) decode(raw []byte) (op uint8, m Message, err error) {
	if len(raw) == 0 {
		return 0, nil, &MalformedError{"request", wire.ErrTruncated}
	}
	op = raw[0]
	r, ok := t[op]
	if !ok {
		return op, nil, &MalformedError{"request", fmt.Errorf("unknown opcode %d", op)}
	}
	m = r.new()
	return op, m, decode(new(wire.Cursor), raw[1:], r.name+" request", m)
}

// decodeCommand is a command channel's request decoder: a request frame,
// then the request commandRequests names.
func decodeCommand(raw []byte) (op uint8, m Message, err error) {
	if len(raw) == 0 || raw[0] != cmdRequest {
		return 0, nil, &MalformedError{"command", errors.New("not a request frame")}
	}
	return commandRequests.decode(raw[1:])
}

// decodeMsg decodes a message that must carry opcode want.
func decodeMsg(raw []byte, want uint8, m Message) error {
	return decode(new(wire.Cursor), raw, fmt.Sprintf("opcode-%d message", want), m, want)
}

// decodeReply decodes the reply that must carry opcode want — the status
// byte, then body's fields or the error text; a failure the peer reported
// comes back as a remoteError.
func decodeReply(raw []byte, want uint8, body Message) error {
	r := &reply{body: body}
	if err := decode(new(wire.Cursor), raw, fmt.Sprintf("opcode-%d reply", want), r, want); err != nil {
		return err
	}
	if r.failed {
		return remoteError(r.text)
	}
	return nil
}

// encodeCtrl is encode for the control record, which every offload call
// writes twice: called on the concrete type, st stays off the heap.
func encodeCtrl(c *wire.Cursor, st *ctrlState) []byte {
	c.Reset()
	st.fields(c)
	return c.Bytes()
}

// decodeCtrl decodes the control record at the front of region, the
// control region's bytes, into st and returns the record's length.
func decodeCtrl(region []byte, st *ctrlState) (int, error) {
	c := wire.Decoder(region)
	st.fields(c)
	n, err := c.Prefix()
	if err != nil {
		err = &MalformedError{"control record", err}
	}
	return n, err
}
