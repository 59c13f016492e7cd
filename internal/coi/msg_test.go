package coi

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"snapify/internal/blcr"
	"snapify/internal/scif"
	"snapify/internal/simnet"
	"snapify/internal/wire"
)

// The control protocol's byte layouts are pinned by hex captured from the
// hand-rolled encoders this file's field lists replaced (core/snapify.go,
// core/migration.go, coi/daemon.go and coi/snapify.go at PR 15, run over
// these field values); capture and pipe_capture lost their parent field
// once the store held whole images only, and they and restore lost the
// retry backoff once it became a constant; the pre-save messages are
// pinned at their first encoding. The command-channel, pipeline,
// control-record and HandleMeta entries were captured from the hand-rolled
// encoders of channels.go, buffer.go, offload.go, pipeline.go and meta.go
// (device replies from a live handleCommand, the control record read back
// out of a live control region) before those layouts moved into this
// file's field lists. Every SCIF send charges virtual time by message
// length and the records are image bytes, so identical bytes is what
// keeps every virtual number identical.

// How a golden message is framed.
const (
	asRequest = iota // op | fields, decoded through a request table
	asReply          // op | 0 | fields, or op | 1 | error text
	asBare           // op | fields, decoded for that one opcode
	asCommand        // cmdRequest | op | fields, a command-channel request
	asRecord         // fields alone: HandleMeta, through DecodeHandleMeta
	asRegion         // fields alone, read from the front of a region: the control record
)

var goldenMessages = []struct {
	name    string
	framing int
	op      uint8
	errText string // a reply that reports a failure
	hex     string
	msg     Message
}{
	{"launch", asRequest, opLaunch, "",
		"01000000076170705f62696e0000000000800000",
		&launchReq{Binary: "app_bin", BinarySize: 8 << 20}},
	{"launch_resp", asReply, opLaunchResp, "",
		"0200000000070000000200000007636f6d6d616e640000083500000003646d6100000836",
		&launchResp{ProcID: 7, Ports: []ChannelPort{{"command", 2101}, {"dma", 2102}}}},
	{"launch_resp_err", asReply, opLaunchResp, "coi: daemon mic0: no offload process 7",
		"0201636f693a206461656d6f6e206d6963303a206e6f206f66666c6f61642070726f636573732037",
		&launchResp{}},
	{"destroy", asRequest, opDestroy, "",
		"0300000007",
		&IDReq{7}},
	{"destroy_resp", asReply, opDestroyResp, "",
		"0400",
		&Empty{}},
	{"await_ready", asRequest, opAwaitReady, "",
		"0f00000007",
		&IDReq{7}},
	{"await_ready_resp", asReply, opAwaitReadyResp, "",
		"1000",
		&Empty{}},
	{"pause", asRequest, opSnapifyPause, "",
		"0500000007",
		&IDReq{7}},
	{"pause_resp", asReply, opSnapifyPauseResp, "",
		"0600",
		&Empty{}},
	{"resume", asRequest, opSnapifyResume, "",
		"0b00000007",
		&IDReq{7}},
	{"resume_resp", asReply, opSnapifyResumeResp, "",
		"0c00",
		&Empty{}},
	{"resume_resp_err", asReply, opSnapifyResumeResp, "no active pause",
		"0c016e6f20616374697665207061757365",
		&Empty{}},
	{"drain", asRequest, opSnapifyDrain, "",
		"070000000700000000000005dc00000002000000072f736e61702f610101",
		&DrainReq{ProcID: 7, DrainArgs: DrainArgs{Align: 1500, LocalStoreNode: 2, Dir: "/snap/a", Live: true, Presaved: true}}},
	{"drain_resp", asReply, opSnapifyDrainResp, "",
		"080000000000002625a00000000000300000",
		&DrainResp{Duration: 2500 * time.Microsecond, LocalStoreBytes: 3 << 20}},
	{"capture", asRequest, opSnapifyCapture, "",
		"090000000701020004000000000010000000000000075bcd15000000072f736e61702f61000301",
		&CaptureReq{ProcID: 7, CaptureArgs: CaptureArgs{Terminate: true, Mode: CaptureDelta, Streams: 4, ChunkBytes: 1 << 20, Align: 123456789, Dir: "/snap/a", Retry: blcr.RetryPolicy{MaxAttempts: 3}, Store: true}}},
	{"capture_resp", asReply, opSnapifyCaptureResp, "",
		"0a000000000010000000000000007309768000000000000000110000000000700000",
		&CaptureResp{SnapshotBytes: 256 << 20, Duration: 1930 * time.Millisecond, Scope: 17, ShippedBytes: 7 << 20}},
	{"restore", asRequest, opSnapifyRestore, "",
		"0d000000076170705f62696e0000000a2f736e61702f6261736500000001000000082f736e61702f643200000002000000082f736e61702f6431000000082f736e61702f64320002000000000000002a000201",
		&RestoreReq{Binary: "app_bin", ContextDir: "/snap/base", LocalStoreNode: 1, LocalStoreDir: "/snap/d2", DeltaDirs: []string{"/snap/d1", "/snap/d2"}, Streams: 2, Align: 42, Retry: blcr.RetryPolicy{MaxAttempts: 2}, StoreResident: true}},
	{"restore_resp", asReply, opSnapifyRestoreResp, "",
		"0e0000000009000000003473bc000000000000b71b0000000000003000000000000200000007636f6d6d616e640000083500000003646d6100000836",
		&RestoreResp{ProcID: 9, ContextDur: 880 * time.Millisecond, LocalStoreDur: 12 * time.Millisecond, LocalStoreBytes: 3 << 20, Ports: []ChannelPort{{"command", 2101}, {"dma", 2102}}}},
	{"precopy", asRequest, opSnapifyPrecopy, "",
		"11000000070000000300000000000013880000000000000015000000000040000000020000000000800000000000092f736e61702f6d6967",
		&PrecopyReq{ProcID: 7, Round: 3, Align: 5000, Scope: 21, ChunkBytes: 4 << 20, Streams: 2, ShipFloor: 8 << 20, Dir: "/snap/mig"}},
	{"precopy_resp", asReply, opSnapifyPrecopyResp, "",
		"1200000000000496ed4000000000100000000000000000c000000000000000800000000000400000000201",
		&PrecopyResp{Duration: 77 * time.Millisecond, ImageBytes: 256 << 20, DirtyBytes: 12 << 20, ShippedBytes: 8 << 20, ChunksTotal: 64, ChunksNeeded: 2, Skipped: true}},
	{"stage", asRequest, opSnapifyPrecopyStage, "",
		"130000000000000023280000000000000015000000192f736e61702f6d69672f636f6e746578745f6f66666c6f6164",
		&StageReq{Mode: StageSync, Align: 9000, Scope: 21, Path: "/snap/mig/context_offload"}},
	{"stage_resp", asReply, opSnapifyPrecopyStageResp, "",
		"14000000000001d905c00000000000800000000000000f800000",
		&StageResp{Duration: 31 * time.Millisecond, FetchedBytes: 8 << 20, StagedBytes: 248 << 20}},
	{"presave", asRequest, opSnapifyPresave, "",
		"150000000700000000000023280000000000000015000000020000000a2f736e61702f6d69672f",
		&PresaveReq{ProcID: 7, PresaveArgs: PresaveArgs{Align: 9000, Scope: 21, LocalStoreNode: 2, Dir: "/snap/mig/"}}},
	{"presave_resp", asReply, opSnapifyPresaveResp, "",
		"16000000000001219e4a0000000000400000",
		&DrainResp{Duration: 18_980_426, LocalStoreBytes: 4 << 20}},
	{"pipe_pause", asRequest, pipePauseReq, "",
		"1e",
		&Empty{}},
	{"pipe_pause_ack", asBare, pipePauseAck, "",
		"1f",
		&Empty{}},
	{"pipe_drain", asRequest, pipeDrainReq, "",
		"2000000000000005dc00000002000000072f736e61702f610000",
		&DrainArgs{Align: 1500, LocalStoreNode: 2, Dir: "/snap/a"}},
	{"pipe_drain_done", asReply, pipeDrainDone, "",
		"210000000000002625a00000000000300000",
		&DrainResp{Duration: 2500 * time.Microsecond, LocalStoreBytes: 3 << 20}},
	{"pipe_drain_done_err", asReply, pipeDrainDone, "disk full",
		"21016469736b2066756c6c",
		&DrainResp{}},
	{"pipe_capture", asRequest, pipeCaptureReq, "",
		"2201020004000000000010000000000000075bcd15000000072f736e61702f61000301",
		&CaptureArgs{Terminate: true, Mode: CaptureDelta, Streams: 4, ChunkBytes: 1 << 20, Align: 123456789, Dir: "/snap/a", Retry: blcr.RetryPolicy{MaxAttempts: 3}, Store: true}},
	{"pipe_capture_done", asReply, pipeCaptureDone, "",
		"23000000000010000000000000007309768000000000000000110000000000700000",
		&CaptureResp{SnapshotBytes: 256 << 20, Duration: 1930 * time.Millisecond, Scope: 17, ShippedBytes: 7 << 20}},
	{"pipe_capture_done_err", asReply, pipeCaptureDone, "stream reset",
		"230173747265616d207265736574",
		&CaptureResp{}},
	{"pipe_resume", asRequest, pipeResumeReq, "",
		"24",
		&Empty{}},
	{"pipe_resume_done", asBare, pipeResumeDone, "",
		"25",
		&Empty{}},
	{"pipe_presave", asRequest, pipePresaveReq, "",
		"2600000000000023280000000000000015000000020000000a2f736e61702f6d69672f",
		&PresaveArgs{Align: 9000, Scope: 21, LocalStoreNode: 2, Dir: "/snap/mig/"}},
	{"pipe_presave_done", asReply, pipePresaveDone, "",
		"27000000000001219e4a0000000000400000",
		&DrainResp{Duration: 18_980_426, LocalStoreBytes: 4 << 20}},
	{"pipe_presave_done_err", asReply, pipePresaveDone, "stream reset",
		"270173747265616d207265736574",
		&DrainResp{}},
	{"cmd_ping", asCommand, cmdPing, "",
		"010a",
		&Empty{}},
	{"cmd_ping_reply", asReply, cmdReply, "",
		"0200",
		&Empty{}},
	{"cmd_buffer_create", asCommand, cmdBufferCreate, "",
		"010b000000030000000000100000",
		&bufferCreateReq{ID: 3, Size: 1 << 20}},
	{"cmd_buffer_create_reply", asReply, cmdReply, "",
		"02000000000010001000",
		&offsetResp{0x10001000}},
	{"cmd_buffer_destroy", asCommand, cmdBufferDestroy, "",
		"010c00000003",
		&IDReq{3}},
	{"cmd_buffer_destroy_reply", asReply, cmdReply, "",
		"0200",
		&Empty{}},
	{"cmd_buffer_destroy_reply_err", asReply, cmdReply, "coi: no buffer 9",
		"0201636f693a206e6f206275666665722039",
		&Empty{}},
	{"cmd_pipeline_create", asCommand, cmdPipelineCreate, "",
		"010d00000002",
		&IDReq{2}},
	{"cmd_pipeline_create_reply", asReply, cmdReply, "",
		"020000010009",
		&portResp{0x10009}},
	{"cmd_buffer_reregister", asCommand, cmdBufferReregister, "",
		"011400000003",
		&IDReq{3}},
	{"cmd_buffer_reregister_reply", asReply, cmdReply, "",
		"02000000000010102000",
		&offsetResp{0x10102000}},
	{"cmd_shutdown", asBare, cmdShutdown, "",
		"03",
		&Empty{}},
	{"cmd_shutdown_ack", asBare, cmdShutdownAck, "",
		"04",
		&Empty{}},
	{"pipeline_run", asBare, plRun, "",
		"01000000000000000500000005636f756e74000000000000000a",
		&runReq{Seq: 5, Func: "count", Args: []byte{0, 0, 0, 0, 0, 0, 0, 10}}},
	{"pipeline_done", asBare, plDone, "",
		"020000000000000005000000000000001194000000000000002d",
		&runDone{Seq: 5, Compute: 4500, Result: []byte{0, 0, 0, 0, 0, 0, 0, 45}}},
	{"pipeline_done_failed", asBare, plDone, "",
		"0200000000000000050100000000000004b0636f693a206e6f206f66666c6f61642066756e6374696f6e20226e6f706522",
		&runDone{Seq: 5, Failed: true, Compute: 1200, Result: []byte(`coi: no offload function "nope"`)}},
	{"ctrl_active", asRegion, 0, "",
		"0100000002000000000000000500000005636f756e7400000008000000000000000a",
		&ctrlState{Active: true, PipelineID: 2, Seq: 5, Func: "count", Args: []byte{0, 0, 0, 0, 0, 0, 0, 10}}},
	{"ctrl_cleared", asRegion, 0, "",
		"000000000000000000000000000000000000000000",
		&ctrlState{Args: []byte{}}},
	{"handle_meta", asRecord, 0, "",
		"000000076170705f62696e000000020000000200000000000000000010000000000000000100000000000300000000000010000000000000200000000000020000000100000002",
		&HandleMeta{BinaryName: "app_bin", DevNode: 2, Buffers: []BufferMeta{{ID: 0, Size: 1 << 20, Addr: 0x10000}, {ID: 3, Size: 4096, Addr: 0x200000}}, Pipelines: []uint32{1, 2}}},
}

func goldenBytes(t testing.TB, h string) []byte {
	t.Helper()
	raw, err := hex.DecodeString(h)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func tableFor(op uint8) requestTable {
	if op >= pipePauseReq {
		return agentRequests
	}
	return daemonRequests
}

func TestGoldenWireBytes(t *testing.T) {
	for _, g := range goldenMessages {
		t.Run(g.name, func(t *testing.T) {
			want := goldenBytes(t, g.hex)
			// parse runs the same decoder production uses for this framing
			// into a fresh message.
			fresh := reflect.New(reflect.TypeOf(g.msg).Elem()).Interface().(Message)
			var got []byte
			var parse func(raw []byte) error
			switch g.framing {
			case asRequest:
				got = encodeMsg(g.op, g.msg)
				parse = func(raw []byte) error {
					var err error
					_, fresh, err = tableFor(g.op).decode(raw)
					return err
				}
			case asReply:
				var failure error
				if g.errText != "" {
					failure = errors.New(g.errText)
				}
				got = encodeReply(g.op, g.msg, failure)
				parse = func(raw []byte) error { return decodeReply(raw, g.op, fresh) }
			case asBare:
				got = encodeMsg(g.op, g.msg)
				parse = func(raw []byte) error { return decodeMsg(raw, g.op, fresh) }
			case asCommand:
				got = encodeCommand(g.op, g.msg)
				parse = func(raw []byte) error {
					var err error
					_, fresh, err = decodeCommand(raw)
					return err
				}
			case asRecord:
				got = encode(wire.Encoder(), g.msg)
				parse = func(raw []byte) (err error) {
					*fresh.(*HandleMeta), err = DecodeHandleMeta(raw)
					return err
				}
			case asRegion:
				got = encodeCtrl(wire.Encoder(), g.msg.(*ctrlState))
				parse = func(raw []byte) error {
					_, err := decodeCtrl(raw, fresh.(*ctrlState))
					return err
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("layout changed:\n got %x\nwant %x", got, want)
			}
			err := parse(want)
			if g.errText != "" {
				if re, ok := err.(remoteError); !ok || string(re) != g.errText {
					t.Fatalf("decoded failure = %v, want remote error %q", err, g.errText)
				}
			} else if err != nil {
				t.Fatal(err)
			} else if !reflect.DeepEqual(fresh, g.msg) {
				t.Fatalf("decode(encode(m)):\n got %+v\nwant %+v", fresh, g.msg)
			}
			// No prefix of a message decodes as a message (a failure reply's
			// prefix is a failure reply with a shorter text: still an error),
			// short of cutting into a field that runs to the end.
			for k := 0; k < len(want)-openTail(g.msg); k++ {
				if err := parse(want[:k]); err == nil {
					t.Fatalf("prefix %d of %d decoded cleanly", k, len(want))
				}
			}
		})
	}
}

// openTail is the length of m's last field when that field runs to the
// end of the message: any cut inside it is still a message.
func openTail(m Message) int {
	switch m := m.(type) {
	case *runReq:
		return len(m.Args)
	case *runDone:
		return len(m.Result)
	}
	return 0
}

// TestTruncatedRequestsGetErrorReplies is the bugfix's fail-before test:
// against a live daemon, every golden lifecycle request cut at every
// length 0..n-1 is answered with a malformed-request error reply (at the
// parent the first one panicked a daemon goroutine, and with it the
// simulator), and the same connection then serves a valid request.
func TestTruncatedRequestsGetErrorReplies(t *testing.T) {
	RegisterBinary(counterBinary("app_trunc"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_trunc", 1)
	ep, err := e.plat.Net.Connect(simnet.HostNode, scif.Addr{Node: 1, Port: DaemonPort})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	exchange := func(req []byte, respOp uint8, resp Message) error {
		t.Helper()
		if _, err := ep.Send(req); err != nil {
			t.Fatal(err)
		}
		raw, _, err := ep.Recv()
		if err != nil {
			t.Fatalf("daemon hung up: %v", err)
		}
		return decodeReply(raw, respOp, resp)
	}
	for _, g := range goldenMessages {
		if g.framing != asRequest || g.op >= pipePauseReq {
			continue
		}
		full := goldenBytes(t, g.hex)
		for k := 0; k < len(full); k++ {
			respOp, want := g.op+1, "coi: malformed "+daemonRequests[g.op].name+" request: "
			if k == 0 {
				respOp, want = 0, "coi: malformed request: "
			}
			err := exchange(full[:k], respOp, &Empty{})
			if re, ok := err.(remoteError); !ok || !strings.HasPrefix(string(re), want) {
				t.Fatalf("%s cut to %d of %d bytes: reply %v, want error %q...", g.name, k, len(full), err, want)
			}
		}
		if err := exchange(encodeMsg(opAwaitReady, &IDReq{cp.ID()}), opAwaitReadyResp, &Empty{}); err != nil {
			t.Fatalf("valid request after the truncated %s requests: %v", g.name, err)
		}
	}
}

// FuzzControlDecode holds the request decoder handleConn and the agent use
// to three properties: no input panics, every rejection is a
// *MalformedError, and an accepted input is exactly its message — it
// re-encodes to the same bytes. Seeds: the golden requests.
func FuzzControlDecode(f *testing.F) {
	for _, g := range goldenMessages {
		if g.framing == asRequest {
			f.Add(goldenBytes(f, g.hex))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, table := range []requestTable{daemonRequests, agentRequests} {
			op, m, err := table.decode(data)
			if err != nil {
				var bad *MalformedError
				if !errors.As(err, &bad) {
					t.Fatalf("rejected with %v, want *MalformedError", err)
				}
				continue
			}
			if again := encodeMsg(op, m); !bytes.Equal(again, data) {
				t.Fatalf("accepted input re-encodes differently:\n  in %x\n out %x", data, again)
			}
		}
	})
}

// TestTruncatedCommandsGetErrorReplies is TestTruncatedRequestsGetErrorReplies
// for the command channel: every golden command request cut at every
// length 0..n-1 is answered with a malformed-command error reply (while
// the card parsed requests at fixed offsets, the empty frame and a bare
// buffer-create opcode panicked the channel's server thread, and with it
// the simulator), and the same channel then serves a valid request.
func TestTruncatedCommandsGetErrorReplies(t *testing.T) {
	RegisterBinary(counterBinary("app_trunc_cmd"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_trunc_cmd", 1)
	ep := cp.Command("command").Endpoint()
	for _, g := range goldenMessages {
		if g.framing != asCommand {
			continue
		}
		full := goldenBytes(t, g.hex)
		for k := 0; k < len(full); k++ {
			want := "coi: malformed " + commandRequests[g.op].name + " request: "
			switch k {
			case 0:
				want = "coi: malformed command: "
			case 1:
				want = "coi: malformed request: "
			}
			if _, err := ep.Send(full[:k]); err != nil {
				t.Fatal(err)
			}
			raw, _, err := ep.Recv()
			if err != nil {
				t.Fatalf("%s cut to %d of %d bytes: the server hung up: %v", g.name, k, len(full), err)
			}
			err = decodeReply(raw, cmdReply, &Empty{})
			if re, ok := err.(remoteError); !ok || !strings.HasPrefix(string(re), want) {
				t.Fatalf("%s cut to %d of %d bytes: reply %v, want error %q...", g.name, k, len(full), err, want)
			}
		}
		if err := cp.Command("command").Request(cmdPing, &Empty{}, &Empty{}); err != nil {
			t.Fatalf("valid request after the truncated %s requests: %v", g.name, err)
		}
	}
}

// TestShortPipelineMessages: a message on a run-function channel that is
// not the one its reader expects never panics the reader. The host's
// receiver drops it and keeps delivering results; the offload process's
// server thread drops the channel.
func TestShortPipelineMessages(t *testing.T) {
	RegisterBinary(counterBinary("app_short_pl"))
	e := newEnv(t, 1)
	cp := e.create(t, "app_short_pl", 1)
	defer cp.Destroy()
	op, err := DaemonAt(e.plat, 1).Lookup(cp.ID())
	if err != nil {
		t.Fatal(err)
	}
	junk := [][]byte{{}, {plDone}, {plDone, 0, 0, 0}, {plRun}, {plRun, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 9, 'x'},
		goldenBytes(t, "0200000000000000050200000000000004b0")} // status byte 2

	pl, err := cp.CreatePipeline()
	if err != nil {
		t.Fatal(err)
	}
	device := op.awaitPipeline(pl.id).ep
	for _, m := range junk {
		if _, err := device.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := runCount(t, pl, 5); got != sumTo(5) {
		t.Fatalf("after junk results the call returned %d, want %d", got, sumTo(5))
	}

	for _, m := range junk[:5] {
		pl, err := cp.CreatePipeline()
		if err != nil {
			t.Fatal(err)
		}
		host := pl.endpoint()
		if _, err := host.Send(m); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, _, _, err := host.TryRecv(); err != nil {
				break // the server thread dropped the channel
			}
			if time.Now().After(deadline) {
				t.Fatalf("run request %x: the channel is still up", m)
			}
		}
	}
	if got := runCount(t, pl, 8); got != sumTo(8) {
		t.Fatalf("the first pipeline after the dropped ones returned %d, want %d", got, sumTo(8))
	}
}

// FuzzChannelDecode holds the command channel's request decoder, the
// pipeline's run and result decoders and the control record's to
// FuzzControlDecode's properties: no input panics, every rejection is a
// *MalformedError, and an accepted input re-encodes to itself (the
// control record: to the bytes it took from the front). Seeds: the golden
// messages.
func FuzzChannelDecode(f *testing.F) {
	for _, g := range goldenMessages {
		f.Add(goldenBytes(f, g.hex))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		check := func(what string, err error, encode func() []byte, in []byte) {
			t.Helper()
			if err != nil {
				var bad *MalformedError
				if !errors.As(err, &bad) {
					t.Fatalf("%s: rejected with %v, want *MalformedError", what, err)
				}
				return
			}
			if again := encode(); !bytes.Equal(again, in) {
				t.Fatalf("%s: accepted input re-encodes differently:\n  in %x\n out %x", what, in, again)
			}
		}
		op, m, err := decodeCommand(data)
		check("command", err, func() []byte { return encodeCommand(op, m) }, data)
		run, done := new(runReq), new(runDone)
		check("run request", decodeMsg(data, plRun, run), func() []byte { return encodeMsg(plRun, run) }, data)
		check("run result", decodeMsg(data, plDone, done), func() []byte { return encodeMsg(plDone, done) }, data)
		var st ctrlState
		n, err := decodeCtrl(data, &st)
		check("control record", err, func() []byte { return encodeCtrl(wire.Encoder(), &st) }, data[:n])
	})
}
