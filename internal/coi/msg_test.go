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
)

// The control protocol's byte layouts are pinned by hex captured from the
// hand-rolled encoders this file's field lists replaced (core/snapify.go,
// core/migration.go, coi/daemon.go and coi/snapify.go at PR 15, run over
// these field values); capture and pipe_capture lost their parent field
// once the store held whole images only, and they and restore lost the
// retry backoff once it became a constant; the pre-save messages are
// pinned at their first encoding. Every SCIF send charges virtual
// time by message length, so identical bytes is what keeps every virtual
// number identical.

// How a golden message is framed.
const (
	asRequest = iota // op | fields, decoded through a request table
	asReply          // op | 0 | fields, or op | 1 | error text
	asBare           // op alone: the agent's pause ack and resume done
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
			// decode runs the same decoder production uses for this framing
			// into a fresh message.
			fresh := reflect.New(reflect.TypeOf(g.msg).Elem()).Interface().(Message)
			var got []byte
			var decode func(raw []byte) error
			switch g.framing {
			case asRequest:
				got = encodeMsg(g.op, g.msg)
				decode = func(raw []byte) error {
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
				decode = func(raw []byte) error { return decodeReply(raw, g.op, fresh) }
			case asBare:
				got = encodeMsg(g.op, g.msg)
				decode = func(raw []byte) error { return decodeMsg(raw, g.op, fresh) }
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("layout changed:\n got %x\nwant %x", got, want)
			}
			err := decode(want)
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
			// prefix is a failure reply with a shorter text: still an error).
			for k := 0; k < len(want); k++ {
				if err := decode(want[:k]); err == nil {
					t.Fatalf("prefix %d of %d decoded cleanly", k, len(want))
				}
			}
		})
	}
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
