package core

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"snapify/internal/coi"
	"snapify/internal/platform"
	"snapify/internal/proc"
	"snapify/internal/simnet"
)

// The snapify command-line utility (Section 5) provides swapping and
// migration transparently: its arguments are the PID of the host process
// and a command; it signals the host process and submits the command
// through a pipe, and the Snapify signal handler in the host process calls
// the corresponding API function.

// CommandServer is the Snapify-installed signal handler of one host
// process.
type CommandServer struct {
	plat *platform.Platform

	mu       sync.Mutex
	cp       *coi.Process
	swapped  *Snapshot // set while the offload process is swapped out
	viaStore bool      // the swapped-out snapshot lives in the dedup store

	cmdPipe *proc.PipeEnd // server end
	ctlPipe *proc.PipeEnd // utility end
}

// InstallCommandServer installs the Snapify signal handler in the host
// process that owns cp. The snapify utility submits commands with
// SubmitCommand against the host PID.
func InstallCommandServer(plat *platform.Platform, cp *coi.Process) *CommandServer {
	srv := &CommandServer{plat: plat, cp: cp}
	srv.cmdPipe, srv.ctlPipe = proc.NewPipe(plat.Model())
	cp.HostProc().HandleSignal(proc.SigCommand, srv.handleOne)
	return srv
}

// Proc returns the current offload handle.
func (s *CommandServer) Proc() *coi.Process {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cp
}

// Swapped reports whether the offload process is currently swapped out.
func (s *CommandServer) Swapped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.swapped != nil
}

// handleOne services one submitted command (runs in signal-handler
// context).
func (s *CommandServer) handleOne() {
	raw, _, err := s.cmdPipe.Recv()
	if err != nil {
		return
	}
	reply := s.execute(string(raw))
	s.cmdPipe.Send([]byte(reply)) //nolint:errcheck // fire-and-forget reply: a dead controller surfaces on the next Recv
}

// execute parses and runs one command, returning "ok" or "error: ...".
func (s *CommandServer) execute(cmd string) string {
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return "error: empty command"
	}
	fail := func(err error) string { return "error: " + err.Error() }

	s.mu.Lock()
	defer s.mu.Unlock()
	switch fields[0] {
	case "swapout":
		store, ok := storeFlagArg(fields, 3)
		if !ok {
			return "error: usage: swapout <snapshot-dir> [store]"
		}
		if s.swapped != nil {
			return "error: already swapped out"
		}
		var copts CaptureOptions
		copts.Store.Enabled = store
		snap, err := Swapout(fields[1], s.cp, copts)
		if err != nil {
			return fail(err)
		}
		s.swapped = snap
		s.viaStore = store
		return "ok"
	case "swapin":
		if len(fields) != 2 {
			return "error: usage: swapin <device>"
		}
		if s.swapped == nil {
			return "error: not swapped out"
		}
		dev, err := strconv.Atoi(fields[1])
		if err != nil {
			return fail(err)
		}
		var ropts RestoreOptions
		ropts.Store.Enabled = s.viaStore
		cp, err := Swapin(s.swapped, simnet.NodeID(dev), ropts)
		if err != nil {
			return fail(err)
		}
		s.cp = cp
		s.swapped = nil
		s.viaStore = false
		return "ok"
	case "migrate":
		opts, ok := migrateArgs(fields)
		if !ok {
			return "error: usage: migrate <device> <snapshot-dir> [store|live]"
		}
		if s.swapped != nil {
			return "error: swapped out; swap in first"
		}
		dev, err := strconv.Atoi(fields[1])
		if err != nil {
			return fail(err)
		}
		opts.DeviceTo = simnet.NodeID(dev)
		opts.Path = fields[2]
		cp, snap, err := Migrate(s.cp, opts)
		if err != nil {
			return fail(err)
		}
		s.cp = cp
		return migrateReply(&snap.Report)
	default:
		return fmt.Sprintf("error: unknown command %q", fields[0])
	}
}

// migrateArgs interprets the migrate command's optional trailing mode
// token: none (stop-the-world, plain files), "store" (stop-the-world
// through the dedup store), or "live" (pre-copy live migration — the
// store data path is implied).
func migrateArgs(fields []string) (MigrateOptions, bool) {
	var opts MigrateOptions
	switch {
	case len(fields) == 3:
		return opts, true
	case len(fields) == 4 && fields[3] == "store":
		opts.Capture.Store.Enabled = true
		opts.Restore.Store.Enabled = true
		return opts, true
	case len(fields) == 4 && fields[3] == "live":
		opts.Precopy.MaxRounds = defaultLiveRounds
		return opts, true
	}
	return MigrateOptions{}, false
}

// defaultLiveRounds bounds the pre-copy iterations of a "migrate ... live"
// command.
const defaultLiveRounds = 3

// migrateReply formats a migration's Report for the utility: one line per
// pre-copy round plus the final downtime.
func migrateReply(r *Report) string {
	var b strings.Builder
	b.WriteString("ok")
	for _, pr := range r.Precopy {
		fmt.Fprintf(&b, "\nround %d: dirty %d B, shipped %d B", pr.Round, pr.DirtyBytes, pr.ShippedBytes)
		if pr.Skipped {
			b.WriteString(" (under floor, not shipped)")
		}
	}
	fmt.Fprintf(&b, "\ndowntime %v", r.Downtime)
	return b.String()
}

// storeFlagArg interprets an optional trailing "store" token on a
// command: fields may have max-1 entries (the plain data path) or max
// entries whose last is "store" (capture through the dedup store).
func storeFlagArg(fields []string, max int) (store, ok bool) {
	switch {
	case len(fields) == max-1:
		return false, true
	case len(fields) == max && fields[max-1] == "store":
		return true, true
	}
	return false, false
}

// SubmitCommand is the utility side: resolve the host PID, submit the
// command through the server's pipe, signal the process, and collect the
// reply. On success it returns the server's reply text (the "ok" line,
// plus per-round and downtime detail for a migration).
func (s *CommandServer) SubmitCommand(cmd string) (string, error) {
	host := s.cp.HostProc()
	if _, err := s.plat.Procs.Lookup(host.PID()); err != nil {
		return "", fmt.Errorf("core: snapify utility: %w", err)
	}
	if _, err := s.ctlPipe.Send([]byte(cmd)); err != nil {
		return "", err
	}
	if err := host.Deliver(proc.SigCommand); err != nil {
		return "", err
	}
	raw, _, err := s.ctlPipe.Recv()
	if err != nil {
		return "", err
	}
	reply := string(raw)
	if reply != "ok" && !strings.HasPrefix(reply, "ok\n") {
		return "", errors.New("core: snapify utility: " + strings.TrimPrefix(reply, "error: "))
	}
	return reply, nil
}
