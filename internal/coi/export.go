package coi

import (
	"snapify/internal/platform"
	"snapify/internal/scif"
	"snapify/internal/simnet"
)

// Exported surface for internal/core: the Snapify request opcodes it sends
// through Process.DaemonRequest, and the two requests that go to a card's
// daemon on a fresh connection, since that card does not (yet, or any
// longer) host the process.

// Daemon opcodes core sends on the lifecycle channel.
const (
	OpSnapifyPause   = opSnapifyPause
	OpSnapifyDrain   = opSnapifyDrain
	OpSnapifyCapture = opSnapifyCapture
	OpSnapifyResume  = opSnapifyResume
	OpSnapifyPrecopy = opSnapifyPrecopy
	OpSnapifyPresave = opSnapifyPresave
)

// DaemonRestoreRequest sends a snapify-restore request to the daemon on
// device.
func DaemonRestoreRequest(plat *platform.Platform, device simnet.NodeID, req *RestoreReq) (*RestoreResp, error) {
	resp := new(RestoreResp)
	return resp, daemonRequest(plat, device, opSnapifyRestore, req, resp, "coi: daemon restore error")
}

// DaemonStageRequest sends a stage-control request (StageSync, StageDrop
// or StageDropAll) to the daemon on the migration's destination device.
func DaemonStageRequest(plat *platform.Platform, device simnet.NodeID, req *StageReq) (*StageResp, error) {
	resp := new(StageResp)
	return resp, daemonRequest(plat, device, opSnapifyPrecopyStage, req, resp, "coi: daemon stage error")
}

// daemonRequest runs one host-to-daemon request on a fresh connection.
func daemonRequest(plat *platform.Platform, device simnet.NodeID, op uint8, req, resp Message, what string) error {
	ep, err := plat.Net.Connect(simnet.HostNode, scif.Addr{Node: device, Port: DaemonPort})
	if err != nil {
		return err
	}
	defer ep.Close() //nolint:errcheck // one-shot request endpoint: the reply already arrived or err reports the failure
	_, err = roundTrip(ep, encodeMsg(op, req), op+1, resp, what)
	return err
}
