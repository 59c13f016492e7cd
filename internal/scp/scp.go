// Package scp models the scp file-copy baseline of Table 3: ssh over the
// TCP/IP virtio interface. On a Xeon Phi the copy is CPU-bound — the
// cipher and MAC run on a single slow in-order core — so scp trails both
// NFS and Snapify-IO by more than an order of magnitude for large files.
package scp

import (
	"io"

	"snapify/internal/simclock"
	"snapify/internal/simnet"
	"snapify/internal/vfs"
)

// chunk is scp's internal transfer granularity.
const chunk = 256 * simclock.KiB

// Copy copies srcPath on srcFS (at srcNode) to dstPath on dstFS (at
// dstNode) and returns the virtual end-to-end time.
func Copy(fabric *simnet.Fabric, srcNode simnet.NodeID, srcFS *vfs.FS, srcPath string,
	dstNode simnet.NodeID, dstFS *vfs.FS, dstPath string) (simclock.Duration, error) {

	model := fabric.Model()
	r, err := srcFS.Open(srcPath)
	if err != nil {
		return 0, err
	}
	w, err := dstFS.Create(dstPath)
	if err != nil {
		return 0, err
	}

	acc := simclock.NewPipelineAccum()
	acc.Add(model.SCPHandshake)
	for {
		b, fsRead, err := r.Next(chunk)
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Abort()
			return 0, err
		}
		fsWrite, err := w.WriteBlob(b)
		if err != nil {
			w.Abort()
			return 0, err
		}
		// The cipher (encrypt on one side, decrypt on the other, both on
		// whichever card is involved) bottlenecks the stream; the TCP
		// window keeps the wire busy underneath it.
		cipher := simclock.Rate(model.SCPCipherBandwidth)(b.Len())
		wire := fabric.VirtioCost(srcNode, dstNode, b.Len())
		acc.Observe(fsRead, cipher, wire, fsWrite)
	}
	if err := w.Close(); err != nil {
		return 0, err
	}
	return acc.Total(), nil
}
