package blcr

import (
	"errors"
	"testing"

	"snapify/internal/blob"
)

// The context and delta files are bytes this package may not have written
// (a snapshot directory outlives the build that made it; a federation peer
// ships its own). Both fuzz targets hold the decoders to the same three
// properties: no input panics, every rejection is an *ErrBadContext, and an
// accepted input is a usable snapshot — what it restored checkpoints and
// restores again to the same regions. The comparison is by region, not by
// file bytes: record padding and the original-node field are free bytes a
// re-checkpoint does not reproduce. Seeds: the golden files, plus the
// corruptInputs cases committed under testdata/fuzz/.

func requireBadContext(t *testing.T, what string, err error) {
	t.Helper()
	var bad *ErrBadContext
	if !errors.As(err, &bad) {
		t.Fatalf("%s rejected the input with %v, want *ErrBadContext", what, err)
	}
}

func FuzzRestartContext(f *testing.F) {
	f.Add(readGolden(f, "golden_context.bin"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := newEnv()
		e.fs.WriteFile("in", blob.FromBytes(data))
		seq, _, seqErr := e.cr.Restart(e.source(t, "in"), freshSpawn)
		ranged, _, rangedErr := e.cr.RestartParallel(int64(len(data)), 2, 1024, e.rangeSource("in"), freshSpawn)
		if (seqErr == nil) != (rangedErr == nil) {
			t.Fatalf("feeders disagree: sequential %v, ranged %v", seqErr, rangedErr)
		}
		if seqErr != nil {
			requireBadContext(t, "sequential feeder", seqErr)
			requireBadContext(t, "ranged feeder", rangedErr)
			return
		}
		requireSameRegions(t, "ranged vs sequential restore", ranged, seq, false)
		if _, err := e.cr.CheckpointFrozen(seq, e.sink(t, "again")); err != nil {
			t.Fatal(err)
		}
		again, _, err := e.cr.Restart(e.source(t, "again"), freshSpawn)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRegions(t, "re-checkpointed restore", again, seq, false)
	})
}

func FuzzApplyDelta(f *testing.F) {
	f.Add(readGolden(f, "golden_delta.bin"))
	f.Fuzz(func(t *testing.T, data []byte) {
		e := newEnv()
		e.fs.WriteFile("in", blob.FromBytes(data))
		p, base := goldenProc(t), goldenProc(t)
		markClean(p)
		if _, err := e.cr.ApplyDelta(p, e.source(t, "in")); err != nil {
			requireBadContext(t, "ApplyDelta", err)
			return
		}
		// What the delta wrote is p's dirty set: a delta of p onto an
		// untouched copy of the base must reproduce p.
		if _, err := e.cr.CheckpointDeltaFrozen(p, e.sink(t, "again")); err != nil {
			t.Fatal(err)
		}
		if _, err := e.cr.ApplyDelta(base, e.source(t, "again")); err != nil {
			t.Fatal(err)
		}
		requireSameRegions(t, "re-checkpointed delta", base, p, false)
	})
}
