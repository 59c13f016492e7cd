package experiments

import (
	"strings"
	"testing"
)

// The two gates on the store read stream hold at smoke scale and trip on
// the figures of the serial read they replaced: a store restore whose page
// copy fell back out of the overlap (0.7x the plain one), a staging round
// that adds its stages up per chunk (0.94x its upload).
func TestStoreReadGates(t *testing.T) {
	// The cached smoke results are shared with other tests: perturb copies.
	dedup := *smoke(t, "dedup swap").(*DedupSwapResult)
	dedup.Rows = append([]DedupSwapRow(nil), dedup.Rows...)
	if err := dedup.CheckShape(); err != nil {
		t.Fatal(err)
	}
	row := &dedup.Rows[1]
	row.StoreRestoreNs = row.PlainRestoreNs * 7 / 10
	if err := dedup.CheckShape(); err == nil || !strings.Contains(err.Error(), "store restore") {
		t.Errorf("store restore at 0.7x the plain one: CheckShape = %v, want the restore gate", err)
	}

	mig := *smoke(t, "migrate sweep").(*MigrateResult)
	mig.Rows = append([]MigrateRow(nil), mig.Rows...)
	if err := mig.CheckShape(); err != nil {
		t.Fatal(err)
	}
	mrow := &mig.Rows[0]
	if mrow.LiveTotalNs <= mrow.UploadNs+mrow.StageNs+mrow.LiveDowntimeNs {
		t.Errorf("live total %d does not cover round 1 (%d + %d) and the downtime (%d) with later rounds on top",
			mrow.LiveTotalNs, mrow.UploadNs, mrow.StageNs, mrow.LiveDowntimeNs)
	}
	mrow.StageNs = mrow.UploadNs * 94 / 100
	if err := mig.CheckShape(); err == nil || !strings.Contains(err.Error(), "staged") {
		t.Errorf("staging at 0.94x the upload: CheckShape = %v, want the staging gate", err)
	}
}
