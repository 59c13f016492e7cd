package experiments

import (
	"strings"
	"testing"
)

// TestLiveGrowthGate: the migration sweep's flatness gate bounds how much
// live downtime grows across the grid, not its max/min ratio. It holds at
// smoke scale, still holds when the floor under every row falls (the
// smoke rows' spread over a 0.3 ms floor is a 3.1x ratio), and trips when
// the largest image's downtime grows a nanosecond past the bound.
func TestLiveGrowthGate(t *testing.T) {
	// The cached smoke results are shared with other tests: perturb copies.
	mig := *smoke(t, "migrate sweep").(*MigrateResult)
	mig.Rows = append([]MigrateRow(nil), mig.Rows...)
	if err := mig.CheckShape(); err != nil {
		t.Fatal(err)
	}
	first, last := &mig.Rows[0], &mig.Rows[len(mig.Rows)-1]
	bound := int64(liveGrowthBound(first.ImageBytes, last.ImageBytes))
	spread := last.LiveDowntimeNs - first.LiveDowntimeNs
	if spread <= 0 || spread > bound {
		t.Fatalf("smoke live downtime grows %d ns across the grid, want within (0, %d]", spread, bound)
	}

	fall := first.LiveDowntimeNs - 300_000
	for i := range mig.Rows {
		mig.Rows[i].LiveDowntimeNs -= fall
	}
	if err := mig.CheckShape(); err != nil {
		t.Errorf("a floor of 0.3 ms under the same growth: CheckShape = %v, want none", err)
	}

	last.LiveDowntimeNs += bound - spread + 1
	if err := mig.CheckShape(); err == nil || !strings.Contains(err.Error(), "not flat") {
		t.Errorf("growth %d ns over the %d ns bound: CheckShape = %v, want the flatness gate", bound+1, bound, err)
	}
}
