package experiments

import (
	"strings"
	"testing"

	"snapify/internal/faultinject"
	"snapify/internal/simclock"
)

// A plan that exercises both the transport retry (a dropped send on the
// up-link) and the watermark replay (a dropped chunk at the daemon).
func testFaultPlan() faultinject.Plan {
	return faultinject.Plan{
		{Site: faultinject.SiteSend, Key: faultinject.LinkKey("mic0", "host"), Kind: faultinject.Drop, Nth: 3},
		{Site: faultinject.SiteChunk, Kind: faultinject.Drop, Nth: 5},
	}
}

func TestFaultedCaptureShape(t *testing.T) {
	res, err := FaultedCapture(64*simclock.MiB, testFaultPlan())
	if err != nil {
		t.Fatal(err)
	}
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
	if res.FaultsFired == 0 {
		t.Fatal("no fault fired; the benchmark measured nothing")
	}
	if res.RetryEvents == 0 || res.RetryBackoffNs == 0 {
		t.Errorf("degraded run recorded no stream retries (events=%d, backoff=%dns)",
			res.RetryEvents, res.RetryBackoffNs)
	}
	if res.OverheadPct < 0 {
		t.Errorf("degraded path was faster than clean: %+.1f%%", res.OverheadPct)
	}
	out := res.Render()
	for _, want := range []string{"clean", "faulted", "degraded-path overhead"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if _, err := JSON(res); err != nil {
		t.Fatal(err)
	}
}

func TestFaultedCaptureRejectsEmptyPlan(t *testing.T) {
	if _, err := FaultedCapture(64*simclock.MiB, nil); err == nil {
		t.Fatal("empty plan must be rejected")
	}
}
