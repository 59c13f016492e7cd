package fanout

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesEveryItem(t *testing.T) {
	const items = 100
	var hits [items]atomic.Int32
	if err := Run(items, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("item %d ran %d times", i, got)
		}
	}
}

func TestRunReturnsFirstErrorInItemOrder(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	err := Run(10, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("got %v, want first error in item order (%v)", err, errA)
	}
}

func TestRunDegenerateInputs(t *testing.T) {
	for _, items := range []int{0, -1} {
		if err := Run(items, func(int) error { t.Fatal("ran"); return nil }); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunFaultedWorkerLeaksNoGoroutines pins the cancellation story the
// chaos tier leans on: when items error (an injected fault killed a
// stream), Run still joins every worker — no goroutine may outlive the
// call, or retried captures would pile up leaked workers.
func TestRunFaultedWorkerLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	fault := errors.New("injected")
	for round := 0; round < 20; round++ {
		err := Run(64, func(i int) error {
			if i%3 == 0 {
				return fault
			}
			runtime.Gosched()
			return nil
		})
		if !errors.Is(err, fault) {
			t.Fatalf("round %d: got %v, want %v", round, err, fault)
		}
	}
	// Run waits on its WaitGroup, so the workers must already be gone; give
	// the runtime a moment only for unrelated scheduler noise to settle.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunPanicInWorkerDoesNotHangSiblings documents that a panicking fn
// propagates (it is a bug, not a fault) rather than deadlocking Run, and
// only after every sibling has finished.
func TestRunPanicInWorkerDoesNotHangSiblings(t *testing.T) {
	var done atomic.Int32
	defer func() {
		if recover() == nil {
			t.Error("panic in fn must propagate to the caller")
		}
		if n := done.Load(); n != 3 {
			t.Errorf("%d of 3 siblings finished before the panic was re-raised", n)
		}
	}()
	Run(4, func(i int) error { //nolint:errcheck // the panic is the point
		if i == 1 {
			panic("boom")
		}
		done.Add(1)
		return nil
	})
}
