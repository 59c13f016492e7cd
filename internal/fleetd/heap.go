package fleetd

import (
	"cmp"
	"slices"

	"snapify/internal/simclock"
)

// event is one scheduled occurrence on the controller's virtual
// timeline. Ordering is (time, seq): seq breaks same-instant ties in
// schedule order, which is what makes a run a pure function of its
// inputs.
type event struct {
	at  simclock.Duration
	seq uint64
	// job is the subject, nil for a control event.
	job *Job
	// ctl is a control event's payload, nil for a job event.
	ctl *control
	// epoch guards against stale events: a job's epoch bumps whenever a
	// failure or preemption invalidates its scheduled future.
	epoch int
	kind  eventKind
}

// control is a control event's payload: the host an evacuation drains,
// named as ScheduleEvacuation got it, and its deadline; or the card an
// evServeCard retry re-serves.
type control struct {
	host     string
	deadline simclock.Duration
	card     *card
}

// before reports whether a is handled before b.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type eventKind int

const (
	evArrival eventKind = iota
	evBurstEnd
	evThinkEnd
	evOpDone    // an engine op (launch/swap/migrate/recover) completed
	evEvacuate  // start draining a host (host and deadline in ctl)
	evServeCard // retry one card's waiter queue after a failed serve attempt (card in ctl)
)

// timeline is the controller's event order: the submitted trace's
// arrivals, a cursor in (at, seq) order, merged with a heap of the
// events the run scheduled. Arrivals never enter the heap, so it holds
// only what is in flight.
type timeline struct {
	arrivals []event
	heap     eventHeap
}

// sortArrivals restores (at, seq) order after arrivals were appended.
// Each keeps the seq submission gave it, so a stable sort by time is
// that order; arrivals already in order (every generated trace) stay.
func (t *timeline) sortArrivals() {
	byTime := func(a, b event) int { return cmp.Compare(a.at, b.at) }
	if !slices.IsSortedFunc(t.arrivals, byTime) {
		slices.SortStableFunc(t.arrivals, byTime)
	}
}

// next returns the event pop returns next, nil when none is left.
func (t *timeline) next() *event {
	switch {
	case len(t.arrivals) > 0 && (t.heap.Len() == 0 || t.arrivals[0].before(&t.heap.es[0])):
		return &t.arrivals[0]
	case t.heap.Len() > 0:
		return &t.heap.es[0]
	}
	return nil
}

// pop removes and returns the next event; one must be left.
func (t *timeline) pop() event {
	if len(t.arrivals) > 0 && t.next() == &t.arrivals[0] {
		e := t.arrivals[0]
		t.arrivals = t.arrivals[1:]
		return e
	}
	return t.heap.Pop()
}

// eventHeap is a binary min-heap over (at, seq). It is the control
// plane's O(log n) core: push and pop cost one sift each, so per-event
// work stays logarithmic no matter how many hosts and jobs are in
// flight. cmps counts comparisons for the complexity-pinning test.
type eventHeap struct {
	es   []event
	cmps int64
}

func (h *eventHeap) Len() int { return len(h.es) }

func (h *eventHeap) less(i, j int) bool {
	h.cmps++
	return h.es[i].before(&h.es[j])
}

func (h *eventHeap) Push(e event) {
	h.es = append(h.es, e)
	i := len(h.es) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.es[i], h.es[parent] = h.es[parent], h.es[i]
		i = parent
	}
}

func (h *eventHeap) Pop() event {
	top := h.es[0]
	last := len(h.es) - 1
	h.es[0] = h.es[last]
	h.es[last] = event{} // drop its pointers
	h.es = h.es[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.less(l, smallest) {
			smallest = l
		}
		if r < last && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.es[i], h.es[smallest] = h.es[smallest], h.es[i]
		i = smallest
	}
	return top
}

// jobHeap orders admitted-but-unplaced jobs by (priority desc, arrival
// asc, ID asc) — the admission queue's dispatch order.
type jobHeap struct {
	js []*Job
}

func (h *jobHeap) Len() int { return len(h.js) }

func (h *jobHeap) less(i, j int) bool {
	a, b := h.js[i], h.js[j]
	if a.Spec.Priority != b.Spec.Priority {
		return a.Spec.Priority > b.Spec.Priority
	}
	if a.Spec.Arrival != b.Spec.Arrival {
		return a.Spec.Arrival < b.Spec.Arrival
	}
	return a.ID < b.ID
}

func (h *jobHeap) Push(j *Job) {
	h.js = append(h.js, j)
	i := len(h.js) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.js[i], h.js[parent] = h.js[parent], h.js[i]
		i = parent
	}
}

func (h *jobHeap) Peek() *Job {
	if len(h.js) == 0 {
		return nil
	}
	return h.js[0]
}

func (h *jobHeap) Pop() *Job {
	top := h.js[0]
	last := len(h.js) - 1
	h.js[0] = h.js[last]
	h.js[last] = nil
	h.js = h.js[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && h.less(l, smallest) {
			smallest = l
		}
		if r < last && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h.js[i], h.js[smallest] = h.js[smallest], h.js[i]
		i = smallest
	}
	return top
}
