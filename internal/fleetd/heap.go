package fleetd

import "snapify/internal/simclock"

// event is one scheduled occurrence on the controller's virtual
// timeline. Ordering is (time, seq): seq breaks same-instant ties in
// schedule order, which is what makes a run a pure function of its
// inputs.
type event struct {
	at  simclock.Duration
	seq uint64
	// job is the subject (0 for control events like evacuation starts).
	job int
	// epoch guards against stale events: a job's epoch bumps whenever a
	// failure or preemption invalidates its scheduled future.
	epoch int
	kind  eventKind
}

type eventKind int

const (
	evArrival eventKind = iota
	evBurstEnd
	evThinkEnd
	evOpDone    // an engine op (launch/swap/migrate/recover) completed
	evEvacuate  // start draining a host (job field unused, host in drain record)
	evServeCard // retry one card's waiter queue after a failed serve attempt
)

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
	a, b := &h.es[i], &h.es[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
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
