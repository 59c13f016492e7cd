package blcr

import (
	"io"

	"snapify/internal/blob"
	"snapify/internal/simclock"
	"snapify/internal/stream"
)

// RetryPolicy bounds how a capture or restore recovers from a transport
// fault; it picks no transport. A striped capture worker resumes from its
// acknowledgement watermark, a read reopens at its offset (resumable), and
// a capture that still fails is redone whole by its caller. Backoff is
// virtual time, charged into the recovering pipeline, never slept.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per stream, first
	// try included. 0 or 1 disables retry.
	MaxAttempts int
}

// Enabled reports whether the policy allows any retry at all.
func (rp RetryPolicy) Enabled() bool { return rp.MaxAttempts > 1 }

// firstBackoff is the virtual delay before a first retry; every further
// retry doubles it.
const firstBackoff = simclock.Duration(1_000_000) // 1 virtual ms

// Backoff returns the virtual delay charged before the n-th retry (1 is
// the first).
func Backoff(n int) simclock.Duration { return firstBackoff << uint(n-1) }

// WithRetry returns a shallow copy of c whose checkpoint and restart
// streams recover from transport faults under rp; the zero policy fails on
// the first fault (the paper's behavior).
func (c *Checkpointer) WithRetry(rp RetryPolicy) *Checkpointer {
	cp := *c
	cp.retry = rp
	return &cp
}

// retries is one retry budget of the checkpointer's policy, shared by
// whatever draws on it; each retry's backoff is charged into acc.
type retries struct {
	max, used int
	acc       *simclock.PipelineAccum
}

func (c *Checkpointer) retries(acc *simclock.PipelineAccum) *retries {
	return &retries{max: c.retry.MaxAttempts - 1, acc: acc}
}

// spend takes one retry for err: it charges the next backoff into acc and
// returns nil, or, with the budget spent, returns err.
func (b *retries) spend(err error) error {
	if b.used >= b.max {
		return err
	}
	b.used++
	b.acc.Add(Backoff(b.used))
	return nil
}

// resumable is the one read-side retry: it reads bytes [off, end) of a
// context file through src (opened through open when nil). Reads are
// idempotent, so after a failed open or Next it spends a retry and
// reopens [off, end) over the same carrier. A restore's whole stream and
// each page run a shard loads have a budget of their own; a metadata
// scan's windows share one.
type resumable struct {
	open     RangeSourceFactory
	src      stream.Source
	off, end int64
	retry    *retries
}

// Next returns at most max of the range's next bytes; io.EOF at its end.
func (s *resumable) Next(max int64) (blob.Blob, stream.Cost, error) {
	for s.off < s.end {
		if s.src == nil {
			src, err := s.open(s.off, s.end-s.off)
			if err != nil {
				if err = s.retry.spend(err); err != nil {
					return blob.Blob{}, stream.Cost{}, err
				}
				continue
			}
			s.src = src
		}
		piece, cost, err := s.src.Next(min(max, s.end-s.off))
		if err == nil || err == io.EOF {
			s.off += piece.Len()
			return piece, cost, err
		}
		s.Close() //nolint:errcheck // the source just failed; its successor reopens the range
		if err = s.retry.spend(err); err != nil {
			return blob.Blob{}, stream.Cost{}, err
		}
	}
	return blob.Blob{}, stream.Cost{}, io.EOF
}

// Close releases the current source, if any.
func (s *resumable) Close() error {
	if s.src == nil {
		return nil
	}
	err := s.src.Close()
	s.src = nil
	return err
}
