// Package sim executes LAACAD as a discrete-event asynchronous system — the
// setting the paper actually describes ("for every node n_i periodically,
// every τ ms"): each node acts on its own jittered τ-clock and moves with
// finite speed (the Robomote-class platforms the paper cites crawl, they do
// not teleport). Between a node's activations its neighbors observe its
// in-flight position, so nodes compute dominating regions from slightly
// stale, mutually inconsistent views — the realistic regime the synchronous
// round Engine idealizes away.
package sim

import (
	"container/heap"
)

// event is a scheduled callback. seq breaks ties FIFO for equal timestamps,
// keeping execution deterministic.
type event struct {
	at  float64
	seq int64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h eventHeap) Peek() (event, bool) {
	if len(h) == 0 {
		return event{}, false
	}
	return h[0], true
}

// Sim is a deterministic discrete-event scheduler. The zero value is ready
// to use.
type Sim struct {
	pq   eventHeap
	now  float64
	seq  int64
	halt bool
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Schedule runs fn after delay seconds of simulated time. Negative delays
// are clamped to zero (run at the current time, after already-queued events
// with the same timestamp).
func (s *Sim) Schedule(delay float64, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt runs fn at absolute time at (clamped to now).
func (s *Sim) ScheduleAt(at float64, fn func()) {
	if at < s.now {
		at = s.now
	}
	heap.Push(&s.pq, event{at: at, seq: s.seq, fn: fn})
	s.seq++
}

// Halt stops Run before the next event.
func (s *Sim) Halt() { s.halt = true }

// Run executes events in timestamp order until the queue empties, the
// clock passes until, or Halt is called. It returns the number of events
// processed by this call.
func (s *Sim) Run(until float64) int64 {
	s.halt = false
	var count int64
	for {
		if s.halt {
			break
		}
		head, ok := s.pq.Peek()
		if !ok || head.at > until {
			break
		}
		heap.Pop(&s.pq)
		s.now = head.at
		head.fn()
		count++
	}
	if s.now < until && !s.halt {
		s.now = until
	}
	return count
}
