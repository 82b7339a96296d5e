package core

import "sync/atomic"

// workerBudget is the SchedService's global candidate-evaluation
// parallelism budget. Standalone agents each own a worker pool sized by
// WithParallelism; under the service that ownership lifts out of the
// agents — N tenants' rounds draw fan-out width from one shared pool of
// tokens, so total evaluation parallelism is bounded service-wide
// instead of multiplying per tenant.
//
// The budget counts *extra* workers: every in-flight round always keeps
// its own runner goroutine (a grant never returns less than 1), and
// only fan-out beyond that consumes tokens. That keeps the service
// deadlock-free — a round can always proceed sequentially — and
// self-balancing: a lone round claims the whole budget and evaluates at
// full width, while 64 concurrent rounds each run near-sequentially and
// the parallelism lives across rounds instead of within them.
type workerBudget struct {
	total int // tokens at rest; a round asks for total workers
	avail atomic.Int64
}

// newWorkerBudget holds total extra-worker tokens (floored at 1).
func newWorkerBudget(total int) *workerBudget {
	b := &workerBudget{total: max(total, 1)}
	b.avail.Store(int64(b.total))
	return b
}

// grant claims up to want total workers for one round and returns how
// many were secured (always ≥ 1: the round's own goroutine is free).
// Pair every grant with a release of the same value.
func (b *workerBudget) grant(want int) int {
	extra := int64(want - 1)
	for extra > 0 {
		cur := b.avail.Load()
		if cur <= 0 {
			break
		}
		take := min(extra, cur)
		if b.avail.CompareAndSwap(cur, cur-take) {
			return 1 + int(take)
		}
	}
	return 1
}

// release returns a grant's extra tokens.
func (b *workerBudget) release(granted int) {
	if granted > 1 {
		b.avail.Add(int64(granted - 1))
	}
}

// available reports the outstanding tokens (test hook).
func (b *workerBudget) available() int { return int(b.avail.Load()) }
