// Package pool provides the deterministic shared-memory worker pool behind
// FOAM-Go's real multi-core execution. It is deliberately minimal: a fixed
// set of persistent workers, static block scheduling, and nothing else.
//
// Determinism contract. Every construct in this package is chosen so that
// the *numerical result* of a parallel run is bit-identical to the serial
// one for any worker count:
//
//   - Scheduling is static: Run(n, fn) splits [0, n) into at most Workers()
//     contiguous blocks with the same arithmetic every time
//     (lo = n*w/p, hi = n*(w+1)/p). No work stealing, no channels of items,
//     no map iteration — nothing whose order depends on timing.
//   - There is no reduction machinery here at all. Callers either write
//     disjoint output elements (each element touched by exactly one worker,
//     with the same per-element operation order as the serial loop) or
//     re-sequence their reductions into a serial pass over per-worker
//     partial buffers in a fixed order. The pool cannot reorder floating
//     point arithmetic because it never performs any.
//   - A Run call returns only when every block has finished: each call is
//     its own barrier, so phases separated by Run calls are ordered exactly
//     as in the serial code.
//
// A nil *Pool, a 1-worker pool, and a nested Run (a Run issued from inside
// a worker) all execute fn(0, 0, n) inline on the calling goroutine — the
// exact serial path, not a 1-block parallel path — so Workers=1 is
// serial execution by construction, and nesting cannot deadlock.
//
// Allocation contract. Run itself allocates nothing: dispatch hands each
// persistent worker an empty-struct wakeup on its private channel and the
// worker derives its block from the staged (fn, n, nw) fields, so the only
// allocation a pooled phase can incur is the caller's own fn value. Pass a
// func stored once at construction time (not a fresh closure literal) and a
// pooled phase is allocation-free; see DESIGN.md section 9.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a deterministic worker pool. The zero value is not usable; use
// New. A nil *Pool is valid everywhere and means "serial".
type Pool struct {
	n    int
	jobs []chan struct{}
	wg   sync.WaitGroup
	busy atomic.Bool

	// Staged call state, valid between the wakeup sends of one Run and the
	// matching wg.Wait: the channel send/receive pair orders the writes
	// below before any worker reads them.
	fn   func(worker, lo, hi int)
	curN int
	curW int
}

// New returns a pool with the given number of persistent workers.
// workers <= 0 means runtime.GOMAXPROCS(0). A 1-worker pool starts no
// goroutines and runs everything inline.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{n: workers}
	if workers == 1 {
		return p
	}
	p.jobs = make([]chan struct{}, workers)
	for w := 0; w < workers; w++ {
		ch := make(chan struct{}, 1)
		p.jobs[w] = ch
		w := w
		go func() {
			for range ch {
				lo, hi := Block(p.curN, w, p.curW)
				if lo < hi {
					p.fn(w, lo, hi)
				}
				p.wg.Done()
			}
		}()
	}
	return p
}

// Workers returns the worker count; 1 for a nil pool. Callers size
// per-worker scratch buffers with it.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.n
}

// Block is the pool's decomposition contract as an exported, testable
// artifact: the half-open range [lo, hi) of [0, n) owned by worker w of p
// workers. Run uses exactly this arithmetic, so the properties that make
// the decomposition a partition — blocks are contiguous, ascending in w,
// cover [0, n), and pairwise disjoint (Block(n, w, p) ends where
// Block(n, w+1, p) begins) — are what keeps pooled phases disjoint: a
// phase that writes only rows derived from its own [lo, hi) by the same
// shift cannot collide with any other worker. TestBlockIsPartition and
// TestPartitionCoversExactlyOnce check the partition; the pooled-versus-
// serial tests, run under -race (TestPoolMatchesSerial in atmos,
// TestSharedPoolMatchesSerial in ocean, TestWorkersMatchSerial in core),
// check that the phases keep to it.
func Block(n, w, p int) (lo, hi int) {
	return n * w / p, n * (w + 1) / p
}

// Run partitions [0, n) into contiguous blocks, one per worker, and calls
// fn(worker, lo, hi) for each non-empty block concurrently. It returns when
// all blocks are done (each Run is a barrier). The partition is the static
// lo = n*w/p, hi = n*(w+1)/p split, so block boundaries depend only on
// (n, worker count), never on timing.
//
// Serial cases — nil pool, 1 worker, n <= 1, or a Run nested inside a
// worker of this pool — execute fn(0, 0, n) inline on the caller.
func (p *Pool) Run(n int, fn func(worker, lo, hi int)) {
	if p == nil || p.n == 1 || n <= 1 || !p.busy.CompareAndSwap(false, true) {
		fn(0, 0, n)
		return
	}
	defer p.busy.Store(false)
	nw := p.n
	if nw > n {
		nw = n
	}
	p.fn, p.curN, p.curW = fn, n, nw
	p.wg.Add(nw)
	for w := 0; w < nw; w++ {
		p.jobs[w] <- struct{}{}
	}
	p.wg.Wait()
	p.fn = nil
}

// Close stops the persistent workers. The pool must be idle; Run must not
// be called afterwards. Closing a nil or 1-worker pool is a no-op.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	for _, ch := range p.jobs {
		close(ch)
	}
	p.jobs = nil
}
