// Package lockbad breaks the ensemble locking contracts. None of these
// are data races — every access is properly serialized or
// single-goroutine — so the race detector stays silent; they are
// liveness and discipline bugs (stalls behind a held mutex, guard sets
// that exist only in a comment) that only lint can pin.
package lockbad

import (
	"errors"
	"sync"
	"time"

	"foam/internal/pool"
)

// Naked declares no guard set at all: the protection relation exists
// only in the author's head.
type Naked struct {
	mu sync.Mutex // want `mutex field Naked\.mu declares no guard set; add //foam:guards naming the fields it protects`
	n  int
}

// Embed embeds the mutex, which cannot carry a guard set.
type Embed struct {
	sync.Mutex // want `embedded sync\.Mutex in Embed has no guard set; use a named field with //foam:guards`
	v          int
}

// ErrBusy reports a member already advancing.
var ErrBusy = errors.New("lockbad: busy")

// Sched is an ensemble-scheduler shape with a declared guard set.
type Sched struct {
	//foam:guards busy queued
	mu     sync.Mutex
	busy   bool
	queued int
	done   chan struct{}
}

// peek reads a guarded field without the lock.
func (s *Sched) peek() int {
	return s.queued // want `access to s\.queued requires holding mu \(//foam:guards\)`
}

// advance is the ErrBusy fast-fail path done wrong: instead of failing
// fast it blocks on the previous advance with the member lock held,
// stalling every other member behind s.mu.
func (s *Sched) advance() error {
	s.mu.Lock()
	if s.busy {
		<-s.done // want `channel receive from s\.done while holding s\.mu; receives can block and a mutex must not be held across them`
		s.mu.Unlock()
		return ErrBusy
	}
	s.busy = true
	s.mu.Unlock()
	return nil
}

// notify sends on an unbuffered channel under the lock; a slow receiver
// wedges the whole scheduler.
func (s *Sched) notify() {
	s.mu.Lock()
	s.done <- struct{}{} // want `channel send on s\.done while holding s\.mu; sends can block and a mutex must not be held across them`
	s.mu.Unlock()
}

// wait parks on a select with no default while holding the lock.
func (s *Sched) wait(tick chan int) {
	s.mu.Lock()
	select { // want `select with no default while holding s\.mu; every case can block and a mutex must not be held across it`
	case <-tick:
	case <-s.done:
	}
	s.mu.Unlock()
}

// drain holds the lock across a WaitGroup wait.
func (s *Sched) drain(wg *sync.WaitGroup) {
	s.mu.Lock()
	wg.Wait() // want `sync\.WaitGroup\.Wait while holding s\.mu; a mutex must not be held across blocking waits`
	s.mu.Unlock()
}

// phaseFn is bound once at construction, as a pool phase must be.
var phaseFn = func(worker, lo, hi int) {}

// phases hands a phase to the worker pool with the lock held; the Run
// blocks until every worker finishes its block.
func (s *Sched) phases(p *pool.Pool) {
	s.mu.Lock()
	p.Run(4, phaseFn) // want `worker-pool handoff \(Pool\.Run\) while holding s\.mu; phases block until every worker finishes`
	s.mu.Unlock()
}

// throttle sleeps with the lock held.
func (s *Sched) throttle() {
	s.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding s\.mu; a mutex must not be held across sleeps`
	s.mu.Unlock()
}

// Owner guards its members' counters (type-level Type.field guarding).
type Owner struct {
	//foam:guards items member.hits
	mu    sync.Mutex
	items []*member
}

type member struct {
	hits int
}

// leak touches a member counter without the owner lock held.
func (o *Owner) leak(m *member) {
	m.hits++ // want `access to m\.hits requires holding mu \(//foam:guards\)`
}
