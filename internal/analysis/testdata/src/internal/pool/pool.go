// Package pool is a minimal stand-in for foam/internal/pool so fixtures
// can exercise lockdiscipline's pool-handoff rule: the analyzer matches
// the Run method by package-path suffix, so this stub resolves
// identically to the real pool.
package pool

// Pool mimics the deterministic worker pool's API surface.
type Pool struct {
	n int
}

// New returns a stub pool.
func New(workers int) *Pool { return &Pool{n: workers} }

// Workers returns the worker count.
func (p *Pool) Workers() int { return p.n }

// Run executes fn over [0, n) in one block.
func (p *Pool) Run(n int, fn func(worker, lo, hi int)) { fn(0, 0, n) }
