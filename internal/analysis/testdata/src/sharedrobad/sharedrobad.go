// Package sharedrobad mutates adopted shared tables outside their
// construction cones. Each write below is a cross-member data race once
// an ensemble serves many members from one table set — but the race
// detector only reports it if two members happen to collide on the same
// word during an instrumented run, so it must be a lint error instead.
package sharedrobad

// Tables is the shared table set, adopted read-only.
//
//foam:sharedro
type Tables struct {
	KMT  []int
	Rows [][]float64
	Sub  *Sub
}

// Sub is a nested shared table reached through Tables.
//
//foam:sharedro
type Sub struct {
	W []float64
}

// NewTables and everything it statically calls form the construction
// cone: writes in here are the point and must not be reported.
func NewTables(n int) *Tables {
	tb := &Tables{KMT: make([]int, n), Rows: make([][]float64, n)}
	tb.KMT[0] = 1
	fill(tb, n)
	return tb
}

func fill(tb *Tables, n int) {
	tb.Sub = &Sub{W: make([]float64, n)}
}

type model struct {
	tb  *Tables
	buf []float64
}

// step is an ordinary consumer, far outside any construction cone.
func (m *model) step(v float64) {
	m.tb.KMT[0] = 2   // want `write to m\.tb\.KMT\[0\] mutates storage reachable from //foam:sharedro type sharedrobad\.Tables outside its construction cone`
	m.tb.KMT[1]++     // want `write to m\.tb\.KMT\[1\] mutates storage reachable from //foam:sharedro type sharedrobad\.Tables outside its construction cone`
	m.tb.Sub.W[1] = v // want `write to m\.tb\.Sub\.W\[1\] mutates storage reachable from //foam:sharedro type sharedrobad\.Sub outside its construction cone`
	m.tb.Sub = nil    // want `write to m\.tb\.Sub mutates storage reachable from //foam:sharedro type sharedrobad\.Tables outside its construction cone`

	// Aliasing through a single-assignment local does not launder the
	// write.
	k := m.tb.KMT
	k[2] = 3 // want `write to k\[2\] mutates storage reachable from //foam:sharedro type sharedrobad\.Tables outside its construction cone`

	// copy writes elements of its destination.
	copy(m.tb.Rows[0], m.buf) // want `copy into m\.tb\.Rows\[0\] mutates storage reachable from //foam:sharedro type sharedrobad\.Tables outside its construction cone`

	// A value copy rebinds locally (safe), but indexing through the
	// copied slice header still reaches the shared backing array.
	cp := *m.tb.Sub
	cp.W[0] = v // want `write to cp\.W\[0\] mutates storage reachable from //foam:sharedro type sharedrobad\.Sub outside its construction cone`
}

// A slice expression is element access: it shares the backing array.
func (m *model) sliced() {
	copy(m.tb.Sub.W[1:], m.buf) // want `copy into m\.tb\.Sub\.W\[1:\] mutates storage reachable from //foam:sharedro type sharedrobad\.Sub outside its construction cone`
	clear(m.tb.KMT[:2])         // want `clear into m\.tb\.KMT\[:2\] mutates storage reachable from //foam:sharedro type sharedrobad\.Tables outside its construction cone`
	m.tb.KMT[:2][0] = 5         // want `write to m\.tb\.KMT\[:2\]\[0\] mutates storage reachable from //foam:sharedro type sharedrobad\.Tables outside its construction cone`
}
