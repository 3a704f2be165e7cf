// Package ensemble multiplexes many concurrent coupled-model members over
// one process — the ROADMAP's "one long-running process owning hundreds of
// concurrent scenario runs". Three ideas make that cheap and exact:
//
//   - Shared immutable tables. All members of one resolution hold a single
//     core.Tables (grid geometry, spectral tables, bathymetry, orography,
//     overlap remap, river network), so per-member memory is prognostic
//     state plus step workspaces (about 2 MB at the reduced resolution).
//
//   - Deterministic members on a bounded worker pool. Each member runs the
//     serial executor (Workers = 1); the scheduler's own pool of stepping
//     goroutines bounds process concurrency. Because every executor backend
//     is bit-identical (internal/exec) and an executor may migrate between
//     goroutines across mutex-ordered Steps calls, a member's trajectory is
//     exactly the standalone core trajectory regardless of how busy the
//     ensemble is — TestMemberDeterminism pins this.
//
//   - Batching by table set. Workers prefer the next queued member sharing
//     the tables of the member they just ran, so consecutive steps on one
//     goroutine walk the same Legendre/overlap tables while they are warm
//     in cache.
//
// Snapshot, fork and resume ride the PR 5 checkpoint round-trip: a fork is
// Checkpoint on the parent plus Restore onto a fresh model built from the
// shared tables, valid at any scheduler phase offset (mid-interval flux
// accumulators and the coupler's ocean mirror travel in the checkpoint).
package ensemble

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"foam/internal/core"
	"foam/internal/coupler"
	"foam/internal/scenario"
	"foam/internal/sphere"
)

// Sentinel errors; the HTTP layer maps them onto status codes.
var (
	// ErrNotFound reports an unknown (or deleted) member id.
	ErrNotFound = errors.New("ensemble: no such member")
	// ErrBusy reports an operation on a member that is being advanced,
	// queued, snapshotted or forked by another caller.
	ErrBusy = errors.New("ensemble: member busy")
	// ErrTooMany reports the member capacity limit.
	ErrTooMany = errors.New("ensemble: member limit reached")
	// ErrClosed reports an operation on a closed scheduler.
	ErrClosed = errors.New("ensemble: scheduler closed")
	// ErrInvalid reports a request the scheduler rejected (bad config,
	// bad checkpoint, non-positive step count).
	ErrInvalid = errors.New("ensemble: invalid request")
)

// Config configures a Scheduler.
type Config struct {
	// Workers is the number of stepping goroutines — the process-wide
	// concurrency bound. 0 means GOMAXPROCS.
	Workers int
	// MaxMembers caps the live member count. 0 means 1024.
	MaxMembers int
}

// Scheduler owns the members, the shared table cache, and the stepping
// worker pool. All exported methods are safe for concurrent use.
type Scheduler struct {
	// mu guards all member bookkeeping. The member.model pointer and the
	// buffered done channel are deliberately outside the guard set: the
	// model is owned by whichever goroutine holds busy, and done is only
	// ever sent to under mu (buffered, never blocking) and received on
	// outside it.
	//
	//foam:guards closed members pending tables nextID totalSteps totalAdvance
	//foam:guards member.busy member.queued member.want member.runErr
	//foam:guards member.steps member.advances member.wallNs member.lastNs
	mu   sync.Mutex
	cond *sync.Cond // signals queued work to the workers

	workers    int
	maxMembers int
	closed     bool
	wg         sync.WaitGroup

	members map[string]*member
	pending []*member // FIFO advance queue, capacity MaxMembers
	tables  map[string]*core.Tables
	nextID  int

	totalSteps   int64
	totalAdvance int64
}

// member is one ensemble run. The model is touched only by the goroutine
// that holds busy; every other field is guarded by Scheduler.mu.
type member struct {
	id       string
	key      string // table key — worker batching affinity
	parent   string
	scenario string // registry name the member was created from, if any
	cfg      core.Config
	model    *core.Model

	busy   bool // an operation owns the model
	queued bool // sitting in Scheduler.pending
	want   int  // atmosphere steps the queued advance will run
	runErr error

	done chan struct{} // buffered(1), reused across advances

	steps    int // completed atmosphere steps (mirror of model.StepCount)
	advances int
	wallNs   int64 // cumulative stepping wall time
	lastNs   int64 // wall time of the last advance
}

// New starts a scheduler and its stepping workers.
func New(cfg Config) *Scheduler {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	max := cfg.MaxMembers
	if max <= 0 {
		max = 1024
	}
	s := &Scheduler{
		workers:    w,
		maxMembers: max,
		members:    make(map[string]*member),
		pending:    make([]*member, 0, max),
		tables:     make(map[string]*core.Tables),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < w; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Workers returns the stepping-goroutine count.
func (s *Scheduler) Workers() int { return s.workers }

// Info is a member's public state. The scheduler maintains the step mirror
// itself so Info never reads a model another goroutine may be stepping.
type Info struct {
	ID          string  `json:"id"`
	Parent      string  `json:"parent,omitempty"`
	Scenario    string  `json:"scenario,omitempty"`
	TableKey    string  `json:"table_key"`
	Step        int     `json:"step"`
	SimDays     float64 `json:"sim_days"`
	CoupleEvery int     `json:"couple_every"`
	OceanLag    int     `json:"ocean_lag"`

	Advances        int     `json:"advances"`
	WallSeconds     float64 `json:"wall_seconds"`
	LastWallSeconds float64 `json:"last_wall_seconds"`
	StepsPerSecond  float64 `json:"steps_per_second"`
}

func (m *member) infoLocked() Info {
	in := Info{
		ID:              m.id,
		Parent:          m.parent,
		Scenario:        m.scenario,
		TableKey:        m.key,
		Step:            m.steps,
		SimDays:         float64(m.steps) * m.cfg.Atm.Dt / sphere.SecondsPerDay,
		CoupleEvery:     m.cfg.OceanEvery,
		OceanLag:        m.cfg.OceanLag,
		Advances:        m.advances,
		WallSeconds:     float64(m.wallNs) / 1e9,
		LastWallSeconds: float64(m.lastNs) / 1e9,
	}
	if m.wallNs > 0 {
		in.StepsPerSecond = float64(m.steps) / (float64(m.wallNs) / 1e9)
	}
	return in
}

// Create builds a new member from a configuration, optionally restoring a
// checkpoint (resume). Members always run the serial executor — the
// scheduler's worker pool is the concurrency bound, and one pool of
// goroutines stepping many serial members beats every member spawning its
// own — so cfg.Workers is forced to 1.
func (s *Scheduler) Create(cfg core.Config, chk *core.Checkpoint) (Info, error) {
	return s.create(cfg, chk, "", "")
}

// CreateScenario builds a member from a named registry scenario
// (scenario.Lookup + scenario.Build), labelling it so member info and the
// stats endpoint report the ensemble's composition by scenario. An unknown
// name maps to ErrNotFound; a spec that fails to compile maps to ErrInvalid.
func (s *Scheduler) CreateScenario(name string, chk *core.Checkpoint) (Info, error) {
	sp, ok := scenario.Lookup(name)
	if !ok {
		return Info{}, fmt.Errorf("%w: unknown scenario %q (have %v)", ErrNotFound, name, scenario.Names())
	}
	cfg, err := scenario.Build(sp)
	if err != nil {
		return Info{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	return s.create(cfg, chk, "", name)
}

func (s *Scheduler) create(cfg core.Config, chk *core.Checkpoint, parent, scen string) (Info, error) {
	cfg.Workers = 1
	// Normalize is the single validation gate; reject bad configs before
	// table construction (BuildTables assumes a validated geometry).
	cfg, err := cfg.Normalize()
	if err != nil {
		return Info{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	key := cfg.TableKey()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Info{}, ErrClosed
	}
	if len(s.members) >= s.maxMembers {
		s.mu.Unlock()
		return Info{}, ErrTooMany
	}
	tb := s.tables[key]
	s.nextID++
	id := fmt.Sprintf("m%04d", s.nextID)
	s.mu.Unlock()

	// Model construction runs outside the lock; only a missing table set
	// is built under it (once per resolution, below).
	if tb == nil {
		tb = core.BuildTables(cfg)
		s.mu.Lock()
		if cached, ok := s.tables[key]; ok {
			tb = cached // another creator won the race; drop ours
		} else {
			s.tables[key] = tb
		}
		s.mu.Unlock()
	}
	model, err := core.NewWithTables(cfg, tb)
	if err != nil {
		return Info{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if chk != nil {
		if err := model.Restore(chk); err != nil {
			model.Close()
			return Info{}, fmt.Errorf("%w: %v", ErrInvalid, err) // core.ErrCheckpointMismatch says what does not fit
		}
	}

	m := &member{
		id:       id,
		key:      key,
		parent:   parent,
		scenario: scen,
		cfg:      model.Config(),
		model:    model,
		steps:    model.StepCount(),
		done:     make(chan struct{}, 1),
	}
	s.mu.Lock()
	if s.closed || len(s.members) >= s.maxMembers {
		closed := s.closed
		s.mu.Unlock()
		model.Close()
		if closed {
			return Info{}, ErrClosed
		}
		return Info{}, ErrTooMany
	}
	s.members[id] = m
	info := m.infoLocked()
	s.mu.Unlock()
	return info, nil
}

// AdvanceSteps queues the member for n atmosphere steps and blocks until a
// worker has run them. A member holds at most one operation at a time:
// concurrent advances on the same member fail fast with ErrBusy.
func (s *Scheduler) AdvanceSteps(id string, n int) (Info, error) {
	if n < 1 {
		return Info{}, fmt.Errorf("%w: advance wants a positive step count, got %d", ErrInvalid, n)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Info{}, ErrClosed
	}
	m, ok := s.members[id]
	if !ok {
		s.mu.Unlock()
		return Info{}, ErrNotFound
	}
	if m.busy || m.queued {
		s.mu.Unlock()
		return Info{}, ErrBusy
	}
	m.want = n
	m.queued = true
	s.pending = append(s.pending, m)
	s.cond.Signal()
	s.mu.Unlock()

	<-m.done

	s.mu.Lock()
	err := m.runErr
	m.runErr = nil
	info := m.infoLocked()
	s.mu.Unlock()
	return info, err
}

// AdvanceIntervals advances the member by k coupling intervals
// (k * OceanEvery atmosphere steps).
func (s *Scheduler) AdvanceIntervals(id string, k int) (Info, error) {
	if k < 1 {
		return Info{}, fmt.Errorf("%w: advance wants a positive interval count, got %d", ErrInvalid, k)
	}
	s.mu.Lock()
	m, ok := s.members[id]
	if !ok {
		s.mu.Unlock()
		return Info{}, ErrNotFound
	}
	every := m.cfg.OceanEvery
	s.mu.Unlock()
	return s.AdvanceSteps(id, k*every)
}

// worker is one stepping goroutine: it takes queued members — preferring
// one sharing the tables of the member it just ran, so consecutive steps
// walk warm tables — runs the requested steps, and wakes the caller.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	lastKey := ""
	s.mu.Lock()
	for {
		for !s.closed && len(s.pending) == 0 {
			s.cond.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		m := s.takeLocked(lastKey)
		m.queued = false
		m.busy = true
		want := m.want
		s.mu.Unlock()

		t0 := time.Now()
		m.runSteps(want)
		dt := time.Since(t0).Nanoseconds()

		s.mu.Lock()
		m.busy = false
		m.steps += want
		m.advances++
		m.wallNs += dt
		m.lastNs = dt
		s.totalSteps += int64(want)
		s.totalAdvance++
		lastKey = m.key
		//foam:allow lockdiscipline done is buffered(1) and drained before requeue, so this send never blocks
		m.done <- struct{}{}
	}
}

// runSteps is the ensemble stepping hot path: n coupled steps on the
// member's serial executor. It must stay allocation-free — the ensemble
// case of TestCoupledStepAllocs gates it.
//
//foam:hotpath
func (m *member) runSteps(n int) {
	for i := 0; i < n; i++ {
		m.model.Step()
	}
}

// takeLocked removes and returns the next queued member, preferring the
// worker's previous table key. Shifting within the preallocated queue
// keeps FIFO order among the rest and allocates nothing.
func (s *Scheduler) takeLocked(lastKey string) *member {
	idx := 0
	if lastKey != "" {
		for i, m := range s.pending {
			if m.key == lastKey {
				idx = i
				break
			}
		}
	}
	m := s.pending[idx]
	copy(s.pending[idx:], s.pending[idx+1:])
	s.pending[len(s.pending)-1] = nil
	s.pending = s.pending[:len(s.pending)-1]
	return m
}

// Info returns a member's public state.
func (s *Scheduler) Info(id string) (Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[id]
	if !ok {
		return Info{}, ErrNotFound
	}
	return m.infoLocked(), nil
}

// List returns all members ordered by id.
func (s *Scheduler) List() []Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Info, 0, len(s.members))
	for _, m := range s.members {
		out = append(out, m.infoLocked())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Diag bundles the member diagnostics the API serves: the combined model
// diagnostics, the live SST mean, the coupler's water budget, and the
// member's step timings (inside Info).
type Diag struct {
	Info        Info                `json:"info"`
	Model       core.Diagnostics    `json:"model"`
	WaterBudget coupler.WaterBudget `json:"water_budget"`
}

// Diagnostics returns a member's diagnostics. The member must be idle: its
// model is read under the scheduler lock, which excludes stepping.
func (s *Scheduler) Diagnostics(id string) (Diag, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[id]
	if !ok {
		return Diag{}, ErrNotFound
	}
	if m.busy {
		return Diag{}, ErrBusy
	}
	return Diag{
		Info:        m.infoLocked(),
		Model:       m.model.Diagnostics(),
		WaterBudget: m.model.Cpl.Budget(),
	}, nil
}

// SSTField is a member's sea surface temperature map on the ocean grid.
type SSTField struct {
	NLat int       `json:"nlat"`
	NLon int       `json:"nlon"`
	SST  []float64 `json:"sst"` // row-major, south to north, deg C
}

// SST returns a copy of the member's current SST field.
func (s *Scheduler) SST(id string) (SSTField, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.members[id]
	if !ok {
		return SSTField{}, ErrNotFound
	}
	if m.busy {
		return SSTField{}, ErrBusy
	}
	g := m.model.Ocn.Grid()
	return SSTField{
		NLat: g.NLat(),
		NLon: g.NLon(),
		SST:  append([]float64(nil), m.model.SST()...),
	}, nil
}

// Snapshot checkpoints an idle member, returning the checkpoint and the
// member's configuration (a checkpoint only fits the config it came from).
func (s *Scheduler) Snapshot(id string) (*core.Checkpoint, core.Config, error) {
	m, err := s.acquire(id)
	if err != nil {
		return nil, core.Config{}, err
	}
	chk := m.model.Checkpoint()
	cfg := m.cfg
	s.release(m)
	return chk, cfg, nil
}

// Fork clones an idle member through the checkpoint round-trip: snapshot
// the parent, build a fresh model from the shared tables, restore. Valid at
// any phase offset of the coupling cadence — mid-interval accumulators and
// the coupler's ocean mirror travel in the checkpoint (TestForkConsistency).
func (s *Scheduler) Fork(id string) (Info, error) {
	m, err := s.acquire(id)
	if err != nil {
		return Info{}, err
	}
	chk := m.model.Checkpoint()
	cfg := m.cfg
	scen := m.scenario
	s.release(m)
	return s.create(cfg, chk, id, scen)
}

// acquire marks an idle member busy so the caller may touch its model.
func (s *Scheduler) acquire(id string) (*member, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	m, ok := s.members[id]
	if !ok {
		return nil, ErrNotFound
	}
	if m.busy || m.queued {
		return nil, ErrBusy
	}
	m.busy = true
	return m, nil
}

func (s *Scheduler) release(m *member) {
	s.mu.Lock()
	m.busy = false
	// Wake a Close waiting for busy members to drain.
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Delete removes an idle member and releases its model.
func (s *Scheduler) Delete(id string) error {
	s.mu.Lock()
	m, ok := s.members[id]
	if !ok {
		s.mu.Unlock()
		return ErrNotFound
	}
	if m.busy || m.queued {
		s.mu.Unlock()
		return ErrBusy
	}
	delete(s.members, id)
	s.mu.Unlock()
	m.model.Close()
	return nil
}

// Stats is the scheduler-wide view the stats endpoint serves.
type Stats struct {
	Members       int   `json:"members"`
	Workers       int   `json:"workers"`
	TableSets     int   `json:"table_sets"`
	QueuedMembers int   `json:"queued_members"`
	TotalSteps    int64 `json:"total_steps"`
	TotalAdvances int64 `json:"total_advances"`
	// Scenarios counts live members per registry scenario name; members
	// created from a raw config are not counted.
	Scenarios map[string]int `json:"scenarios,omitempty"`
}

// Stats returns scheduler-wide counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var byScenario map[string]int
	for _, m := range s.members {
		if m.scenario == "" {
			continue
		}
		if byScenario == nil {
			byScenario = make(map[string]int)
		}
		byScenario[m.scenario]++
	}
	return Stats{
		Members:       len(s.members),
		Workers:       s.workers,
		TableSets:     len(s.tables),
		QueuedMembers: len(s.pending),
		TotalSteps:    s.totalSteps,
		TotalAdvances: s.totalAdvance,
		Scenarios:     byScenario,
	}
}

// Close stops the workers, fails queued advances with ErrClosed, and
// releases every member model. Callers blocked in AdvanceSteps return with
// ErrClosed; subsequent operations fail with ErrClosed or ErrNotFound.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	for _, m := range s.pending {
		m.queued = false
		m.runErr = ErrClosed
		//foam:allow lockdiscipline done is buffered(1) and drained before requeue, so this send never blocks
		m.done <- struct{}{}
	}
	s.pending = s.pending[:0]
	// Wait out snapshot/fork holders before closing their models.
	for {
		busy := false
		for _, m := range s.members {
			if m.busy {
				busy = true
				break
			}
		}
		if !busy {
			break
		}
		s.cond.Wait()
	}
	members := make([]*member, 0, len(s.members))
	for _, m := range s.members {
		members = append(members, m)
	}
	s.members = make(map[string]*member)
	s.mu.Unlock()
	for _, m := range members {
		m.model.Close()
	}
}
