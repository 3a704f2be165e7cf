package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"

	"foam/internal/core"
	"foam/internal/ensemble"
	"foam/internal/scenario"
	"foam/internal/sphere"
)

// ensembleRun is ensemble_r5 in flight: the foam-serve path at the rung
// where the fixed costs (interpreter, locking, gob/base64/JSON) are largest.
// One closed-loop client drives an in-process server over loopback HTTP; the
// scheduler has one stepping worker.
type ensembleRun struct {
	in     ensembleInputs
	sched  *ensemble.Scheduler
	srv    *httptest.Server
	client *http.Client
	tr     *tracer

	cfgs       []core.Config    // member configurations (base + seed-drawn deltas)
	chk        *core.Checkpoint // the base member's state, decoded (direct pass)
	chkBytes   []byte
	resumeBody [][]byte // CreateRequest JSON per member, marshalled once
	baseStep   int
	every      int // atmosphere steps per coupling interval

	// State of the replay in progress.
	ids      []string
	forkID   string
	hash     uint64
	sstErr   error
	snapKB   float64 // checkpoint bytes inside the last snapshot reply
	bodyKB   float64 // size of the last snapshot reply
	lastBody int
}

// serve starts the scheduler and the HTTP server and creates the base member
// from the registry scenario: server boot to first member ready.
func (e *ensembleRun) serve() (string, error) {
	e.sched = ensemble.New(ensemble.Config{Workers: 1})
	e.srv = httptest.NewServer(ensemble.NewHandler(e.sched))
	e.client = e.srv.Client()
	var info ensemble.Info
	if err := e.do("POST", "/v1/scenarios/"+e.in.Scenario+"/members", nil, &info); err != nil {
		return "", err
	}
	return info.ID, nil
}

func (e *ensembleRun) close() {
	if e.srv != nil {
		e.client.CloseIdleConnections()
		e.srv.Close()
		e.sched.Close()
		e.srv = nil
	}
}

// do sends one request and waits for the decoded reply: the closed-loop
// client. Any non-2xx status is an error.
func (e *ensembleRun) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.srv.URL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	e.lastBody = len(raw)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// prepare advances the base member, snapshots it, and builds every member's
// resume request (perturbed config + base checkpoint).
func (e *ensembleRun) prepare(baseID string) error {
	var info ensemble.Info
	adv, _ := json.Marshal(ensemble.AdvanceRequest{Intervals: e.in.BaseIntervals})
	if err := e.do("POST", "/v1/members/"+baseID+"/advance", adv, &info); err != nil {
		return err
	}
	var snap ensemble.SnapshotResponse
	if err := e.do("POST", "/v1/members/"+baseID+"/snapshot", nil, &snap); err != nil {
		return err
	}
	if err := e.do("DELETE", "/v1/members/"+baseID, nil, nil); err != nil {
		return err
	}
	e.baseStep, e.every = snap.Info.Step, snap.Info.CoupleEvery
	e.chkBytes = snap.Checkpoint
	chk, err := core.LoadCheckpoint(bytes.NewReader(snap.Checkpoint))
	if err != nil {
		return err
	}
	e.chk = chk
	base, _ := scenario.Lookup(e.in.Scenario)
	for _, m := range e.in.Members {
		sp := base
		sp.Deltas = []scenario.Delta{{Param: "atm.diff4", Scale: m.Diff4}, {Param: "ocn.kappa0", Scale: m.Kappa0}}
		cfg, err := scenario.Build(sp)
		if err != nil {
			return err
		}
		body, err := json.Marshal(ensemble.CreateRequest{Config: &cfg, Checkpoint: snap.Checkpoint})
		if err != nil {
			return err
		}
		e.cfgs = append(e.cfgs, cfg)
		e.resumeBody = append(e.resumeBody, body)
	}
	e.ids = make([]string, len(e.in.Members))
	return nil
}

// noteSST checks and hashes one SST reply (outside the timed op).
func (e *ensembleRun) noteSST(f *ensemble.SSTField) {
	// Land cells carry the resting value; every cell must be in range.
	if err := checkSST(f.SST, nil); err != nil && e.sstErr == nil {
		e.sstErr = err
	}
	e.hash = hashFloats(e.hash, f.SST)
}

func (e *ensembleRun) wantStep(got, rounds int, what string) error {
	if want := e.baseStep + rounds*e.every; got != want {
		return fmt.Errorf("%s at step %d, want %d", what, got, want)
	}
	return nil
}

// backend is how a script reaches the ensemble: over HTTP (the end-to-end
// block) or by calling the Scheduler directly (the traced reference pass).
type backend interface {
	resume(i int) (ensemble.Info, error)
	advance(id string) (ensemble.Info, error)
	diag(id string) (ensemble.Diag, error)
	sst(id string) (ensemble.SSTField, error)
	snapshot(id string) (step int, err error)
	fork(id string) (ensemble.Info, error)
	remove(id string) error
}

type httpBackend struct{ e *ensembleRun }

var advanceOne = []byte(`{"intervals":1}`)

func (h httpBackend) resume(i int) (info ensemble.Info, err error) {
	err = h.e.do("POST", "/v1/members", h.e.resumeBody[i], &info)
	return info, err
}
func (h httpBackend) advance(id string) (info ensemble.Info, err error) {
	err = h.e.do("POST", "/v1/members/"+id+"/advance", advanceOne, &info)
	return info, err
}
func (h httpBackend) diag(id string) (d ensemble.Diag, err error) {
	err = h.e.do("GET", "/v1/members/"+id+"/diag", nil, &d)
	return d, err
}
func (h httpBackend) sst(id string) (f ensemble.SSTField, err error) {
	err = h.e.do("GET", "/v1/members/"+id+"/sst", nil, &f)
	return f, err
}
func (h httpBackend) snapshot(id string) (int, error) {
	var snap ensemble.SnapshotResponse
	if err := h.e.do("POST", "/v1/members/"+id+"/snapshot", nil, &snap); err != nil {
		return 0, err
	}
	h.e.snapKB = float64(len(snap.Checkpoint)) / 1000
	h.e.bodyKB = float64(h.e.lastBody) / 1000
	return snap.Info.Step, nil
}
func (h httpBackend) fork(id string) (info ensemble.Info, err error) {
	err = h.e.do("POST", "/v1/members/"+id+"/fork", nil, &info)
	return info, err
}
func (h httpBackend) remove(id string) error {
	return h.e.do("DELETE", "/v1/members/"+id, nil, nil)
}

// directBackend calls the Scheduler's methods with a span around each, and
// splits an advance into the worker's run time (Info.LastWallSeconds) and
// the rest (queueing, wake-ups, bookkeeping).
type directBackend struct {
	e     *ensembleRun
	runNs []int64 // LastWallSeconds of each advance of the replay, in ns
}

func (d *directBackend) span(name string, fn func() error) error {
	id := d.e.tr.begin(name)
	err := fn()
	d.e.tr.end(id)
	return err
}
func (d *directBackend) resume(i int) (info ensemble.Info, err error) {
	err = d.span("ensemble.resume_direct", func() error { info, err = d.e.sched.Create(d.e.cfgs[i], d.e.chk); return err })
	return info, err
}
func (d *directBackend) advance(id string) (info ensemble.Info, err error) {
	err = d.span("ensemble.advance_direct", func() error { info, err = d.e.sched.AdvanceIntervals(id, 1); return err })
	d.runNs = append(d.runNs, int64(info.LastWallSeconds*nsPerS))
	return info, err
}
func (d *directBackend) diag(id string) (dg ensemble.Diag, err error) {
	err = d.span("ensemble.diag", func() error { dg, err = d.e.sched.Diagnostics(id); return err })
	return dg, err
}
func (d *directBackend) sst(id string) (f ensemble.SSTField, err error) {
	err = d.span("ensemble.sst_direct", func() error { f, err = d.e.sched.SST(id); return err })
	return f, err
}
func (d *directBackend) snapshot(id string) (step int, err error) {
	err = d.span("ensemble.snapshot_direct", func() error {
		chk, _, err := d.e.sched.Snapshot(id)
		if err == nil {
			step = chk.Step
		}
		return err
	})
	return step, err
}
func (d *directBackend) fork(id string) (info ensemble.Info, err error) {
	err = d.span("ensemble.fork_direct", func() error { info, err = d.e.sched.Fork(id); return err })
	return info, err
}
func (d *directBackend) remove(id string) error {
	return d.span("ensemble.delete", func() error { return d.e.sched.Delete(id) })
}

// script is the traffic mix of one block: 8 resumes; 4 rounds in which every
// member advances one interval and is read back (diag always, the SST map on
// even members); 8 snapshot+fork+delete-fork cycles; 8 deletes.
func (e *ensembleRun) script(b backend) []op {
	_, direct := b.(*directBackend)
	var s []op
	add := func(kind string, run func() error) {
		s = append(s, op{opMeta{kind: kind, group: -1, always: direct}, run})
	}
	for i := range e.in.Members {
		add("restore", func() error {
			info, err := b.resume(i)
			if err != nil {
				return err
			}
			e.ids[i] = info.ID
			return e.wantStep(info.Step, 0, "resumed member")
		})
	}
	for k, order := range e.in.Rounds {
		for _, i := range order {
			add("advance", func() error {
				info, err := b.advance(e.ids[i])
				if err != nil {
					return err
				}
				return e.wantStep(info.Step, k+1, "advanced member")
			})
			add("diag", func() error {
				d, err := b.diag(e.ids[i])
				e.hash = hashFloats(e.hash, []float64{d.Model.MeanSSTModel, d.Model.Atm.MeanT})
				if err == nil {
					err = firstErr(
						checkBelow("max wind", d.Model.Atm.MaxWind, maxWindMS),
						checkBelow("max current", d.Model.Ocn.MaxSpeed, maxSpeedMS))
				}
				return err
			})
			if i%2 == 0 {
				add("read", func() error {
					f, err := b.sst(e.ids[i])
					if err == nil {
						e.noteSST(&f)
					}
					return err
				})
			}
		}
	}
	rounds := len(e.in.Rounds)
	for _, i := range e.in.Lifecycle {
		add("save", func() error {
			step, err := b.snapshot(e.ids[i])
			if err != nil {
				return err
			}
			return e.wantStep(step, rounds, "snapshot")
		})
		add("fork", func() error {
			info, err := b.fork(e.ids[i])
			if err != nil {
				return err
			}
			e.forkID = info.ID
			return e.wantStep(info.Step, rounds, "fork")
		})
		add("delete", func() error { return b.remove(e.forkID) })
	}
	for i := range e.in.Members {
		add("delete", func() error { return b.remove(e.ids[i]) })
	}
	return s
}

// simDays is the member-days one block simulates.
func (e *ensembleRun) simDays() float64 {
	dt := e.cfgs[0].Atm.Dt
	return float64(len(e.in.Members)*len(e.in.Rounds)*e.every) * dt / sphere.SecondsPerDay
}

// runEnsemble measures ensemble_r5.
func runEnsemble(in ensembleInputs, b budget, traced bool) *result {
	res := newResult("ensemble_r5", traced)
	e := &ensembleRun{in: in}
	defer func() { e.close() }()

	var baseID string
	setup := coldSetup(func() (err error) { baseID, err = e.serve(); return err }, &res.tally, nil)
	if res.failed > 0 {
		return res
	}
	res.check(safely(func() error { return e.prepare(baseID) }))
	if res.failed > 0 {
		return res
	}

	var end sameEnd
	hk := hooks{
		before: func(int) { e.hash, e.sstErr = 0, nil },
		after: func(r int) {
			res.check(e.sstErr)
			end.check(&res.tally, r, e.hash)
			var err error
			if st := e.sched.Stats(); st.TableSets != 1 || st.Members != 0 {
				err = fmt.Errorf("after block: %d table sets (want 1), %d members (want 0)", st.TableSets, st.Members)
			}
			res.check(err)
		},
	}
	if traced {
		e.traced(res, b, hk)
		return res
	}

	hk = hk.andAfter(func(int) {
		spare := &ensembleRun{in: in}
		setup = coldSetup(func() error { _, err := spare.serve(); return err }, &res.tally, setup)
		spare.close()
	})
	s := replay(e.script(httpBackend{e}), b, nil, &res.tally, hk)
	res.setupMetric(setup)
	res.set("sim_days_per_s", e.simDays()/(float64(s.blockFloor())/nsPerS))
	res.set("checkpoint_kb", e.snapKB)
	res.latencyMetrics(s)
	life := s.kindFloorSum("restore") + s.kindFloorSum("save") + s.kindFloorSum("fork") + s.kindFloorSum("delete")
	res.set("lifecycle_ms", float64(life)/nsPerMs/float64(len(in.Members)))
	// Heap with the eight members live, as a server holds them.
	res.check(safely(func() error {
		for i := range in.Members {
			if _, err := (httpBackend{e}).resume(i); err != nil {
				return err
			}
		}
		return nil
	}))
	res.set("heap_inuse_mb", heapInuseMB(e))
	res.quality(s, "advance", "read", "save", "restore", "diag", "fork", "delete")
	return res
}

// traced is the separate traced run. One replay loop times the HTTP block
// (tracer on in odd replays only) followed by the same block against the
// Scheduler's methods directly (a span around each, always on), so the
// handler's share of a request is the difference of two floors.
func (e *ensembleRun) traced(res *result, b budget, hk hooks) {
	tr := newTracer()
	root := tr.begin("run")
	e.tr = tr
	direct := &directBackend{e: e}
	block := e.script(httpBackend{e})
	script := append(block, e.script(direct)...)

	// Allocation and GC counts of a whole replay (both blocks), read outside
	// the timed ops; the worker's run time of every direct advance.
	var m0, m1 runtime.MemStats
	allocs, cycles := math.Inf(1), math.Inf(1)
	var runNs [][]int64
	s := replay(script, b.traced(), tr, &res.tally, hooks{
		before: func(r int) {
			hk.before(r)
			direct.runNs = nil
			runtime.ReadMemStats(&m0)
		},
		after: func(r int) {
			runtime.ReadMemStats(&m1)
			allocs = math.Min(allocs, float64(m1.Mallocs-m0.Mallocs))
			cycles = math.Min(cycles, float64(m1.NumGC-m0.NumGC))
			runNs = append(runNs, direct.runNs)
			hk.after(r)
		},
	})
	fl, _ := layerFloors(tr.spans, len(s.ops))
	e.tr = nil

	ref := s.pick(0, len(block), allReplays)
	res.quality(ref, "advance", "read", "save", "restore", "diag", "fork", "delete")
	res.set("bench.trace_overhead", float64(s.pick(0, len(block), oddReplays).blockFloor())/
		float64(s.pick(0, len(block), evenReplays).blockFloor())-1)

	ms := func(name string) float64 { return medianPositive(fl[name]) / nsPerMs }
	// The worker's own run time of each advance, floored over replays.
	run := append([]int64(nil), runNs[0]...)
	for _, row := range runNs[1:] {
		for i := range run {
			if i < len(row) && row[i] < run[i] {
				run[i] = row[i]
			}
		}
	}
	res.set("ensemble.advance_direct_ms", ms("ensemble.advance_direct"))
	res.set("ensemble.advance_run_ms", medianInt(run)/nsPerMs)
	res.set("ensemble.advance_wait_ms", ms("ensemble.advance_direct")-medianInt(run)/nsPerMs)
	res.set("serve.advance_overhead_ms", ref.kindFloor("advance")/nsPerMs-ms("ensemble.advance_direct"))
	res.set("ensemble.snapshot_direct_ms", ms("ensemble.snapshot_direct"))
	res.set("ensemble.fork_direct_ms", ms("ensemble.fork_direct"))
	res.set("ensemble.resume_direct_ms", ms("ensemble.resume_direct"))
	res.set("ensemble.delete_ms", ms("ensemble.delete"))
	res.set("ensemble.diag_ms", ms("ensemble.diag"))
	res.set("ensemble.sst_direct_ms", ms("ensemble.sst_direct"))
	res.set("ensemble.table_sets", float64(e.sched.Stats().TableSets))
	res.set("ensemble.allocs_per_block", allocs/2)
	res.set("ensemble.gc_cycles_per_block", cycles/2)
	res.set("serve.snapshot_body_kb", e.bodyKB)
	res.check(safely(func() error { return e.codecParts(res) }))
	spanCost(res, tr, len(block), ref.blockFloor())

	// One member's coupling interval re-driven through the component loop
	// gives the atmosphere/ocean/coupler split behind advance_ms at this rung.
	cfg := e.cfgs[0]
	cfg.Workers = 1
	tb := core.BuildTables(cfg)
	res.check(safely(func() error {
		one := &coupledRun{
			in:  coupledInputs{WarmTicks: e.baseStep, BlockTicks: e.every},
			cfg: cfg, tb: tb, chkBytes: e.chkBytes,
		}
		hand, err := newHandDriven(cfg, tb, tr)
		if err != nil {
			return err
		}
		lo := len(tr.spans)
		hs := replay(one.handScript(hand, e.every), budget{minR: 6, maxR: 6}, tr, &res.tally, hooks{})
		fl, calls := layerFloors(tr.spans[lo:], len(hs.ops))
		one.handLayers(res, fl, calls, hs.ops)
		return nil
	}))
	spectralKernels(res, tb, cfg.Atm.NLev)
	res.set("core.new_with_tables_ms", minOf(5, func() {
		if m, err := core.NewWithTables(cfg, tb); err == nil {
			m.Close()
		}
	})/nsPerMs)
	tr.end(root)
	res.spans = tr.spans
}

// codecParts times the handler's encodings stand-alone: what a snapshot
// reply, a resume request and an SST reply cost in gob, base64 and JSON.
func (e *ensembleRun) codecParts(res *result) error {
	var gobBuf bytes.Buffer
	var err error
	snapshot := func() {
		gobBuf.Reset()
		if err = e.chk.Save(&gobBuf); err == nil {
			err = json.NewEncoder(io.Discard).Encode(ensemble.SnapshotResponse{Config: e.cfgs[0], Checkpoint: gobBuf.Bytes()})
		}
	}
	res.set("serve.snapshot_encode_ms", minOf(10, snapshot)/nsPerMs)
	if err != nil {
		return err
	}
	resume := func() {
		var req ensemble.CreateRequest
		if err = json.Unmarshal(e.resumeBody[0], &req); err == nil {
			_, err = core.LoadCheckpoint(bytes.NewReader(req.Checkpoint))
		}
	}
	res.set("serve.resume_decode_ms", minOf(10, resume)/nsPerMs)
	if err != nil {
		return err
	}
	sst := ensemble.SSTField{NLat: e.cfgs[0].Ocn.NLat, NLon: e.cfgs[0].Ocn.NLon, SST: e.chk.Ocn.T[0]}
	res.set("serve.sst_encode_ms", minOf(10, func() { err = json.NewEncoder(io.Discard).Encode(sst) })/nsPerMs)
	return err
}
