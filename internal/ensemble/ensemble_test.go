package ensemble_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"foam/internal/core"
	"foam/internal/ensemble"
)

// reducedCfg returns the test configuration at the given coupling lag.
func reducedCfg(lag int) core.Config {
	cfg := core.ReducedConfig()
	cfg.Workers = 1
	cfg.OceanLag = lag
	return cfg
}

// checkpointBytes writes a member's checkpoint as a version-1 container
// for bit-exact comparison.
func checkpointBytes(t *testing.T, s *ensemble.Scheduler, id string) []byte {
	t.Helper()
	chk, _, err := s.Snapshot(id)
	if err != nil {
		t.Fatalf("snapshot %s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := chk.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMemberDeterminism pins the ensemble's core promise: a member stepped
// inside a busy ensemble — at least 8 other members advancing concurrently
// on the scheduler's worker pool — produces a checkpoint bit-identical to
// the same configuration stepped standalone through core, at both coupling
// lags. Members run the serial executor and executors keep no
// goroutine-affine state, so how busy the process is must not matter.
func TestMemberDeterminism(t *testing.T) {
	every := core.ReducedConfig().OceanEvery
	steps := 2*every + 1
	noiseAdvances := 3
	if testing.Short() {
		steps = every + 1
		noiseAdvances = 2
	}

	// Standalone references, one per lag, via core directly.
	refs := make(map[int][]byte)
	for _, lag := range []int{0, 1} {
		m, err := core.New(reducedCfg(lag))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			m.Step()
		}
		var buf bytes.Buffer
		if err := m.Checkpoint().Save(&buf); err != nil {
			t.Fatal(err)
		}
		refs[lag] = buf.Bytes()
		m.Close()
	}

	s := ensemble.New(ensemble.Config{Workers: 4, MaxMembers: 16})
	defer s.Close()

	// 8 noise members with mixed lags, advancing concurrently.
	noise := make([]string, 8)
	for i := range noise {
		info, err := s.Create(reducedCfg(i%2), nil)
		if err != nil {
			t.Fatal(err)
		}
		noise[i] = info.ID
	}
	probes := make(map[int]string)
	for _, lag := range []int{0, 1} {
		info, err := s.Create(reducedCfg(lag), nil)
		if err != nil {
			t.Fatal(err)
		}
		probes[lag] = info.ID
	}

	var wg sync.WaitGroup
	for _, id := range noise {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for k := 0; k < noiseAdvances; k++ {
				if _, err := s.AdvanceSteps(id, every); err != nil {
					t.Errorf("noise advance %s: %v", id, err)
					return
				}
			}
		}(id)
	}
	// Advance the probes in uneven chunks while the noise runs, crossing
	// coupling ticks and phase offsets.
	for _, lag := range []int{0, 1} {
		wg.Add(1)
		go func(lag int) {
			defer wg.Done()
			id := probes[lag]
			left := steps
			for _, chunk := range []int{1, every, left} {
				if chunk > left {
					chunk = left
				}
				if chunk < 1 {
					break
				}
				if _, err := s.AdvanceSteps(id, chunk); err != nil {
					t.Errorf("probe advance %s: %v", id, err)
					return
				}
				left -= chunk
			}
			if left != 0 {
				t.Errorf("probe lag=%d: %d steps unaccounted", lag, left)
			}
		}(lag)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatalf("ensemble advances failed")
	}

	for _, lag := range []int{0, 1} {
		got := checkpointBytes(t, s, probes[lag])
		if !bytes.Equal(got, refs[lag]) {
			t.Errorf("lag=%d: ensemble member checkpoint differs from standalone core run after %d steps", lag, steps)
		}
		info, err := s.Info(probes[lag])
		if err != nil {
			t.Fatal(err)
		}
		if info.Step != steps {
			t.Errorf("lag=%d: probe reports step %d, want %d", lag, info.Step, steps)
		}
	}
}

// TestForkConsistency forks a member at every phase offset of the coupling
// cadence and steps parent and child identically: their checkpoints must
// stay bit-identical, proving the fork rides the restart path correctly —
// mid-interval flux accumulators and the coupler's ocean mirror included.
func TestForkConsistency(t *testing.T) {
	every := core.ReducedConfig().OceanEvery
	offsets := make([]int, every)
	for i := range offsets {
		offsets[i] = i
	}
	if testing.Short() {
		offsets = []int{0, every - 1}
	}

	s := ensemble.New(ensemble.Config{Workers: 2, MaxMembers: 8})
	defer s.Close()

	for _, lag := range []int{0, 1} {
		for _, off := range offsets {
			t.Run(fmt.Sprintf("lag%d-off%d", lag, off), func(t *testing.T) {
				parent, err := s.Create(reducedCfg(lag), nil)
				if err != nil {
					t.Fatal(err)
				}
				// One warm interval, then `off` extra steps to park the
				// parent mid-cadence at the wanted phase offset.
				if _, err := s.AdvanceSteps(parent.ID, every+off); err != nil {
					t.Fatal(err)
				}
				child, err := s.Fork(parent.ID)
				if err != nil {
					t.Fatal(err)
				}
				if child.Step != parent.Step+every+off {
					t.Fatalf("child starts at step %d, parent was at %d", child.Step, parent.Step+every+off)
				}

				// Same trajectory from the fork point, run concurrently.
				run := 2*every + 1
				var wg sync.WaitGroup
				for _, id := range []string{parent.ID, child.ID} {
					wg.Add(1)
					go func(id string) {
						defer wg.Done()
						if _, err := s.AdvanceSteps(id, run); err != nil {
							t.Errorf("advance %s: %v", id, err)
						}
					}(id)
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}

				pb := checkpointBytes(t, s, parent.ID)
				cb := checkpointBytes(t, s, child.ID)
				if !bytes.Equal(pb, cb) {
					t.Errorf("parent and fork diverged after %d identical steps from offset %d", run, off)
				}
				if err := s.Delete(parent.ID); err != nil {
					t.Fatal(err)
				}
				if err := s.Delete(child.ID); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSchedulerLifecycle pins the bookkeeping the HTTP layer leans on:
// capacity limit, delete semantics, stats counters, close semantics.
func TestSchedulerLifecycle(t *testing.T) {
	s := ensemble.New(ensemble.Config{Workers: 1, MaxMembers: 2})
	a, err := s.Create(reducedCfg(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(reducedCfg(0), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(reducedCfg(0), nil); err != ensemble.ErrTooMany {
		t.Fatalf("over-capacity create: got %v, want ErrTooMany", err)
	}
	if _, err := s.AdvanceSteps("nope", 1); err != ensemble.ErrNotFound {
		t.Fatalf("advance unknown: got %v, want ErrNotFound", err)
	}
	if _, err := s.AdvanceSteps(a.ID, 0); err == nil {
		t.Fatal("advance by 0 steps succeeded")
	}
	if err := s.Delete(a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AdvanceSteps(a.ID, 1); err != ensemble.ErrNotFound {
		t.Fatalf("advance deleted: got %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.Members != 1 || st.Workers != 1 {
		t.Fatalf("stats: %+v", st)
	}
	s.Close()
	if _, err := s.Create(reducedCfg(0), nil); err != ensemble.ErrClosed {
		t.Fatalf("create after close: got %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestSchedulerRace is the net for the scheduler lock: it calls every
// exported Scheduler method while another goroutine creates, advances and
// deletes members, so under -race a read or write of member bookkeeping
// outside Scheduler.mu races with the churn. Each reader loops one method
// on its own goroutine, most of them on an id that never exists: a lookup
// done without the lock then returns without touching the mutex, so the
// reader never synchronises with the churn through it.
func TestSchedulerRace(t *testing.T) {
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	s := ensemble.New(ensemble.Config{Workers: 2, MaxMembers: 8})
	defer s.Close()
	if s.Workers() != 2 {
		t.Fatalf("Workers() = %d, want 2", s.Workers())
	}
	base, err := s.CreateScenario("r5-quick", nil)
	if err != nil {
		t.Fatal(err)
	}

	// A member the churn has deleted, or one busy stepping, is an expected
	// answer on a live id; an unknown id must be ErrNotFound.
	check := func(op string, err error) {
		if err != nil && !errors.Is(err, ensemble.ErrNotFound) && !errors.Is(err, ensemble.ErrBusy) {
			t.Errorf("%s: %v", op, err)
		}
	}
	const unknown = "no-such-member"
	notFound := func(op string, err error) {
		if !errors.Is(err, ensemble.ErrNotFound) {
			t.Errorf("%s(unknown): got %v, want ErrNotFound", op, err)
		}
	}
	readers := []func(){
		func() { s.Stats() },
		func() { s.List() },
		func() { _, err := s.Info(unknown); notFound("Info", err) },
		func() { _, err := s.Diagnostics(unknown); notFound("Diagnostics", err) },
		func() { _, err := s.SST(unknown); notFound("SST", err) },
		func() { _, _, err := s.Snapshot(unknown); notFound("Snapshot", err) },
		func() { _, err := s.Fork(unknown); notFound("Fork", err) },
		func() { _, err := s.AdvanceSteps(unknown, 1); notFound("AdvanceSteps", err) },
		func() { _, err := s.AdvanceIntervals(unknown, 1); notFound("AdvanceIntervals", err) },
		func() { notFound("Delete", s.Delete(unknown)) },
		func() { _, err := s.Info(base.ID); check("Info", err) },
		func() { _, err := s.Diagnostics(base.ID); check("Diagnostics", err) },
		func() { _, err := s.SST(base.ID); check("SST", err) },
		func() { _, _, err := s.Snapshot(base.ID); check("Snapshot", err) },
		func() {
			for _, in := range s.List() {
				_, err := s.Info(in.ID)
				check("Info", err)
				_, err = s.Diagnostics(in.ID)
				check("Diagnostics", err)
				_, err = s.SST(in.ID)
				check("SST", err)
				_, _, err = s.Snapshot(in.ID)
				check("Snapshot", err)
			}
		},
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range readers {
		wg.Add(1)
		go func(read func()) {
			defer wg.Done()
			for {
				read()
				select {
				case <-done:
					return
				default:
				}
			}
		}(read)
	}

	// The churn: create, advance and delete one member per round, then
	// advance and fork the long-lived member. The readers hold members
	// busy now and then, so the churn retries on ErrBusy.
	retry := func(op func() error) error {
		for {
			if err := op(); !errors.Is(err, ensemble.ErrBusy) {
				return err
			}
		}
	}
	for i := 0; i < rounds; i++ {
		info, err := s.Create(reducedCfg(i%2), nil)
		if err == nil {
			err = retry(func() error { _, err := s.AdvanceSteps(info.ID, 1+i%3); return err })
		}
		if err == nil {
			err = retry(func() error { return s.Delete(info.ID) })
		}
		if err != nil {
			t.Errorf("churn round %d: %v", i, err)
			break
		}
	}
	if err := retry(func() error { _, err := s.AdvanceIntervals(base.ID, 1); return err }); err != nil {
		t.Errorf("AdvanceIntervals: %v", err)
	}
	if err := retry(func() error {
		child, err := s.Fork(base.ID)
		if err == nil {
			err = retry(func() error { return s.Delete(child.ID) })
		}
		return err
	}); err != nil {
		t.Errorf("Fork: %v", err)
	}
	close(done)
	wg.Wait()
	s.Close()
	if st := s.Stats(); st.Members != 0 {
		t.Errorf("after Close: %d members left", st.Members)
	}
}
