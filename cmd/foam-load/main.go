// Command foam-load drives a running foam-serve from many concurrent
// clients — the one thing neither `go run ./bench` (one closed-loop client,
// in process) nor the handler tests do — and prints what the clients saw:
// members sustained, aggregate steps per second, and the latency
// percentiles of each request kind. Any failed request makes it exit
// non-zero. It records nothing: `go run ./bench -workload ensemble_r5` is
// the instrument of record for the serving path.
//
// Usage:
//
//	foam-load [-addr http://127.0.0.1:8870] [-members 100] [-advances 4]
//	          [-steps N] [-concurrency 16] [-scenario r5-quick] [-timeout 60s]
//
// Members are created from the named registry scenario via
// POST /v1/scenarios/{name}/members.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"foam/internal/ensemble"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8870", "server base URL")
	members := flag.Int("members", 100, "concurrent members to create")
	advances := flag.Int("advances", 4, "advance requests per member")
	steps := flag.Int("steps", 0, "atmosphere steps per advance (0 = one coupling interval)")
	concurrency := flag.Int("concurrency", 16, "concurrent client connections")
	scen := flag.String("scenario", "r5-quick", "registry scenario the members are created from")
	timeout := flag.Duration("timeout", 60*time.Second, "readiness wait for the server")
	flag.Parse()

	c := &client{base: *addr, http: &http.Client{Timeout: 5 * time.Minute}}
	if err := c.waitReady(*timeout); err != nil {
		log.Fatalf("foam-load: %v", err)
	}
	rep, err := runLoad(c, *scen, *members, *advances, *steps, *concurrency)
	if err != nil {
		log.Fatalf("foam-load: %v", err)
	}
	fmt.Printf("%d %s members x %d advances x %d steps from %d clients (server workers=%d): %.0f atm steps/s aggregate over %.2f s\n",
		*members, *scen, *advances, rep.stepsPerAdvance, *concurrency, rep.workers, rep.stepsPerSecond, rep.wallSeconds)
	for _, l := range []struct {
		name string
		ms   latency
	}{{"create", rep.create}, {"advance", rep.advance}, {"diag", rep.diag}} {
		fmt.Printf("%-8s n=%-5d p50 %8.1f  p90 %8.1f  p99 %8.1f  max %8.1f ms\n",
			l.name, l.ms.count, l.ms.p50, l.ms.p90, l.ms.p99, l.ms.max)
	}
}

// latency is the percentile summary of one request kind, in milliseconds.
type latency struct {
	count              int
	p50, p90, p99, max float64
}

// summarizeMs reduces raw latency samples (milliseconds) to their
// percentile summary. The sample slice is sorted in place.
func summarizeMs(samples []float64) latency {
	if len(samples) == 0 {
		return latency{}
	}
	sort.Float64s(samples)
	pick := func(q float64) float64 {
		i := int(q*float64(len(samples))+0.5) - 1
		return samples[min(max(i, 0), len(samples)-1)]
	}
	return latency{
		count: len(samples),
		p50:   pick(0.50),
		p90:   pick(0.90),
		p99:   pick(0.99),
		max:   samples[len(samples)-1],
	}
}

// report is what one load run observed from the client side.
type report struct {
	workers, stepsPerAdvance    int
	wallSeconds, stepsPerSecond float64
	create, advance, diag       latency
}

// client is a minimal JSON client for the foam-serve API.
type client struct {
	base string
	http *http.Client
}

func (c *client) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode >= 300 {
		var e ensemble.ErrorResponse
		_ = json.Unmarshal(blob, &e)
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, e.Error)
	}
	if out != nil {
		if err := json.Unmarshal(blob, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func (c *client) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if _, err := c.do("GET", "/v1/healthz", nil, nil); err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not ready after %s", c.base, timeout)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// runLoad drives the three phases — create all members, advance them
// advances times each from concurrent clients, then fetch every member's
// diagnostics — timing each request.
func runLoad(c *client, scen string, members, advances, steps, concurrency int) (*report, error) {
	if concurrency < 1 {
		concurrency = 1
	}

	var stats ensemble.Stats
	if _, err := c.do("GET", "/v1/stats", nil, &stats); err != nil {
		return nil, err
	}

	// Phase 1: create.
	ids := make([]string, members)
	createMs := make([]float64, members)
	var coupleEvery atomic.Int64
	err := forEach(members, concurrency, func(i int) error {
		var info ensemble.Info
		t0 := time.Now()
		_, err := c.do("POST", "/v1/scenarios/"+scen+"/members", nil, &info)
		if err != nil {
			return err
		}
		createMs[i] = float64(time.Since(t0).Microseconds()) / 1e3
		ids[i] = info.ID
		coupleEvery.Store(int64(info.CoupleEvery))
		return nil
	})
	if err != nil {
		return nil, err
	}
	stepsPer := steps
	if stepsPer <= 0 {
		stepsPer = int(coupleEvery.Load()) // one coupling interval
	}

	// Phase 2: advance. Each member is one chain of `advances` sequential
	// requests (a member holds at most one advance at a time, by contract);
	// the chains run concurrently across the client pool.
	total := members * advances
	advanceMs := make([]float64, total)
	t0 := time.Now()
	err = forEach(members, concurrency, func(i int) error {
		for k := 0; k < advances; k++ {
			t := time.Now()
			_, err := c.do("POST", "/v1/members/"+ids[i]+"/advance", ensemble.AdvanceRequest{Steps: stepsPer}, nil)
			if err != nil {
				return err
			}
			advanceMs[i*advances+k] = float64(time.Since(t).Microseconds()) / 1e3
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0).Seconds()

	// Phase 3: diagnostics sweep.
	diagMs := make([]float64, members)
	err = forEach(members, concurrency, func(i int) error {
		t := time.Now()
		var d ensemble.Diag
		if _, err := c.do("GET", "/v1/members/"+ids[i]+"/diag", nil, &d); err != nil {
			return err
		}
		diagMs[i] = float64(time.Since(t).Microseconds()) / 1e3
		return nil
	})
	if err != nil {
		return nil, err
	}

	return &report{
		workers:         stats.Workers,
		stepsPerAdvance: stepsPer,
		wallSeconds:     wall,
		stepsPerSecond:  float64(total*stepsPer) / wall,
		create:          summarizeMs(createMs),
		advance:         summarizeMs(advanceMs),
		diag:            summarizeMs(diagMs),
	}, nil
}

// forEach runs fn(0..n-1) from `workers` goroutines, stopping at the first
// error.
func forEach(n, workers int, fn func(i int) error) error {
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || firstErr.Load() != nil {
					return
				}
				if err := fn(i); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err, ok := firstErr.Load().(error); ok {
		return err
	}
	return nil
}
