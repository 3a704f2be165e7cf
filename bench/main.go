// Command bench is the repository's benchmark (see README.md and
// ../BENCHMARK.json): four deterministic single-thread workloads, nine
// end-to-end metrics from an untraced run, and a per-layer ledger from a
// separate traced run.
//
//	go run ./bench                          every workload, untraced then traced
//	go run ./bench -workload W -trace 0|1   one run; last line is the JSON result
//	go run ./bench -repeat 2                every workload twice in child processes, compared
//	go run ./bench -trace-verify FILE       check a trace written with -trace-out
//
// Every run is one process with one compute thread: GOMAXPROCS(1),
// core.Config.Workers = 1, one scheduler worker, one closed-loop client.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
)

// workloads lists the four workloads in reporting order with why each exists
// (BENCHMARK.json carries the same lines).
var workloads = []struct {
	name, why string
	run       func(seed uint64, b budget, traced bool) *result
}{
	{"coupled_r15", "the paper's headline run: atmosphere about two thirds of the block, ocean a quarter, coupler the rest (GOMAXPROCS=1, Workers=1)",
		func(seed uint64, b budget, traced bool) *result {
			return runCoupled("coupled_r15", coupledR15Inputs(seed), b, traced)
		}},
	{"ocean_128", "the ocean does all the work and atmosphere, spectral and coupler none; the most memory-bound workload (GOMAXPROCS=1, one thread)",
		func(seed uint64, b budget, traced bool) *result { return runOcean(ocean128Inputs(seed), b, traced) }},
	{"atmos_r21_slab", "top rung over a slab ocean: spectral and atmosphere do all the work, ocean none, state no longer fits L2 (GOMAXPROCS=1, Workers=1)",
		func(seed uint64, b budget, traced bool) *result {
			return runCoupled("atmos_r21_slab", atmosR21SlabInputs(seed), b, traced)
		}},
	{"ensemble_r5", "the foam-serve path at the rung where fixed costs (interpreter, locking, gob, base64, JSON) are largest (GOMAXPROCS=1, one scheduler worker, one closed-loop client)",
		func(seed uint64, b budget, traced bool) *result {
			return runEnsemble(ensembleR5Inputs(seed), b, traced)
		}},
}

// Replay counts: at least minReplays per run however slow the host, at most
// maxReplays however short the seconds. -quick is the smoke setting.
const (
	minReplays = 12
	maxReplays = 64
)

func main() {
	workload := flag.String("workload", "", "run one workload (default: all four, untraced then traced)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 20, "seconds of replay per run")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	quick := flag.Bool("quick", false, "smoke run: two replays per pass")
	traceOut := flag.String("trace-out", "", "write the traced run's spans to this file as JSON at exit")
	traceVerify := flag.String("trace-verify", "", "check a trace file (spans close, nest, self times sum to the root) and exit")
	repeat := flag.Int("repeat", 0, "run every workload this many times in child processes and compare the runs")
	flag.Parse()

	if *traceVerify != "" {
		if err := verifyTraceFile(*traceVerify); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: spans close, nest and sum to the root\n", *traceVerify)
		return
	}
	if *repeat > 0 {
		os.Exit(repeatRuns(*repeat, *workload, *seed, *seconds, *quick))
	}

	runtime.GOMAXPROCS(1)
	b := budget{seconds: *seconds, minR: minReplays, maxR: maxReplays}
	if *quick {
		b = budget{minR: 2, maxR: 2}
	}
	failed := false
	one := func(name string, traced bool) {
		res := runWorkload(name, uint64(*seed), b, traced)
		if res == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			os.Exit(2)
		}
		if traced {
			res.check(verifySpans(res.spans))
			if *traceOut != "" {
				path := *traceOut
				if *workload == "" {
					path += "." + name // one file per workload when all four run
				}
				res.check(writeSpans(path, res.spans))
			}
		}
		line := res.jsonLine()
		res.printHuman(os.Stdout)
		fmt.Println(line)
		failed = failed || res.failed > 0
	}
	if *workload != "" {
		one(*workload, *trace == 1)
	} else {
		fmt.Printf("# GOMAXPROCS=1 Workers=1 one closed-loop client; %s %s/%s, %d CPU(s) visible\n",
			runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
		for _, w := range workloads {
			one(w.name, false)
		}
		for _, w := range workloads {
			one(w.name, true)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runWorkload runs one workload by name (nil when there is no such name).
func runWorkload(name string, seed uint64, b budget, traced bool) *result {
	for _, w := range workloads {
		if w.name == name {
			return w.run(seed, b, traced)
		}
	}
	return nil
}
