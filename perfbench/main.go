// Command perfbench is the repository benchmark: it runs one named workload
// against the simulated 4-CPU machine (workload.DefaultConfig), checks every
// output, and prints one JSON result line with the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1). See README.md for the
// workloads, the metric map and the clock the latencies use.
//
//	go run . -workload serve-poll -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one benchmark invocation.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	tiny      bool          // shrink every workload to a smoke-test size
	artifacts string        // directory for wedge dumps and span files
	wedge     time.Duration // watchdog limit for one trial
}

const (
	// minTrials keeps a short run's medians meaningful and gives a traced
	// run both traced and untraced trials.
	minTrials = 3
	// wedgeLimit is far above any healthy trial (well under a second) and
	// leaves a wedged run time to dump and report inside its time limit.
	wedgeLimit = 20 * time.Second
)

func main() {
	o := options{wedge: wedgeLimit}
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "input seed (payload sizes, strides, dealing)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measure for this many seconds of host time")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&o.artifacts, "artifacts", ".bench_build/perfbench", "directory for wedge dumps and span files")
	flag.Parse()
	o.trace = traceFlag != 0
	if flag.NArg() != 0 || traceFlag < 0 || traceFlag > 1 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := runBench(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runBench executes trials of the workload until their measured sections
// add up to the time budget and folds them into one result. Informational
// lines go to info; the result line is left to the caller.
func runBench(o options, info io.Writer) (result, error) {
	w, ok := workloads[o.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (have %s)", o.workload, workloadNames())
	}
	// Host parallelism is capped at two threads, and the default never
	// exceeds the host's CPUs, so a run measures the same configuration
	// on any host with at least two.
	if runtime.GOMAXPROCS(0) > 2 {
		runtime.GOMAXPROCS(2)
	}
	size := w.full
	if o.tiny {
		size = w.tiny
	}
	fmt.Fprintf(info, "perfbench: workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d size=%+v\n",
		w.name, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), size)

	r := newRun(o, w, size)
	start := time.Now()
	budget := time.Duration(o.seconds * float64(time.Second))
	// Both host threads stay busy while a trial runs, so this many CPU ns
	// of measured sections take about --seconds of wall time on an idle
	// host.
	cpuBudget := int64(runtime.GOMAXPROCS(0)) * budget.Nanoseconds()
	for i := 0; ; i++ {
		// Trials alternate traced and untraced in a traced run, so the
		// tracing overhead is measured inside one run on one host state.
		traced := o.trace && i%2 == 0
		t := r.runTrial(i, traced)
		if t.wedged {
			fmt.Fprintf(info, "perfbench: trial %d wedged; dumps in %s\n", i, t.wedgeDump)
			break
		}
		// The budget counts the CPU time of measured sections only, so
		// set-up and teardown speed, and CPU time the host's hypervisor
		// steals, do not change how much work a run measures. The
		// wall-clock cap bounds a run whose trials stop reaching their
		// measured section.
		if (r.measuredCPU >= cpuBudget && len(r.trials) >= minTrials) || time.Since(start) >= 3*budget {
			break
		}
	}
	return r.finish(info)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pct returns the p-th percentile (0..100) of sorted xs by nearest rank.
func pct(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never drove).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
