package main

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kernel"
)

// params sizes one trial; each workload reads the fields it needs.
type params struct {
	Clients  int // simulated client processes
	Conns    int // serve-poll: persistent connections in total
	Rounds   int // serve-poll: requests per connection; shared-fault: rounds
	Members  int // serving members or shared-fault group size
	Requests int // prefork-churn: requests per trial
	InFlight int // prefork-churn: outstanding requests per client
	Lifespan int // prefork-churn: requests a worker serves before exiting
	Pages    int // prefork-churn: dirtied image pages; shared-fault: resident set
	Window   int // shared-fault: fresh pages each member writes per round
}

// spec is one named benchmark workload.
type spec struct {
	name       string
	full, tiny params
	config     func(params) kernel.Config
	attempted  func(params) int64
	leader     func(t *trial, c *kernel.Context) // process 1's program
}

var workloads = map[string]*spec{}

func register(w *spec) { workloads[w.name] = w }

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// trial is one boot of the simulated system running one workload instance.
// The leader program marks the measured section with begin and end; set-up
// is everything from boot to begin.
type trial struct {
	idx int
	p   params
	sys *kernel.System
	rng *rand.Rand // the trial's input generator, derived from the seed
	rec *recorder  // nil when the trial is untraced

	bootCPU   int64
	measStart time.Time
	measCPU0  int64
	setupCPU  int64 // host CPU ns from boot to begin
	measNs    int64 // wall ns of the measured section
	measCPU   int64 // host CPU ns of the measured section
	cyc0      int64
	cyc1      int64
	began     bool
	ended     bool
	c0, c1    counters     // traced trials only
	h0, h1    hostCounters // every trial

	attempted int64
	completed atomic.Int64
	heapBase  uint64 // live heap before boot: the harness's own data
	heapPeak  atomic.Uint64

	// Benchmark-side poll(2) accounting (traced trials only).
	polls, pollReady, readySum atomic.Int64

	mu    sync.Mutex
	fails map[string]int64 // check name → ops it failed
	lat   []*[]int64       // per-process latency shards, simcyc

	wedged    bool
	stopped   int64 // ops completed when the watchdog fired
	wedgeDump string
}

// clock is the simulated clock every latency uses: the summed cycle
// counters of all simulated CPUs.
func (t *trial) clock() int64 { return t.sys.Machine.TotalCycles() }

// begin ends set-up and starts the measured section. The leader calls it
// from its own process.
func (t *trial) begin(c *kernel.Context) {
	t.setupCPU = processCPU() - t.bootCPU
	t.sampleHeap()
	if t.rec != nil {
		t.c0 = snapshot(t.sys, c.P)
	}
	t.h0 = readHost()
	t.cyc0 = t.clock()
	t.began = true
	t.measStart = time.Now()
	t.measCPU0 = processCPU()
}

// end closes the measured section.
func (t *trial) end(c *kernel.Context) {
	t.measNs = time.Since(t.measStart).Nanoseconds()
	t.measCPU = processCPU() - t.measCPU0
	t.cyc1 = t.clock()
	t.ended = true
	t.h1 = readHost()
	t.sampleHeap()
	if t.rec != nil {
		t.c1 = snapshot(t.sys, c.P)
	}
}

// done credits n ops that completed with correct output.
func (t *trial) done(n int64) {
	if v := t.completed.Add(n); v&1023 < n {
		t.sampleHeap()
	}
}

// fail records n ops lost to the named check.
func (t *trial) fail(check string, n int64) {
	t.mu.Lock()
	t.fails[check] += n
	t.mu.Unlock()
}

// revoke withdraws n ops already credited, because a later check on
// their outputs failed.
func (t *trial) revoke(check string, n int64) {
	t.completed.Add(-n)
	t.fail(check, n)
}

// latShard hands a process its own latency slice.
func (t *trial) latShard() *[]int64 {
	s := new([]int64)
	t.mu.Lock()
	t.lat = append(t.lat, s)
	t.mu.Unlock()
	return s
}

// probe wraps c for the workload code, tracing its calls when the trial
// is traced.
func (t *trial) probe(c *kernel.Context) *probe {
	p := &probe{c: c, t: t}
	if t.rec != nil {
		p.sh = t.rec.shard()
	}
	return p
}

// sampleHeap raises the trial's peak of live heap objects.
func (t *trial) sampleHeap() {
	v := readHost().heapObjects
	for {
		old := t.heapPeak.Load()
		if v <= old || t.heapPeak.CompareAndSwap(old, v) {
			return
		}
	}
}

// trialSummary is what a finished trial contributes to the run.
type trialSummary struct {
	traced   bool
	setupCPU int64
	measNs   int64
	measCPU  int64
	simcyc   int64
	ops      int64
	heapPeak uint64             // above the trial's heapBase
	host     hostCounters       // measured-section deltas
	layers   map[string]float64 // traced trials only
}

// run accumulates the trials of one invocation.
type run struct {
	o      options
	w      *spec
	p      params
	epoch  time.Time
	trials []trialSummary

	attempted   int64
	failed      int64
	fails       map[string]int64
	wedged      bool
	measuredCPU int64 // summed host CPU ns of finished trials' measured sections

	lat   *reservoir // pooled request latencies of untraced trials
	calls callStats  // traced per-call samples
	spans []keptSpan // kept for the span file, capped
}

func newRun(o options, w *spec, p params) *run {
	r := &run{o: o, w: w, p: p, epoch: time.Now(), fails: map[string]int64{}}
	r.lat = newReservoir(1<<19, o.seed)
	if o.trace {
		r.calls = newCallStats(o.seed)
	}
	return r
}

// newTrial prepares trial idx; its inputs derive from the seed and idx
// alone.
func (r *run) newTrial(idx int) *trial {
	return &trial{
		idx:       idx,
		p:         r.p,
		rng:       rand.New(rand.NewPCG(r.o.seed, uint64(idx))),
		fails:     map[string]int64{},
		attempted: r.w.attempted(r.p),
	}
}

// runTrial boots a fresh system, runs the workload to idle under the
// wedge watchdog, and folds the outcome into the run.
func (r *run) runTrial(idx int, traced bool) *trial {
	// Start every trial from a collected heap so one trial's garbage does
	// not land in the next one's measured section.
	runtime.GC()
	t := r.newTrial(idx)
	t.heapBase = readHost().heapObjects
	if traced {
		t.rec = &recorder{epoch: r.epoch}
	}
	t.bootCPU = processCPU()
	t.sys = kernel.NewSystem(r.w.config(r.p))
	t.sys.Start(r.w.name+"-leader", func(c *kernel.Context) { r.w.leader(t, c) })

	idle := make(chan struct{})
	go func() {
		t.sys.WaitIdle()
		close(idle)
	}()
	timer := time.NewTimer(r.o.wedge)
	select {
	case <-idle:
		timer.Stop()
	case <-timer.C:
		select {
		case <-idle: // went idle just as the limit expired
		default:
			// The abandoned trial keeps running in the background; its
			// books close here, before the dump, so late completions do
			// not count.
			t.wedged = true
			t.stopped = t.completed.Load()
			t.wedgeDump = r.dumpWedge(t)
		}
	}
	r.fold(t)
	return t
}

// dumpWedge writes the Stats snapshot and a goroutine dump of a trial that
// never went idle, and returns the directory holding them.
func (r *run) dumpWedge(t *trial) string {
	dir := filepath.Join(r.o.artifacts, fmt.Sprintf("wedge-%s-seed%d-trial%d", r.w.name, r.o.seed, t.idx))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wedge dump:", err)
		return dir
	}
	st := t.sys.Stats()
	if err := os.WriteFile(filepath.Join(dir, "stats.txt"), []byte(fmt.Sprintf("%+v\n", st)), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wedge dump:", err)
	}
	f, err := os.Create(filepath.Join(dir, "goroutines.txt"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wedge dump:", err)
		return dir
	}
	defer f.Close()
	if err := pprof.Lookup("goroutine").WriteTo(f, 2); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: wedge dump:", err)
	}
	return dir
}

// fold adds a finished (or wedged) trial to the run's books.
func (r *run) fold(t *trial) {
	completed := t.completed.Load()
	if t.wedged {
		completed = t.stopped
	}
	r.attempted += t.attempted
	lost := t.attempted - completed
	t.mu.Lock()
	for name, n := range t.fails {
		r.fails[name] += n
	}
	t.mu.Unlock()
	if t.wedged {
		r.wedged = true
		r.fails["watchdog.unfinished"] += lost
	} else if !t.began || !t.ended {
		r.fails["harness.unmeasured"] += t.attempted
		lost = t.attempted
	}
	r.failed += lost
	if t.wedged || !t.began || !t.ended || completed == 0 {
		return
	}
	if t.rec == nil {
		for _, sh := range t.lat {
			for _, v := range *sh {
				r.lat.add(v)
			}
		}
	}
	s := trialSummary{
		traced:   t.rec != nil,
		setupCPU: t.setupCPU,
		measNs:   t.measNs,
		measCPU:  t.measCPU,
		simcyc:   t.cyc1 - t.cyc0,
		ops:      completed,
		heapPeak: t.heapPeak.Load() - min(t.heapBase, t.heapPeak.Load()),
		host:     hostCounters{allocBytes: t.h1.allocBytes - t.h0.allocBytes, gcCycles: t.h1.gcCycles - t.h0.gcCycles},
	}
	if t.rec != nil {
		s.layers = r.layerMetrics(t)
	}
	r.trials = append(r.trials, s)
	r.measuredCPU += t.measCPU
}

// finish turns the trials into the result line.
func (r *run) finish(info io.Writer) (result, error) {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	res.Correct = r.failed == 0 && !r.wedged
	names := make([]string, 0, len(r.fails))
	for n := range r.fails {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(info, "perfbench: check %s failed %d ops\n", n, r.fails[n])
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no ops attempted")
	}

	var plain, traced []trialSummary
	for _, s := range r.trials {
		if s.traced {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	var setups []float64
	for _, s := range r.trials {
		setups = append(setups, float64(s.setupCPU)/1e9)
	}
	fmt.Fprintf(info, "perfbench: trials=%d (traced %d) latency samples=%d\n",
		len(r.trials), len(traced), r.lat.seen)

	// A run whose trials all wedged or failed still reports, with zeros
	// where nothing was measured.
	if len(plain) == 0 || (r.o.trace && len(traced) == 0) {
		res.Correct = false
	}
	if !r.o.trace {
		e2e := endToEnd(plain, r.lat)
		e2e["setup_s"] = metric{median(setups), "s"}
		e2e["ok_frac"] = metric{float64(r.attempted-r.failed) / float64(r.attempted), "ratio"}
		res.Metrics = e2e
		return res, nil
	}
	res.Metrics = r.perLayer(traced, plain)
	if err := r.writeSpans(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: span file:", err)
	}
	return res, nil
}

// endToEnd computes the user-visible metrics of a set of trials: per-op
// costs are medians over trials, latency percentiles are taken over the
// pooled samples.
func endToEnd(ts []trialSummary, lat *reservoir) map[string]metric {
	var cyc, heap []float64
	var ops int64
	for _, s := range ts {
		cyc = append(cyc, float64(s.simcyc)/float64(s.ops))
		heap = append(heap, float64(s.heapPeak)/(1<<20))
		ops += s.ops
	}
	sorted := lat.sorted()
	return map[string]metric{
		"req_p50_simcyc": {pct(sorted, 50), "simcyc"},
		"req_p99_simcyc": {pct(sorted, 99), "simcyc"},
		"simcyc_per_op":  {median(cyc), "simcyc/op"},
		"host_ns_per_op": {hostNsPerOp(ts), "ns/op"},
		"host_mem_mb":    {median(heap), "MiB"},
		"ops":            {float64(ops), "count"},
	}
}

// hostNsPerOp is the median over trials of host CPU ns per completed op.
func hostNsPerOp(ts []trialSummary) float64 {
	var ns []float64
	for _, s := range ts {
		ns = append(ns, float64(s.measCPU)/float64(s.ops))
	}
	return median(ns)
}

// reservoir keeps a uniform sample of at most cap values (algorithm R),
// so memory stays fixed however many trials a run makes.
type reservoir struct {
	vals []int64
	cap  int
	seen int64
	rng  *rand.Rand
}

func newReservoir(cap int, seed uint64) *reservoir {
	return &reservoir{vals: make([]int64, 0, cap), cap: cap, rng: rand.New(rand.NewPCG(seed, 0x5eed))}
}

func (r *reservoir) add(v int64) {
	r.seen++
	if len(r.vals) < r.cap {
		r.vals = append(r.vals, v)
		return
	}
	if j := r.rng.Int64N(r.seen); j < int64(r.cap) {
		r.vals[j] = v
	}
}

func (r *reservoir) sorted() []int64 {
	s := slices.Clone(r.vals)
	slices.Sort(s)
	return s
}
