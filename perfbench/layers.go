package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"

	"repro/internal/kernel"
	"repro/internal/proc"
)

// counters is the layer state read at the measured section's boundaries,
// all of it through the kernel's public surface: System.Stats, the CPUs'
// fault and TLB counters, the leader's share-group Acc lock, and the Go
// runtime.
type counters struct {
	st                         kernel.Stats
	faults, tlbHits, tlbMisses int64
	rlocks, wlocks, lockSleeps int64
}

// hostCounters is the Go runtime's view: cumulative allocation and GC
// counts, and the live heap objects right now.
type hostCounters struct{ allocBytes, gcCycles, heapObjects uint64 }

var (
	hostMu      sync.Mutex
	hostSamples = []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
)

// processCPU returns the user and system CPU time, in ns, that all
// threads of this process have used so far. Unlike wall time it does not
// grow while the host's hypervisor runs someone else.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // only a bad pointer fails
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func readHost() hostCounters {
	hostMu.Lock()
	defer hostMu.Unlock()
	metrics.Read(hostSamples)
	return hostCounters{hostSamples[0].Value.Uint64(), hostSamples[1].Value.Uint64(), hostSamples[2].Value.Uint64()}
}

func snapshot(sys *kernel.System, leader *proc.Proc) counters {
	c := counters{st: sys.Stats()}
	for _, cpu := range sys.Machine.CPUs {
		c.faults += cpu.Faults.Load()
		c.tlbHits += cpu.TLB.Hits.Load()
		c.tlbMisses += cpu.TLB.Misses.Load()
	}
	if g := kernel.GroupOf(leader); g != nil {
		c.rlocks = g.Acc.RLocks.Load()
		c.wlocks = g.Acc.WLocks.Load()
		c.lockSleeps = g.Acc.RSleeps.Load() + g.Acc.WSleeps.Load()
	}
	return c
}

// syscalls returns the per-name (count, simcyc) of a Stats snapshot.
func syscalls(st kernel.Stats) map[string][2]int64 {
	m := map[string][2]int64{}
	for _, s := range st.Syscalls {
		m[s.Name] = [2]int64{s.Count, s.SimCyc}
	}
	return m
}

// gatewayCalls maps the benchmark's call names to the kernel's syscall
// names for the per-call simcyc metrics.
var gatewayCalls = []struct{ name, sys string }{
	{"poll", "poll"}, {"read", "read"}, {"write", "write"}, {"accept", "netaccept"},
	{"connect", "netconnect"}, {"close", "close"}, {"sproc", "sproc"}, {"wait", "wait"},
	{"mmap", "mmap"}, {"munmap", "munmap"},
}

// pctMetric is a per-layer percentile over the pooled spans of every traced
// trial: <module>.<call>.<host_ns|simcyc>_p<q>.
type pctMetric struct {
	module string
	call   callID
	simcyc bool
	q      float64
}

func (m pctMetric) name() string {
	kind := "host_ns"
	if m.simcyc {
		kind = "simcyc"
	}
	return fmt.Sprintf("%s.%s.%s_p%g", m.module, callNames[m.call], kind, m.q)
}

func (m pctMetric) unit() string {
	if m.simcyc {
		return "simcyc"
	}
	return "ns"
}

var pctMetrics = func() []pctMetric {
	var out []pctMetric
	for _, c := range []callID{cPoll, cRead, cWrite, cAccept, cConnect, cClose, cMmap, cMunmap} {
		out = append(out, pctMetric{"kernel", c, false, 50}, pctMetric{"kernel", c, false, 99})
	}
	out = append(out,
		pctMetric{"proc", cSproc, false, 50}, pctMetric{"proc", cSproc, false, 99},
		pctMetric{"proc", cSproc, true, 50}, pctMetric{"proc", cSproc, true, 99},
		pctMetric{"proc", cWait, false, 50},
	)
	for _, c := range []callID{cLoad, cStoreFresh} {
		out = append(out,
			pctMetric{"vm", c, true, 50}, pctMetric{"vm", c, true, 99},
			pctMetric{"vm", c, false, 50}, pctMetric{"vm", c, false, 99})
	}
	out = append(out,
		pctMetric{"uspin", cBarrier, false, 50}, pctMetric{"uspin", cBarrier, false, 99},
		pctMetric{"uspin", cBarrier, true, 50},
	)
	return out
}()

// callStats pools every traced span's host ns and simcyc per call.
type callStats struct{ ns, cyc [nCalls]*reservoir }

func newCallStats(seed uint64) callStats {
	var cs callStats
	for i := range cs.ns {
		cs.ns[i] = newReservoir(1<<15, seed+uint64(2*i)+7)
		cs.cyc[i] = newReservoir(1<<15, seed+uint64(2*i)+8)
	}
	return cs
}

// keptSpan is a span held for the span file, tagged with its trial.
type keptSpan struct {
	trial int
	span
}

const maxKeptSpans = 1 << 18

// layerMetric is a per-trial per-layer metric: a function of the counter
// deltas across the measured section and the trial's spans.
type layerMetric struct {
	name, unit string
	f          func(d *delta) float64
}

// delta is one traced trial's measured section, seen from every layer.
type delta struct {
	t      *trial
	ops    float64
	a, b   *counters
	sys    map[string][2]int64 // syscall (count, simcyc) deltas
	selfNs map[string]int64    // layer → self host ns
}

func (d *delta) perOp(v int64) float64 { return ratio(float64(v), d.ops) }

func (d *delta) call(sys string) (count, cyc int64) {
	v := d.sys[sys]
	return v[0], v[1]
}

func stat(f func(st *kernel.Stats) int64) func(d *delta) int64 {
	return func(d *delta) int64 { return f(&d.b.st) - f(&d.a.st) }
}

var (
	dDispatches = stat(func(s *kernel.Stats) int64 { return s.Dispatches })
	dLocalPicks = stat(func(s *kernel.Stats) int64 { return s.LocalPicks })
	dFast       = stat(func(s *kernel.Stats) int64 { return s.FastFills })
	dSlow       = stat(func(s *kernel.Stats) int64 { return s.SlowFills })
	dBreaks     = stat(func(s *kernel.Stats) int64 { return s.LazyBreaks })
	dDrops      = stat(func(s *kernel.Stats) int64 { return s.LazyDrops })
	dWakes      = stat(func(s *kernel.Stats) int64 { return s.ProcWakes })
	dBanked     = stat(func(s *kernel.Stats) int64 { return s.BankedWakes })
	dVMHits     = stat(func(s *kernel.Stats) int64 { return s.VMCacheHits })
	dVMMisses   = stat(func(s *kernel.Stats) int64 { return s.VMCacheMisses })
	dAllocs     = stat(func(s *kernel.Stats) int64 { return s.FrameAllocs })
	dCacheHits  = stat(func(s *kernel.Stats) int64 { return s.CacheHits })
	dPageSD     = stat(func(s *kernel.Stats) int64 { return s.PageShootdowns })
	dSpaceSD    = stat(func(s *kernel.Stats) int64 { return s.SpaceShootdowns })
)

func perOpStat(name string, f func(st *kernel.Stats) int64) layerMetric {
	g := stat(f)
	return layerMetric{name, "count/op", func(d *delta) float64 { return d.perOp(g(d)) }}
}

func frac(name string, num func(d *delta) int64, den ...func(d *delta) int64) layerMetric {
	return layerMetric{name, "ratio", func(d *delta) float64 {
		var sum int64
		for _, f := range den {
			sum += f(d)
		}
		return ratio(float64(num(d)), float64(sum))
	}}
}

var layerTable = func() []layerMetric {
	ms := []layerMetric{
		{"kernel.syscalls_per_op", "count/op", func(d *delta) float64 {
			var n int64
			for _, v := range d.sys {
				n += v[0]
			}
			return d.perOp(n)
		}},
		{"kernel.syscall_simcyc_per_op", "simcyc/op", func(d *delta) float64 {
			var n int64
			for _, v := range d.sys {
				n += v[1]
			}
			return d.perOp(n)
		}},
	}
	for _, gc := range gatewayCalls {
		sys := gc.sys
		ms = append(ms, layerMetric{"kernel." + gc.name + ".simcyc_per_call", "simcyc/call", func(d *delta) float64 {
			n, cyc := d.call(sys)
			return ratio(float64(cyc), float64(n))
		}})
	}
	ms = append(ms,
		perOpStat("kernel.restarts_per_op", func(s *kernel.Stats) int64 { return s.SyscallRestarts }),
		perOpStat("kernel.retries_per_op", func(s *kernel.Stats) int64 { return s.SyscallRetries }),

		perOpStat("ipc.poll_sleeps_per_op", func(s *kernel.Stats) int64 { return s.PollSleeps }),
		perOpStat("ipc.transitions_per_op", func(s *kernel.Stats) int64 { return s.ReadyTransitions }),
		perOpStat("ipc.sleeper_wakes_per_op", func(s *kernel.Stats) int64 { return s.ReadySleeperWakes }),
		perOpStat("ipc.poller_wakes_per_op", func(s *kernel.Stats) int64 { return s.ReadyPollerWakes }),
		layerMetric{"ipc.poll_yield", "ratio", func(d *delta) float64 {
			return ratio(float64(d.t.pollReady.Load()), float64(d.t.polls.Load()))
		}},
		layerMetric{"ipc.ready_per_poll", "fds/poll", func(d *delta) float64 {
			return ratio(float64(d.t.readySum.Load()), float64(d.t.polls.Load()))
		}},

		perOpStat("sched.dispatches_per_op", func(s *kernel.Stats) int64 { return s.Dispatches }),
		perOpStat("sched.preemptions_per_op", func(s *kernel.Stats) int64 { return s.Preemptions }),
		perOpStat("sched.steals_per_op", func(s *kernel.Stats) int64 { return s.Steals }),
		perOpStat("sched.steal_scans_per_op", func(s *kernel.Stats) int64 { return s.StealScans }),
		frac("sched.local_pick_frac", dLocalPicks, dDispatches),

		layerMetric{"proc.creations_per_op", "count/op", func(d *delta) float64 {
			s, _ := d.call("sproc")
			f, _ := d.call("fork")
			return d.perOp(s + f)
		}},
		perOpStat("proc.blocks_per_op", func(s *kernel.Stats) int64 { return s.ProcBlocks }),
		perOpStat("proc.wakes_per_op", func(s *kernel.Stats) int64 { return s.ProcWakes }),
		frac("proc.banked_wake_frac", dBanked, dWakes, dBanked),

		frac("vm.fast_fill_frac", dFast, dFast, dSlow),
		perOpStat("vm.slow_fills_per_op", func(s *kernel.Stats) int64 { return s.SlowFills }),
		perOpStat("vm.lazy_dups_per_op", func(s *kernel.Stats) int64 { return s.LazyDups }),
		frac("vm.lazy_break_frac", dBreaks, dBreaks, dDrops),
		perOpStat("vm.lazy_break_pages_per_op", func(s *kernel.Stats) int64 { return s.LazyBreakPages }),

		frac("core.vmcache_hit_frac", dVMHits, dVMHits, dVMMisses),

		layerMetric{"klock.rlocks_per_op", "count/op", func(d *delta) float64 { return d.perOp(d.b.rlocks - d.a.rlocks) }},
		layerMetric{"klock.wlocks_per_op", "count/op", func(d *delta) float64 { return d.perOp(d.b.wlocks - d.a.wlocks) }},
		layerMetric{"klock.sleep_frac", "ratio", func(d *delta) float64 {
			return ratio(float64(d.b.lockSleeps-d.a.lockSleeps), float64(d.b.rlocks-d.a.rlocks+d.b.wlocks-d.a.wlocks))
		}},

		layerMetric{"hw.faults_per_op", "count/op", func(d *delta) float64 { return d.perOp(d.b.faults - d.a.faults) }},
		layerMetric{"hw.tlb_hit_frac", "ratio", func(d *delta) float64 {
			h := d.b.tlbHits - d.a.tlbHits
			return ratio(float64(h), float64(h+d.b.tlbMisses-d.a.tlbMisses))
		}},
		perOpStat("hw.frame_allocs_per_op", func(s *kernel.Stats) int64 { return s.FrameAllocs }),
		frac("hw.frame_cache_hit_frac", dCacheHits, dAllocs),
		perOpStat("hw.pool_allocs_per_op", func(s *kernel.Stats) int64 { return s.PoolAllocs }),
		perOpStat("hw.frame_copies_per_op", func(s *kernel.Stats) int64 { return s.FrameCopies }),
		layerMetric{"hw.shootdowns_per_op", "count/op", func(d *delta) float64 { return d.perOp(dPageSD(d) + dSpaceSD(d)) }},
		frac("hw.space_shootdown_frac", dSpaceSD, dPageSD, dSpaceSD),

		perOpStat("uspin.spin_to_blocks_per_op", func(s *kernel.Stats) int64 { return s.SpinToBlocks }),
	)
	for _, l := range []string{"kernel", "proc", "vm", "uspin"} {
		layer := l
		ms = append(ms, layerMetric{layer + ".self_ns_per_op", "ns/op", func(d *delta) float64 {
			return d.perOp(d.selfNs[layer])
		}})
	}
	ms = append(ms, layerMetric{"perfbench.request_self_ns_per_op", "ns/op", func(d *delta) float64 {
		return d.perOp(d.selfNs["perfbench"])
	}})
	return ms
}()

// layerMetrics folds one traced trial: pools its spans per call, computes
// each layer's self time, keeps spans for the span file, and evaluates
// every per-trial layer metric.
func (r *run) layerMetrics(t *trial) map[string]float64 {
	d := &delta{t: t, ops: float64(t.completed.Load()), a: &t.c0, b: &t.c1, selfNs: map[string]int64{}}
	d.sys = map[string][2]int64{}
	before := syscalls(t.c0.st)
	for name, v := range syscalls(t.c1.st) {
		d.sys[name] = [2]int64{v[0] - before[name][0], v[1] - before[name][1]}
	}

	children := map[int64][]span{}
	var requests []span
	// Only spans that start inside the measured section count; set-up
	// calls (the initial sprocs, connects and accepts) are left out.
	lo := t.measStart.Sub(r.epoch).Nanoseconds()
	hi := lo + t.measNs
	for _, sh := range t.rec.shards {
		for _, s := range sh.spans {
			if s.t0 < lo || s.t0 > hi {
				continue
			}
			if len(r.spans) < maxKeptSpans {
				r.spans = append(r.spans, keptSpan{t.idx, s})
			}
			if s.call == cRequest {
				requests = append(requests, s)
				continue
			}
			r.calls.ns[s.call].add(s.t1 - s.t0)
			r.calls.cyc[s.call].add(s.c1 - s.c0)
			d.selfNs[callLayer[s.call]] += s.t1 - s.t0
			if s.req != 0 {
				children[s.req] = append(children[s.req], s)
			}
		}
	}
	// A request's self time is its duration less the part of it that its
	// child spans, on any process, cover.
	for _, q := range requests {
		r.calls.ns[cRequest].add(q.t1 - q.t0)
		d.selfNs["perfbench"] += q.t1 - q.t0 - covered(q, children[q.req])
	}

	out := map[string]float64{}
	for _, m := range layerTable {
		out[m.name] = m.f(d)
	}
	return out
}

// covered returns how much of q's interval the union of kids covers.
func covered(q span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].t0 < kids[j].t0 })
	var total int64
	cur := q.t0
	for _, k := range kids {
		lo, hi := max(k.t0, cur), min(k.t1, q.t1)
		if hi > lo {
			total += hi - lo
			cur = hi
		}
	}
	return total
}

// perLayer assembles the traced run's result: per-trial layer metrics as
// medians over the traced trials, per-call percentiles over their pooled
// spans, and the tracing overhead against the untraced trials of the same
// run.
func (r *run) perLayer(traced, plain []trialSummary) map[string]metric {
	out := map[string]metric{}
	for _, m := range layerTable {
		var vs []float64
		for _, s := range traced {
			vs = append(vs, s.layers[m.name])
		}
		out[m.name] = metric{median(vs), m.unit}
	}
	for _, m := range pctMetrics {
		res := r.calls.ns[m.call]
		if m.simcyc {
			res = r.calls.cyc[m.call]
		}
		out[m.name()] = metric{pct(res.sorted(), m.q), m.unit()}
	}
	// The host layer is read from the untraced trials: span recording
	// allocates, and would otherwise be charged to the program.
	var alloc, gc, wall []float64
	for _, s := range plain {
		alloc = append(alloc, float64(s.host.allocBytes)/float64(s.ops))
		gc = append(gc, 1000*float64(s.host.gcCycles)/float64(s.ops))
		wall = append(wall, float64(s.measNs)/float64(s.ops))
	}
	out["host.alloc_bytes_per_op"] = metric{median(alloc), "B/op"}
	out["host.gc_cycles_per_kop"] = metric{median(gc), "gc/kop"}
	out["host.wall_ns_per_op"] = metric{median(wall), "ns/op"}
	tns, pns := hostNsPerOp(traced), hostNsPerOp(plain)
	out["perfbench.traced_host_ns_per_op"] = metric{tns, "ns/op"}
	out["perfbench.trace_overhead_ns_per_op"] = metric{tns - pns, "ns/op"}
	return out
}

// writeSpans writes the kept spans as a tab-separated file in the
// artifacts directory.
func (r *run) writeSpans() error {
	if err := os.MkdirAll(r.o.artifacts, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.o.artifacts, fmt.Sprintf("spans-%s-seed%d.tsv", r.w.name, r.o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trial\tcall\treq\tstart_ns\tend_ns\tstart_simcyc\tend_simcyc")
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\n", s.trial, callNames[s.call], s.req, s.t0, s.t1, s.c0, s.c1)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
