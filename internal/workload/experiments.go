package workload

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/vm"
)

// Experiment is one table of the evaluation. Title and Shape lines may
// use %[k]d for the op count of row k (1-based) at the rendered scale.
type Experiment struct {
	ID    string   // table ID; go test -bench names rows Experiments/ID/row
	Title string   // heading text after "ID — "
	Cols  string   // column header line
	Work  string   // space-separated benchtab -work names that select it
	Rows  []Row    // measured lines, run in order
	Shape []string // lines printed under the rows
}

// Row is one measured line of a table.
type Row struct {
	Name string // a %d in it is filled with the row's op count
	Ops  Scale
	// Run measures the row with ops operations. prev holds the results of
	// the table's earlier rows in a full render and is nil under go test
	// -bench; a row comparing itself with an earlier one skips the
	// comparison then.
	Run func(ops int, prev []Result) Result
}

// Scale is a row's op count in a full and in a -quick run.
type Scale struct{ Full, Quick int }

// At returns the op count at the chosen scale.
func (s Scale) At(quick bool) int {
	if quick {
		return s.Quick
	}
	return s.Full
}

// Result is one row's outcome. Regular rows fill Metrics and perhaps
// Extra, After and Rec; the irregular tables (S2, S6c, S10) print Text
// and record Recs in place of the standard columns.
type Result struct {
	Metrics
	Extra  string   // appended to the standard text columns
	After  []string // lines printed after the row
	Rec    Record   // table-specific json columns of the standard record
	Text   []string // when non-nil, replaces the standard text line
	Recs   []Record // when non-nil, replaces the standard json record
	HostNs float64  // host-timed rows (S6c): ns per lookup, benchmarked instead of simcyc/op
	Err    error    // the row failed to run and records nothing
}

// Record is one row of a BENCH_<runstamp>.json snapshot.
type Record struct {
	Experiment     string  `json:"experiment"`
	Name           string  `json:"name"`
	SimCyclesPerOp float64 `json:"simcyc_per_op"`
	NsPerOp        float64 `json:"ns_per_op"`
	WallNs         int64   `json:"wall_ns"`
	Ops            int64   `json:"ops"`
	Shootdowns     int64   `json:"shootdowns"`
	Faults         int64   `json:"faults"`

	// S7 serving and prefork rows only.
	P50Simcyc int64 `json:"p50_simcyc,omitempty"`
	P99Simcyc int64 `json:"p99_simcyc,omitempty"`

	// S8 fair-share rows only.
	ShareErr      float64 `json:"share_err,omitempty"`
	QuotaReclaims int64   `json:"quota_reclaims,omitempty"`

	// S10 checkpoint rows only.
	STWPages   int64 `json:"stw_pages,omitempty"`
	STWSimcyc  int64 `json:"stw_simcyc,omitempty"`
	PrePages   int64 `json:"pre_pages,omitempty"`
	ImageBytes int64 `json:"image_bytes,omitempty"`
}

// Label returns the row's name at ops operations.
func (r Row) Label(ops int) string {
	if strings.Contains(r.Name, "%d") {
		return fmt.Sprintf(r.Name, ops)
	}
	return r.Name
}

// Heading returns the table's title line at the chosen scale.
func (e Experiment) Heading(quick bool) string {
	return e.ID + " — " + e.expand(e.Title, quick)
}

// ShapeLines returns the lines under the table at the chosen scale.
func (e Experiment) ShapeLines(quick bool) []string {
	out := make([]string, len(e.Shape))
	for i, s := range e.Shape {
		out[i] = e.expand(s, quick)
	}
	return out
}

func (e Experiment) expand(s string, quick bool) string {
	if !strings.Contains(s, "%") {
		return s
	}
	ops := make([]any, len(e.Rows))
	for i, r := range e.Rows {
		ops[i] = r.Ops.At(quick)
	}
	return fmt.Sprintf(s, ops...)
}

// Selected reports whether the benchtab -work name selects e; the empty
// name selects every experiment.
func (e Experiment) Selected(work string) bool {
	return work == "" || slices.Contains(strings.Fields(e.Work), work)
}

// WorkNames lists every benchtab -work name in table order.
func WorkNames() []string {
	var names []string
	for _, e := range Experiments {
		for _, w := range strings.Fields(e.Work) {
			if !slices.Contains(names, w) {
				names = append(names, w)
			}
		}
	}
	return names
}

// Records returns the row's json records under the given table heading
// and row label: Recs when the row set them, else one record of the
// standard columns plus Rec's table-specific ones.
func (r Result) Records(heading, label string) []Record {
	recs := r.Recs
	if recs == nil {
		rec := r.Rec
		rec.Name = label
		rec.SimCyclesPerOp = r.CyclesPerOp()
		if r.Ops > 0 {
			rec.NsPerOp = float64(r.Wall.Nanoseconds()) / float64(r.Ops)
		}
		rec.WallNs = r.Wall.Nanoseconds()
		rec.Ops = r.Ops
		rec.Shootdowns = r.Shootdowns
		rec.Faults = r.Faults
		recs = []Record{rec}
	}
	for i := range recs {
		recs[i].Experiment = heading
	}
	return recs
}

// measure adapts a driver with no extra column.
func measure(f func(ops int) Metrics) func(int, []Result) Result {
	return annotate(f, func(Metrics) string { return "" })
}

// annotate adapts a driver whose extra column comes from its own metrics.
func annotate(f func(ops int) Metrics, extra func(Metrics) string) func(int, []Result) Result {
	return func(ops int, _ []Result) Result {
		m := f(ops)
		return Result{Metrics: m, Extra: extra(m)}
	}
}

// vsPrev adapts a driver whose extra column compares its simcyc/op with
// the previous row's.
func vsPrev(f func(int) Metrics, extra func(prev, cur float64) string) func(int, []Result) Result {
	return func(ops int, prev []Result) Result {
		r := Result{Metrics: f(ops)}
		if len(prev) > 0 {
			r.Extra = extra(prev[len(prev)-1].CyclesPerOp(), r.CyclesPerOp())
		}
		return r
	}
}

// each concatenates the rows built for every parameter value.
func each[T any](xs []T, rows func(T) []Row) []Row {
	var out []Row
	for _, x := range xs {
		out = append(out, rows(x)...)
	}
	return out
}

// per splits ops across n workers, at least one each.
func per(ops, n int) int { return max(ops/n, 1) }

func withCPUs(ncpu int) kernel.Config {
	c := DefaultConfig()
	c.NCPU = ncpu
	return c
}

func withData(pages int) kernel.Config {
	c := DefaultConfig()
	c.DataPages = pages
	return c
}

// numaCfg splits an ncpu machine into nodes of 8 CPUs; blind selects the
// round-robin frame placement the locality-aware pools replaced.
func numaCfg(ncpu int, blind bool) kernel.Config {
	c := withCPUs(ncpu)
	c.NUMANodes = ncpu / 8
	c.NodeBlindAlloc = blind
	c.MaxProcs = 2 * ncpu
	if ncpu > 8 {
		c.MemFrames = 65536
	}
	return c
}

// cols is the standard column header under a first-column label.
func cols(label string) string {
	return fmt.Sprintf("  %-25ssimcyc/op         wall  shootdn   faults", label)
}

// pick names one of two rows that differ in a single switch.
func pick(on bool, ifOff, ifOn string) string {
	if on {
		return ifOn
	}
	return ifOff
}

// storm is one S1 substrate storm, run at each machine size.
type storm struct {
	name string
	ops  Scale
	run  func(c kernel.Config, ncpu, ops int) Metrics
}

const (
	poolGrain = 2000 // E7 work-item grain, in spin iterations
	spinGrain = 600  // E10/S5 critical-section grain
)

// Experiments is the evaluation (DESIGN.md E1..E10, S1..S10, A1..A2,
// recorded in EXPERIMENTS.md), in the order a full benchtab run prints it.
var Experiments = []Experiment{{
	ID: "E1/E4", Work: "creation", Cols: cols("primitive"),
	Title: "process creation (create+join, 32 dirty pages)",
	Rows: each([]CreateKind{CreateFork, CreateSprocNVM, CreateSproc, CreateThread},
		func(k CreateKind) []Row {
			return []Row{{string(k), Scale{400, 50},
				measure(func(ops int) Metrics { return Creation(DefaultConfig(), k, 32, ops) })}}
		}),
	Shape: []string{"paper: sproc() slightly cheaper than fork() (§7); Mach threads ~10x fork's rate (§3)"},
}, {
	ID: "E1b", Work: "creation", Cols: cols("image"),
	Title: "fork vs sproc vs image size (the gap scales with what fork must copy)",
	Rows: each([]int{16, 64, 256}, func(dp int) []Row {
		iters := Scale{200, 25}
		return []Row{
			{fmt.Sprintf("fork,  data=%dp", dp), iters,
				measure(func(ops int) Metrics { return Creation(withData(dp), CreateFork, 0, ops) })},
			{fmt.Sprintf("sproc, data=%dp", dp), iters,
				vsPrev(func(ops int) Metrics { return Creation(withData(dp), CreateSproc, 0, ops) },
					func(fork, sproc float64) string { return fmt.Sprintf("  fork/sproc=%.2f", fork/sproc) })},
		}
	}),
}, {
	// O(1) member creation (DESIGN.md §16) against the eager spawn-time walk
	// it replaced; the children never touch their image.
	ID: "E1c", Work: "creation e1c", Cols: cols("image"),
	Title: "lazy vs eager fork across image size (create+join, untouched children)",
	Rows: each([]int{4, 64, 1024, 4096}, func(dp int) []Row {
		iters := Scale{200, 30}
		eager := withData(dp)
		eager.EagerDup = true
		return []Row{
			{fmt.Sprintf("lazy,  data=%dp", dp), iters,
				measure(func(ops int) Metrics { return Creation(withData(dp), CreateFork, dp, ops) })},
			{fmt.Sprintf("eager, data=%dp", dp), iters,
				vsPrev(func(ops int) Metrics { return Creation(eager, CreateFork, dp, ops) },
					func(lazy, eager float64) string { return fmt.Sprintf("  eager/lazy=%.2f", eager/lazy) })},
		}
	}),
	Shape: []string{
		"shape: lazy simcyc/op flat from 4p to 4096p (the clone copies region headers,",
		"not page tables); eager grows linearly with the image and the untouched child",
		"paid for a walk it never used",
	},
}, {
	ID: "E1c-prefork", Work: "prefork", Cols: cols("pool"),
	Title: "prefork serving pool, %[1]d connections, worker lifespan 8 requests",
	Rows: each([][2]int{{2, 8}, {4, 8}, {8, 8}, {4, 64}}, func(p [2]int) []Row {
		name := fmt.Sprintf("prefork, %d workers", p[0])
		if p[1] != 8 {
			name = fmt.Sprintf("prefork, lifespan %d", p[1])
		}
		return []Row{{name, Scale{2048, 256}, func(ops int, _ []Result) Result {
			m := Prefork(DefaultConfig(),
				PreforkConfig{Conns: ops, Workers: p[0], Lifespan: p[1], Clients: 4})
			return Result{Metrics: m.Metrics, Rec: Record{P50Simcyc: m.P50, P99Simcyc: m.P99},
				Extra: fmt.Sprintf("  p50=%d p99=%d creations=%d lazydups=%d breaks=%d drops=%d reserved=%d",
					m.P50, m.P99, m.Creations, m.LazyDups, m.LazyBreaks, m.LazyDrops, m.SpawnReserved)}
		}}}
	}),
	Shape: []string{
		"shape: simcyc/op near-flat in pool size, and the longer lifespan amortizes the",
		"(already O(1)) creation cost further; drops+breaks == lazydups every run",
	},
}, {
	ID: "E2a", Work: "vm", Cols: cols("configuration"),
	Title: "demand-fault cost vs share-group size (shared read lock hot path)",
	Rows: each([]int{0, 1, 2, 4, 8}, func(members int) []Row {
		name, split := "solo process", func(ops int) int { return ops }
		if members > 0 {
			name, split = fmt.Sprintf("group of %d", members), func(ops int) int { return ops/members + 1 }
		}
		return []Row{{name, Scale{512, 64},
			measure(func(ops int) Metrics { return FaultScaling(DefaultConfig(), members, split(ops)) })}}
	}),
}, {
	ID: "E2b", Work: "vm", Cols: cols("operation"),
	Title: "region grow vs shrink (shrink pays the machine-wide shootdown)",
	Rows: append([]Row{{"sbrk grow", Scale{300, 30},
		measure(func(ops int) Metrics { return GrowOnly(DefaultConfig(), ops) })}},
		each([]int{0, 3}, func(spinners int) []Row {
			return []Row{{fmt.Sprintf("sbrk shrink (%d spin)", spinners), Scale{300, 30},
				measure(func(ops int) Metrics { return ShrinkShootdown(DefaultConfig(), spinners, ops) })}}
		})...),
	Shape: []string{"paper: VM sync overhead negligible except when detaching or shrinking regions (§7)"},
}, {
	ID: "E3", Work: "syscall", Cols: cols("configuration"),
	Title: "system-call overhead: plain process vs clean group member",
	Rows: append(each([]bool{false, true}, func(member bool) []Row {
		return []Row{{"getpid, " + pick(member, "plain", "member"), Scale{20000, 2000},
			measure(func(ops int) Metrics { return SyscallNull(DefaultConfig(), member, ops) })}}
	}), each([]bool{false, true}, func(member bool) []Row {
		return []Row{{"open+close, " + pick(member, "plain", "member"), Scale{2000, 200},
			measure(func(ops int) Metrics { return SyscallOpenClose(DefaultConfig(), member, false, ops) })}}
	})...),
	Shape: []string{"paper: normal UNIX processes experience no penalty (§7, design goal 4)"},
}, {
	ID: "S2", Work: "syscall", Cols: "  syscall                    calls  simcyc/call",
	Title: "per-syscall in-kernel latency (gateway accounting, mixed workload)",
	Rows: []Row{
		{"plain", Scale{4000, 400}, syscallMix(false)},
		{"member", Scale{4000, 400}, syscallMix(true)},
	},
	Shape: []string{"shape: member rows track plain rows — the gateway's sync check is one flag test"},
}, {
	ID: "E8", Work: "vm", Cols: cols("configuration"),
	Title: "deferred attribute synchronization (§6.3)",
	Rows: append(each([]bool{false, true}, func(storm bool) []Row {
		return []Row{{pick(storm, "open+close, clean", "open+close, stormed"), Scale{1000, 100},
			measure(func(ops int) Metrics { return SyscallOpenClose(DefaultConfig(), true, storm, ops) })}}
	}), each([]int{1, 2, 4, 8}, func(members int) []Row {
		return []Row{{fmt.Sprintf("umask round, %d members", members), Scale{300, 30},
			annotate(func(ops int) Metrics { return AttrSync(DefaultConfig(), members, ops) },
				func(m Metrics) string {
					return fmt.Sprintf("  syncs/op=%.1f", float64(m.Syncs)/float64(m.Ops))
				})}}
	})...),
	Shape: []string{"paper: one flag test on the fast path; update cost linear in sharing members"},
}, {
	// Every row moves the same 1 MiB (128 KiB with -quick).
	ID: "E5", Work: "ipc", Cols: cols("mechanism/chunk"),
	Title: "data-passing cost per chunk (producer -> consumer)",
	Rows: each([]int{64, 256, 1024, 4096}, func(chunk int) []Row {
		return each([]Mech{MechShm, MechPipe, MechMsgq, MechSocket}, func(mech Mech) []Row {
			return []Row{{fmt.Sprintf("%s %dB", mech, chunk), Scale{1 << 20 / chunk, 1 << 17 / chunk},
				measure(func(ops int) Metrics {
					return IPCBandwidth(DefaultConfig(), mech, chunk, chunk*ops)
				})}}
		})
	}),
	Shape: []string{"paper: shared memory is the highest-bandwidth path (§3)"},
}, {
	ID: "E6", Work: "sync", Cols: cols("mechanism"),
	Title: "synchronization round-trip latency",
	Rows: each([]SyncMech{SyncSpin, SyncSemop, SyncPipe, SyncSignal}, func(mech SyncMech) []Row {
		rounds := Scale{3000, 200}
		if mech == SyncSignal {
			rounds = Scale{500, 50}
		}
		return []Row{{string(mech), rounds,
			measure(func(ops int) Metrics { return SyncLatency(DefaultConfig(), mech, ops) })}}
	}),
	Shape: []string{"paper: busy-waiting approaches memory speed; kernel sync is far slower (§3)"},
}, {
	ID: "E7a", Work: "pool", Cols: cols("organization"),
	Title: fmt.Sprintf("parallel work organization (4 workers, grain %d)", poolGrain),
	Rows: each([]PoolMode{PoolSproc, PoolPipeWorkers, PoolForkPerTask}, func(mode PoolMode) []Row {
		return []Row{{string(mode), Scale{400, 60},
			measure(func(ops int) Metrics { return Pool(DefaultConfig(), mode, 4, ops, poolGrain) })}}
	}),
}, {
	ID: "E7b", Work: "pool", Cols: cols("workers"),
	Title: "sproc pool scaling (self-scheduling, 4 CPUs)",
	Rows: each([]int{1, 2, 4, 8}, func(w int) []Row {
		return []Row{{fmt.Sprintf("%d workers", w), Scale{400, 60},
			measure(func(ops int) Metrics { return Pool(DefaultConfig(), PoolSproc, w, ops, poolGrain) })}}
	}),
	Shape: []string{"paper: preallocated self-scheduling pools make creation speed irrelevant (§3)"},
}, {
	ID: "E10", Work: "sched", Cols: cols("dispatcher"),
	Title: "gang scheduling (4-member spin-barrier group vs 4 load processes, 4 CPUs)",
	Rows: each([]bool{false, true}, func(gang bool) []Row {
		return []Row{{pick(gang, "standard", "gang mode"), Scale{200, 30},
			annotate(func(ops int) Metrics {
				return GangBarrier(DefaultConfig(), gang, 4, 4, ops, spinGrain)
			}, func(m Metrics) string {
				return fmt.Sprintf("  member-dispatches/round=%.2f", float64(m.Dispatches)/float64(m.Ops))
			})}}
	}),
	Shape: []string{"paper (§8): schedule the share group as a whole so spinners' partners are running"},
}, {
	ID: "S5", Work: "sync", Cols: cols("waiting discipline"),
	Title: "contended lock under 2x overcommit (8 members, 4 CPUs, blockproc sleep-wake)",
	Rows: each([]LockMode{LockSpin, LockHybrid, LockGang}, func(mode LockMode) []Row {
		return []Row{{string(mode), Scale{200, 40},
			annotate(func(ops int) Metrics { return Contention(DefaultConfig(), mode, 8, ops, spinGrain) },
				func(m Metrics) string {
					return fmt.Sprintf("  blocks=%d wakes=%d banked=%d spin-to-block=%d preempts=%d",
						m.Blocks, m.Wakes, m.BankedWakes, m.SpinToBlocks, m.Preempts)
				})}}
	}),
	Shape: []string{
		"paper (§3): when the holder is descheduled, spinning wastes the machine;",
		"blockproc/unblockproc let waiters sleep without losing a single wakeup",
	},
}, {
	// Each storm splits a fixed total op count across NCPU workers.
	ID: "S1", Work: "sched", Cols: cols("storm/ncpu"),
	Title: "MP hot-path scaling (fixed total work split across 1..8 CPUs)",
	Rows: each([]storm{
		{"fault-storm", Scale{4096, 512},
			func(c kernel.Config, n, ops int) Metrics { return FaultStorm(c, n, per(ops, n)) }},
		{"create-storm", Scale{512, 64},
			func(c kernel.Config, n, ops int) Metrics { return CreateStorm(c, n, per(ops, n)) }},
		{"trace-storm", Scale{1 << 16, 1 << 13}, func(c kernel.Config, n, ops int) Metrics {
			c.TraceEvents = 4096
			return TraceStorm(c, n, per(ops, n))
		}},
		{"dispatch-storm", Scale{8192, 1024},
			func(c kernel.Config, n, ops int) Metrics { return DispatchStorm(c, 2*n, per(ops, 2*n)) }},
	}, func(s storm) []Row {
		return each([]int{1, 2, 4, 8}, func(ncpu int) []Row {
			return []Row{{fmt.Sprintf("%s, ncpu=%d", s.name, ncpu), s.ops,
				measure(func(ops int) Metrics { return s.run(withCPUs(ncpu), ncpu, ops) })}}
		})
	}),
	Shape: []string{
		"shape: simcyc/op flat or falling as NCPU grows — per-CPU frame caches,",
		"trace shards, and run queues keep the hot paths off the global locks",
	},
}, {
	ID: "S4", Work: "sched", Cols: cols("members/ncpu"),
	Title: "resident-fault storm (fixed total touches split across 1..8 members/CPUs)",
	Rows: each([]int{1, 2, 4, 8}, func(ncpu int) []Row {
		return []Row{{fmt.Sprintf("resident-fault, ncpu=%d", ncpu), Scale{16384, 2048},
			annotate(func(ops int) Metrics {
				return ResidentFaultStorm(withCPUs(ncpu), ncpu, per(ops, ncpu))
			}, func(m Metrics) string {
				return fmt.Sprintf("  fast-fills=%d slow=%d cache-hits=%d sleeps=%d",
					m.FastFills, m.SlowFills, m.CacheHits, m.LockSleeps)
			})}}
	}),
	Shape: []string{
		"shape: simcyc/op flat as NCPU grows — the resident fault takes no lock at all;",
		"the pregion cache skips the list scan and the PTE read is one atomic load",
	},
}, {
	// NUMA weak scaling: constant per-worker work, each topology run
	// node-blind and locality-aware.
	ID: "S6a", Work: "numa", Cols: cols("storm/policy"),
	Title: "NUMA fault storm (nodes = ncpu/8, constant per-worker work, 1 worker/CPU)",
	Rows: each([]int{8, 64, 256}, func(ncpu int) []Row {
		return each([]bool{true, false}, func(blind bool) []Row {
			name := fmt.Sprintf("fault ncpu=%d %s", ncpu, pick(blind, "locality", "node-blind"))
			return []Row{{name, Scale{64, 16},
				measure(func(ops int) Metrics { return FaultStorm(numaCfg(ncpu, blind), ncpu, ops) })}}
		})
	}),
	Shape: []string{
		"shape: locality stays below node-blind at every multi-node point and the gap",
		"widens with the node count; the common rise is the munmap shootdown, whose",
		"IPI fan-out is machine-wide by design (see DefaultPageShootdownMax)",
	},
}, {
	ID: "S6b", Work: "numa", Cols: cols("storm/policy"),
	Title: "NUMA private re-fault storm (single-owner resident pages, 1 worker/CPU)",
	Rows: each([]int{8, 64, 256}, func(ncpu int) []Row {
		return each([]bool{true, false}, func(blind bool) []Row {
			name := fmt.Sprintf("refault ncpu=%d %s", ncpu, pick(blind, "locality", "node-blind"))
			return []Row{{name, Scale{1024, 256},
				annotate(func(ops int) Metrics { return PrivateRefaultStorm(numaCfg(ncpu, blind), ncpu, ops) },
					func(m Metrics) string { return fmt.Sprintf("  fast-fills=%d", m.FastFills) })}}
		})
	}),
	Shape: []string{
		"shape: locality-aware rows near-flat as the machine grows while node-blind",
		"rows degrade — home-node frame pools keep the RemoteAccess penalty off the",
		"re-fault path; at ncpu=8 there is one node, so the two policies coincide",
	},
}, {
	ID: "S6c", Work: "numa", Cols: "  regions                  linear-ns     index-ns    speedup",
	Title: "pregion lookup: ordered interval index vs linear scan (host ns/lookup)",
	Rows: each([]int{1_000, 10_000, 100_000}, func(nreg int) []Row {
		return []Row{{fmt.Sprintf("%d regions", nreg), Scale{200_000, 20_000},
			func(ops int, _ []Result) Result { return pregionLookup(nreg, ops) }}}
	}),
	Shape: []string{
		"shape: index ns/lookup near-flat in the region count (log n); the linear",
		"scan grows ~100x from 1k to 100k regions",
	},
}, {
	ID: "S7", Work: "serve", Cols: cols("organization"),
	Title: "C10k serving: %[1]d concurrent connections, poll pool vs blocking thread-per-connection",
	Rows: append(each([][2]int{{2, 4}, {4, 4}, {8, 4}, {8, 8}}, func(p [2]int) []Row {
		name := fmt.Sprintf("poll, %d members", p[0])
		if p[1] != 4 {
			name += fmt.Sprintf("/%dcpu", p[1])
		}
		return []Row{{name, Scale{10000, 1000},
			func(ops int, _ []Result) Result { return serve(withCPUs(p[1]), ServePoll, ops, p[0]) }}}
	}), Row{"blocking, %d members", Scale{512, 128}, func(ops int, _ []Result) Result {
		return serve(DefaultConfig(), ServeBlocking, ops, ops)
	}}),
	Shape: []string{
		"shape: an 8-member group answers all %[1]d connections through poll(2); the",
		"blocking organization needs members = connections (%[5]d here) just to hold",
		"them open, so member count scales with load instead of staying fixed",
	},
}, {
	// Op counts here are horizons in simulated cycles.
	ID: "S8", Work: "fairshare", Cols: cols("run"),
	Title: "fair-share delivery under 3x overcommit (3 groups, shares 4:2:1, 4 burners each)",
	Rows: []Row{
		{"share-blind", Scale{6_000_000, 1_500_000}, fairShare(false)},
		{"fair 4:2:1", Scale{6_000_000, 1_500_000}, fairShare(true)},
		{"frame-quota group", Scale{2_000_000, 500_000}, func(ops int, _ []Result) Result {
			qm := FairShare(DefaultConfig(), FairShareConfig{Shares: []int32{2, 1}, Members: 2,
				Horizon: int64(ops), Fair: true, QuotaGroup: 1, QuotaFrames: 32, QuotaPages: 96})
			u := qm.Usage[1]
			return Result{Metrics: qm.Metrics, Rec: Record{QuotaReclaims: u.QuotaReclaims},
				Extra: fmt.Sprintf("  used=%d/%d hits=%d reclaims=%d rezeroed=%d",
					u.FramesUsed, u.FrameQuota, u.QuotaHits, u.QuotaReclaims, u.ReclaimedZeros)}
		}},
	},
	Shape: []string{
		"shape: delivered CPU tracks the 4:2:1 entitlement within a few points while",
		"aggregate throughput matches the share-blind run; the quota-capped group",
		"stays at its cap by reclaiming its own zero pages — degradation, not ENOMEM",
	},
}, {
	ID: "S10", Work: "ckpt",
	Cols:  "  run                      stw-pages   stw-simcyc    pre-pages    image-KB",
	Title: "checkpoint STW delta vs pre-copy passes (4 dirtiers, %[1]d-page set, decaying churn)",
	Rows: each([]int{0, 1, 2, 4, 8}, func(passes int) []Row {
		return []Row{{fmt.Sprintf("passes=%d", passes), Scale{256, 64},
			func(ops int, _ []Result) Result { return ckptRow(passes, ops) }}}
	}),
	Shape: []string{
		"shape: the naive snapshot pays the whole resident set inside the window; each",
		"pre-copy pass moves the earlier (larger) share of the copying into live",
		"execution, leaving only the still-cooling dirty tail for the stop",
	},
}, {
	ID: "A1", Work: "ablations", Cols: cols("variant"),
	Title: "shared read lock vs exclusive lock on the pregion list (4 faulting members)",
	Rows: each([]bool{false, true}, func(exclusive bool) []Row {
		c := DefaultConfig()
		c.ExclusiveVMLock = exclusive
		return []Row{{pick(exclusive, "shared read lock", "exclusive lock"), Scale{512, 64},
			annotate(func(ops int) Metrics { return FaultScaling(c, 4, per(ops, 4)) },
				func(m Metrics) string {
					return fmt.Sprintf("  lock: %d concurrent scans, %d exclusive, %d sleeps",
						m.RLocks, m.WLocks, m.LockSleeps)
				})}}
	}),
	Shape: []string{
		"shape: the shared lock admits every fault concurrently; the exclusive variant",
		"serializes all of them (every scan is an exclusive acquisition)",
	},
}, {
	ID: "A2", Work: "ablations", Cols: cols("variant"),
	Title: "deferred vs eager attribute synchronization (4 members)",
	Rows: each([]bool{false, true}, func(eager bool) []Row {
		c := DefaultConfig()
		c.EagerAttrSync = eager
		return []Row{{pick(eager, "deferred (p_flag bits)", "eager push"), Scale{300, 30},
			annotate(func(ops int) Metrics { return AttrSync(c, 4, ops) },
				func(m Metrics) string {
					return fmt.Sprintf("  updater-cyc/op=%.0f syncs=%d", m.UpdaterPerOp(), m.Syncs)
				})}}
	}),
	Shape: []string{
		"shape: eager pushing moves the whole propagation onto the updater's critical",
		"path; the deferred design leaves the updater with a near-constant cost",
	},
}}

// syscallMix is an S2 row: one mixed-syscall run, printed and recorded
// per syscall from the gateway's own accounting. The member row re-reads
// E3's plain/member getpid gap off that accounting.
func syscallMix(member bool) func(int, []Result) Result {
	variant := pick(member, "plain", "member")
	return func(ops int, prev []Result) Result {
		m, stats := SyscallMix(DefaultConfig(), member, ops)
		r := Result{Metrics: m, Text: []string{}, Recs: []Record{}}
		for _, st := range stats {
			name := st.Name + ", " + variant
			r.Text = append(r.Text, fmt.Sprintf("  %-24s %7d %12.0f", name, st.Count, st.CyclesPerCall()))
			r.Recs = append(r.Recs, Record{Name: name, SimCyclesPerOp: st.CyclesPerCall(), Ops: st.Count})
		}
		if len(prev) > 0 {
			if gp := getpidCycles(prev[0]); gp > 0 {
				r.After = []string{fmt.Sprintf(
					"  E3 re-measured from the accounting: getpid member/plain = %.2f",
					getpidCycles(r)/gp)}
			}
		}
		return r
	}
}

func getpidCycles(r Result) float64 {
	for _, rec := range r.Recs {
		if strings.HasPrefix(rec.Name, "getpid, ") {
			return rec.SimCyclesPerOp
		}
	}
	return 0
}

// linearFind is the pre-index pregion lookup: walk the whole list. It is
// kept only as S6c's measured baseline.
func linearFind(list []*vm.PRegion, va hw.VAddr) *vm.PRegion {
	for _, pr := range list {
		if pr.Contains(va) {
			return pr
		}
	}
	return nil
}

// pregionLookup is an S6c row: ops host-timed lookups over nreg regions,
// through the ordered index and through a linear scan.
func pregionLookup(nreg, ops int) Result {
	mem := hw.NewMemory(64)
	list := make([]*vm.PRegion, 0, nreg)
	for i := 0; i < nreg; i++ {
		// Two-page spacing leaves a hole after every region so misses are
		// exercised too.
		base := hw.VAddr(uint32(i) * 2 * hw.PageSize)
		list = vm.Insert(list, &vm.PRegion{Reg: vm.NewRegion(mem, vm.RData, 1), Base: base})
	}
	span := uint32(nreg) * 2 * hw.PageSize
	probe := func(find func([]*vm.PRegion, hw.VAddr) *vm.PRegion) float64 {
		va := hw.VAddr(0)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			find(list, va)
			// Coprime stride walks the whole span, hits and holes alike.
			va = hw.VAddr((uint32(va) + 9973*hw.PageSize) % span)
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	linNs := probe(linearFind)
	idxNs := probe(vm.Find)
	return Result{
		Metrics: Metrics{Ops: int64(ops)},
		HostNs:  idxNs,
		Text:    []string{fmt.Sprintf("  %-22d %11.1f %12.1f %9.1fx", nreg, linNs, idxNs, linNs/idxNs)},
		Recs: []Record{
			{Name: fmt.Sprintf("index lookup, %d regions", nreg), NsPerOp: idxNs, Ops: int64(ops)},
			{Name: fmt.Sprintf("linear lookup, %d regions", nreg), NsPerOp: linNs, Ops: int64(ops)},
		},
	}
}

// serve is an S7 row: conns connections served by members members, with
// the request→response latency distribution and the readiness counters
// behind it.
func serve(cfg kernel.Config, mode ServeMode, conns, members int) Result {
	m := Serve(cfg, mode, ServeConfig{Conns: conns, Members: members, Clients: 4})
	return Result{Metrics: m.Metrics, Rec: Record{P50Simcyc: m.P50, P99Simcyc: m.P99},
		Extra: fmt.Sprintf("  p50=%d p99=%d poll-sleeps=%d transitions=%d",
			m.P50, m.P99, m.PollSleeps, m.Transitions)}
}

// fairShare is an S8 delivery row: three groups with shares 4:2:1 and one
// burner per CPU each, over a horizon of ops simulated cycles. The fair
// row also prints per-group delivery and its aggregate against the
// share-blind row before it.
func fairShare(fair bool) func(int, []Result) Result {
	return func(ops int, prev []Result) Result {
		c := DefaultConfig()
		fm := FairShare(c, FairShareConfig{Shares: []int32{4, 2, 1}, Members: c.NCPU,
			Horizon: int64(ops), Fair: fair})
		var del []string
		for _, f := range fm.DeliveredFrac() {
			del = append(del, fmt.Sprintf("%.1f%%", 100*f))
		}
		r := Result{Metrics: fm.Metrics, Rec: Record{ShareErr: fm.MaxShareError()},
			Extra: fmt.Sprintf("  delivered=%s err=%.3f", strings.Join(del, "/"), fm.MaxShareError())}
		if !fair {
			return r
		}
		ent, frac := fm.EntitledFrac(), fm.DeliveredFrac()
		for g, u := range fm.Usage {
			r.After = append(r.After, fmt.Sprintf(
				"    group %d: shares=%d entitled=%5.1f%% delivered=%5.1f%% band=%d ops=%d",
				g, u.CPUShares, 100*ent[g], 100*frac[g], u.Band, fm.GroupOps[g]))
		}
		if len(prev) > 0 {
			blind := prev[len(prev)-1]
			r.After = append(r.After, fmt.Sprintf("  aggregate: fair=%d ops vs blind=%d ops (ratio %.3f)",
				fm.Ops, blind.Ops, float64(fm.Ops)/float64(blind.Ops)))
		}
		return r
	}
}

// ckptRow is an S10 row: one checkpoint of 4 dirtiers over a pages-page
// working set with the given pre-copy pass budget. Its simcyc/op is the
// stop-the-world cycles per copied page.
func ckptRow(passes, pages int) Result {
	info, err := CkptPrecopy(DefaultConfig(), 4, per(pages, 4), passes)
	if err != nil {
		return Result{Err: err}
	}
	name := fmt.Sprintf("passes=%d", passes)
	if info.Passes != passes {
		name = fmt.Sprintf("passes=%d (ran %d)", passes, info.Passes)
	}
	copied := int64(info.PrePages + info.STWPages)
	return Result{
		Metrics: Metrics{Ops: copied, Cycles: info.STWCycles},
		Text: []string{fmt.Sprintf("  %-22s %10d %12d %12d %11d",
			name, info.STWPages, info.STWCycles, info.PrePages, info.ImageBytes/1024)},
		Recs: []Record{{Name: name, Ops: copied, STWPages: int64(info.STWPages),
			STWSimcyc: info.STWCycles, PrePages: int64(info.PrePages),
			ImageBytes: int64(info.ImageBytes)}},
	}
}
