package main

import (
	"fmt"
	"os"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/uspin"
	"repro/internal/vm"
	"repro/internal/workload"
)

// shared-fault: a PR_SALL group runs barrier-separated rounds in which
// every member reads a resident shared set eight times the TLB's size (the
// lock-free resident fill) and writes fresh pages of a window the leader
// maps before the round and unmaps after it (zero fills, then a shootdown
// under the update lock). Reads and writes of the same VM layer side by
// side, with almost no system calls, no IPC and no creation.
func init() {
	register(&spec{
		name:   "shared-fault",
		full:   params{Members: 4, Pages: 512, Window: 32, Rounds: 32},
		tiny:   params{Members: 2, Pages: 32, Window: 4, Rounds: 3},
		config: func(params) kernel.Config { return workload.DefaultConfig() },
		attempted: func(p params) int64 {
			return int64(p.Rounds * p.Members * (p.Pages + p.Window))
		},
		leader: faultLeader,
	})
}

// Control words in the group's shared data region.
const (
	barrierVA = vm.DataBase
	setVAWord = vm.DataBase + uspin.BarrierBytes
	winVAWord = setVAWord + 4
)

// faultPlan is one trial's generated inputs: the value stored in each
// resident page (at a seeded word), and each member's seeded start page
// and odd stride for every round. An odd stride over a power-of-two set
// visits every page exactly once, so each member's checksum per round is
// the sum of all the values.
type faultPlan struct {
	word   []uint32 // per page: word offset of its value
	value  []uint32 // per page: the stored value
	start  [][]int  // [round][member]
	stride [][]int  // [round][member]
	sum    uint32
}

func newFaultPlan(t *trial) *faultPlan {
	P := t.p
	rounds := P.Rounds + 1 // plus the warm-up round
	fp := &faultPlan{word: make([]uint32, P.Pages), value: make([]uint32, P.Pages)}
	for pg := range fp.word {
		fp.word[pg] = uint32(t.rng.IntN(hw.PageSize / 4))
		fp.value[pg] = t.rng.Uint32()
		fp.sum += fp.value[pg]
	}
	for r := 0; r < rounds; r++ {
		st, sd := make([]int, P.Members), make([]int, P.Members)
		for m := range st {
			st[m] = t.rng.IntN(P.Pages)
			sd[m] = 2*t.rng.IntN(P.Pages/2) + 1
		}
		fp.start = append(fp.start, st)
		fp.stride = append(fp.stride, sd)
	}
	return fp
}

// faultRound is member id's share of round r: read every resident page
// once along its stride, then write its slice of the fresh window. It
// reports whether the checksum matched.
func faultRound(t *trial, p *probe, fp *faultPlan, id, r int, set, win hw.VAddr) (bool, error) {
	P := t.p
	req := int64(r + 1)
	var sum uint32
	pg := fp.start[r][id]
	for i := 0; i < P.Pages; i++ {
		v, err := p.Load(set+hw.VAddr(pg*hw.PageSize)+hw.VAddr(4*fp.word[pg]), req)
		if err != nil {
			return false, err
		}
		sum += v
		pg = (pg + fp.stride[r][id]) % P.Pages
	}
	for k := 0; k < P.Window; k++ {
		va := win + hw.VAddr((id*P.Window+k)*hw.PageSize) + hw.VAddr(4*(k%(hw.PageSize/4)))
		if err := p.StoreFresh(va, uint32(r), req); err != nil {
			return false, err
		}
	}
	return sum == fp.sum, nil
}

// faultMember runs every round of one non-leader member.
func faultMember(t *trial, c *kernel.Context, fp *faultPlan, id int) {
	p := t.probe(c)
	bar := uspin.Barrier{VA: barrierVA, N: uint32(t.p.Members)}
	perRound := int64(t.p.Pages + t.p.Window)
	for r := 0; r <= t.p.Rounds; r++ {
		if err := p.Barrier(bar, int64(r+1)); err != nil {
			t.fail("shared_fault.member", perRound*int64(t.p.Rounds+1-r))
			return
		}
		set, _ := p.Load(setVAWord, int64(r+1))
		win, _ := p.Load(winVAWord, int64(r+1))
		ok, err := faultRound(t, p, fp, id, r, hw.VAddr(set), hw.VAddr(win))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: shared-fault member %d: %v\n", id, err)
		}
		credit(t, r, ok && err == nil, perRound)
		if err := p.Barrier(bar, int64(r+1)); err != nil {
			t.fail("shared_fault.member", perRound*int64(t.p.Rounds-r))
			return
		}
	}
}

// credit books one member's round; round 0 is the unmeasured warm-up.
func credit(t *trial, r int, ok bool, n int64) {
	switch {
	case r == 0:
	case ok:
		t.done(n)
	default:
		t.fail("shared_fault.checksum", n)
	}
}

func faultLeader(t *trial, c *kernel.Context) {
	p := t.probe(c)
	P := t.p
	fp := newFaultPlan(t)
	lat := t.latShard()
	setupErr := func(err error) {
		t.fail("shared_fault.setup", 0)
		fmt.Fprintf(os.Stderr, "perfbench: shared-fault set-up: %v\n", err)
	}
	// Each member exits right after the last barrier releases, posting
	// SIGCLD to the leader. The kernel lets that default-ignored signal
	// break a blockproc(2) sleep, and the barrier then returns EINTR
	// although it has released (README, Known defects). Holding SIGCLD
	// keeps the leader's last barrier whole; wait(2) reaps without it.
	p.Sigmask(1 << proc.SIGCLD)
	bar := uspin.Barrier{VA: barrierVA, N: uint32(P.Members)}
	if err := bar.Init(c); err != nil {
		setupErr(err)
		return
	}
	for id := 1; id < P.Members; id++ {
		if _, err := p.Sproc("member", func(mc *kernel.Context, id int64) {
			faultMember(t, mc, fp, int(id))
		}, proc.PRSALL, int64(id)); err != nil {
			setupErr(err)
			return
		}
	}
	// The resident set is mapped once the group exists, so it lands on the
	// shared pregion list, and is filled with the plan's values.
	set, err := p.Mmap(P.Pages, 0)
	if err != nil {
		setupErr(err)
		return
	}
	for pg := 0; pg < P.Pages; pg++ {
		p.Store(set+hw.VAddr(pg*hw.PageSize)+hw.VAddr(4*fp.word[pg]), fp.value[pg], 0)
	}
	p.Store(setVAWord, uint32(set), 0)

	perRound := int64(P.Pages + P.Window)
	var frames int
	for r := 0; r <= P.Rounds; r++ {
		if r == 1 {
			// Round 0 warmed the TLBs, the members' first touches and the
			// frame caches; measure from here.
			frames = t.sys.Stats().FramesInUse
			t.begin(c)
		}
		req := int64(r + 1)
		m := p.mark()
		t0 := t.clock()
		win, err := p.Mmap(P.Members*P.Window, req)
		if err != nil {
			setupErr(err)
			return
		}
		p.Store(winVAWord, uint32(win), req)
		if err := p.Barrier(bar, req); err != nil {
			setupErr(err)
			return
		}
		ok, err := faultRound(t, p, fp, 0, r, set, win)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: shared-fault leader: %v\n", err)
		}
		credit(t, r, ok && err == nil, perRound)
		if err := p.Barrier(bar, req); err != nil {
			setupErr(err)
			return
		}
		if err := p.Munmap(win, req); err != nil {
			setupErr(err)
			return
		}
		if r == 0 {
			continue
		}
		*lat = append(*lat, t.clock()-t0)
		p.span(cRequest, req, m)
		// Unmapping the window returns every frame its zero fills took.
		if got := t.sys.Stats().FramesInUse; got != frames {
			t.revoke("shared_fault.frames_in_use", perRound*int64(P.Members))
			fmt.Fprintf(os.Stderr, "perfbench: shared-fault round %d: %d frames in use, want %d\n", r, got, frames)
		}
	}
	t.end(c)
	for id := 1; id < P.Members; id++ {
		p.Wait()
	}
}
