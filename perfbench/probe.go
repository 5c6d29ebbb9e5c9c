package main

import (
	"sync"
	"time"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/uspin"
)

// callID names a traced boundary: a Context call into one layer, or the
// request (round) that parents them.
type callID uint8

const (
	cPoll callID = iota
	cListen
	cPipe
	cFcntl
	cRead
	cWrite
	cAccept
	cConnect
	cClose
	cSproc
	cFork
	cWait
	cMmap
	cMunmap
	cLoad
	cStore
	cStoreFresh
	cCopy
	cBarrier
	cSigmask
	cRequest
	nCalls
)

var callNames = [nCalls]string{
	"poll", "listen", "pipe", "fcntl", "read", "write", "accept", "connect", "close",
	"sproc", "fork", "wait", "mmap", "munmap", "load", "store", "store_fresh", "copy",
	"barrier", "sigmask", "request",
}

// callLayer is the layer each call's spans count toward for self time:
// system calls to the kernel gateway, creation and reaping to proc, user
// memory accesses to vm, barriers to uspin. Requests are the benchmark's
// own parent spans.
var callLayer = [nCalls]string{
	"kernel", "kernel", "kernel", "kernel", "kernel", "kernel", "kernel", "kernel", "kernel",
	"proc", "proc", "proc", "kernel", "kernel", "vm", "vm", "vm", "vm",
	"uspin", "kernel", "perfbench",
}

// span is one traced interval: host ns since the run's epoch and the
// simulated cycles the caller spent inside it, c1-c0. req is the request
// (or round) the span belongs to, 0 for none.
type span struct {
	req    int64
	t0, t1 int64
	c0, c1 int64
	call   callID
}

// recorder holds a traced trial's spans in per-process shards, so the
// simulated processes record without sharing a lock.
type recorder struct {
	epoch  time.Time
	mu     sync.Mutex
	shards []*shard
}

type shard struct{ spans []span }

func (r *recorder) shard() *shard {
	s := &shard{}
	r.mu.Lock()
	r.shards = append(r.shards, s)
	r.mu.Unlock()
	return s
}

// probe is a process's view of the kernel for the workload code: every
// Context call the workloads make goes through it, and when the trial is
// traced each one leaves a span (those outside the measured section are
// dropped when the trial is folded). Untraced, a probe call is the Context call
// plus one nil test.
type probe struct {
	c  *kernel.Context
	t  *trial
	sh *shard
}

// mark is the start of an open span: host time, the caller's own cycle
// count, and the CPU it runs on with that CPU's cycle counter and the
// caller's dispatch count.
type mark struct {
	t, pc, cc, disp int64
	cpu             int32
}

func (p *probe) mark() mark {
	if p.sh == nil {
		return mark{}
	}
	m := mark{t: time.Since(p.t.rec.epoch).Nanoseconds(), pc: p.c.P.Cycles.Load(), disp: p.c.P.Dispatched.Load()}
	if m.cpu = p.c.P.CPU.Load(); m.cpu >= 0 {
		m.cc = p.t.sys.Machine.CPUs[m.cpu].Cycles.Load()
	}
	return m
}

// span closes m. A span's simulated cost is the delta of the caller's CPU
// cycle counter when the caller held that CPU throughout (it then includes
// fault, fill and TLB charges, which go to the CPU only); when the caller
// was preempted, slept or migrated inside the span, it falls back to the
// delta of the caller's own cycle count.
func (p *probe) span(call callID, req int64, m mark) {
	if p.sh == nil {
		return
	}
	s := span{req: req, call: call, t0: m.t, t1: time.Since(p.t.rec.epoch).Nanoseconds()}
	if cpu := p.c.P.CPU.Load(); cpu >= 0 && cpu == m.cpu && p.c.P.Dispatched.Load() == m.disp {
		s.c0, s.c1 = m.cc, p.t.sys.Machine.CPUs[cpu].Cycles.Load()
	} else {
		s.c0, s.c1 = m.pc, p.c.P.Cycles.Load()
	}
	p.sh.spans = append(p.sh.spans, s)
}

func (p *probe) Poll(set []kernel.PollFd) (int, error) {
	m := p.mark()
	n, err := p.c.Poll(set, -1)
	if p.sh != nil {
		p.span(cPoll, 0, m)
		p.t.polls.Add(1)
		if n > 0 {
			p.t.pollReady.Add(1)
			p.t.readySum.Add(int64(n))
		}
	}
	return n, err
}

func (p *probe) Read(fd int, va hw.VAddr, n int, req int64) (int, error) {
	m := p.mark()
	got, err := p.c.Read(fd, va, n)
	p.span(cRead, req, m)
	return got, err
}

func (p *probe) Write(fd int, va hw.VAddr, n int, req int64) (int, error) {
	m := p.mark()
	got, err := p.c.Write(fd, va, n)
	p.span(cWrite, req, m)
	return got, err
}

func (p *probe) Accept(lfd int) (int, error) {
	m := p.mark()
	fd, err := p.c.NetAccept(lfd)
	p.span(cAccept, 0, m)
	return fd, err
}

func (p *probe) Connect(name string, req int64) (int, error) {
	m := p.mark()
	fd, err := p.c.NetConnect(name)
	p.span(cConnect, req, m)
	return fd, err
}

func (p *probe) Close(fd int, req int64) error {
	m := p.mark()
	err := p.c.Close(fd)
	p.span(cClose, req, m)
	return err
}

func (p *probe) Sproc(name string, entry func(*kernel.Context, int64), mask proc.Mask, arg int64) (int, error) {
	m := p.mark()
	pid, err := p.c.Sproc(name, entry, mask, arg)
	p.span(cSproc, 0, m)
	return pid, err
}

func (p *probe) Fork(name string, main kernel.Main) (int, error) {
	m := p.mark()
	pid, err := p.c.Fork(name, main)
	p.span(cFork, 0, m)
	return pid, err
}

func (p *probe) Wait() (int, error) {
	m := p.mark()
	pid, _, err := p.c.Wait()
	p.span(cWait, 0, m)
	return pid, err
}

func (p *probe) Mmap(pages int, req int64) (hw.VAddr, error) {
	m := p.mark()
	va, err := p.c.Mmap(pages)
	p.span(cMmap, req, m)
	return va, err
}

func (p *probe) Munmap(va hw.VAddr, req int64) error {
	m := p.mark()
	err := p.c.Munmap(va)
	p.span(cMunmap, req, m)
	return err
}

func (p *probe) Load(va hw.VAddr, req int64) (uint32, error) {
	m := p.mark()
	v, err := p.c.Load32(va)
	p.span(cLoad, req, m)
	return v, err
}

func (p *probe) Store(va hw.VAddr, v uint32, req int64) error {
	m := p.mark()
	err := p.c.Store32(va, v)
	p.span(cStore, req, m)
	return err
}

// StoreFresh is a store the workload knows lands on a page nobody has
// touched yet: the demand-zero fill path.
func (p *probe) StoreFresh(va hw.VAddr, v uint32, req int64) error {
	m := p.mark()
	err := p.c.Store32(va, v)
	p.span(cStoreFresh, req, m)
	return err
}

// StoreBytes and LoadBytes copy a request buffer to or from user memory.
func (p *probe) StoreBytes(va hw.VAddr, b []byte, req int64) error {
	m := p.mark()
	err := p.c.StoreBytes(va, b)
	p.span(cCopy, req, m)
	return err
}

func (p *probe) LoadBytes(va hw.VAddr, b []byte, req int64) error {
	m := p.mark()
	err := p.c.LoadBytes(va, b)
	p.span(cCopy, req, m)
	return err
}

func (p *probe) Listen(name string) (int, error) {
	m := p.mark()
	fd, err := p.c.NetListen(name)
	p.span(cListen, 0, m)
	return fd, err
}

func (p *probe) Pipe() (int, int, error) {
	m := p.mark()
	r, w, err := p.c.Pipe()
	p.span(cPipe, 0, m)
	return r, w, err
}

func (p *probe) SetNonblock(fd int) error {
	m := p.mark()
	err := p.c.SetNonblock(fd, true)
	p.span(cFcntl, 0, m)
	return err
}

func (p *probe) Sigmask(mask uint32) uint32 {
	m := p.mark()
	old := p.c.Sigmask(mask)
	p.span(cSigmask, 0, m)
	return old
}

func (p *probe) Barrier(b uspin.Barrier, req int64) error {
	m := p.mark()
	err := b.Enter(p.c)
	p.span(cBarrier, req, m)
	return err
}
