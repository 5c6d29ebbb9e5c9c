package main

import (
	"fmt"
	"os"

	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/workload"
)

// serve-poll: a small PR_SADDR|PR_SFDS group multiplexes many persistent
// connections through poll(2) and echoes each request. It drives the
// gateway, the readiness layer and sleep-wake, and bypasses process
// creation and the fault path (buffers stay TLB-resident, nothing is
// created while measuring).
func init() {
	register(&spec{
		name: "serve-poll",
		full: params{Clients: 2, Conns: 512, Rounds: 16, Members: 4},
		tiny: params{Clients: 2, Conns: 16, Rounds: 2, Members: 2},
		config: func(p params) kernel.Config {
			cfg := workload.DefaultConfig()
			cfg.MaxFiles = p.Conns + 4*p.Members + 64
			return cfg
		},
		attempted: func(p params) int64 { return int64(p.Conns * p.Rounds) },
		leader:    serveLeader,
	})
}

// shutdownJob is written into a member's job pipe after its last
// descriptor: drain the remaining connections and exit.
const shutdownJob = ^uint32(0)

func serveLeader(t *trial, c *kernel.Context) {
	p := t.probe(c)
	P := t.p
	in := newInputs(t.rng, P.Conns*P.Rounds)
	// Connection→member dealing: a seeded shuffle of a balanced assignment.
	owner := t.rng.Perm(P.Conns)
	for i := range owner {
		owner[i] %= P.Members
	}
	setupErr := func(err error) {
		t.fail("serve.setup", 0)
		fmt.Fprintf(os.Stderr, "perfbench: serve-poll set-up: %v\n", err)
	}

	lfd, err := p.Listen("serve")
	if err != nil {
		setupErr(err)
		return
	}
	goR, goW, err := p.Pipe()
	if err != nil {
		setupErr(err)
		return
	}
	jobR := make([]int, P.Members)
	jobW := make([]int, P.Members)
	for w := range jobR {
		if jobR[w], jobW[w], err = p.Pipe(); err != nil {
			setupErr(err)
			return
		}
		// Members batch-drain their job pipes, so the read ends are
		// non-blocking; the flag travels with the shared table.
		if err := p.SetNonblock(jobR[w]); err != nil {
			setupErr(err)
			return
		}
	}
	for w := 0; w < P.Members; w++ {
		if _, err := p.Sproc("echo", func(wc *kernel.Context, id int64) {
			pollMember(t, wc, jobR[id])
		}, proc.PRSADDR|proc.PRSFDS, int64(w)); err != nil {
			setupErr(err)
			return
		}
	}
	clients := map[int]bool{}
	for k := 0; k < P.Clients; k++ {
		var conns []int
		for i := k; i < P.Conns; i += P.Clients {
			conns = append(conns, i)
		}
		pid, err := p.Fork("client", func(cc *kernel.Context) { serveClient(t, cc, in, goR, conns) })
		if err != nil {
			setupErr(err)
			return
		}
		clients[pid] = true
	}
	for i := 0; i < P.Conns; i++ {
		fd, err := p.Accept(lfd)
		if err != nil {
			setupErr(err)
			return
		}
		p.Store(tokenVA, uint32(fd), 0)
		if _, err := p.Write(jobW[owner[i]], tokenVA, 4, 0); err != nil {
			setupErr(err)
			return
		}
	}

	t.begin(c)
	if err := releaseClients(p, goW, P.Clients); err != nil {
		setupErr(err)
		return
	}
	for len(clients) > 0 {
		pid, err := p.Wait()
		if err != nil {
			t.fail("serve.wait", 0)
			return
		}
		delete(clients, pid)
	}
	t.end(c)

	for w := range jobW {
		p.Store(tokenVA, shutdownJob, 0)
		p.Write(jobW[w], tokenVA, 4, 0)
	}
	for w := 0; w < P.Members; w++ {
		p.Wait()
	}
}

// serveClient holds its connections open and keeps exactly one request
// outstanding on each (closed loop) until every connection has carried
// t.p.Rounds requests.
func serveClient(t *trial, c *kernel.Context, in *inputs, goR int, conns []int) {
	p := t.probe(c)
	lat := t.latShard()
	rounds := t.p.Rounds
	msgBuf, got := make([]byte, maxMsg), make([]byte, maxMsg)
	var finished int64
	lost := func(check string, err error) {
		t.fail(check, int64(len(conns)*rounds)-finished)
		fmt.Fprintf(os.Stderr, "perfbench: serve-poll client: %v\n", err)
	}

	type conn struct {
		idx, sent int
		t0        int64
		m         mark
	}
	byFd := map[int]*conn{}
	set := make([]kernel.PollFd, 0, len(conns))
	for _, idx := range conns {
		fd, err := p.Connect("serve", 0)
		if err != nil {
			lost("serve.connect", err)
			return
		}
		byFd[fd] = &conn{idx: idx}
		set = append(set, kernel.PollFd{Fd: fd, Events: kernel.PollIn})
	}
	if err := startToken(p, goR); err != nil {
		lost("serve.start", err)
		return
	}
	id := func(cn *conn) int64 { return int64(cn.idx*rounds + cn.sent) }
	send := func(fd int, cn *conn) error {
		cn.sent++
		cn.m = p.mark()
		cn.t0 = t.clock()
		return in.send(p, msgBuf, fd, id(cn))
	}
	for _, pf := range set {
		if err := send(pf.Fd, byFd[pf.Fd]); err != nil {
			lost("serve.send", err)
			return
		}
	}
	for len(set) > 0 {
		if _, err := p.Poll(set); err != nil {
			lost("serve.poll", err)
			return
		}
		live := set[:0]
		for _, pf := range set {
			cn := byFd[pf.Fd]
			if pf.Revents == 0 {
				live = append(live, kernel.PollFd{Fd: pf.Fd, Events: kernel.PollIn})
				continue
			}
			rid := id(cn)
			ok, err := in.receive(p, msgBuf, got, pf.Fd, rid)
			if err != nil {
				lost("serve.receive", err)
				return
			}
			*lat = append(*lat, t.clock()-cn.t0)
			p.span(cRequest, rid, cn.m)
			finished++
			if ok {
				t.done(1)
			} else {
				t.fail("serve.echo_mismatch", 1)
			}
			if cn.sent < rounds {
				if err := send(pf.Fd, cn); err != nil {
					lost("serve.send", err)
					return
				}
				live = append(live, kernel.PollFd{Fd: pf.Fd, Events: kernel.PollIn})
				continue
			}
			p.Close(pf.Fd, rid)
		}
		set = live
	}
}

// pollMember is one serving member: poll the job pipe plus every owned
// connection, echo each readable connection's request, adopt new
// descriptors from the job pipe, and drop connections whose client hung up.
func pollMember(t *trial, c *kernel.Context, jobR int) {
	p := t.probe(c)
	va := c.StackBase()
	set := []kernel.PollFd{{Fd: jobR, Events: kernel.PollIn}}
	draining := false
	for {
		if draining && len(set) == 1 {
			p.Close(jobR, 0)
			return
		}
		if _, err := p.Poll(set); err != nil {
			t.fail("serve.member_poll", 0)
			return
		}
		live := set[:1] // slot 0 is always the job pipe
		for _, pf := range set[1:] {
			if pf.Revents == 0 {
				live = append(live, kernel.PollFd{Fd: pf.Fd, Events: kernel.PollIn})
				continue
			}
			if id, ok := echoOne(p, pf.Fd, va); ok {
				live = append(live, kernel.PollFd{Fd: pf.Fd, Events: kernel.PollIn})
			} else {
				p.Close(pf.Fd, id)
			}
		}
		set = live
		if set[0].Revents != 0 && !draining {
			for {
				n, err := p.Read(jobR, va+hdrBytes+maxMsg, 4, 0)
				if err != nil || n != 4 {
					break // EAGAIN: batch drained
				}
				v, _ := p.Load(va+hdrBytes+maxMsg, 0)
				if v == shutdownJob {
					draining = true
					break
				}
				set = append(set, kernel.PollFd{Fd: int(v), Events: kernel.PollIn})
			}
		}
		set[0] = kernel.PollFd{Fd: jobR, Events: kernel.PollIn}
	}
}
