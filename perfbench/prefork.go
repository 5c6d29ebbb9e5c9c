package main

import (
	"fmt"
	"os"

	"repro/internal/hw"
	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/vm"
	"repro/internal/workload"
)

// prefork-churn: the same echo requests as serve-poll, one connection per
// request, answered by a pool of short-lived PR_SFDS sproc workers over a
// dirtied image. The difference from serve-poll isolates process creation:
// sproc and exit/wait, lazy image duplication, spawn frame reservations,
// the group's update lock (COWImage/CarveStack), and accept/close.
func init() {
	register(&spec{
		name: "prefork-churn",
		full: params{Clients: 2, Requests: 2048, InFlight: 16, Members: 4, Lifespan: 8, Pages: 64},
		tiny: params{Clients: 2, Requests: 48, InFlight: 4, Members: 2, Lifespan: 4, Pages: 8},
		config: func(p params) kernel.Config {
			cfg := workload.DefaultConfig()
			// Batched spawn reservations are part of what the churn measures.
			cfg.SpawnReserve = 8
			cfg.MaxFiles = 2*p.Clients*p.InFlight + 64
			return cfg
		},
		attempted: func(p params) int64 { return int64(p.Requests) },
		leader:    preforkMaster,
	})
}

func preforkMaster(t *trial, c *kernel.Context) {
	p := t.probe(c)
	P := t.p
	in := newInputs(t.rng, P.Requests)
	setupErr := func(err error) {
		t.fail("prefork.setup", 0)
		fmt.Fprintf(os.Stderr, "perfbench: prefork-churn set-up: %v\n", err)
	}
	// Dirty the master's data image so every worker clones a resident
	// region set: the cost lazy duplication defers.
	for i := 0; i < P.Pages; i++ {
		p.Store(vm.DataBase+hw.VAddr(i*hw.PageSize), t.rng.Uint32(), 0)
	}
	lfd, err := p.Listen("prefork")
	if err != nil {
		setupErr(err)
		return
	}
	goR, goW, err := p.Pipe()
	if err != nil {
		setupErr(err)
		return
	}
	// Worker generations each serve exactly Lifespan accepts (the last the
	// remainder), so the quotas sum to the request count.
	gens := (P.Requests + P.Lifespan - 1) / P.Lifespan
	quota := make([]int, gens)
	for g, left := 0, P.Requests; g < gens; g++ {
		quota[g] = min(P.Lifespan, left)
		left -= quota[g]
	}
	spawn := func(g int) error {
		_, err := p.Sproc("worker", func(wc *kernel.Context, id int64) {
			preforkWorker(t, wc, lfd, quota[id])
		}, proc.PRSFDS, int64(g))
		return err
	}
	next := 0
	for ; next < P.Members && next < gens; next++ {
		if err := spawn(next); err != nil {
			setupErr(err)
			return
		}
	}
	clients := map[int]bool{}
	for k := 0; k < P.Clients; k++ {
		var ids []int64
		for id := k + 1; id <= P.Requests; id += P.Clients {
			ids = append(ids, int64(id))
		}
		pid, err := p.Fork("client", func(cc *kernel.Context) { preforkClient(t, cc, in, goR, ids) })
		if err != nil {
			setupErr(err)
			return
		}
		clients[pid] = true
	}

	t.begin(c)
	if err := releaseClients(p, goW, P.Clients); err != nil {
		setupErr(err)
		return
	}
	// Reap loop: every exit is one wait; a reaped worker's slot is refilled
	// until the generations run out. The measured section ends with the
	// last client; the pool then drains.
	for reaped := 0; reaped < gens+P.Clients; reaped++ {
		pid, err := p.Wait()
		if err != nil {
			t.fail("prefork.wait", 0)
			return
		}
		if clients[pid] {
			delete(clients, pid)
			if len(clients) == 0 {
				t.end(c)
			}
			continue
		}
		if next < gens {
			if err := spawn(next); err != nil {
				t.fail("prefork.respawn", 0)
				fmt.Fprintf(os.Stderr, "perfbench: prefork-churn respawn: %v\n", err)
				return
			}
			next++
		}
	}
	p.Close(lfd, 0)

	// The pool has drained: every lazy clone was materialized or dropped,
	// and every spawn reservation went back to the group account.
	st := t.sys.Stats()
	if st.LazyDups != st.LazyBreaks+st.LazyDrops {
		t.revoke("prefork.lazy_conservation", int64(P.Requests))
		fmt.Fprintf(os.Stderr, "perfbench: lazy dups %d != breaks %d + drops %d\n", st.LazyDups, st.LazyBreaks, st.LazyDrops)
	}
	if st.ResvReserved+st.ResvRefunds != st.ResvConsumed+st.ResvReleased {
		t.revoke("prefork.resv_conservation", int64(P.Requests))
		fmt.Fprintf(os.Stderr, "perfbench: reserved %d + refunds %d != consumed %d + released %d\n",
			st.ResvReserved, st.ResvRefunds, st.ResvConsumed, st.ResvReleased)
	}
}

// preforkWorker accepts and echoes quota requests on the inherited
// listener, then exits.
func preforkWorker(t *trial, c *kernel.Context, lfd, quota int) {
	p := t.probe(c)
	va := c.StackBase()
	for k := 0; k < quota; k++ {
		fd, err := p.Accept(lfd)
		if err != nil {
			t.fail("prefork.accept", 0)
			return
		}
		id, _ := echoOne(p, fd, va)
		p.Close(fd, id)
	}
}

// preforkClient keeps t.p.InFlight requests outstanding, each on its own
// connection: connect, write, await the echo, close.
func preforkClient(t *trial, c *kernel.Context, in *inputs, goR int, ids []int64) {
	p := t.probe(c)
	lat := t.latShard()
	msgBuf, got := make([]byte, maxMsg), make([]byte, maxMsg)
	var finished int64
	lost := func(check string, err error) {
		t.fail(check, int64(len(ids))-finished)
		fmt.Fprintf(os.Stderr, "perfbench: prefork-churn client: %v\n", err)
	}
	type req struct {
		id int64
		t0 int64
		m  mark
	}
	byFd := map[int]req{}
	set := make([]kernel.PollFd, 0, t.p.InFlight)
	spare := make([]kernel.PollFd, 0, t.p.InFlight)
	open := func(id int64) error {
		r := req{id: id, m: p.mark(), t0: t.clock()}
		fd, err := p.Connect("prefork", id)
		if err != nil {
			return err
		}
		byFd[fd] = r
		set = append(set, kernel.PollFd{Fd: fd, Events: kernel.PollIn})
		return in.send(p, msgBuf, fd, id)
	}

	if err := startToken(p, goR); err != nil {
		lost("prefork.start", err)
		return
	}
	next := 0
	for ; next < len(ids) && next < t.p.InFlight; next++ {
		if err := open(ids[next]); err != nil {
			lost("prefork.send", err)
			return
		}
	}
	for len(set) > 0 {
		if _, err := p.Poll(set); err != nil {
			lost("prefork.poll", err)
			return
		}
		ready := set
		set, spare = spare[:0], ready
		for _, pf := range ready {
			if pf.Revents == 0 {
				set = append(set, kernel.PollFd{Fd: pf.Fd, Events: kernel.PollIn})
				continue
			}
			r := byFd[pf.Fd]
			delete(byFd, pf.Fd)
			ok, err := in.receive(p, msgBuf, got, pf.Fd, r.id)
			if err != nil {
				lost("prefork.receive", err)
				return
			}
			*lat = append(*lat, t.clock()-r.t0)
			p.Close(pf.Fd, r.id)
			p.span(cRequest, r.id, r.m)
			finished++
			if ok {
				t.done(1)
			} else {
				t.fail("prefork.echo_mismatch", 1)
			}
			if next < len(ids) {
				if err := open(ids[next]); err != nil {
					lost("prefork.send", err)
					return
				}
				next++
			}
		}
	}
}
