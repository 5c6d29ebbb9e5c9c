package workload

import (
	"fmt"
	"sync/atomic"

	"repro/internal/kernel"
	"repro/internal/proc"
	"repro/internal/uspin"
)

// PoolMode selects a parallel-execution organization for E7.
type PoolMode string

const (
	// PoolSproc is the paper's model: a preallocated share-group pool
	// self-scheduling from a shared-memory work cursor.
	PoolSproc PoolMode = "sproc-pool"
	// PoolForkPerTask creates and destroys a process per work item — the
	// dynamic-creation cost the paper says pools exist to avoid.
	PoolForkPerTask PoolMode = "fork-per-task"
	// PoolPipeWorkers feeds preallocated forked workers through a pipe —
	// the queueing model.
	PoolPipeWorkers PoolMode = "pipe-workers"
)

// Pool runs items work items of grain simulated memory operations each,
// organized per mode with the given worker count, and reports wall time
// and cycles per item (E7). The work itself is identical across modes:
// grain stores into the worker's private scratch page.
func Pool(cfg kernel.Config, mode PoolMode, workers, items, grain int) Metrics {
	return runMeasured(cfg, int64(items), func(c *kernel.Context, s *session) {
		switch mode {
		case PoolSproc:
			poolSproc(c, s, workers, items, grain)
		case PoolForkPerTask:
			poolFork(c, s, workers, items, grain)
		case PoolPipeWorkers:
			poolPipe(c, s, workers, items, grain)
		default:
			panic(fmt.Sprintf("workload: unknown pool mode %q", mode))
		}
	})
}

// doWork performs one item's computation: grain stores/loads against the
// process's own stack page (always mapped, so pure memory cost).
func doWork(c *kernel.Context, grain int) {
	va := c.StackBase() + 128
	for i := 0; i < grain; i++ {
		c.Store32(va, uint32(i))
	}
}

func poolSproc(c *kernel.Context, s *session, workers, items, grain int) {
	cursor := uspin.Counter{VA: dataBase}
	gate := uspin.Barrier{VA: dataBase + 16, N: uint32(workers) + 1}
	gate.Init(c)
	c.Store32(dataBase, 0)
	for w := 0; w < workers; w++ {
		c.Sproc("worker", func(cc *kernel.Context, _ int64) {
			gate.Enter(cc)
			for {
				n, err := cursor.Next(cc)
				if err != nil || n > uint32(items) {
					return
				}
				doWork(cc, grain)
			}
		}, proc.PRSALL, int64(w))
	}
	s.start()
	gate.Enter(c)
	for w := 0; w < workers; w++ {
		c.Wait()
	}
	s.stop()
}

func poolFork(c *kernel.Context, s *session, workers, items, grain int) {
	s.start()
	outstanding := 0
	for i := 0; i < items; i++ {
		if outstanding == workers {
			c.Wait()
			outstanding--
		}
		if _, err := c.Fork("task", func(cc *kernel.Context) {
			doWork(cc, grain)
		}); err != nil {
			panic(err)
		}
		outstanding++
	}
	for ; outstanding > 0; outstanding-- {
		c.Wait()
	}
	s.stop()
}

func poolPipe(c *kernel.Context, s *session, workers, items, grain int) {
	taskR, taskW, err := c.Pipe()
	if err != nil {
		panic(err)
	}
	doneR, doneW, err := c.Pipe()
	if err != nil {
		panic(err)
	}
	for w := 0; w < workers; w++ {
		c.Fork("worker", func(cc *kernel.Context) {
			// Close the ends this worker does not use, so the parent's
			// close of the task pipe produces EOF here.
			cc.Close(taskW)
			cc.Close(doneR)
			buf := cc.StackBase()
			for {
				n, err := cc.Read(taskR, buf, 1)
				if err != nil || n == 0 {
					return
				}
				doWork(cc, grain)
				cc.Write(doneW, buf, 1)
			}
		})
	}
	c.Store32(dataBase+256, 0x55)
	s.start()
	sent, done := 0, 0
	// Keep the pipe primed without overrunning its buffer.
	for done < items {
		for sent < items && sent-done < workers*2 {
			if _, err := c.Write(taskW, dataBase+256, 1); err != nil {
				panic(err)
			}
			sent++
		}
		if _, err := c.Read(doneR, dataBase+260, 1); err != nil {
			panic(err)
		}
		done++
	}
	s.stop()
	c.Close(taskW)
	c.Close(taskR)
	for w := 0; w < workers; w++ {
		c.Wait()
	}
}

// GangBarrier measures E10, the paper's §8 scheduling extension: one share
// group of `members` processes alternates grain units of computation with
// spin-barrier rounds while `load` independent compute processes contend
// for the same CPUs. Without gang scheduling the dispatcher rotates
// members out to run load, so every round stalls on a descheduled member
// and members need many re-dispatches; with gang scheduling (affinity in
// the pick plus stickiness at the preemption point) the group converges to
// co-residency and completes with a handful of dispatches. The group's
// member-dispatch count is the deterministic metric; wall time is noisy on
// an oversubscribed host.
func GangBarrier(cfg kernel.Config, gang bool, members, load, rounds, grain int) Metrics {
	total := int64(rounds)
	s := newSession(cfg)

	var stopLoad atomic.Bool
	loadDone := make(chan struct{}, load)
	for i := 0; i < load; i++ {
		s.Sys.Start("load", func(c *kernel.Context) {
			defer func() { loadDone <- struct{}{} }()
			for !stopLoad.Load() {
				// Plain compute: burns its slice and gets preempted.
				for k := 0; k < 512; k++ {
					c.Store32(dataBase, uint32(k))
				}
			}
		})
	}

	done := make(chan struct{})
	var memberDispatches int64
	s.start()
	s.Sys.Start("group-leader", func(c *kernel.Context) {
		if gang {
			// The §8 extension is requested per group via prctl.
			c.Sproc("primer", func(*kernel.Context, int64) {}, proc.PRSALL, 0)
			c.Wait()
			c.SetGang(true)
		}
		bar := uspin.Barrier{VA: dataBase, N: uint32(members)}
		bar.Init(c)
		group := []*proc.Proc{c.P}
		for m := 1; m < members; m++ {
			pid, err := c.Sproc("member", func(cc *kernel.Context, _ int64) {
				for r := 0; r < rounds; r++ {
					doWork(cc, grain)
					if err := bar.Enter(cc); err != nil {
						return
					}
				}
			}, proc.PRSALL, int64(m))
			if err != nil {
				panic(err)
			}
			if mp, ok := s.Sys.Lookup(pid); ok {
				group = append(group, mp)
			}
		}
		for r := 0; r < rounds; r++ {
			doWork(c, grain)
			if err := bar.Enter(c); err != nil {
				return
			}
		}
		// The measured section ends when the barrier phase completes;
		// the exit bookkeeping below is not part of the experiment.
		for _, mp := range group {
			memberDispatches += mp.Dispatched.Load()
		}
		close(done)
		for m := 1; m < members; m++ {
			c.Wait()
		}
	})
	<-done
	s.stop()
	stopLoad.Store(true)
	for i := 0; i < load; i++ {
		<-loadDone
	}
	s.Sys.WaitIdle()
	m := s.metrics(total)
	m.Dispatches = memberDispatches
	return m
}
