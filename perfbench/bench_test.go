package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/kernel"
	"repro/internal/workload"
)

// manifest is the part of BENCHMARK.json the self-test checks against.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return m
}

// TestWorkloadsTiny runs every workload BENCHMARK.json lists at
// smoke-test size, untraced and traced, and checks that the output checks
// pass and that every metric BENCHMARK.json names is emitted, finite, with
// its unit.
func TestWorkloadsTiny(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range m.Workloads {
		name := w.Name
		if workloads[name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is not registered", name)
		}
		for _, trace := range []bool{false, true} {
			want := m.EndToEnd
			if trace {
				want = m.PerLayer
			}
			sub := name + map[bool]string{false: "/e2e", true: "/traced"}[trace]
			t.Run(sub, func(t *testing.T) {
				o := options{
					workload:  name,
					seed:      7,
					seconds:   0.05,
					trace:     trace,
					tiny:      true,
					artifacts: t.TempDir(),
					wedge:     wedgeLimit,
				}
				res, err := runBench(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("output checks: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for _, mm := range want {
					got, ok := res.Metrics[mm.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", mm.Name)
					case got.Unit != mm.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", mm.Name, got.Unit, mm.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s: value %v is not finite", mm.Name, got.Value)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
			})
		}
	}
}

// TestWatchdog runs a trial whose leader never exits: the run must end
// with its unfinished ops failed, every metric still reported, and the
// Stats snapshot and goroutine dump written.
func TestWatchdog(t *testing.T) {
	m := readManifest(t)
	register(&spec{
		name:      "never-idle",
		config:    func(params) kernel.Config { return workload.DefaultConfig() },
		attempted: func(params) int64 { return 1 },
		leader: func(tr *trial, c *kernel.Context) {
			tr.begin(c)
			c.Pause() // no signal ever comes
		},
	})
	dir := t.TempDir()
	o := options{workload: "never-idle", seed: 7, seconds: 1, tiny: true,
		artifacts: dir, wedge: 50 * time.Millisecond}
	res, err := runBench(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != 1 || res.Failed != 1 {
		t.Errorf("wedged run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, mm := range m.EndToEnd {
		if _, ok := res.Metrics[mm.Name]; !ok {
			t.Errorf("wedged run lost metric %s", mm.Name)
		}
	}
	for _, f := range []string{"stats.txt", "goroutines.txt"} {
		path := filepath.Join(dir, "wedge-"+o.workload+"-seed7-trial0", f)
		if st, err := os.Stat(path); err != nil || st.Size() == 0 {
			t.Errorf("wedge artifact %s missing or empty (%v)", path, err)
		}
	}
}

// TestSeedReproducesInputs checks that the seed alone determines the
// generated inputs.
func TestSeedReproducesInputs(t *testing.T) {
	a := newRun(options{seed: 3}, workloads["serve-poll"], workloads["serve-poll"].tiny)
	b := newRun(options{seed: 3}, workloads["serve-poll"], workloads["serve-poll"].tiny)
	c := newRun(options{seed: 4}, workloads["serve-poll"], workloads["serve-poll"].tiny)
	ia, ib, ic := trialInputs(a, 2), trialInputs(b, 2), trialInputs(c, 2)
	for i := range ia.sizes {
		if ia.sizes[i] != ib.sizes[i] {
			t.Fatalf("seed 3 drew two different inputs at request %d", i+1)
		}
	}
	same := true
	for i := range ia.sizes {
		same = same && ia.sizes[i] == ic.sizes[i]
	}
	if same {
		t.Fatal("seeds 3 and 4 drew identical inputs")
	}
	for _, s := range ia.sizes {
		if s < minPayload || s > maxPayload {
			t.Fatalf("payload size %d outside [%d, %d]", s, minPayload, maxPayload)
		}
	}
}

func trialInputs(r *run, idx int) *inputs {
	t := r.newTrial(idx)
	return newInputs(t.rng, 256)
}
