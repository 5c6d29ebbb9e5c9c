package workload

import (
	"slices"
	"strings"
	"testing"
)

// TestExperimentTable checks what both readers of the experiment table rely
// on: unique IDs (go test -bench names), unique (heading, row label) pairs
// at either scale (BENCH json keys), and the benchtab -work names, each
// pinned to the tables it selects so regrouping cannot silently change
// what a -work run prints.
func TestExperimentTable(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments {
		if ids[e.ID] || len(e.Rows) == 0 || strings.TrimSpace(e.Work) == "" {
			t.Errorf("%s: duplicate ID, no rows or no -work name", e.ID)
		}
		ids[e.ID] = true
		for _, r := range e.Rows {
			if r.Run == nil || r.Ops.Full <= 0 || r.Ops.Quick <= 0 {
				t.Errorf("%s/%s: needs a run function and positive op counts, have %+v", e.ID, r.Name, r.Ops)
			}
		}
	}
	for _, quick := range []bool{false, true} {
		keys := map[[2]string]bool{}
		for _, e := range Experiments {
			for _, r := range e.Rows {
				k := [2]string{e.Heading(quick), r.Label(r.Ops.At(quick))}
				if keys[k] {
					t.Errorf("quick=%v: row %q of %q declared twice", quick, k[1], k[0])
				}
				keys[k] = true
			}
		}
	}
	want := map[string]string{
		"creation": "E1/E4 E1b E1c", "e1c": "E1c", "prefork": "E1c-prefork",
		"vm": "E2a E2b E8", "syscall": "E3 S2", "ipc": "E5", "sync": "E6 S5",
		"pool": "E7a E7b", "sched": "E10 S1 S4", "numa": "S6a S6b S6c",
		"serve": "S7", "fairshare": "S8", "ckpt": "S10", "ablations": "A1 A2",
	}
	names := WorkNames()
	if len(names) != len(want) {
		t.Errorf("-work names = %v, want %d names", names, len(want))
	}
	for _, w := range names {
		var got []string
		for _, e := range Experiments {
			if e.Selected(w) {
				got = append(got, e.ID)
			}
		}
		if !slices.Equal(got, strings.Fields(want[w])) {
			t.Errorf("-work %s selects %v, want %s", w, got, want[w])
		}
	}
}
