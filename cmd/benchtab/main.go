// Command benchtab regenerates the paper's evaluation tables (DESIGN.md
// E1..E10, recorded in EXPERIMENTS.md) by rendering the experiment table
// declared in internal/workload: one text table per experiment, and with
// -json a BENCH_<runstamp>.json snapshot of every row. Pass -quick to run
// each row at its smaller op count for a fast smoke run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/workload"
)

var (
	quick   = flag.Bool("quick", false, "run each row at its smaller -quick op count")
	jsonOut = flag.Bool("json", false, "also write BENCH_<runstamp>.json with per-row numbers")
	work    = flag.String("work", "", "run only the experiments named ("+
		strings.Join(workload.WorkNames(), ", ")+"); empty = all")
)

func main() {
	flag.Parse()
	if *work != "" && !slices.Contains(workload.WorkNames(), *work) {
		fmt.Fprintf(os.Stderr, "benchtab: unknown -work %q (want one of: %s)\n",
			*work, strings.Join(workload.WorkNames(), ", "))
		os.Exit(2)
	}
	fmt.Println("share groups reproduction — experiment tables (simulated MIPS R2000 multiprocessor, 4 CPUs)")

	var recs []workload.Record
	for _, e := range workload.Experiments {
		if e.Selected(*work) {
			recs = append(recs, render(e)...)
		}
	}
	if *jsonOut {
		if err := writeJSON(recs); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			os.Exit(1)
		}
	}
}

// render runs every row of e, prints its table and returns its records.
func render(e workload.Experiment) []workload.Record {
	heading := e.Heading(*quick)
	fmt.Printf("\n%s\n%s\n%s\n", heading, strings.Repeat("─", utf8.RuneCountInString(heading)), e.Cols)
	var done []workload.Result
	var recs []workload.Record
	for _, row := range e.Rows {
		ops := row.Ops.At(*quick)
		label := row.Label(ops)
		r := row.Run(ops, done)
		done = append(done, r)
		switch {
		case r.Err != nil:
			fmt.Printf("  %-22s error: %v\n", label, r.Err)
			continue
		case r.Text != nil:
			for _, line := range r.Text {
				fmt.Println(line)
			}
		default:
			fmt.Printf("  %-22s %10.0f %12v %8d %8d%s\n",
				label, r.CyclesPerOp(), r.Wall.Round(time.Microsecond), r.Shootdowns, r.Faults, r.Extra)
		}
		for _, line := range r.After {
			fmt.Println(line)
		}
		recs = append(recs, r.Records(heading, label)...)
	}
	for _, line := range e.ShapeLines(*quick) {
		fmt.Println("  " + line)
	}
	return recs
}

func writeJSON(recs []workload.Record) error {
	stamp := time.Now().UTC().Format("20060102T150405")
	path := fmt.Sprintf("BENCH_%s.json", stamp)
	snap := struct {
		Runstamp string            `json:"runstamp"`
		Quick    bool              `json:"quick"`
		Results  []workload.Record `json:"results"`
	}{Runstamp: stamp, Quick: *quick, Results: recs}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d rows)\n", path, len(recs))
	return nil
}
