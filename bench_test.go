// Benchmarks regenerating the paper's evaluation (DESIGN.md E1..E10). The
// experiment table in internal/workload is the single declaration of every
// experiment; this file and cmd/benchtab only render it. Each row runs as
// Experiments/<ID>/<row> (go test -bench 'Experiments/E1c'): b.N of its ops,
// in fresh simulated systems of at most the row's full op count each, so
// any -benchtime stays within the sizes the table declares. "simcyc/op" is
// the simulated machine's cycle cost, the number that corresponds to what
// the paper measured on the MIPS R2000; host-timed rows (S6c) report
// ns/lookup. Shapes (orderings, ratios, crossovers), not absolute values,
// are the reproduction target.
package irix

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

func BenchmarkExperiments(b *testing.B) {
	for _, e := range workload.Experiments {
		b.Run(e.ID, func(b *testing.B) {
			for _, row := range e.Rows {
				b.Run(strings.ReplaceAll(row.Name, "%d", "N"), func(b *testing.B) {
					var sum workload.Metrics
					var hostNs float64
					for left := b.N; left > 0; left -= row.Ops.Full {
						r := row.Run(min(left, row.Ops.Full), nil)
						if r.Err != nil {
							b.Fatal(r.Err)
						}
						sum.Cycles += r.Cycles
						sum.Ops += r.Ops
						hostNs += r.HostNs * float64(r.Ops)
					}
					if hostNs > 0 {
						b.ReportMetric(hostNs/float64(sum.Ops), "ns/lookup")
					} else {
						b.ReportMetric(sum.CyclesPerOp(), "simcyc/op")
					}
				})
			}
		})
	}
}
