package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gapped"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig10Row is one (dataset, space budget) cell of Fig 10.
type Fig10Row struct {
	Dataset    datasets.Name
	Overhead   float64
	Density    float64
	Throughput float64
	DataBytes  int
}

// Fig10 regenerates the data-space study (§5.3.1): the read-heavy
// workload with the gapped array's space overhead swept over 20%, 43%
// (the default, comparable to B+Tree), 2x and 3x. The paper's claims:
// more space usually helps (fewer fully-packed regions), with
// diminishing returns, and easy datasets (lognormal, YCSB) regress at 3x
// from cache effects.
func Fig10(w io.Writer, o Options) []Fig10Row {
	o = o.withFloors()
	overheads := []float64{0.20, 0.43, 1.0, 2.0}
	var rows []Fig10Row
	for _, name := range datasets.All {
		all := datasets.Generate(name, o.RWInit+o.Ops, o.Seed)
		init, stream := all[:o.RWInit], all[o.RWInit:]
		for _, ov := range overheads {
			d := gapped.DensityForOverhead(ov)
			cfg := core.Config{
				RMI:     core.AdaptiveRMI,
				Density: d, PayloadBytes: name.PayloadBytes(),
			}
			at := buildALEX(init, cfg)
			res := workload.Run(at, workload.Spec{
				Kind: workload.ReadHeavy, InitKeys: init, InsertStream: stream,
				Ops: o.Ops, Seed: o.Seed + 11,
			})
			rows = append(rows, Fig10Row{
				Dataset: name, Overhead: ov, Density: d,
				Throughput: res.Throughput, DataBytes: res.DataBytes,
			})
		}
	}
	t := stats.NewTable("dataset", "space overhead", "density d", "throughput", "data size")
	for _, r := range rows {
		t.AddRow(string(r.Dataset),
			fmt.Sprintf("%.0f%%", r.Overhead*100),
			fmt.Sprintf("%.3f", r.Density),
			stats.FormatOps(r.Throughput),
			stats.FormatBytes(r.DataBytes))
	}
	section(w, "Fig 10: data space overhead vs read-heavy throughput")
	io.WriteString(w, t.String())
	return rows
}
