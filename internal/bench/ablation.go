package bench

import (
	"fmt"
	"io"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationRow is one configuration point of a parameter sweep.
type AblationRow struct {
	Param      string
	Value      int
	Throughput float64
	IndexBytes int
	Leaves     int
	Height     int
}

// AblationLeafBound sweeps MaxKeysPerLeaf — the knob §3.4.1 says must be
// "tuned or learned for each dataset" — on a write-heavy longitudes
// workload. Small bounds mean more leaves, deeper RMIs and more pointer
// chases; large bounds mean bigger expansions and longer fully-packed
// regions. The sweet spot sits in between.
func AblationLeafBound(w io.Writer, o Options) []AblationRow {
	o = o.withFloors()
	all := datasets.GenLongitudes(o.RWInit+o.Ops, o.Seed)
	init, stream := all[:o.RWInit], all[o.RWInit:]
	var rows []AblationRow
	for _, bound := range []int{256, 1024, 4096, 16384, 65536} {
		cfg := core.Config{RMI: core.AdaptiveRMI, MaxKeysPerLeaf: bound}
		at := buildALEX(init, cfg)
		res := workload.Run(at, workload.Spec{
			Kind: workload.WriteHeavy, InitKeys: init, InsertStream: stream,
			Ops: o.Ops, Seed: o.Seed + 21,
		})
		st := at.Stats()
		rows = append(rows, AblationRow{
			Param: "MaxKeysPerLeaf", Value: bound,
			Throughput: res.Throughput, IndexBytes: res.IndexBytes,
			Leaves: st.NumLeaves, Height: st.Height,
		})
	}
	printAblation(w, "ablation: MaxKeysPerLeaf (write-heavy, longitudes)", rows)
	return rows
}

// AblationSplitFanout sweeps the split planner's fanout budget (§3.4.2;
// a split picks any power of two up to it, or nests deeper, by
// minimizing the children's modeled cost) under the distribution-shift
// workload, where splits actually happen.
func AblationSplitFanout(w io.Writer, o Options) []AblationRow {
	o = o.withFloors()
	keys := datasets.GenLongitudes(o.RWInit*2, o.Seed)
	sorted := datasets.Sorted(keys)
	initHalf := append([]float64(nil), sorted[:len(sorted)/2]...)
	insertHalf := append([]float64(nil), sorted[len(sorted)/2:]...)
	datasets.Shuffle(initHalf, o.Seed+1)
	datasets.Shuffle(insertHalf, o.Seed+2)

	spec := workload.Spec{
		Kind: workload.WriteHeavy, InitKeys: initHalf, InsertStream: insertHalf,
		Ops: o.Ops, Seed: o.Seed + 23,
	}
	var rows []AblationRow
	for _, fan := range []int{2, 4, 8, 16} {
		cfg := core.Config{
			RMI: core.AdaptiveRMI, SplitOnInsert: true, SplitFanout: fan,
			MaxKeysPerLeaf: 2048,
		}
		at := buildALEX(initHalf, cfg)
		res := workload.Run(at, spec)
		st := at.Stats()
		rows = append(rows, AblationRow{
			Param: "SplitFanout", Value: fan,
			Throughput: res.Throughput, IndexBytes: res.IndexBytes,
			Leaves: st.NumLeaves, Height: st.Height,
		})
	}
	printAblation(w, "ablation: SplitFanout (distribution shift, longitudes)", rows)
	return rows
}

func printAblation(w io.Writer, title string, rows []AblationRow) {
	t := stats.NewTable("param", "value", "throughput", "index size", "leaves", "height")
	for _, r := range rows {
		t.AddRow(r.Param, fmt.Sprintf("%d", r.Value),
			stats.FormatOps(r.Throughput), stats.FormatBytes(r.IndexBytes),
			fmt.Sprintf("%d", r.Leaves), fmt.Sprintf("%d", r.Height))
	}
	section(w, title)
	io.WriteString(w, t.String())
}

// ExtDeleteRow reports the delete-churn extension experiment.
type ExtDeleteRow struct {
	Index      string
	Throughput float64
	DataBytes  int
	Contracts  uint64
}

// ExtDeleteChurn runs the delete-heavy extension workload (50% reads,
// 25% inserts, 25% deletes) on longitudes: §3.2 argues deletes are
// strictly simpler than inserts because they never shift keys; node
// contraction keeps data space bounded under churn.
func ExtDeleteChurn(w io.Writer, o Options) []ExtDeleteRow {
	o = o.withFloors()
	all := datasets.GenLongitudes(o.RWInit+o.Ops, o.Seed)
	init, stream := all[:o.RWInit], all[o.RWInit:]
	spec := workload.Spec{
		Kind: workload.DeleteHeavy, InitKeys: init, InsertStream: stream,
		Ops: o.Ops, Seed: o.Seed + 24,
	}

	at := buildALEX(init, core.Config{RMI: core.AdaptiveRMI})
	ar := workload.Run(at, spec)
	bt := buildBTree(init, btree.Config{})
	br := workload.Run(bt, spec)

	rows := []ExtDeleteRow{
		{Index: "ALEX-GA-ARMI", Throughput: ar.Throughput, DataBytes: ar.DataBytes, Contracts: at.Stats().Contracts},
		{Index: "B+Tree", Throughput: br.Throughput, DataBytes: br.DataBytes},
	}
	t := stats.NewTable("index", "throughput", "data size", "contractions", "vs B+Tree")
	for _, r := range rows {
		t.AddRow(r.Index, stats.FormatOps(r.Throughput), stats.FormatBytes(r.DataBytes),
			fmt.Sprintf("%d", r.Contracts), fmt.Sprintf("%.2fx", r.Throughput/br.Throughput))
	}
	section(w, "extension: delete-heavy churn (50r/25i/25d, longitudes)")
	io.WriteString(w, t.String())
	return rows
}
