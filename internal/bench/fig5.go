package bench

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig5aRow is one point of the scalability curve.
type Fig5aRow struct {
	InitKeys        int
	ALEXThroughput  float64
	BTreeThroughput float64
}

// Fig5a regenerates the scalability study (§5.2.4): the read-heavy
// workload on longitudes with the number of initialization keys swept,
// ALEX-GA-ARMI vs B+Tree.
func Fig5a(w io.Writer, o Options) []Fig5aRow {
	o = o.withFloors()
	maxInit := o.ReadOnlyInit
	sweep := []int{maxInit / 8, maxInit / 4, maxInit / 2, maxInit}
	all := datasets.GenLongitudes(maxInit+o.Ops, o.Seed)

	var rows []Fig5aRow
	for _, initN := range sweep {
		init, stream := all[:initN], all[maxInit:]
		spec := workload.Spec{Kind: workload.ReadHeavy, InitKeys: init, InsertStream: stream, Ops: o.Ops, Seed: o.Seed + 3}
		at := buildALEX(init, core.Config{RMI: core.AdaptiveRMI})
		ar := workload.Run(at, spec)
		bt := buildBTree(init, btree.Config{})
		br := workload.Run(bt, spec)
		rows = append(rows, Fig5aRow{InitKeys: initN, ALEXThroughput: ar.Throughput, BTreeThroughput: br.Throughput})
	}
	t := stats.NewTable("init keys", "ALEX-GA-ARMI", "B+Tree", "ALEX/B+Tree")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.InitKeys),
			stats.FormatOps(r.ALEXThroughput), stats.FormatOps(r.BTreeThroughput),
			fmt.Sprintf("%.2fx", r.ALEXThroughput/r.BTreeThroughput))
	}
	section(w, "Fig 5a: scalability (read-heavy, longitudes)")
	io.WriteString(w, t.String())
	return rows
}

// Fig5bRow reports the distribution-shift result for one index.
type Fig5bRow struct {
	Index      string
	Throughput float64
}

// Fig5b regenerates the dataset distribution shift study (§5.2.5): the
// longitudes keys are sorted, the index initialized with the (shuffled)
// first half, and the (shuffled) disjoint second half is inserted.
// ALEX-GA-ARMI runs with node splitting on inserts, as the paper states.
func Fig5b(w io.Writer, o Options) []Fig5bRow {
	o = o.withFloors()
	n := o.RWInit * 2
	keys := datasets.GenLongitudes(n, o.Seed)
	sort.Float64s(keys)
	initHalf := append([]float64(nil), keys[:n/2]...)
	insertHalf := append([]float64(nil), keys[n/2:]...)
	datasets.Shuffle(initHalf, o.Seed+1)
	datasets.Shuffle(insertHalf, o.Seed+2)

	spec := workload.Spec{Kind: workload.WriteHeavy, InitKeys: initHalf, InsertStream: insertHalf, Ops: o.Ops, Seed: o.Seed + 4}

	at := buildALEX(initHalf, core.Config{RMI: core.AdaptiveRMI, SplitOnInsert: true})
	ar := workload.Run(at, spec)
	bt := buildBTree(initHalf, btree.Config{})
	br := workload.Run(bt, spec)

	rows := []Fig5bRow{
		{Index: "ALEX-GA-ARMI(split)", Throughput: ar.Throughput},
		{Index: "B+Tree", Throughput: br.Throughput},
	}
	t := stats.NewTable("index", "throughput", "vs B+Tree")
	for _, r := range rows {
		t.AddRow(r.Index, stats.FormatOps(r.Throughput), fmt.Sprintf("%.2fx", r.Throughput/br.Throughput))
	}
	splits := at.Stats().Splits
	section(w, fmt.Sprintf("Fig 5b: distribution shift (disjoint key domains; ALEX splits=%d)", splits))
	io.WriteString(w, t.String())
	return rows
}

// Fig5c regenerates the sequential-insert adversarial case (§5.2.5):
// strictly increasing keys always landing in the right-most leaf. The
// paper reports up to 11x lower ALEX throughput, and its best ALEX
// variant here is ALEX-PMA-ARMI, a layout this implementation does not
// carry (docs/design-decisions.md).
func Fig5c(w io.Writer, o Options) []Fig5bRow {
	o = o.withFloors()
	initN := o.RWInit
	init := make([]float64, initN)
	for i := range init {
		init[i] = float64(i)
	}
	stream := make([]float64, o.Ops)
	for i := range stream {
		stream[i] = float64(initN + i)
	}
	spec := workload.Spec{Kind: workload.WriteHeavy, InitKeys: init, InsertStream: stream, Ops: o.Ops, Seed: o.Seed + 5}

	gaT := buildALEX(init, core.Config{RMI: core.AdaptiveRMI, SplitOnInsert: true})
	gr := workload.Run(gaT, spec)
	bt := buildBTree(init, btree.Config{})
	br := workload.Run(bt, spec)

	rows := []Fig5bRow{
		{Index: "ALEX-GA-ARMI(split)", Throughput: gr.Throughput},
		{Index: "B+Tree", Throughput: br.Throughput},
	}
	t := stats.NewTable("index", "throughput", "vs B+Tree")
	for _, r := range rows {
		t.AddRow(r.Index, stats.FormatOps(r.Throughput), fmt.Sprintf("%.2fx", r.Throughput/br.Throughput))
	}
	section(w, "Fig 5c: sequential inserts (adversarial)")
	io.WriteString(w, t.String())
	return rows
}
