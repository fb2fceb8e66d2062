package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/learned"
	"repro/internal/stats"
)

// Fig8Row is one bar of Fig 8: average element shifts per insert.
type Fig8Row struct {
	Index           string
	ShiftsPerInsert float64
}

// Fig8 regenerates the shifts-per-insert study (§5.3): a write-only
// workload on longitudes against the Learned Index's dense array and the
// two gapped-array ALEX variants. The paper's claims: the gap-less
// Learned Index array shifts enormously, and adaptive RMI cuts GA's
// shifts by ~37x. (Its PMA rows are not reproduced: the layout is not
// implemented.)
func Fig8(w io.Writer, o Options) []Fig8Row {
	o = o.withFloors()
	// The paper's regime: a well-initialized index receiving inserts that
	// are small relative to the initial size. The static RMI is given few
	// models (its grid search optimizes throughput, not leaf evenness),
	// so its leaves are large and uneven — the source of fully-packed
	// regions — while adaptive RMI bounds every leaf at initialization.
	initN := o.ReadOnlyInit
	inserts := initN / 2
	all := datasets.GenLongitudes(initN+inserts, o.Seed)
	init, stream := all[:initN], all[initN:]
	staticModels := initN / 16384
	if staticModels < 1 {
		staticModels = 1
	}

	var rows []Fig8Row

	// Learned Index: every insert shifts on average half the dense
	// array, so the full stream would dominate the driver's runtime; a
	// prefix sample estimates the per-insert average just as well.
	liInserts := len(stream)
	if liInserts > 20000 {
		liInserts = 20000
	}
	li, err := learned.BulkLoad(init, nil, learned.Config{})
	if err == nil {
		for i, k := range stream[:liInserts] {
			li.Insert(k, uint64(i))
		}
		rows = append(rows, Fig8Row{
			Index:           "LearnedIndex",
			ShiftsPerInsert: float64(li.Stats().Shifts) / float64(liInserts),
		})
	}

	for _, cfg := range []core.Config{
		{RMI: core.StaticRMI, NumLeafModels: staticModels},
		{RMI: core.AdaptiveRMI},
	} {
		at := buildALEX(init, cfg)
		before := at.Stats().Shifts
		for i, k := range stream {
			at.Insert(k, uint64(i))
		}
		after := at.Stats().Shifts
		rows = append(rows, Fig8Row{
			Index:           cfg.VariantName(),
			ShiftsPerInsert: float64(after-before) / float64(len(stream)),
		})
	}

	t := stats.NewTable("index", "shifts/insert")
	for _, r := range rows {
		t.AddRow(r.Index, fmt.Sprintf("%.2f", r.ShiftsPerInsert))
	}
	section(w, fmt.Sprintf("Fig 8: shifts per insert (longitudes, init=%d, inserts=%d)", initN, inserts))
	io.WriteString(w, t.String())
	return rows
}
