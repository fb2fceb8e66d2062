package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig9Row reports minibatch insert latency percentiles for one index.
type Fig9Row struct {
	Index  string
	Median time.Duration
	P99    time.Duration
	P999   time.Duration
	Max    time.Duration
}

// Fig9 regenerates the insert tail-latency study (§5.3): a write-only
// workload on longitudes, latency measured per minibatch of 1000
// inserts. The paper's claim: ALEX-GA-ARMI's tails are competitive with
// the B+Tree, because adaptive RMI bounds node size and therefore
// expansion cost. (Its ALEX-PMA-SRMI row, with tails up to 200x higher,
// is not reproduced: the layout is not implemented.)
func Fig9(w io.Writer, o Options) []Fig9Row {
	o = o.withFloors()
	initN := o.RWInit
	all := datasets.GenLongitudes(initN+o.Ops, o.Seed)
	init, stream := all[:initN], all[initN:]

	type target struct {
		label string
		run   func(rec *stats.LatencyRecorder)
	}
	insertAll := func(idx workload.Index, rec *stats.LatencyRecorder) {
		const minibatch = 1000
		payload := uint64(1)
		for lo := 0; lo+minibatch <= len(stream); lo += minibatch {
			t0 := time.Now()
			for _, k := range stream[lo : lo+minibatch] {
				idx.Insert(k, payload)
				payload++
			}
			rec.Observe(time.Since(t0))
		}
	}
	targets := []target{
		{"ALEX-GA-ARMI", func(rec *stats.LatencyRecorder) {
			insertAll(buildALEX(init, core.Config{RMI: core.AdaptiveRMI, SplitOnInsert: true}), rec)
		}},
		{"B+Tree", func(rec *stats.LatencyRecorder) {
			insertAll(buildBTree(init, btree.Config{}), rec)
		}},
	}

	var rows []Fig9Row
	for _, tg := range targets {
		rec := stats.NewLatencyRecorder(len(stream) / 1000)
		tg.run(rec)
		rows = append(rows, Fig9Row{
			Index:  tg.label,
			Median: rec.Median(),
			P99:    rec.Percentile(99),
			P999:   rec.Percentile(99.9),
			Max:    rec.Max(),
		})
	}

	t := stats.NewTable("index", "median", "P99", "P99.9", "max", "max/median")
	for _, r := range rows {
		ratio := 0.0
		if r.Median > 0 {
			ratio = float64(r.Max) / float64(r.Median)
		}
		t.AddRow(r.Index, r.Median.String(), r.P99.String(), r.P999.String(), r.Max.String(),
			fmt.Sprintf("%.1fx", ratio))
	}
	section(w, fmt.Sprintf("Fig 9: insert latency per 1k-insert minibatch (longitudes, init=%d, inserts=%d)", initN, len(stream)))
	io.WriteString(w, t.String())
	return rows
}
