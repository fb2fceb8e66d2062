package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/learned"
	"repro/internal/stats"
)

// Fig7Result carries the three prediction-error histograms of Fig 7.
type Fig7Result struct {
	LearnedIndex     *stats.Histogram // Fig 7a
	ALEXAfterInit    *stats.Histogram // Fig 7b
	ALEXAfterInserts *stats.Histogram // Fig 7c
}

// Fig7 regenerates the prediction-error study (§5.3): initialize on
// longitudes, record |predicted - actual| for every key; then insert a
// further 20% of keys into ALEX and measure again. The paper's claims:
// the Learned Index error mode is 8-32 positions with a long tail; ALEX
// "often has no prediction error" after init and keeps errors low after
// inserts thanks to model-based insertion.
func Fig7(w io.Writer, o Options) Fig7Result {
	o = o.withFloors()
	n := o.ReadOnlyInit
	extra := n / 5
	all := datasets.GenLongitudes(n+extra, o.Seed)
	init, stream := all[:n], all[n:]

	res := Fig7Result{
		LearnedIndex:     stats.NewHistogram(),
		ALEXAfterInit:    stats.NewHistogram(),
		ALEXAfterInserts: stats.NewHistogram(),
	}

	li, err := learned.BulkLoad(init, nil, learned.Config{})
	if err == nil {
		for _, k := range init {
			if e, ok := li.PredictionError(k); ok {
				res.LearnedIndex.Observe(e)
			}
		}
	}

	at := buildALEX(init, core.Config{RMI: core.AdaptiveRMI})
	for _, k := range init {
		if e, ok := at.PredictionError(k); ok {
			res.ALEXAfterInit.Observe(e)
		}
	}
	for i, k := range stream {
		at.Insert(k, uint64(i))
	}
	for _, k := range all {
		if e, ok := at.PredictionError(k); ok {
			res.ALEXAfterInserts.Observe(e)
		}
	}

	section(w, fmt.Sprintf("Fig 7a: Learned Index prediction error (n=%d, mean=%.1f, zero=%.1f%%)",
		n, res.LearnedIndex.Mean(), 100*res.LearnedIndex.ZeroFraction()))
	io.WriteString(w, res.LearnedIndex.Render(40))
	section(w, fmt.Sprintf("Fig 7b: ALEX after init (mean=%.2f, zero=%.1f%%)",
		res.ALEXAfterInit.Mean(), 100*res.ALEXAfterInit.ZeroFraction()))
	io.WriteString(w, res.ALEXAfterInit.Render(40))
	section(w, fmt.Sprintf("Fig 7c: ALEX after %d inserts (mean=%.2f, zero=%.1f%%)",
		len(stream), res.ALEXAfterInserts.Mean(), 100*res.ALEXAfterInserts.ZeroFraction()))
	io.WriteString(w, res.ALEXAfterInserts.Render(40))
	return res
}
