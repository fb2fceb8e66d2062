package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gapped"
	"repro/internal/stats"
)

// ErrBoundsRow is one dataset's error-bound and search-selection
// summary.
type ErrBoundsRow struct {
	Dataset      datasets.Name
	P50, P99     int     // per-leaf error-bound percentiles
	MaxErr       int     // worst leaf
	BoundedShare float64 // fraction of keys served by bounded search
	CostRetrains uint64  // cost-model retrains triggered during the run
	BoundedNs    float64 // Get ns/op with the bounded fast path on
	ExpNs        float64 // Get ns/op forced through exponential search
}

// ExtErrorBounds reports the per-leaf prediction-error-bound
// distribution and what the §4 cost-model search selection buys: for
// each dataset it bulk loads at the read-write scale, applies an
// insert stream (so bounds drift the way they do in production, not
// just at bulk-load), then measures point lookups with the bounded
// fast path on vs forced exponential search, and renders the leaf
// error histogram.
func ExtErrorBounds(w io.Writer, o Options) []ErrBoundsRow {
	o = o.withFloors()
	defer gapped.SetBoundedSearch(true)
	var out []ErrBoundsRow
	t := stats.NewTable("dataset", "p50 err", "p99 err", "max err", "bounded share",
		"cost retrains", "bounded ns/get", "exponential ns/get", "speedup")
	for _, name := range datasets.All {
		keys := datasets.Generate(name, o.RWInit+o.Ops, o.Seed)
		init, stream := keys[:o.RWInit], keys[o.RWInit:]
		tr, err := core.BulkLoad(init, nil, core.Config{})
		if err != nil {
			panic(err)
		}
		for i, k := range stream {
			tr.Insert(k, uint64(i))
		}
		st := tr.Stats()
		row := ErrBoundsRow{
			Dataset:      name,
			P50:          st.LeafErrPercentile(50),
			P99:          st.LeafErrPercentile(99),
			MaxErr:       st.MaxLeafErr,
			BoundedShare: st.BoundedShare(),
			CostRetrains: st.CostRetrains,
		}
		// Alternate the two modes and keep each mode's best pass, so
		// cold caches and GC pauses cannot be attributed to whichever
		// mode happens to run first.
		probes := o.Ops
		row.BoundedNs = timeGets(tr, keys, probes, true)
		row.ExpNs = timeGets(tr, keys, probes, false)
		for pass := 0; pass < 4; pass++ {
			if ns := timeGets(tr, keys, probes, true); ns < row.BoundedNs {
				row.BoundedNs = ns
			}
			if ns := timeGets(tr, keys, probes, false); ns < row.ExpNs {
				row.ExpNs = ns
			}
		}
		out = append(out, row)
		speedup := 0.0
		if row.BoundedNs > 0 {
			speedup = row.ExpNs / row.BoundedNs
		}
		t.AddRow(string(name),
			fmt.Sprintf("%d", row.P50), fmt.Sprintf("%d", row.P99),
			fmt.Sprintf("%d", row.MaxErr), fmt.Sprintf("%.3f", row.BoundedShare),
			fmt.Sprintf("%d", row.CostRetrains),
			fmt.Sprintf("%.1f", row.BoundedNs), fmt.Sprintf("%.1f", row.ExpNs),
			fmt.Sprintf("%.2fx", speedup))
		if name == datasets.Longitudes {
			section(w, "per-leaf error-bound histogram (longitudes, leaves per power-of-two bucket)")
			io.WriteString(w, stats.HistogramFromCounts(st.ErrHist[:]).Render(40))
		}
	}
	section(w, fmt.Sprintf("extension: error bounds & search-strategy selection (init=%d, stream=%d)",
		o.RWInit, o.Ops))
	io.WriteString(w, t.String())
	return out
}

// timeGets measures ns per Get over a shuffled probe set with the
// bounded fast path toggled.
func timeGets(tr *core.Tree, keys []float64, probes int, bounded bool) float64 {
	gapped.SetBoundedSearch(bounded)
	rng := rand.New(rand.NewSource(77))
	order := make([]float64, probes)
	for i := range order {
		order[i] = keys[rng.Intn(len(keys))]
	}
	start := time.Now()
	var sink uint64
	for _, k := range order {
		v, _ := tr.Get(k)
		sink += v
	}
	_ = sink
	return float64(time.Since(start).Nanoseconds()) / float64(probes)
}
