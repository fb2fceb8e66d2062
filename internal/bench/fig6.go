package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/stats"
)

// Fig6Point is one sample of the lifetime study: cumulative insert and
// lookup costs at a given index size.
type Fig6Point struct {
	Keys          int
	InsertNsPerOp float64
	LookupNsPerOp float64
}

// Fig6Series is one index's lifetime trajectory.
type Fig6Series struct {
	Index  string
	Points []Fig6Point
}

// Fig6 regenerates the lifetime study (§5.2.6): initialize with a small
// key count, insert up to the full dataset, pausing periodically to
// probe lookups. Variants: ALEX-GA-ARMI (the paper's PMA variants are
// not implemented, and GA-SRMI is omitted, as in the paper — its
// inserts degrade badly), plus the B+Tree, on longitudes and longlat.
func Fig6(w io.Writer, o Options) map[datasets.Name][]Fig6Series {
	o = o.withFloors()
	out := make(map[datasets.Name][]Fig6Series)
	for _, name := range []datasets.Name{datasets.Longitudes, datasets.LongLat} {
		out[name] = fig6Dataset(w, o, name)
	}
	return out
}

func fig6Dataset(w io.Writer, o Options, name datasets.Name) []Fig6Series {
	total := o.ReadOnlyInit
	initN := total / 100
	if initN < 1000 {
		initN = 1000
	}
	all := datasets.Generate(name, total, o.Seed)
	init, stream := all[:initN], all[initN:]

	type target struct {
		label string
		idx   lifetimeIndex
	}
	targets := []target{
		{"ALEX-GA-ARMI", buildALEX(init, core.Config{RMI: core.AdaptiveRMI, SplitOnInsert: true})},
		{"B+Tree", buildBTree(init, btree.Config{})},
	}

	const checkpoints = 8
	batch := len(stream) / checkpoints
	probes := 2000

	series := make([]Fig6Series, len(targets))
	for ti, tg := range targets {
		series[ti].Index = tg.label
		rng := rand.New(rand.NewSource(o.Seed + int64(ti)))
		inserted := 0
		var sink uint64
		for c := 0; c < checkpoints; c++ {
			lo, hi := c*batch, (c+1)*batch
			if hi > len(stream) {
				hi = len(stream)
			}
			t0 := time.Now()
			for _, k := range stream[lo:hi] {
				tg.idx.Insert(k, 1)
			}
			insertNs := float64(time.Since(t0).Nanoseconds()) / float64(hi-lo)
			inserted += hi - lo
			// Probe lookups over everything inserted so far.
			t1 := time.Now()
			for p := 0; p < probes; p++ {
				var k float64
				if rng.Intn(2) == 0 || inserted == 0 {
					k = init[rng.Intn(len(init))]
				} else {
					k = stream[rng.Intn(inserted)]
				}
				v, _ := tg.idx.Get(k)
				sink += v
			}
			lookupNs := float64(time.Since(t1).Nanoseconds()) / float64(probes)
			series[ti].Points = append(series[ti].Points, Fig6Point{
				Keys: initN + inserted, InsertNsPerOp: insertNs, LookupNsPerOp: lookupNs,
			})
		}
		_ = sink
	}

	t := stats.NewTable("index", "keys", "insert ns/op", "lookup ns/op")
	for _, s := range series {
		for _, p := range s.Points {
			t.AddRow(s.Index, fmt.Sprintf("%d", p.Keys),
				fmt.Sprintf("%.0f", p.InsertNsPerOp), fmt.Sprintf("%.0f", p.LookupNsPerOp))
		}
	}
	section(w, fmt.Sprintf("Fig 6: lifetime study, %s (init=%d, grow to %d)", name, initN, total))
	io.WriteString(w, t.String())
	return series
}

// lifetimeIndex is the subset of operations Fig 6 needs.
type lifetimeIndex interface {
	Insert(key float64, payload uint64) bool
	Get(key float64) (uint64, bool)
}
