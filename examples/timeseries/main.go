// timeseries: ingesting an append-mostly event stream — the paper's
// §5.2.5 distribution-shift scenario as an application. Events arrive
// with mostly-increasing timestamps (new data lands in a key domain the
// bulk load never saw), so the index must adapt: this is what node
// splitting on inserts (WithSplitOnInsert) is for. The height printed
// after the ingest shows how the appends deepened the tree.
package main

import (
	"fmt"
	"math/rand"
	"time"

	alex "repro"
)

const (
	histor = 200_000 // historical events bulk loaded
	live   = 200_000 // live events inserted afterwards
)

func main() {
	rng := rand.New(rand.NewSource(11))

	// Historical events: timestamps over the past 30 days with jitter.
	base := 1.7e9 // epoch seconds
	hist := make([]float64, histor)
	for i := range hist {
		hist[i] = base + float64(i)*13 + rng.Float64()
	}

	// An adaptive index with splitting enabled for the shifting domain.
	idx := alex.LoadSorted(hist, nil, alex.WithSplitOnInsert())
	fmt.Printf("bulk loaded %d historical events, height %d\n", idx.Len(), idx.Height())

	// Live ingest: strictly later timestamps (disjoint key domain).
	liveBase := hist[len(hist)-1] + 60
	t0 := time.Now()
	for i := 0; i < live; i++ {
		ts := liveBase + float64(i)*13 + rng.Float64()
		idx.Insert(ts, uint64(i))
	}
	ingestNs := float64(time.Since(t0).Nanoseconds()) / live
	st := idx.Stats()
	fmt.Printf("ingested %d live events at %.0f ns/insert (splits=%d, expands=%d), height %d\n",
		live, ingestNs, st.Splits, st.Expands, idx.Height())

	// Query: the last 1000 events.
	maxTs, _ := idx.MaxKey()
	recent, _ := idx.ScanN(maxTs-13_000, 1000)
	fmt.Printf("window query returned %d events, first=%0.f last=%.0f\n",
		len(recent), recent[0], recent[len(recent)-1])

	if err := idx.CheckInvariants(); err != nil {
		panic(err)
	}
	fmt.Println("invariants hold after ingest")
}
