package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/paged"
	"repro/internal/pagestore"
	"repro/internal/stats"
)

// DiskRow reports one configuration of the secondary-storage study.
type DiskRow struct {
	Index      string
	LookupNs   float64
	HitRate    float64
	PhysReads  uint64
	IndexBytes int
	DataBytes  int
}

// ExtDisk evaluates the §7 "Secondary Storage" extension: the same
// lookup workload against the in-memory ALEX, a paged ALEX with a large
// (warm) cache, and a paged ALEX with a tiny cache that forces physical
// reads — reporting hit rates and per-lookup cost. The learned-index
// property to observe: the in-memory RMI stays tiny, so a paged lookup
// costs exactly one page read when the cache misses (no inner-node I/O,
// unlike a disk B+Tree).
func ExtDisk(w io.Writer, o Options) []DiskRow {
	o = o.withFloors()
	keys := datasets.GenLongitudes(o.ReadOnlyInit, o.Seed)
	lookups := o.Ops
	rng := rand.New(rand.NewSource(o.Seed + 41))
	probes := make([]float64, lookups)
	for i := range probes {
		probes[i] = keys[rng.Intn(len(keys))]
	}

	var rows []DiskRow

	// In-memory baseline.
	mem := buildALEX(keys, core.Config{RMI: core.AdaptiveRMI})
	t0 := time.Now()
	var sink uint64
	for _, k := range probes {
		v, _ := mem.Get(k)
		sink += v
	}
	rows = append(rows, DiskRow{
		Index:      "ALEX (in-memory)",
		LookupNs:   float64(time.Since(t0).Nanoseconds()) / float64(lookups),
		HitRate:    1,
		IndexBytes: mem.IndexSizeBytes(),
		DataBytes:  mem.DataSizeBytes(),
	})

	for _, tc := range []struct {
		label string
		cache int
	}{
		{"ALEX paged (warm cache)", 1 << 20},
		{"ALEX paged (64-page cache)", 64},
		{"ALEX paged (4-page cache)", 4},
	} {
		ix, err := paged.BulkLoad(keys, nil, pagestore.NewMemStore(0), paged.Config{CachePages: tc.cache})
		if err != nil {
			continue
		}
		// Warm up, then measure.
		for _, k := range probes[:lookups/10] {
			ix.Get(k)
		}
		ix.ResetCacheStats()
		t1 := time.Now()
		for _, k := range probes {
			v, _ := ix.Get(k)
			sink += v
		}
		el := time.Since(t1)
		st := ix.CacheStats()
		hitRate := 0.0
		if st.Hits+st.Misses > 0 {
			hitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
		}
		rows = append(rows, DiskRow{
			Index:      tc.label,
			LookupNs:   float64(el.Nanoseconds()) / float64(lookups),
			HitRate:    hitRate,
			PhysReads:  st.PhysReads,
			IndexBytes: ix.IndexSizeBytes(),
			DataBytes:  ix.DataSizeBytes(),
		})
		ix.Close()
	}
	_ = sink

	t := stats.NewTable("index", "lookup ns/op", "cache hit rate", "phys reads", "RMI size", "data size")
	for _, r := range rows {
		t.AddRow(r.Index,
			fmt.Sprintf("%.0f", r.LookupNs),
			fmt.Sprintf("%.3f", r.HitRate),
			fmt.Sprintf("%d", r.PhysReads),
			stats.FormatBytes(r.IndexBytes),
			stats.FormatBytes(r.DataBytes))
	}
	section(w, fmt.Sprintf("extension: secondary storage (§7), %d keys, %d lookups", len(keys), lookups))
	io.WriteString(w, t.String())
	return rows
}
