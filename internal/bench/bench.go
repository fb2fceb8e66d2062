// Package bench contains the experiment drivers that regenerate every
// table and figure of the paper's evaluation (§5). Each driver builds
// the indexes involved, runs the workload of the corresponding
// experiment, and prints a table whose rows mirror what the paper plots.
// DESIGN.md carries the experiment index mapping figures to drivers;
// EXPERIMENTS.md records paper-vs-measured outcomes.
//
// Scales are configurable: the paper runs 50M-1B keys on a 64 GB
// testbed, the defaults here are laptop-sized (hundreds of thousands of
// keys) but preserve the comparative shapes.
package bench

import (
	"io"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/learned"
	"repro/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// ReadOnlyInit is the bulk-load size for read-only experiments
	// (Table 1's "read-only init size", scaled down).
	ReadOnlyInit int
	// RWInit is the smaller bulk-load size for read-write experiments,
	// "so that we capture the throughput as the index grows" (§5.2.2).
	RWInit int
	// Ops is the number of operations per run (stands in for the
	// paper's 60-second timed window).
	Ops int
	// Seed drives dataset generation and workload choices.
	Seed int64
	// TuneBaselines grid-searches the B+Tree page size and Learned
	// Index model count with short probe runs, as §5.1 does. When
	// false, sensible defaults are used.
	TuneBaselines bool
}

// DefaultOptions returns the laptop-scale defaults.
func DefaultOptions() Options {
	return Options{
		ReadOnlyInit: 400000,
		RWInit:       100000,
		Ops:          200000,
		Seed:         1,
	}
}

// withFloors clamps pathological option values.
func (o Options) withFloors() Options {
	if o.ReadOnlyInit < 1000 {
		o.ReadOnlyInit = 1000
	}
	if o.RWInit < 500 {
		o.RWInit = 500
	}
	if o.Ops < 1000 {
		o.Ops = 1000
	}
	return o
}

// alexConfigFor returns the ALEX variant the paper uses for each
// workload: GA-SRMI for read-only (§5.2.1), GA-ARMI for read-write and
// scans (§5.2.2).
func alexConfigFor(kind workload.Kind, payloadBytes int) core.Config {
	cfg := core.Config{PayloadBytes: payloadBytes}
	if kind == ReadOnlyKind {
		cfg.RMI = core.StaticRMI
	} else {
		cfg.RMI = core.AdaptiveRMI
	}
	return cfg
}

// ReadOnlyKind re-exports workload.ReadOnly for signature clarity.
const ReadOnlyKind = workload.ReadOnly

// buildALEX bulk loads an ALEX tree from unsorted keys.
func buildALEX(keys []float64, cfg core.Config) *core.Tree {
	sorted := datasets.Sorted(keys)
	return core.BulkLoadSorted(sorted, nil, cfg)
}

// buildBTree bulk loads the baseline B+Tree.
func buildBTree(keys []float64, cfg btree.Config) *btree.Tree {
	sorted := datasets.Sorted(keys)
	return btree.BulkLoad(sorted, nil, cfg)
}

// tuneBTreePage probes candidate page sizes with a short run and returns
// the best, mirroring the paper's grid search ("for each benchmark, we
// use grid search to tune the page size used for B+Tree").
func tuneBTreePage(keys []float64, kind workload.Kind, stream []float64, ops int, seed int64, payloadBytes int) int {
	candidates := []int{128, 256, 512, 1024, 4096}
	best, bestTput := 256, -1.0
	probeOps := ops / 10
	if probeOps < 2000 {
		probeOps = 2000
	}
	for _, page := range candidates {
		t := buildBTree(keys, btree.Config{PageSizeBytes: page, PayloadBytes: payloadBytes})
		res := workload.Run(t, workload.Spec{
			Kind: kind, InitKeys: keys, InsertStream: stream, Ops: probeOps, Seed: seed,
		})
		if res.Throughput > bestTput {
			bestTput = res.Throughput
			best = page
		}
	}
	return best
}

// tuneLearnedModels probes second-stage model counts for the Learned
// Index baseline on a read-only workload.
func tuneLearnedModels(keys []float64, ops int, seed int64) int {
	n := len(keys)
	candidates := []int{n / 8192, n / 2048, n / 512, n / 128}
	best, bestTput := 0, -1.0
	probeOps := ops / 10
	if probeOps < 2000 {
		probeOps = 2000
	}
	for _, m := range candidates {
		if m < 1 {
			m = 1
		}
		ix, err := learned.BulkLoad(keys, nil, learned.Config{NumModels: m})
		if err != nil {
			continue
		}
		res := workload.Run(ix, workload.Spec{Kind: workload.ReadOnly, InitKeys: keys, Ops: probeOps, Seed: seed})
		if res.Throughput > bestTput {
			bestTput = res.Throughput
			best = m
		}
	}
	if best < 1 {
		best = 1
	}
	return best
}

// section prints a titled separator for multi-table outputs.
func section(w io.Writer, title string) {
	io.WriteString(w, "\n== "+title+" ==\n")
}
