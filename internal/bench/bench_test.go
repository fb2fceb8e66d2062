package bench

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gapped"
	"repro/internal/workload"
)

// tiny returns options small enough for unit tests.
func tiny() Options {
	return Options{ReadOnlyInit: 30000, RWInit: 8000, Ops: 20000, Seed: 3}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	tab := Table1(&buf, tiny())
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	out := buf.String()
	for _, want := range []string{"longitudes", "longlat", "lognormal", "ycsb", "80B"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig4ReadOnlyIncludesLearnedIndex(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig4(&buf, tiny(), workload.ReadOnly)
	if len(rows) != 12 { // 4 datasets x (ALEX, B+Tree, LearnedIndex)
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Fatalf("no throughput for %s/%s", r.Dataset, r.Index)
		}
		if r.Misses != 0 {
			t.Fatalf("%s/%s had %d misses", r.Dataset, r.Index, r.Misses)
		}
	}
	if !strings.Contains(buf.String(), "LearnedIndex") {
		t.Fatal("learned index missing from read-only output")
	}
	// Headline claim (Fig 4e): ALEX index size orders of magnitude below
	// B+Tree's on every dataset.
	for i := 0; i < len(rows); i += 3 {
		alex, bt := rows[i], rows[i+1]
		if alex.IndexBytes >= bt.IndexBytes {
			t.Fatalf("%s: ALEX index %d B not smaller than B+Tree %d B", alex.Dataset, alex.IndexBytes, bt.IndexBytes)
		}
	}
}

func TestFig4WriteHeavyExcludesLearnedIndex(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig4(&buf, tiny(), workload.WriteHeavy)
	if len(rows) != 8 { // 4 datasets x (ALEX, B+Tree)
		t.Fatalf("rows = %d", len(rows))
	}
	if strings.Contains(buf.String(), "LearnedIndex") {
		t.Fatal("learned index in write-heavy output")
	}
	for _, r := range rows {
		if r.Misses != 0 {
			t.Fatalf("%s/%s: %d misses", r.Dataset, r.Index, r.Misses)
		}
	}
}

func TestFig4VariantSelection(t *testing.T) {
	if BestALEXFor(workload.ReadOnly) != "ALEX-GA-SRMI" {
		t.Fatal("read-only should use GA-SRMI (§5.2.1)")
	}
	for _, k := range []workload.Kind{workload.ReadHeavy, workload.WriteHeavy, workload.RangeScan} {
		if BestALEXFor(k) != "ALEX-GA-ARMI" {
			t.Fatalf("%v should use GA-ARMI (§5.2.2)", k)
		}
	}
}

func TestFig5a(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig5a(&buf, tiny())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	prev := 0
	for _, r := range rows {
		if r.InitKeys <= prev {
			t.Fatal("sweep not increasing")
		}
		prev = r.InitKeys
		if r.ALEXThroughput <= 0 || r.BTreeThroughput <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestFig5b(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig5b(&buf, tiny())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	ratio := rows[0].Throughput / rows[1].Throughput
	// §5.2.5: ALEX is "competitive" under moderate shift — allow a wide
	// band but fail if it collapses.
	if ratio < 0.2 {
		t.Fatalf("ALEX/B+Tree = %.2f under distribution shift; should be competitive", ratio)
	}
}

func TestFig5c(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig5c(&buf, tiny())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestFig6(t *testing.T) {
	o := tiny()
	o.ReadOnlyInit = 20000
	var buf bytes.Buffer
	series := Fig6(&buf, o)
	if len(series) != 2 {
		t.Fatalf("datasets = %d", len(series))
	}
	for name, ss := range series {
		if len(ss) != 2 {
			t.Fatalf("%s: series = %d", name, len(ss))
		}
		for _, s := range ss {
			if len(s.Points) == 0 {
				t.Fatalf("%s/%s: no points", name, s.Index)
			}
			for _, p := range s.Points {
				if p.InsertNsPerOp <= 0 || p.LookupNsPerOp <= 0 {
					t.Fatalf("%s/%s: bad point %+v", name, s.Index, p)
				}
			}
		}
	}
}

func TestFig7PredictionErrorShape(t *testing.T) {
	var buf bytes.Buffer
	res := Fig7(&buf, tiny())
	// The paper's central drilldown claim: ALEX error after init is far
	// below the Learned Index's, with a large zero-error fraction.
	if res.ALEXAfterInit.Mean() >= res.LearnedIndex.Mean() {
		t.Fatalf("ALEX mean error %.2f not below Learned Index %.2f",
			res.ALEXAfterInit.Mean(), res.LearnedIndex.Mean())
	}
	if res.ALEXAfterInit.ZeroFraction() < 0.25 {
		t.Fatalf("ALEX zero-error fraction %.2f too small; model-based inserts should give direct hits",
			res.ALEXAfterInit.ZeroFraction())
	}
	// After inserts errors may grow but must stay well under Learned Index.
	if res.ALEXAfterInserts.Mean() >= res.LearnedIndex.Mean() {
		t.Fatalf("ALEX error after inserts %.2f reached Learned Index territory %.2f",
			res.ALEXAfterInserts.Mean(), res.LearnedIndex.Mean())
	}
}

func TestFig8ShiftOrdering(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig8(&buf, tiny())
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		byName[r.Index] = r.ShiftsPerInsert
	}
	// Fig 8 claims: Learned Index >> all ALEX variants; GA-SRMI is the
	// worst ALEX variant; ARMI mitigates it.
	if byName["LearnedIndex"] <= byName["ALEX-GA-SRMI"] {
		t.Fatalf("LearnedIndex shifts %.1f should exceed GA-SRMI %.1f",
			byName["LearnedIndex"], byName["ALEX-GA-SRMI"])
	}
	if byName["ALEX-GA-ARMI"] >= byName["ALEX-GA-SRMI"] {
		t.Fatalf("GA-ARMI %.1f should shift less than GA-SRMI %.1f",
			byName["ALEX-GA-ARMI"], byName["ALEX-GA-SRMI"])
	}
}

func TestFig9(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig9(&buf, tiny())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Median <= 0 || r.Max < r.P99 || r.P99 < r.Median {
			t.Fatalf("bad percentiles: %+v", r)
		}
	}
}

func TestFig10(t *testing.T) {
	var buf bytes.Buffer
	rows := Fig10(&buf, tiny())
	if len(rows) != 16 { // 4 datasets x 4 overheads
		t.Fatalf("rows = %d", len(rows))
	}
	// Data size must grow with the overhead budget within each dataset.
	for d := 0; d < 4; d++ {
		base := rows[d*4]
		top := rows[d*4+3]
		if top.DataBytes <= base.DataBytes {
			t.Fatalf("%s: 3x budget data %d not above 20%% budget %d",
				top.Dataset, top.DataBytes, base.DataBytes)
		}
	}
}

func TestFig11ExponentialScalesWithError(t *testing.T) {
	o := tiny()
	o.ReadOnlyInit = 100000
	var buf bytes.Buffer
	rows := Fig11(&buf, o)
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Comparisons must grow with error size for exponential search.
	if rows[0].ExpComparisons >= rows[len(rows)-1].ExpComparisons {
		t.Fatalf("exp comparisons did not grow with error: %.1f .. %.1f",
			rows[0].ExpComparisons, rows[len(rows)-1].ExpComparisons)
	}
	// At tiny error, exponential must beat the wide bounded binary.
	if rows[0].ExpNsPerOp >= rows[0].Bin4096NsPerOp*2 {
		t.Fatalf("exp search at error 0 (%.1f ns) not competitive with bin4096 (%.1f ns)",
			rows[0].ExpNsPerOp, rows[0].Bin4096NsPerOp)
	}
}

func TestFig12AdaptiveBoundsLeaves(t *testing.T) {
	var buf bytes.Buffer
	res := Fig12(&buf, tiny())
	if res.AdaptiveOver != 0 {
		t.Fatalf("adaptive RMI has %d leaves over the bound", res.AdaptiveOver)
	}
	if len(res.StaticSizes) == 0 || len(res.AdaptiveSizes) == 0 {
		t.Fatal("no leaves")
	}
}

func TestFig13(t *testing.T) {
	var buf bytes.Buffer
	Fig13(&buf, tiny())
	out := buf.String()
	if !strings.Contains(out, "Fig 13") || !strings.Contains(out, "Fig 14") {
		t.Fatalf("missing sections:\n%s", out)
	}
}

func TestAblationLeafBound(t *testing.T) {
	var buf bytes.Buffer
	rows := AblationLeafBound(&buf, tiny())
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Smaller bounds must yield more leaves.
	if rows[0].Leaves <= rows[len(rows)-1].Leaves {
		t.Fatalf("leaf count did not shrink with bound: %d .. %d",
			rows[0].Leaves, rows[len(rows)-1].Leaves)
	}
	for _, r := range rows {
		if r.Throughput <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestAblationSplitFanout(t *testing.T) {
	var buf bytes.Buffer
	rows := AblationSplitFanout(&buf, tiny())
	if len(rows) != 4 { // the swept fanout budgets
		t.Fatalf("rows = %d", len(rows))
	}
	// Larger split fanout must produce at least as many leaves under the
	// same shift workload (comparing within the swept series).
	if rows[3].Leaves < rows[0].Leaves {
		t.Fatalf("fanout 16 leaves %d < fanout 2 leaves %d",
			rows[3].Leaves, rows[0].Leaves)
	}
}

func TestExtDeleteChurn(t *testing.T) {
	var buf bytes.Buffer
	rows := ExtDeleteChurn(&buf, tiny())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Throughput <= 0 || r.DataBytes <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestExtTheory(t *testing.T) {
	var buf bytes.Buffer
	out := ExtTheory(&buf, tiny())
	if len(out) != 4 {
		t.Fatalf("datasets = %d", len(out))
	}
	for name, rows := range out {
		prev := -1.0
		for _, r := range rows {
			if r.Simulated < r.LowerFrac-1e-9 || r.Simulated > r.UpperFrac+1e-9 {
				t.Fatalf("%s c=%v: simulated %.3f outside [%v, %v]",
					name, r.C, r.Simulated, r.LowerFrac, r.UpperFrac)
			}
			if r.Simulated < prev {
				t.Fatalf("%s: direct-hit fraction fell from %.3f to %.3f", name, prev, r.Simulated)
			}
			prev = r.Simulated
		}
	}
}

func TestExtDisk(t *testing.T) {
	var buf bytes.Buffer
	rows := ExtDisk(&buf, tiny())
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	warm, tinyCache := rows[1], rows[3]
	if warm.HitRate < 0.99 {
		t.Fatalf("warm cache hit rate %.3f", warm.HitRate)
	}
	if tinyCache.HitRate > 0.5 {
		t.Fatalf("4-page cache hit rate %.3f suspiciously high", tinyCache.HitRate)
	}
	if tinyCache.PhysReads == 0 {
		t.Fatal("tiny cache performed no physical reads")
	}
	// The paged RMI stays tiny relative to paged data.
	if rows[1].IndexBytes > rows[1].DataBytes/10 {
		t.Fatalf("paged RMI %d B not small vs data %d B", rows[1].IndexBytes, rows[1].DataBytes)
	}
}

func TestTuneBaselines(t *testing.T) {
	// The -tune path mirrors §5.1's grid search; it must pick a valid
	// candidate and the tuned Fig 4 run must still work end to end.
	o := tiny()
	o.ReadOnlyInit = 20000
	o.Ops = 10000
	o.TuneBaselines = true
	var buf bytes.Buffer
	rows := Fig4(&buf, o, workload.ReadOnly)
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
	out := buf.String()
	if !strings.Contains(out, "B+Tree(page=") {
		t.Fatalf("no tuned page size in output:\n%s", out)
	}
	for _, r := range rows {
		if r.Throughput <= 0 || r.Misses != 0 {
			t.Fatalf("bad tuned row %+v", r)
		}
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	for _, name := range Order {
		if Experiments[name] == nil {
			t.Fatalf("experiment %q not registered", name)
		}
	}
	// The combined fig4 alias exists but is not in Order (its four
	// columns are).
	if Experiments["fig4"] == nil {
		t.Fatal("fig4 alias missing")
	}
	if len(Experiments) != len(Order)+1 {
		t.Fatalf("registry has %d entries, want %d", len(Experiments), len(Order)+1)
	}
}

func TestExtConcurrent(t *testing.T) {
	var buf bytes.Buffer
	rows := ExtConcurrent(&buf, tiny())
	if len(rows) != 6 { // 2 mixes x 3 goroutine counts
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.SyncOpsPerS <= 0 || r.ShardedOpsPerS <= 0 || r.Speedup <= 0 {
			t.Fatalf("bad row %+v", r)
		}
		if r.Goroutines != 1 && r.Goroutines != 4 && r.Goroutines != 8 {
			t.Fatalf("unexpected goroutine count %d", r.Goroutines)
		}
	}
	if !strings.Contains(buf.String(), "ShardedIndex") {
		t.Fatal("sharded column missing from output")
	}
}

func TestExtErrorBounds(t *testing.T) {
	var buf bytes.Buffer
	rows := ExtErrorBounds(&buf, tiny())
	if len(rows) != len(datasets.All) {
		t.Fatalf("rows = %d, want %d", len(rows), len(datasets.All))
	}
	for _, r := range rows {
		if r.P50 < 0 || r.P99 < r.P50 {
			t.Fatalf("%s: percentiles not monotone: p50=%d p99=%d", r.Dataset, r.P50, r.P99)
		}
		if r.BoundedShare < 0 || r.BoundedShare > 1 {
			t.Fatalf("%s: bounded share %v out of range", r.Dataset, r.BoundedShare)
		}
		if r.BoundedNs <= 0 || r.ExpNs <= 0 {
			t.Fatalf("%s: non-positive timings %v / %v", r.Dataset, r.BoundedNs, r.ExpNs)
		}
	}
	out := buf.String()
	if !strings.Contains(out, "error bounds & search-strategy selection") {
		t.Fatalf("missing section header in:\n%s", out)
	}
	if !strings.Contains(out, "error-bound histogram") {
		t.Fatalf("missing histogram in:\n%s", out)
	}
}

// BenchmarkGetBoundedVsExponential measures the same point lookups on
// the same drifted tree with the error-bound-driven bounded search on
// (the default) and forced off (every miss brackets exponentially —
// the pre-ISSUE-5 read path). The Bounded run also reports the leaf
// error distribution, which benchjson folds into BENCH_ci.json's
// error_bounds block.
func BenchmarkGetBoundedVsExponential(b *testing.B) {
	defer gapped.SetBoundedSearch(true)
	keys := datasets.Generate(datasets.Longitudes, 1<<17, 7)
	init, stream := keys[:1<<16], keys[1<<16:]
	tr, err := core.BulkLoad(init, nil, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	for i, k := range stream {
		tr.Insert(k, uint64(i))
	}
	mask := len(keys) - 1
	for _, mode := range []struct {
		name string
		on   bool
	}{{"Bounded", true}, {"Exponential", false}} {
		b.Run(mode.name, func(b *testing.B) {
			gapped.SetBoundedSearch(mode.on)
			var sink uint64
			for i := 0; i < b.N; i++ {
				v, _ := tr.Get(keys[i&mask])
				sink += v
			}
			_ = sink
			if mode.on {
				st := tr.Stats()
				b.ReportMetric(float64(st.LeafErrPercentile(50)), "p50-leaf-err")
				b.ReportMetric(float64(st.LeafErrPercentile(99)), "p99-leaf-err")
				b.ReportMetric(st.BoundedShare(), "bounded-share")
			}
		})
	}
}
