package alex_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§5). Each benchmark invokes the corresponding experiment driver in
// internal/bench at a laptop-friendly scale; `go run ./cmd/alexbench`
// runs the same drivers with printed tables and configurable sizes.
// Additional micro-benchmarks at the bottom measure the public API's
// point operations per dataset, which the figure-level numbers decompose
// into.

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	alex "repro"
	"repro/internal/bench"
	"repro/internal/datasets"
	"repro/internal/workload"
)

// benchOpts is deliberately modest so `go test -bench=.` finishes in
// minutes; use cmd/alexbench for larger runs.
func benchOpts() bench.Options {
	return bench.Options{ReadOnlyInit: 100000, RWInit: 25000, Ops: 50000, Seed: 1}
}

func BenchmarkTable1Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Table1(io.Discard, benchOpts())
	}
}

func BenchmarkFig4ReadOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig4(io.Discard, benchOpts(), workload.ReadOnly)
	}
}

func BenchmarkFig4ReadHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig4(io.Discard, benchOpts(), workload.ReadHeavy)
	}
}

func BenchmarkFig4WriteHeavy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig4(io.Discard, benchOpts(), workload.WriteHeavy)
	}
}

func BenchmarkFig4RangeScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig4(io.Discard, benchOpts(), workload.RangeScan)
	}
}

func BenchmarkFig5aScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig5a(io.Discard, benchOpts())
	}
}

func BenchmarkFig5bShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig5b(io.Discard, benchOpts())
	}
}

func BenchmarkFig5cSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig5c(io.Discard, benchOpts())
	}
}

func BenchmarkFig6Lifetime(b *testing.B) {
	o := benchOpts()
	o.ReadOnlyInit = 50000
	for i := 0; i < b.N; i++ {
		bench.Fig6(io.Discard, o)
	}
}

func BenchmarkFig7PredictionError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig7(io.Discard, benchOpts())
	}
}

func BenchmarkFig8Shifts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig8(io.Discard, benchOpts())
	}
}

func BenchmarkFig9Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig9(io.Discard, benchOpts())
	}
}

func BenchmarkFig10Space(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig10(io.Discard, benchOpts())
	}
}

func BenchmarkFig11Search(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig11(io.Discard, benchOpts())
	}
}

func BenchmarkFig12LeafSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.Fig12(io.Discard, benchOpts())
	}
}

// --- Extension experiments (ablations + §7 future-work features) ---

func BenchmarkAblationLeafBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationLeafBound(io.Discard, benchOpts())
	}
}

func BenchmarkAblationSplitFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.AblationSplitFanout(io.Discard, benchOpts())
	}
}

func BenchmarkExtDeleteChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ExtDeleteChurn(io.Discard, benchOpts())
	}
}

func BenchmarkExtTheory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ExtTheory(io.Discard, benchOpts())
	}
}

func BenchmarkExtDisk(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ExtDisk(io.Discard, benchOpts())
	}
}

// --- Public-API micro-benchmarks, one per dataset ---

func benchGet(b *testing.B, name datasets.Name) {
	keys := datasets.Generate(name, 1<<17, 7)
	idx, err := alex.Load(keys, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := idx.Get(keys[i&(len(keys)-1)])
		sink += v
	}
	_ = sink
}

func BenchmarkGetLongitudes(b *testing.B) { benchGet(b, datasets.Longitudes) }
func BenchmarkGetLongLat(b *testing.B)    { benchGet(b, datasets.LongLat) }
func BenchmarkGetLognormal(b *testing.B)  { benchGet(b, datasets.Lognormal) }
func BenchmarkGetYCSB(b *testing.B)       { benchGet(b, datasets.YCSB) }

func benchInsert(b *testing.B, name datasets.Name) {
	// Generate enough keys for the largest plausible b.N in one draw.
	keys := datasets.Generate(name, 1<<17, 8)
	idx, err := alex.Load(keys[:1<<15], nil, alex.WithSplitOnInsert())
	if err != nil {
		b.Fatal(err)
	}
	stream := keys[1<<15:]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Insert(stream[i%len(stream)], uint64(i))
	}
}

func BenchmarkInsertLongitudes(b *testing.B) { benchInsert(b, datasets.Longitudes) }
func BenchmarkInsertYCSB(b *testing.B)       { benchInsert(b, datasets.YCSB) }

func BenchmarkScan100(b *testing.B) {
	keys := datasets.GenYCSB(1<<17, 9)
	idx, _ := alex.Load(keys, nil)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += idx.Scan(keys[i&(len(keys)-1)], counterVisitor(100))
	}
	_ = sink
}

// counterVisitor returns a visit func that stops after n elements.
func counterVisitor(n int) func(float64, uint64) bool {
	remaining := n
	return func(float64, uint64) bool {
		remaining--
		return remaining > 0
	}
}

// --- Batch API: one sorted 10k-key batch vs the equivalent loop ---

const batchBenchSize = 10000

// batchBenchData returns a bulk-load set at the read-write experiment
// scale (benchOpts().RWInit, "so that we capture the throughput as the
// index grows") and a sorted batch for insert benchmarks (duplicates
// only overwrite).
func batchBenchData() (init, batch []float64, pays []uint64) {
	initN := benchOpts().RWInit
	all := datasets.GenLongitudes(initN+batchBenchSize, 21)
	init = all[:initN]
	batch = datasets.Sorted(all[initN:])
	pays = make([]uint64, len(batch))
	for i := range pays {
		pays[i] = uint64(i)
	}
	return init, batch, pays
}

func BenchmarkInsert10kLoop(b *testing.B) {
	init, batch, pays := batchBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx, _ := alex.Load(init, nil)
		b.StartTimer()
		for j, k := range batch {
			idx.Insert(k, pays[j])
		}
	}
}

func BenchmarkInsert10kBatch(b *testing.B) {
	init, batch, pays := batchBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx, _ := alex.Load(init, nil)
		b.StartTimer()
		idx.InsertBatch(batch, pays)
	}
}

func BenchmarkMerge10k(b *testing.B) {
	init, batch, pays := batchBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx, _ := alex.Load(init, nil)
		b.StartTimer()
		idx.Merge(batch, pays)
	}
}

func BenchmarkGet10kLoop(b *testing.B) {
	init, batch, pays := batchBenchData()
	idx, _ := alex.Load(init, nil)
	idx.InsertBatch(batch, pays)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for _, k := range batch {
			v, _ := idx.Get(k)
			sink += v
		}
	}
	_ = sink
}

func BenchmarkGet10kBatch(b *testing.B) {
	init, batch, pays := batchBenchData()
	idx, _ := alex.Load(init, nil)
	idx.InsertBatch(batch, pays)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		vals, _ := idx.GetBatch(batch)
		sink += vals[0]
	}
	_ = sink
}

func BenchmarkDelete10kBatch(b *testing.B) {
	init, batch, pays := batchBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		idx, _ := alex.Load(init, nil)
		idx.InsertBatch(batch, pays)
		b.StartTimer()
		idx.DeleteBatch(batch)
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	keys := datasets.GenLongitudes(1<<17, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := alex.Load(keys, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkLoadCostOptimal times the fanout-tree planner's bulk
// load on the drifted-longitudes dataset, whose local density spans
// orders of magnitude so one fanout cannot fit the whole key space. It
// reports load ns/key plus the post-load per-leaf error-bound
// percentiles and the bounded-search share; benchjson folds them into
// the `bulk_load` block of BENCH_ci.json and the CI gate holds the load
// time to +15% over BENCH_baseline.json.
func BenchmarkBulkLoadCostOptimal(b *testing.B) {
	keys := datasets.Generate(datasets.LongitudesDrifted, 1<<18, 11)
	sorted := datasets.Sorted(keys)
	var idx *alex.Index
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx = alex.LoadSorted(sorted, nil)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(sorted)), "ns/key")
	st := idx.Stats()
	b.ReportMetric(float64(st.LeafErrPercentile(50)), "p50-leaf-err")
	b.ReportMetric(float64(st.LeafErrPercentile(99)), "p99-leaf-err")
	b.ReportMetric(st.BoundedShare(), "bounded-share")
}

// BenchmarkRecoveryRebuild times OpenDurable over a WAL tail heavy
// enough to trip the recovery rebuild threshold: replay coalesces the
// log into merges and the backend is then rebuilt through the
// cost-optimal planner before the index opens.
func BenchmarkRecoveryRebuild(b *testing.B) {
	dir := b.TempDir()
	opts := []alex.DurableOption{
		alex.WithCheckpointEvery(0), alex.WithDurableShards(4),
		alex.WithFsyncPolicy(alex.FsyncNever),
	}
	d, err := alex.OpenDurable(dir, opts...)
	if err != nil {
		b.Fatal(err)
	}
	keys := datasets.Generate(datasets.LongitudesDrifted, 1<<17, 13)
	pays := make([]uint64, 4096)
	for at := 0; at < len(keys); at += len(pays) {
		end := at + len(pays)
		if end > len(keys) {
			end = len(keys)
		}
		d.InsertBatch(keys[at:end], pays[:end-at])
	}
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := alex.OpenDurable(dir, opts...)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := re.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// --- Read path: optimistic (lock-free) vs locked, and the *Into
// zero-allocation variants. The Get/GetLocked (and ShardedGet/
// ShardedGetLocked) pairs measure the same probe with the seqlock
// fast path on and off; benchjson derives the locked/optimistic ratio
// into BENCH_ci.json's read_path block, and the CI gate compares Get
// ns/op against the committed BENCH_baseline.json. Run with -benchmem:
// the 0 allocs/op column is part of the contract (see
// TestZeroAllocReadPaths for the hard assertion). ---

func readPathSync(b *testing.B) (*alex.SyncIndex, []float64) {
	b.Helper()
	keys := datasets.Generate(datasets.Longitudes, 1<<17, 7)
	idx, err := alex.LoadSync(keys, nil)
	if err != nil {
		b.Fatal(err)
	}
	return idx, keys
}

func readPathSharded(b *testing.B) (*alex.ShardedIndex, []float64) {
	b.Helper()
	keys := datasets.Generate(datasets.Longitudes, 1<<17, 7)
	idx, err := alex.LoadSharded(8, keys, nil)
	if err != nil {
		b.Fatal(err)
	}
	return idx, keys
}

func benchPointGet(b *testing.B, idx interface {
	Get(key float64) (uint64, bool)
}, keys []float64) {
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := idx.Get(keys[i&(len(keys)-1)])
		sink += v
	}
	_ = sink
}

// BenchmarkGet is the headline single-threaded point read: SyncIndex
// with the optimistic path on (the default).
func BenchmarkGet(b *testing.B) {
	idx, keys := readPathSync(b)
	benchPointGet(b, idx, keys)
}

// BenchmarkGetLocked forces every read through the RLock fallback —
// the pre-seqlock behavior, kept as the in-tree locked baseline.
func BenchmarkGetLocked(b *testing.B) {
	idx, keys := readPathSync(b)
	idx.SetOptimisticReads(false)
	benchPointGet(b, idx, keys)
}

func BenchmarkShardedGet(b *testing.B) {
	idx, keys := readPathSharded(b)
	benchPointGet(b, idx, keys)
}

func BenchmarkShardedGetLocked(b *testing.B) {
	idx, keys := readPathSharded(b)
	idx.SetOptimisticReads(false)
	benchPointGet(b, idx, keys)
}

// BenchmarkGetBatchInto is the zero-allocation batch read: one sorted
// 10k-key batch per iteration into reused destination slices.
func BenchmarkGetBatchInto(b *testing.B) {
	init, batch, pays := batchBenchData()
	idx, err := alex.LoadSync(init, nil)
	if err != nil {
		b.Fatal(err)
	}
	idx.InsertBatch(batch, pays)
	vals := make([]uint64, len(batch))
	found := make([]bool, len(batch))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.GetBatchInto(batch, vals, found)
	}
}

// BenchmarkScanNInto is the zero-allocation bounded scan: 100 elements
// per iteration into reused destination slices, stitched across the
// shards of a ShardedIndex.
func BenchmarkScanNInto(b *testing.B) {
	idx, keys := readPathSharded(b)
	scanK := make([]float64, 0, 100)
	scanV := make([]uint64, 0, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanK, scanV = idx.ScanNInto(keys[i&(len(keys)-1)], 100, scanK, scanV)
	}
}

// --- Concurrent throughput: SyncIndex vs ShardedIndex, 1/4/8 goroutines ---

// benchConcurrentMix runs b.N operations (split across g goroutines)
// of bench.RunConcurrentMix — the same mixed workload the
// ext-concurrent driver measures, so CI's BENCH_ci.json and the
// printed table report one workload. writePct is the write
// percentage: 10 for the read-heavy mix, 50 for the write-heavy
// (mixed) one. The Sharded-vs-Sync ns/op ratio at equal g is the
// scaling headline the CI bench-smoke job records.
func benchConcurrentMix(b *testing.B, mk func(init []float64) bench.ConcurrentIndex, g, writePct int) {
	initN := benchOpts().RWInit
	all := datasets.GenLongitudes(initN+1<<17, 42)
	init, pool := all[:initN], all[initN:]
	idx := mk(init)
	b.ResetTimer()
	bench.RunConcurrentMix(idx, init, pool, g, b.N, writePct, 1)
}

func newSyncBench(init []float64) bench.ConcurrentIndex {
	s, err := alex.LoadSync(init, nil, alex.WithSplitOnInsert())
	if err != nil {
		panic(err)
	}
	return s
}

func newShardedBench(init []float64) bench.ConcurrentIndex {
	s, err := alex.LoadSharded(8, init, nil, alex.WithSplitOnInsert())
	if err != nil {
		panic(err)
	}
	return s
}

func BenchmarkConcurrentSyncReadHeavy1(b *testing.B) { benchConcurrentMix(b, newSyncBench, 1, 10) }
func BenchmarkConcurrentSyncReadHeavy4(b *testing.B) { benchConcurrentMix(b, newSyncBench, 4, 10) }
func BenchmarkConcurrentSyncReadHeavy8(b *testing.B) { benchConcurrentMix(b, newSyncBench, 8, 10) }

func BenchmarkConcurrentSyncWriteHeavy1(b *testing.B) { benchConcurrentMix(b, newSyncBench, 1, 50) }
func BenchmarkConcurrentSyncWriteHeavy4(b *testing.B) { benchConcurrentMix(b, newSyncBench, 4, 50) }
func BenchmarkConcurrentSyncWriteHeavy8(b *testing.B) { benchConcurrentMix(b, newSyncBench, 8, 50) }

func BenchmarkConcurrentShardedReadHeavy1(b *testing.B) {
	benchConcurrentMix(b, newShardedBench, 1, 10)
}
func BenchmarkConcurrentShardedReadHeavy4(b *testing.B) {
	benchConcurrentMix(b, newShardedBench, 4, 10)
}
func BenchmarkConcurrentShardedReadHeavy8(b *testing.B) {
	benchConcurrentMix(b, newShardedBench, 8, 10)
}

// The Locked variants force the read path through the per-shard (or
// per-index) RLock — the pre-seqlock behavior — so the optimistic
// win under concurrency is measured, not assumed.
func newSyncLockedBench(init []float64) bench.ConcurrentIndex {
	s := newSyncBench(init).(*alex.SyncIndex)
	s.SetOptimisticReads(false)
	return s
}

func newShardedLockedBench(init []float64) bench.ConcurrentIndex {
	s := newShardedBench(init).(*alex.ShardedIndex)
	s.SetOptimisticReads(false)
	return s
}

func BenchmarkConcurrentSyncReadHeavy8Locked(b *testing.B) {
	benchConcurrentMix(b, newSyncLockedBench, 8, 10)
}

func BenchmarkConcurrentShardedReadHeavy8Locked(b *testing.B) {
	benchConcurrentMix(b, newShardedLockedBench, 8, 10)
}

func BenchmarkConcurrentShardedWriteHeavy1(b *testing.B) {
	benchConcurrentMix(b, newShardedBench, 1, 50)
}
func BenchmarkConcurrentShardedWriteHeavy4(b *testing.B) {
	benchConcurrentMix(b, newShardedBench, 4, 50)
}
func BenchmarkConcurrentShardedWriteHeavy8(b *testing.B) {
	benchConcurrentMix(b, newShardedBench, 8, 50)
}

// --- Durability tax: WAL'd writes per fsync policy vs the in-memory
// baseline. CI's BENCH_ci.json derives DurableWrite*/Baseline ratios
// (the tax) and records the fsyncs/op metric, which drops below 1 under
// group commit.

func benchDurableWrite(b *testing.B, opts ...alex.DurableOption) {
	base := []alex.DurableOption{alex.WithCheckpointEvery(0), alex.WithDurableShards(8)}
	d, err := alex.OpenDurable(b.TempDir(), append(base, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	keys := datasets.GenLongitudes(1<<17, 33)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Insert(keys[i%len(keys)], uint64(i))
	}
	b.StopTimer()
	st := d.WALStats()
	b.ReportMetric(float64(st.Syncs)/float64(b.N), "fsyncs/op")
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkDurableWriteAlways(b *testing.B) {
	benchDurableWrite(b, alex.WithFsyncPolicy(alex.FsyncAlways))
}

func BenchmarkDurableWriteInterval(b *testing.B) {
	benchDurableWrite(b, alex.WithFsyncPolicy(alex.FsyncInterval))
}

func BenchmarkDurableWriteNone(b *testing.B) {
	benchDurableWrite(b, alex.WithFsyncPolicy(alex.FsyncNever))
}

// BenchmarkDurableWriteBaseline is the same write loop without the
// durability layer — the denominator of the tax ratios.
func BenchmarkDurableWriteBaseline(b *testing.B) {
	idx := alex.NewSharded(8, alex.WithSplitOnInsert())
	keys := datasets.GenLongitudes(1<<17, 33)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Insert(keys[i%len(keys)], uint64(i))
	}
}

// BenchmarkDurableWriteAlwaysParallel8 shows group commit: 8 writers
// under FsyncAlways share fsyncs, so fsyncs/op and ns/op both drop well
// below the single-writer numbers.
func BenchmarkDurableWriteAlwaysParallel8(b *testing.B) {
	d, err := alex.OpenDurable(b.TempDir(),
		alex.WithCheckpointEvery(0), alex.WithDurableShards(8),
		alex.WithFsyncPolicy(alex.FsyncAlways))
	if err != nil {
		b.Fatal(err)
	}
	keys := datasets.GenLongitudes(1<<17, 33)
	// Exactly 8 writer goroutines regardless of GOMAXPROCS, so the
	// fsyncs/op numbers CI archives are comparable across machines
	// (b.RunParallel's writer count is GOMAXPROCS-dependent).
	const writers = 8
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i > int64(b.N) {
					return
				}
				d.Insert(keys[uint64(i)%uint64(len(keys))], uint64(i))
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	st := d.WALStats()
	b.ReportMetric(float64(st.Syncs)/float64(b.N), "fsyncs/op")
	if err := d.Close(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkExtConcurrent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bench.ExtConcurrent(io.Discard, benchOpts())
	}
}

// --- Snapshot / checkpoint concurrency: Stats, WriteTo, scans and the
// background checkpointer consume a consistent point-in-time snapshot
// instead of holding the exclusive gate for the operation's duration. These benchmarks record what that
// buys: write tail latency while a checkpoint loop runs concurrently
// (vs the undisturbed baseline — the acceptance bar wants the p99
// within ~2x), and Stats / snapshot-scan / snapshot-cut latency under
// a full write storm. benchjson folds the numbers into the `snapshot`
// block of BENCH_ci.json.

// benchSnapshotWriteP99 measures per-insert latency on a durable
// sharded index and reports the p99 (µs); disturb, when non-nil, runs
// concurrently until the timed loop ends.
func benchSnapshotWriteP99(b *testing.B, disturb func(d *alex.DurableIndex, stop *atomic.Bool)) {
	d, err := alex.OpenDurable(b.TempDir(),
		alex.WithCheckpointEvery(0), alex.WithDurableShards(8),
		alex.WithFsyncPolicy(alex.FsyncNever))
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	keys := datasets.GenLongitudes(1<<17, 33)
	d.Merge(keys, nil) // give checkpoints a real tree to serialize
	var stop atomic.Bool
	var wg sync.WaitGroup
	if disturb != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			disturb(d, &stop)
		}()
	}
	lats := make([]float64, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		d.Insert(keys[i%len(keys)]+0.5, uint64(i))
		lats[i] = float64(time.Since(t0))
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
	sort.Float64s(lats)
	p99 := lats[(len(lats)*99)/100]
	b.ReportMetric(p99/1e3, "write-p99-us")
}

// BenchmarkSnapshotWriteP99Baseline is the undisturbed write loop — the
// denominator of the checkpoint-concurrent p99 ratio.
func BenchmarkSnapshotWriteP99Baseline(b *testing.B) {
	benchSnapshotWriteP99(b, nil)
}

// BenchmarkSnapshotWriteP99Checkpointing runs checkpoints back to back
// while the writes are timed. Each checkpoint cuts a snapshot (a brief
// exclusive section) and serializes it to disk with
// no index lock held, so write p99 should stay in the same range as the
// baseline instead of absorbing whole-serialization stalls.
func BenchmarkSnapshotWriteP99Checkpointing(b *testing.B) {
	benchSnapshotWriteP99(b, func(d *alex.DurableIndex, stop *atomic.Bool) {
		for !stop.Load() {
			if err := d.Checkpoint(); err != nil {
				return
			}
		}
	})
}

// benchUnderWriteStorm runs op b.N times on a sharded index while
// background writers churn every shard.
func benchUnderWriteStorm(b *testing.B, op func(idx *alex.ShardedIndex, i int)) {
	idx := alex.NewSharded(8, alex.WithSplitOnInsert())
	keys := datasets.GenLongitudes(1<<17, 33)
	idx.Merge(keys, nil)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				idx.Insert(keys[i%len(keys)]+0.25, uint64(i))
			}
		}(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(idx, i)
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}

// BenchmarkSnapshotStatsUnderWriteStorm measures Stats() while writers
// storm: a brief consistent cut, not a pause of the write pipeline.
func BenchmarkSnapshotStatsUnderWriteStorm(b *testing.B) {
	benchUnderWriteStorm(b, func(idx *alex.ShardedIndex, _ int) {
		_ = idx.Stats()
	})
}

// BenchmarkSnapshotCutUnderWriteStorm measures the snapshot cut — one
// sealing pass over every shard under the exclusive gate — under the
// same storm.
func BenchmarkSnapshotCutUnderWriteStorm(b *testing.B) {
	benchUnderWriteStorm(b, func(idx *alex.ShardedIndex, _ int) {
		idx.Snapshot().Close()
	})
}

// BenchmarkSnapshotScan100UnderWriteStorm cuts a snapshot and scans 100
// elements from it per op: the pattern Stats/WriteTo/Iter consumers use,
// entirely lock-free after the cut.
func BenchmarkSnapshotScan100UnderWriteStorm(b *testing.B) {
	kbuf := make([]float64, 0, 100)
	vbuf := make([]uint64, 0, 100)
	benchUnderWriteStorm(b, func(idx *alex.ShardedIndex, i int) {
		snap := idx.Snapshot()
		kbuf, vbuf = snap.ScanNInto(float64(i%100), 100, kbuf, vbuf)
		snap.Close()
	})
}
