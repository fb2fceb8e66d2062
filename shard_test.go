package alex_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	alex "repro"
	"repro/internal/datasets"
)

// shardedFixture loads n lognormal keys into a ShardedIndex with the
// given shard count and returns the sorted keys for reference.
func shardedFixture(t *testing.T, shards, n int) (*alex.ShardedIndex, []float64) {
	t.Helper()
	keys := datasets.GenLognormal(n, 17)
	payloads := make([]uint64, n)
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	s, err := alex.LoadSharded(shards, keys, payloads)
	if err != nil {
		t.Fatal(err)
	}
	return s, datasets.Sorted(keys)
}

func TestShardedPointOps(t *testing.T) {
	s, sorted := shardedFixture(t, 4, 5000)
	if s.NumShards() != 4 {
		t.Fatalf("NumShards = %d", s.NumShards())
	}
	if s.Len() != len(sorted) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(sorted))
	}
	for _, k := range sorted[:200] {
		if !s.Contains(k) {
			t.Fatalf("missing key %v", k)
		}
	}
	if _, ok := s.Get(sorted[0] - 1); ok {
		t.Fatal("found absent key")
	}
	// Update round-trips.
	if !s.Update(sorted[10], 999) {
		t.Fatal("update failed")
	}
	if v, _ := s.Get(sorted[10]); v != 999 {
		t.Fatalf("payload = %d after update", v)
	}
	// Insert new, delete old — across the whole key range so every
	// shard is exercised.
	for i, k := range sorted {
		if i%7 == 0 {
			if !s.Delete(k) {
				t.Fatalf("delete %v failed", k)
			}
		}
	}
	for i, k := range sorted {
		want := i%7 != 0
		if s.Contains(k) != want {
			t.Fatalf("Contains(%v) = %v after deletes", k, !want)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedRouterBalance(t *testing.T) {
	s, _ := shardedFixture(t, 8, 8000)
	lens := s.ShardLens()
	if len(lens) != 8 {
		t.Fatalf("lens = %v", lens)
	}
	total := 0
	for _, l := range lens {
		total += l
	}
	if total != 8000 {
		t.Fatalf("total = %d", total)
	}
	// Quantile boundaries put an equal share (±1) in every shard even
	// though the lognormal key *range* is wildly skewed.
	for i, l := range lens {
		if l < 999 || l > 1001 {
			t.Fatalf("shard %d holds %d of 8000; router is not quantile-balanced: %v", i, l, lens)
		}
	}
}

func TestShardedMinMax(t *testing.T) {
	s, sorted := shardedFixture(t, 5, 3000)
	if k, ok := s.MinKey(); !ok || k != sorted[0] {
		t.Fatalf("MinKey = %v %v", k, ok)
	}
	if k, ok := s.MaxKey(); !ok || k != sorted[len(sorted)-1] {
		t.Fatalf("MaxKey = %v %v", k, ok)
	}
	empty := alex.NewSharded(3)
	if _, ok := empty.MinKey(); ok {
		t.Fatal("MinKey on empty")
	}
	if _, ok := empty.MaxKey(); ok {
		t.Fatal("MaxKey on empty")
	}
	if empty.Len() != 0 {
		t.Fatal("Len on empty")
	}
}

// TestShardedBatchMatchesLoop checks the sharded batch API against a
// SyncIndex reference, and every GetBatch result against a per-key Get
// loop — over one and four shards; a full, an empty, and a one-key
// index; and probe batches of lengths around the lookup group size,
// descending and duplicate-carrying order, keys at leaf seams and
// beyond both ends of the key space, and signed zero and the smallest
// denormal.
func TestShardedBatchMatchesLoop(t *testing.T) {
	const n = 6000
	keys := datasets.GenLongitudes(2*n, 23)
	init, extra := keys[:n], datasets.Sorted(keys[n:])
	payloads := make([]uint64, len(extra))
	for i := range payloads {
		payloads[i] = uint64(i) * 3
	}
	sorted := datasets.Sorted(append([]float64(nil), init...))
	// Stored keys of both halves and absent midpoints, in random order.
	mixed := make([]float64, 0, 300)
	for i := 0; i < 100; i++ {
		mixed = append(mixed, init[i], keys[n+i], sorted[2*i]+(sorted[2*i+1]-sorted[2*i])/2)
	}
	probes := map[string][]float64{
		"stored": append(append(append([]float64{}, extra...), init[:100]...), -1e9),
		"descending": func() []float64 {
			ks := datasets.Sorted(append([]float64(nil), mixed...))
			slices.Reverse(ks)
			return append(ks, ks[:30]...) // and duplicates
		}(),
		// The midpoint of every adjacent stored pair: each leaf seam
		// has one, falling between the two leaves' ranges.
		"between": func() []float64 {
			ks := make([]float64, len(sorted)-1)
			for i := range ks {
				ks[i] = sorted[i] + (sorted[i+1]-sorted[i])/2
			}
			return ks
		}(),
		"ends": {
			-math.MaxFloat64, sorted[0] - 1, math.Nextafter(sorted[0], math.Inf(-1)),
			math.Nextafter(sorted[len(sorted)-1], math.Inf(1)), sorted[len(sorted)-1] + 1, math.MaxFloat64,
		},
		"zeros": {-math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64},
	}
	for _, l := range []int{1, 31, 32, 33, 64, 65} {
		probes[fmt.Sprintf("len%d", l)] = mixed[:l]
	}

	for _, shards := range []int{1, 4} {
		for bname, base := range map[string][]float64{"full": init, "emptyindex": nil, "onekey": init[:1]} {
			name := fmt.Sprintf("%dshards/%s", shards, bname)
			s, err := alex.LoadSharded(shards, base, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := alex.LoadSync(base, nil)
			if err != nil {
				t.Fatal(err)
			}

			if got, want := s.InsertBatch(extra, payloads), ref.InsertBatch(extra, payloads); got != want {
				t.Fatalf("%s: InsertBatch = %d, want %d", name, got, want)
			}
			for pname, probe := range probes {
				gotV, gotF := s.GetBatch(probe)
				wantV, wantF := ref.GetBatch(probe)
				for i, k := range probe {
					v, ok := s.Get(k)
					if gotF[i] != ok || gotV[i] != v {
						t.Fatalf("%s/%s: GetBatch[%d] (key %v) = (%d,%v), Get = (%d,%v)", name, pname, i, k, gotV[i], gotF[i], v, ok)
					}
					if gotF[i] != wantF[i] || (gotF[i] && gotV[i] != wantV[i]) {
						t.Fatalf("%s/%s: GetBatch[%d] = (%d,%v), want (%d,%v)", name, pname, i, gotV[i], gotF[i], wantV[i], wantF[i])
					}
				}
			}
			if got, want := s.DeleteBatch(extra[:n/2]), ref.DeleteBatch(extra[:n/2]); got != want {
				t.Fatalf("%s: DeleteBatch = %d, want %d", name, got, want)
			}
			if got, want := s.Merge(extra, payloads), ref.Merge(extra, payloads); got != want {
				t.Fatalf("%s: Merge = %d, want %d", name, got, want)
			}
			if got, want := s.Len(), ref.Len(); got != want {
				t.Fatalf("%s: Len = %d, want %d", name, got, want)
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestShardedBatchEmptyAndMismatch(t *testing.T) {
	s := alex.NewSharded(4)
	if v, f := s.GetBatch(nil); len(v) != 0 || len(f) != 0 {
		t.Fatal("GetBatch(nil) not empty")
	}
	if s.InsertBatch(nil, nil) != 0 || s.DeleteBatch(nil) != 0 || s.Merge(nil, nil) != 0 {
		t.Fatal("empty batches not zero")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("InsertBatch length mismatch did not panic")
		}
	}()
	s.InsertBatch([]float64{1, 2}, []uint64{1})
}

func TestShardedScanStitchesShards(t *testing.T) {
	s, sorted := shardedFixture(t, 6, 4000)
	// Full scan returns the global key order across all shard seams.
	var got []float64
	n := s.Scan(math.Inf(-1), func(k float64, v uint64) bool {
		got = append(got, k)
		return true
	})
	if n != len(sorted) || len(got) != len(sorted) {
		t.Fatalf("scan visited %d, want %d", n, len(sorted))
	}
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("scan[%d] = %v, want %v", i, got[i], sorted[i])
		}
	}
	// Mid-range start and early stop.
	start := sorted[len(sorted)/2]
	count := 0
	s.Scan(start, func(k float64, v uint64) bool {
		if k < start {
			t.Fatalf("scan from %v visited smaller key %v", start, k)
		}
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("bounded scan visited %d", count)
	}
	// ScanN across a shard boundary: compare against the sorted slice.
	from := len(sorted)/3 - 5
	ks, _ := s.ScanN(sorted[from], 500)
	if len(ks) != 500 {
		t.Fatalf("ScanN returned %d", len(ks))
	}
	for i, k := range ks {
		if k != sorted[from+i] {
			t.Fatalf("ScanN[%d] = %v, want %v", i, k, sorted[from+i])
		}
	}
	if ks, vs := s.ScanN(sorted[0], 0); len(ks) != 0 || len(vs) != 0 {
		t.Fatal("ScanN max=0 returned elements")
	}
}

func TestShardedIterator(t *testing.T) {
	s, sorted := shardedFixture(t, 7, 3000)
	it := s.Iter()
	if it.Valid() {
		t.Fatal("fresh iterator valid")
	}
	i := 0
	for it.Next() {
		if it.Key() != sorted[i] {
			t.Fatalf("iter[%d] = %v, want %v", i, it.Key(), sorted[i])
		}
		i++
	}
	if i != len(sorted) || it.Valid() {
		t.Fatalf("iterated %d of %d", i, len(sorted))
	}
	// IterFrom starts at the lower bound.
	from := len(sorted) / 2
	it = s.IterFrom(sorted[from])
	for j := 0; j < 20; j++ {
		if !it.Next() {
			t.Fatal("IterFrom exhausted early")
		}
		if it.Key() != sorted[from+j] {
			t.Fatalf("IterFrom[%d] = %v, want %v", j, it.Key(), sorted[from+j])
		}
	}
	// An iterator on an empty index terminates immediately.
	if alex.NewSharded(2).Iter().Next() {
		t.Fatal("empty iterator advanced")
	}
}

func TestShardedColdStartRetrains(t *testing.T) {
	s := alex.NewSharded(4, alex.WithSplitOnInsert())
	// Cold start: everything routes to shard 0 until the router has
	// enough keys to learn quantile boundaries.
	keys := datasets.GenYCSB(6000, 31)
	for i, k := range keys {
		s.Insert(k, uint64(i))
	}
	// The drift-triggered retrain runs on a background goroutine; give
	// it a moment to land.
	deadline := time.Now().Add(5 * time.Second)
	for s.Retrains() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.Retrains() == 0 {
		t.Fatal("router never retrained after 6000 skewed inserts")
	}
	// A manual Rebalance waits for any in-flight retrain and leaves a
	// deterministic balanced state to assert on.
	s.Rebalance()
	lens := s.ShardLens()
	total := 0
	for _, l := range lens {
		total += l
	}
	if total != s.Len() || total != 6000 {
		t.Fatalf("lens %v sum %d, want %d", lens, total, 6000)
	}
	// After a retrain the biggest shard must be near its fair share.
	biggest := 0
	for _, l := range lens {
		if l > biggest {
			biggest = l
		}
	}
	if biggest > 2*total/len(lens)+1024 {
		t.Fatalf("router left shards skewed: %v", lens)
	}
	// Contents survived the re-partitions.
	for i, k := range keys {
		if v, ok := s.Get(k); !ok || v != uint64(i) {
			t.Fatalf("key %v lost after retrains: %d %v", k, v, ok)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedManualRebalance(t *testing.T) {
	s, _ := shardedFixture(t, 4, 4000)
	// Skew the index: merge a dense block far above every boundary.
	block := make([]float64, 4000)
	vals := make([]uint64, 4000)
	for i := range block {
		block[i] = 1e6 + float64(i)
		vals[i] = uint64(i)
	}
	s.Merge(block, vals)
	s.Rebalance()
	if s.Retrains() == 0 {
		t.Fatal("manual Rebalance did not retrain")
	}
	lens := s.ShardLens()
	for i, l := range lens {
		if l < 1999 || l > 2001 {
			t.Fatalf("shard %d holds %d of 8000 after Rebalance: %v", i, l, lens)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedLoadErrors(t *testing.T) {
	if _, err := alex.LoadSharded(4, []float64{1, 2, 2, 3}, nil); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := alex.LoadSharded(4, []float64{1, math.NaN()}, nil); err == nil {
		t.Fatal("NaN key accepted")
	}
	if _, err := alex.LoadSharded(4, []float64{1, math.Inf(1)}, nil); err == nil {
		t.Fatal("Inf key accepted")
	}
	if _, err := alex.LoadSharded(4, []float64{1, 2}, []uint64{1}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// More shards than keys: surplus shards sit empty but everything
	// still works.
	s, err := alex.LoadSharded(8, []float64{5, 1, 3}, []uint64{50, 10, 30})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if v, ok := s.Get(3); !ok || v != 30 {
		t.Fatalf("Get(3) = %d %v", v, ok)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedSerializationRoundTrip(t *testing.T) {
	s, sorted := shardedFixture(t, 4, 2000)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// The stream carries the configuration: restoring an index built
	// with a non-default option keeps that option without re-passing it.
	keys := []float64{1, 2, 3, 4}
	tuned, err := alex.LoadSharded(2, keys, nil, alex.WithMaxKeysPerLeaf(128))
	if err != nil {
		t.Fatal(err)
	}
	var tbuf bytes.Buffer
	if _, err := tuned.WriteTo(&tbuf); err != nil {
		t.Fatal(err)
	}
	var plainBuf bytes.Buffer
	ref, _ := alex.Load(keys, nil, alex.WithMaxKeysPerLeaf(128))
	if _, err := ref.WriteTo(&plainBuf); err != nil {
		t.Fatal(err)
	}
	// Identical contents and config serialize to identical streams.
	if !bytes.Equal(tbuf.Bytes(), plainBuf.Bytes()) {
		t.Fatal("sharded WriteTo lost the configured options")
	}
	// Restore with a different shard count.
	back, err := alex.ReadFromSharded(bytes.NewReader(buf.Bytes()), 6)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumShards() != 6 || back.Len() != len(sorted) {
		t.Fatalf("restored shards=%d len=%d", back.NumShards(), back.Len())
	}
	for i := 0; i < len(sorted); i += 37 {
		v1, _ := s.Get(sorted[i])
		v2, ok := back.Get(sorted[i])
		if !ok || v1 != v2 {
			t.Fatalf("round trip lost %v: %d vs %d (%v)", sorted[i], v1, v2, ok)
		}
	}
	// The single-index reader understands the same stream.
	plain, err := alex.ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Len() != len(sorted) {
		t.Fatalf("plain reader len = %d", plain.Len())
	}
}

func TestShardedStats(t *testing.T) {
	s, _ := shardedFixture(t, 4, 4000)
	st := s.Stats()
	if st.NumLeaves == 0 || st.Height < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if s.IndexSizeBytes() <= 0 || s.DataSizeBytes() <= 0 {
		t.Fatal("size accounting empty")
	}
}

// TestShardedConcurrentStress runs parallel readers, writers, batch
// callers and iterators against one ShardedIndex, with router retrains
// forced into the mix; run under -race in CI. Correctness bar: no
// races, no lost committed keys, iterators see sorted output.
func TestShardedConcurrentStress(t *testing.T) {
	s, sorted := shardedFixture(t, 4, 4000)
	stress(t, s, sorted)
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSyncConcurrentStress runs the same mixed stress against the
// coarse-grained SyncIndex wrapper.
func TestSyncConcurrentStress(t *testing.T) {
	keys := datasets.GenLognormal(4000, 17)
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	s, err := alex.LoadSync(keys, payloads, alex.WithSplitOnInsert())
	if err != nil {
		t.Fatal(err)
	}
	stress(t, s, datasets.Sorted(keys))
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// stressIndex is the surface the stress harness drives; both wrappers
// implement it directly. Ordered reads go through Scan/ScanN, which are
// concurrency-safe on both (ShardedIndex.Iter is additionally exercised
// in TestShardedIteratorUnderWrites; Index.Iterator is not safe under
// mutation, so it stays out of the shared harness).
type stressIndex interface {
	Get(key float64) (uint64, bool)
	Insert(key float64, payload uint64) bool
	Delete(key float64) bool
	GetBatch(keys []float64) ([]uint64, []bool)
	InsertBatch(keys []float64, payloads []uint64) int
	Scan(start float64, visit func(key float64, payload uint64) bool) int
	ScanN(start float64, max int) ([]float64, []uint64)
	Len() int
}

func stress(t *testing.T, idx stressIndex, stable []float64) {
	t.Helper()
	const (
		workersPerRole = 3
		opsPerWorker   = 1500
	)
	// stable keys are loaded and never deleted; fresh keys are disjoint
	// per writer.
	var wg sync.WaitGroup
	for w := 0; w < workersPerRole; w++ {
		// Writer: single-key inserts and deletes of its own key block,
		// well outside the stable range.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := 1e7 * float64(w+1)
			for i := 0; i < opsPerWorker; i++ {
				k := base + float64(i%512)
				if i%3 == 2 {
					idx.Delete(k)
				} else {
					idx.Insert(k, uint64(i))
				}
			}
		}(w)
		// Batch writer: sorted sub-batches of a disjoint block.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := 1e9 * float64(w+1)
			const batch = 64
			keys := make([]float64, batch)
			vals := make([]uint64, batch)
			for i := 0; i < opsPerWorker/batch; i++ {
				for j := range keys {
					keys[j] = base + float64(i*batch+j)
					vals[j] = uint64(j)
				}
				idx.InsertBatch(keys, vals)
			}
		}(w)
		// Reader: point gets of stable keys (must always be present)
		// plus batch gets.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWorker; i++ {
				k := stable[rng.Intn(len(stable))]
				if _, ok := idx.Get(k); !ok {
					t.Errorf("stable key %v missing during stress", k)
					return
				}
				if i%64 == 0 {
					probe := stable[:100]
					_, found := idx.GetBatch(probe)
					for j, ok := range found {
						if !ok {
							t.Errorf("stable key %v missing from batch", probe[j])
							return
						}
					}
				}
			}
		}(w)
		// Iterator / scanner: ordered reads while the index mutates.
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				prev := math.Inf(-1)
				n := 0
				idx.Scan(math.Inf(-1), func(k float64, v uint64) bool {
					if k < prev {
						t.Errorf("scan went backwards: %v after %v", k, prev)
						return false
					}
					prev = k
					n++
					return n < 2000
				})
				ks, _ := idx.ScanN(stable[len(stable)/2], 100)
				if !sort.Float64sAreSorted(ks) {
					t.Errorf("ScanN out of order")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// All stable keys survived.
	for _, k := range stable {
		if _, ok := idx.Get(k); !ok {
			t.Fatalf("stable key %v lost", k)
		}
	}
}

// TestShardedIteratorUnderWrites drives the chunked sharded iterator
// concurrently with writers; it must stay ordered and terminate.
func TestShardedIteratorUnderWrites(t *testing.T) {
	s, _ := shardedFixture(t, 4, 3000)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.Insert(2e6+float64(i%4096), uint64(i))
			i++
		}
	}()
	for round := 0; round < 20; round++ {
		it := s.Iter()
		prev := math.Inf(-1)
		for it.Next() {
			if it.Key() < prev {
				t.Fatalf("iterator went backwards: %v after %v", it.Key(), prev)
			}
			prev = it.Key()
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedStatsCountAcrossRebalance: a router retrain bulk-loads
// fresh shard trees, and splits replace leaves inside each; the work
// counters of everything replaced must still count.
func TestShardedStatsCountAcrossRebalance(t *testing.T) {
	s := alex.NewSharded(2, alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(256))
	countWrites(t, s, 20000, s.Rebalance)
	if s.Retrains() == 0 {
		t.Fatal("no router retrain ran")
	}
}
