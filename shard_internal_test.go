package alex

// Internal router tests: the open-coded branchless locate must agree
// with the sort.Search definition it replaced, and the moved-flag
// retry must re-read the boundary slice only when the table pointer
// actually changed.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLocateMatchesSortSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(17) // 0..16 bounds
		bounds := make([]float64, n)
		for i := range bounds {
			bounds[i] = rng.Float64() * 100
		}
		sort.Float64s(bounds)
		if n > 2 && rng.Intn(2) == 0 {
			bounds[n/2] = bounds[n/2-1] // duplicate boundary (empty shard)
		}
		tab := &shardTable{bounds: bounds}
		probes := []float64{math.Inf(-1), math.Inf(1), -1, 0, 50, 100, 101}
		for i := 0; i < 100; i++ {
			probes = append(probes, rng.Float64()*110-5)
		}
		for _, b := range bounds {
			probes = append(probes, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
		}
		for _, key := range probes {
			want := sort.Search(len(bounds), func(i int) bool { return key < bounds[i] })
			if got := tab.locate(key); got != want {
				t.Fatalf("locate(%v) over %v = %d, want %d", key, bounds, got, want)
			}
		}
	}
}

// TestReadShardMovedRetry pins the retry contract: a shard flagged
// moved sends the router back to the freshly installed table, and the
// returned shard is always current.
func TestReadShardMovedRetry(t *testing.T) {
	keys := make([]float64, 4096)
	for i := range keys {
		keys[i] = float64(i)
	}
	s, err := LoadSharded(4, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	old := s.tab.Load()
	// Install a new table and flag the old shards, exactly as
	// retrainLocked does.
	s.Rebalance()
	fresh := s.tab.Load()
	if fresh == old {
		t.Fatal("rebalance did not install a new table")
	}
	for _, sh := range old.shards {
		if !sh.moved {
			t.Fatal("old shard not flagged moved")
		}
	}
	for _, key := range []float64{0, 1000, 2047, 4095} {
		sh := s.readShard(key)
		found := false
		for _, cur := range fresh.shards {
			if cur == sh {
				found = true
			}
		}
		sh.mu.RUnlock()
		if !found {
			t.Fatalf("readShard(%v) returned a shard outside the current table", key)
		}
		if _, ok := s.Get(key); !ok {
			t.Fatalf("Get(%v) lost the key across the retrain", key)
		}
	}
}

// TestGetBatchSupersededShard pins the batch read's fallback: grouped
// against a table a retrain has since replaced, every group finds its
// shard moved (the locked path sees the flag) and must resolve key by
// key through the current table — no key may be lost.
func TestGetBatchSupersededShard(t *testing.T) {
	keys := make([]float64, 4096)
	for i := range keys {
		keys[i] = float64(i)
	}
	s, err := LoadSharded(4, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.SetOptimisticReads(false)
	old := s.tab.Load()
	s.Rebalance()
	if s.tab.Load() == old {
		t.Fatal("rebalance did not install a new table")
	}
	batch := []float64{4095, 0, 2047, -1, 1000, 3000.5, 1, 4096, 2048}
	vals := make([]uint64, len(batch))
	found := make([]bool, len(batch))
	s.getBatchOn(old, batch, vals, found)
	for i, k := range batch {
		want := k >= 0 && k < 4096 && k == math.Trunc(k)
		if found[i] != want {
			t.Fatalf("batch key %v: found = %v, want %v", k, found[i], want)
		}
	}
}
