package alex_test

// Regression tests for the torn-leaf crash: before restructures were
// published atomically, a lock-free optimistic probe could dereference
// a leaf whose backing arrays were being reallocated mid-rebuild
// (expand/retrain/split) and fault on inconsistent interior state —
// a SIGSEGV that hit roughly once per twenty stress runs. Structural
// changes now build their replacement off to the side and publish it
// with a single atomic pointer store (internal/core, leafops.go), so a
// probe can observe a stale node but never a torn one. These tests
// recreate the exact crash shape at high iteration: a restructure
// storm (tiny leaves, split-on-insert, batch merges and deletes that
// rebuild whole nodes) races lock-free readers and snapshot cutters.
// Any fault, torn payload, or inconsistent snapshot fails the test.
//
// They run in both build modes: normal builds exercise the optimistic
// probes against live restructures; -race builds vet the same
// publication discipline under the detector (the seqlock value reads
// are compiled out there, the atomic structural path is not — see
// optimistic.go).

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	alex "repro"
)

// tornStormSurface is the surface the storm drives; both concurrency
// wrappers satisfy it.
type tornStormSurface interface {
	Get(key float64) (uint64, bool)
	GetBatchInto(keys []float64, payloads []uint64, found []bool)
	Insert(key float64, payload uint64) bool
	Delete(key float64) bool
	InsertBatch(keys []float64, payloads []uint64) int
	DeleteBatch(keys []float64) int
	Merge(keys []float64, payloads []uint64) int
	ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64)
	Len() int
	Stats() alex.Stats
	Snapshot() *alex.IndexSnapshot
}

// runTornLeafStorm races lock-free readers and snapshot cutters against
// a writer mix chosen to maximize structural churn: every Merge rebuilds
// the touched leaves wholesale, every batch delete triggers contraction
// rebuilds, and tiny split-on-insert leaves make point inserts split
// constantly. The old crash needed only one reader probing one leaf
// mid-reallocation; here thousands of rebuilds overlap millions of
// probes.
func runTornLeafStorm(t *testing.T, idx tornStormSurface) {
	const keySpace = 1 << 14
	keyAt := func(i int) float64 { return float64(i) * 1.5 }
	payload := func(k float64) uint64 { return math.Float64bits(k) ^ 0x5C5C5C5C5C5C5C5C }

	seedK := make([]float64, 0, keySpace/2)
	seedP := make([]uint64, 0, keySpace/2)
	for i := 0; i < keySpace; i += 2 {
		k := keyAt(i)
		seedK = append(seedK, k)
		seedP = append(seedP, payload(k))
	}
	idx.Merge(seedK, seedP)
	// The seeding merge restructures on its own; count the storm's.
	seeded := idx.Stats()
	restructures := func() uint64 {
		st := idx.Stats()
		return st.Splits + st.Expands + st.Retrains - seeded.Splits - seeded.Expands - seeded.Retrains
	}

	var stop atomic.Bool
	var torn atomic.Int64
	var reads atomic.Int64
	var wg sync.WaitGroup

	// Readers: raw lock-free probes over the whole key space.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			sk := make([]float64, 0, 64)
			sv := make([]uint64, 0, 64)
			bk := make([]float64, 64)
			bv := make([]uint64, 64)
			bf := make([]bool, 64)
			for !stop.Load() {
				for i := 0; i < 256; i++ {
					k := keyAt(rng.Intn(keySpace))
					if v, ok := idx.Get(k); ok && v != payload(k) {
						torn.Add(1)
					}
				}
				// One unsorted batch: the lockstep batch passes race
				// the restructures too.
				for i := range bk {
					bk[i] = keyAt(rng.Intn(keySpace))
				}
				idx.GetBatchInto(bk, bv, bf)
				for i, k := range bk {
					if bf[i] && bv[i] != payload(k) {
						torn.Add(1)
					}
				}
				start := keyAt(rng.Intn(keySpace))
				sk, sv = idx.ScanNInto(start, 64, sk, sv)
				prev := math.Inf(-1)
				for i, k := range sk {
					if k < start || k <= prev || sv[i] != payload(k) {
						torn.Add(1)
					}
					prev = k
				}
				reads.Add(256 + int64(len(bk)+len(sk)))
			}
		}(r)
	}

	// Snapshot cutter: cuts a consistent view mid-storm and verifies it
	// twice — a snapshot must be internally ordered, payload-consistent,
	// exactly Len() long, and must read identically on a second pass no
	// matter what the writers have done in between.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			snap := idx.Snapshot()
			iterate := func() int {
				n, prev := 0, math.Inf(-1)
				for it := snap.Iter(); it.Next(); {
					if it.Key() <= prev || it.Payload() != payload(it.Key()) {
						torn.Add(1)
					}
					prev = it.Key()
					n++
				}
				return n
			}
			n1, n2 := iterate(), iterate()
			if n1 != snap.Len() || n2 != n1 {
				torn.Add(1)
			}
			if snap.Stats().NumLeaves == 0 {
				torn.Add(1)
			}
			snap.Close()
			reads.Add(int64(n1 + n2))
		}
	}()

	// Writers: the restructure storm itself.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			ks := make([]float64, 128)
			ps := make([]uint64, 128)
			for !stop.Load() {
				base := rng.Intn(keySpace - len(ks)*2)
				for j := range ks {
					ks[j] = keyAt(base + j*2)
					ps[j] = payload(ks[j])
				}
				switch rng.Intn(4) {
				case 0: // wholesale leaf rebuilds
					idx.Merge(ks, ps)
				case 1: // contraction rebuilds
					idx.DeleteBatch(ks[:64])
				case 2: // split storms via the batch insert path
					idx.InsertBatch(ks, ps)
				default: // point churn: splits, expands, retrains
					for j := 0; j < 64; j++ {
						i := rng.Intn(keySpace)
						if j%3 == 0 {
							idx.Delete(keyAt(i))
						} else {
							idx.Insert(keyAt(i), payload(keyAt(i)))
						}
					}
				}
			}
		}(w)
	}

	// Run until both floors are met: enough validated reads, and
	// enough restructures since seeding that the readers demonstrably
	// raced live splits, expands and retrains.
	const minReads, minRestructures = 300000, 100
	deadline := time.Now().Add(15 * time.Second)
	for (reads.Load() < minReads || restructures() < minRestructures) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if n := torn.Load(); n != 0 {
		t.Fatalf("%d torn/inconsistent reads observed (of %d validated)", n, reads.Load())
	}
	st := idx.Stats()
	if n, r := reads.Load(), restructures(); n < minReads || r < minRestructures {
		t.Fatalf("storm reached %d reads and %d restructures by the deadline, want >= %d and >= %d; the regression was not exercised",
			n, r, minReads, minRestructures)
	}
	t.Logf("validated %d reads, 0 torn; %d restructures since seeding (splits=%d expands=%d retrains=%d, cumulative)",
		reads.Load(), restructures(), st.Splits, st.Expands, st.Retrains)
}

// TestTornLeafRegressionSync recreates the historical torn-leaf.data
// SIGSEGV shape against SyncIndex: restructure storm vs lock-free
// readers and concurrent snapshots.
func TestTornLeafRegressionSync(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	runTornLeafStorm(t, alex.NewSync(alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(128)))
}

// TestTornLeafRegressionSharded runs the same storm against
// ShardedIndex, whose router-table swaps add a second layer of atomic
// publication over the per-shard trees.
func TestTornLeafRegressionSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	runTornLeafStorm(t, alex.NewSharded(4, alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(128)))
}
