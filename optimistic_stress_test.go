package alex_test

// Stress tests for the optimistic (seqlock) read path: concurrent
// readers run lock-free probes while writers insert, delete and
// update, a splitter keeps the tree shape churning (small leaves +
// split-on-insert force frequent node splits and retrains), and — for
// the sharded index — a retrainer keeps swapping the router table.
// Every payload is a pure function of its key, so the readers can
// verify the fundamental seqlock guarantee on every single result: a
// read returns either a value that was acked at some point or
// not-found — never a torn or otherwise fabricated payload. A stable
// band of keys (every eighth grid key, interleaved with the churned
// ones) is inserted up front and never deleted: a point or batch read
// of one of them must find it, with its payload, every time — a
// not-found there is a false negative the validation let through. To
// make in-place writes move stable keys while readers probe them, half
// of the writes and half of the point reads go to one hot window, and
// writers also insert and delete keys between the grid keys, which
// crowds the window's leaves into shifting inserts. Writers also update
// stable keys in place, rewriting their slots' payloads (with the same
// value) under the leaf's seqlock while readers hit them.
//
// On normal builds this exercises the real optimistic path (probes
// racing mutations, revalidation discarding torn results). Under the
// race detector the optimistic path is compiled out (see
// optimistic.go) and the same assertions vet the locked fallback.

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	alex "repro"
)

// stressPayload derives the only payload ever written for a key, so a
// torn read is detectable as a mismatch.
func stressPayload(key float64) uint64 {
	return math.Float64bits(key) ^ 0xA5A5A5A5A5A5A5A5
}

// stressSurface is the read/write surface the stress drives; both
// wrappers satisfy it.
type stressSurface interface {
	Get(key float64) (uint64, bool)
	Insert(key float64, payload uint64) bool
	Delete(key float64) bool
	Update(key float64, payload uint64) bool
	GetBatchInto(keys []float64, payloads []uint64, found []bool)
	ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64)
}

func runOptimisticStress(t *testing.T, idx stressSurface, extra func(stop *atomic.Bool)) {
	const (
		keySpace = 1 << 15
		readers  = 4
		writers  = 2
	)
	keyAt := func(i int) float64 { return float64(i) * 1.25 }
	// stable marks the band no writer ever deletes; stableAt maps any
	// index to the band member of its group of eight.
	stable := func(i int) bool { return i%8 == 1 }
	stableAt := func(i int) int { return i&^7 | 1 }
	const hotBase, hotWidth = keySpace / 3, 256
	hot := func(rng *rand.Rand) int { return hotBase + rng.Intn(hotWidth) }

	// Seed half the key space so readers hit immediately, plus the
	// stable band.
	seed := make([]float64, 0, keySpace/2+keySpace/8)
	pays := make([]uint64, 0, keySpace/2+keySpace/8)
	for i := 0; i < keySpace; i++ {
		if i%2 != 0 && !stable(i) {
			continue
		}
		k := keyAt(i)
		seed = append(seed, k)
		pays = append(pays, stressPayload(k))
	}
	if n := idx.Insert(seed[0], pays[0]); !n {
		t.Fatal("seed insert failed")
	}
	for i := 1; i < len(seed); i++ {
		idx.Insert(seed[i], pays[i])
	}

	var stop atomic.Bool
	var torn atomic.Int64
	var lost atomic.Int64
	var reads atomic.Int64
	var writes atomic.Int64
	var wg sync.WaitGroup

	check := func(key float64, v uint64, ok bool) {
		if ok && v != stressPayload(key) {
			torn.Add(1)
		}
	}
	checkStable := func(key float64, v uint64, ok bool) {
		if !ok {
			lost.Add(1)
		} else if v != stressPayload(key) {
			torn.Add(1)
		}
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + r)))
			batch := make([]float64, 32)
			vals := make([]uint64, 32)
			found := make([]bool, 32)
			scanK := make([]float64, 0, 64)
			scanV := make([]uint64, 0, 64)
			for !stop.Load() {
				// Spinning readers would otherwise starve the writers,
				// which park on the write lock and then queue for a P.
				runtime.Gosched()
				switch rng.Intn(3) {
				case 0: // point gets, half of them on the hot stable keys
					for i := 0; i < 64; i++ {
						j := rng.Intn(keySpace)
						if i%2 == 0 {
							j = stableAt(hot(rng))
						}
						k := keyAt(j)
						v, ok := idx.Get(k)
						if stable(j) {
							checkStable(k, v, ok)
						} else {
							check(k, v, ok)
						}
						reads.Add(1)
					}
				case 1: // sorted batch get
					base := rng.Intn(keySpace - len(batch)*2)
					for i := range batch {
						batch[i] = keyAt(base + i*2)
					}
					idx.GetBatchInto(batch, vals, found)
					for i := range batch {
						if stable(base + i*2) {
							checkStable(batch[i], vals[i], found[i])
						} else {
							check(batch[i], vals[i], found[i])
						}
					}
					reads.Add(int64(len(batch)))
				case 2: // bounded scan: pairs must be self-consistent and ordered
					start := keyAt(rng.Intn(keySpace))
					scanK, scanV = idx.ScanNInto(start, 64, scanK, scanV)
					prev := math.Inf(-1)
					for i, k := range scanK {
						if k < start || k <= prev {
							torn.Add(1)
						}
						prev = k
						check(k, scanV[i], true)
					}
					reads.Add(int64(len(scanK)))
				}
			}
		}(r)
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + w)))
			for n := 0; !stop.Load(); n++ {
				if n%32 == 0 {
					runtime.Gosched() // with one P, let the readers in
				}
				i := rng.Intn(keySpace)
				if rng.Intn(2) == 0 {
					i = hot(rng)
				}
				k := keyAt(i)
				// between is a key off the grid, right of k: never stable.
				between := k + 0.3125*float64(1+rng.Intn(3))
				writes.Add(1)
				switch rng.Intn(4) {
				case 0:
					idx.Insert(k, stressPayload(k))
					idx.Insert(between, stressPayload(between))
				case 1:
					if !stable(i) {
						idx.Delete(k)
					}
					idx.Delete(between)
				case 2:
					// Rewrite a stable key's payload in place — and the
					// gap fills left of it, which duplicate it — while
					// readers probe it. The payload stays its key's, so
					// the readers' exact check still holds.
					idx.Update(k, stressPayload(k))
					sk := keyAt(stableAt(i))
					idx.Update(sk, stressPayload(sk))
				case 3: // churn a small sorted run through the batch path
					ks := make([]float64, 8)
					ps := make([]uint64, 8)
					for j := range ks {
						ks[j] = keyAt((i + j*2) % keySpace)
						ps[j] = stressPayload(ks[j])
					}
					idx.Insert(ks[0], ps[0]) // keep at least one present
					if w%2 == 0 {
						type batcher interface {
							InsertBatch(keys []float64, payloads []uint64) int
						}
						if b, ok := idx.(batcher); ok {
							b.InsertBatch(ks, ps)
						}
					}
				}
			}
		}(w)
	}

	if extra != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			extra(&stop)
		}()
	}

	// Run until the readers have validated, and the writers issued, a
	// substantial number of operations. Wall-clock caps let a starved
	// box finish: the write target gives up after 5 s (race-instrumented
	// writers are an order of magnitude slower), the whole run after 20.
	start := time.Now()
	for time.Since(start) < 20*time.Second &&
		(reads.Load() < 400000 || writes.Load() < 200000 && time.Since(start) < 5*time.Second) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if n := torn.Load(); n != 0 {
		t.Errorf("%d torn/fabricated reads observed (of %d validated)", n, reads.Load())
	}
	if n := lost.Load(); n != 0 {
		t.Errorf("%d reads missed a key of the stable band (of %d validated)", n, reads.Load())
	}
	t.Logf("validated %d reads against %d writes: %d torn, %d stable keys missed",
		reads.Load(), writes.Load(), torn.Load(), lost.Load())
}

// TestOptimisticStressSyncIndex races readers against writers and the
// tree's own splitter: tiny leaves with split-on-insert make every few
// hundred inserts restructure the tree (splits, expands, retrains)
// while lock-free probes are in flight.
func TestOptimisticStressSyncIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	idx := alex.NewSync(alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(256))
	runOptimisticStress(t, idx, nil)
}

// TestOptimisticStressShardedIndex adds the router retrainer: a
// dedicated goroutine keeps rebalancing the shard table, so optimistic
// readers constantly race table swaps and moved shards on top of the
// per-shard mutations.
func TestOptimisticStressShardedIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	idx := alex.NewSharded(4, alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(256))
	runOptimisticStress(t, idx, func(stop *atomic.Bool) {
		for !stop.Load() {
			idx.Rebalance()
			time.Sleep(2 * time.Millisecond) // let readers race the fresh table
		}
	})
}
