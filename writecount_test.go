package alex_test

import (
	"math/rand"
	"sort"
	"testing"

	alex "repro"
)

// writeCountedIndex is the write surface TestStatsCountEveryWrite
// drives; Index and both concurrency wrappers satisfy it.
type writeCountedIndex interface {
	Insert(key float64, payload uint64) bool
	Update(key float64, payload uint64) bool
	Delete(key float64) bool
	InsertBatch(keys []float64, payloads []uint64) int
	DeleteBatch(keys []float64) int
	Merge(keys []float64, payloads []uint64) int
	Apply(op alex.Op) int
	Stats() alex.Stats
}

// TestStatsCountEveryWrite runs every write entry point in turn, from
// an empty index, and checks after each that Stats().Inserts and
// Stats().Deletes equal the added and removed counts the calls
// returned. Batches that rebuild a leaf (a dense InsertBatch, Merge, a
// Merge into an empty index) must count like the point paths do.
func TestStatsCountEveryWrite(t *testing.T) {
	sharded := alex.NewSharded(2, alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(512))
	backends := []struct {
		name string
		ix   writeCountedIndex
		mid  func()
	}{
		{"Index", alex.New(alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(512)), func() {}},
		{"SyncIndex", alex.NewSync(alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(512)), func() {}},
		{"ShardedIndex", sharded, sharded.Rebalance},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(36))
			ix := b.ix
			var present []float64 // keys known to be stored
			// sortedKeys returns n distinct sorted keys in [lo, hi).
			sortedKeys := func(n int, lo, hi float64) []float64 {
				ks := make([]float64, n)
				for i := range ks {
					ks[i] = lo + rng.Float64()*(hi-lo)
				}
				sort.Float64s(ks)
				return ks
			}
			payloadsFor := func(ks []float64) []uint64 {
				ps := make([]uint64, len(ks))
				for i := range ps {
					ps[i] = uint64(i)
				}
				return ps
			}
			pick := func(n int) []float64 {
				ks := make([]float64, n)
				for i := range ks {
					ks[i] = present[rng.Intn(len(present))]
				}
				sort.Float64s(ks)
				return ks
			}
			steps := []struct {
				name string
				run  func() (added, removed int)
			}{
				{"Merge into empty", func() (int, int) {
					ks := sortedKeys(10_000, 0, 1e6)
					present = append(present, ks...)
					return ix.Merge(ks, payloadsFor(ks)), 0
				}},
				{"Insert", func() (int, int) {
					n := 0
					for i := 0; i < 2000; i++ {
						k := rng.Float64() * 1e6
						if ix.Insert(k, uint64(i)) {
							present = append(present, k)
							n++
						}
					}
					return n, 0
				}},
				{"duplicate Insert", func() (int, int) {
					n := 0
					for _, k := range pick(500) {
						if ix.Insert(k, 7) {
							n++
						}
					}
					return n, 0
				}},
				{"Update", func() (int, int) {
					for _, k := range pick(500) {
						ix.Update(k, 8)
					}
					return 0, 0
				}},
				{"Delete", func() (int, int) {
					n := 0
					for _, k := range pick(300) {
						if ix.Delete(k) {
							n++
						}
					}
					return 0, n
				}},
				{"sparse InsertBatch", func() (int, int) {
					ks := sortedKeys(300, 0, 1e6)
					present = append(present, ks...)
					return ix.InsertBatch(ks, payloadsFor(ks)), 0
				}},
				{"mid-run hook", func() (int, int) {
					b.mid()
					return 0, 0
				}},
				{"dense InsertBatch", func() (int, int) {
					ks := sortedKeys(10_000, 5e5, 5e5+10)
					present = append(present, ks...)
					return ix.InsertBatch(ks, payloadsFor(ks)), 0
				}},
				{"DeleteBatch", func() (int, int) {
					ks := append(pick(1000), sortedKeys(100, 0, 1e6)...)
					sort.Float64s(ks)
					return 0, ix.DeleteBatch(ks)
				}},
				{"Merge", func() (int, int) {
					ks := append(pick(500), sortedKeys(5000, 2e5, 3e5)...)
					sort.Float64s(ks)
					present = append(present, ks...)
					return ix.Merge(ks, payloadsFor(ks)), 0
				}},
				{"Merge without payloads", func() (int, int) {
					ks := sortedKeys(3000, 7e5, 7e5+1)
					present = append(present, ks...)
					return ix.Merge(ks, nil), 0
				}},
				{"Apply", func() (int, int) {
					ins := sortedKeys(4000, 9e5, 9e5+5)
					one := []float64{rng.Float64() * 1e6}
					mrg := sortedKeys(2000, 1e5, 1e5+3)
					present = append(present, ins...)
					present = append(present, one...)
					present = append(present, mrg...)
					added := ix.Apply(alex.Op{Kind: alex.OpInsert, Keys: ins, Payloads: payloadsFor(ins)})
					added += ix.Apply(alex.Op{Kind: alex.OpInsert, Keys: one, Payloads: []uint64{1}})
					added += ix.Apply(alex.Op{Kind: alex.OpMerge, Keys: mrg, Payloads: payloadsFor(mrg)})
					removed := ix.Apply(alex.Op{Kind: alex.OpDelete, Keys: pick(800)})
					removed += ix.Apply(alex.Op{Kind: alex.OpDelete, Keys: pick(1)})
					return added, removed
				}},
			}
			var wantIns, wantDel uint64
			for _, s := range steps {
				added, removed := s.run()
				wantIns += uint64(added)
				wantDel += uint64(removed)
				st := ix.Stats()
				if st.Inserts != wantIns || st.Deletes != wantDel {
					t.Fatalf("after %s: Stats() counts %d inserts and %d deletes; the calls returned %d and %d",
						s.name, st.Inserts, st.Deletes, wantIns, wantDel)
				}
			}
			if st := ix.Stats(); st.Splits == 0 {
				t.Error("no leaf split: the run does not exercise leaf replacement")
			}
		})
	}
}
