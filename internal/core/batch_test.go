package core

import (
	"math/rand"
	"sort"
	"testing"
)

// batchVariants is allVariants plus split-on-insert, the configuration
// whose batch path exercises splitting and re-routing.
func batchVariants() []Config {
	vs := allVariants()
	return append(vs, Config{RMI: AdaptiveRMI, SplitOnInsert: true})
}

// crossCheck verifies that got (a batch-built tree) and want (the same
// operations applied one key at a time) hold identical contents.
func crossCheck(t *testing.T, name string, got, want *Tree) {
	t.Helper()
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: batch tree invariants: %v", name, err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len = %d, want %d", name, got.Len(), want.Len())
	}
	gk, gp := collectAll(got)
	wk, wp := collectAll(want)
	if len(gk) != len(wk) {
		t.Fatalf("%s: %d elements, want %d", name, len(gk), len(wk))
	}
	for i := range gk {
		if gk[i] != wk[i] || gp[i] != wp[i] {
			t.Fatalf("%s: element %d = (%v,%v), want (%v,%v)", name, i, gk[i], gp[i], wk[i], wp[i])
		}
	}
}

func collectAll(tr *Tree) ([]float64, []uint64) {
	var ks []float64
	var ps []uint64
	tr.Scan(negInf(), func(k float64, v uint64) bool {
		ks = append(ks, k)
		ps = append(ps, v)
		return true
	})
	return ks, ps
}

func negInf() float64 { return -1e308 }

func TestBatchMatchesSingleOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	base := uniqueKeys(6000, 2)
	basePay := make([]uint64, len(base))
	for i := range basePay {
		basePay[i] = uint64(i) + 1
	}
	// Batch mixes new keys, keys already present, and intra-batch
	// duplicates.
	batch := append([]float64(nil), uniqueKeys(4000, 3)...)
	batch = append(batch, base[:500]...)
	batch = append(batch, batch[:200]...)
	pays := make([]uint64, len(batch))
	for i := range pays {
		pays[i] = uint64(rng.Intn(1 << 30))
	}

	for _, sorted := range []bool{true, false} {
		ks := append([]float64(nil), batch...)
		ps := append([]uint64(nil), pays...)
		if sorted {
			idx := make([]int, len(ks))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool { return ks[idx[a]] < ks[idx[b]] })
			sk := make([]float64, len(ks))
			sp := make([]uint64, len(ks))
			for i, j := range idx {
				sk[i] = ks[j]
				sp[i] = ps[j]
			}
			ks, ps = sk, sp
		}
		for _, cfg := range batchVariants() {
			cfg.MaxKeysPerLeaf = 512
			name := cfg.VariantName()
			if cfg.SplitOnInsert {
				name += "-split"
			}
			if sorted {
				name += "-sorted"
			}

			batchTree, err := BulkLoad(base, basePay, cfg)
			if err != nil {
				t.Fatal(err)
			}
			loopTree, err := BulkLoad(base, basePay, cfg)
			if err != nil {
				t.Fatal(err)
			}

			gotN := batchTree.InsertBatch(ks, ps)
			wantN := 0
			for i := range ks {
				if loopTree.Insert(ks[i], ps[i]) {
					wantN++
				}
			}
			if gotN != wantN {
				t.Fatalf("%s: InsertBatch = %d new, loop = %d", name, gotN, wantN)
			}
			crossCheck(t, name+"/insert", batchTree, loopTree)

			// GetBatch over present and absent keys.
			probe := append(append([]float64(nil), ks[:1000]...), -5, -7, 1e300)
			if sorted {
				sort.Float64s(probe)
			}
			vals, found := batchTree.GetBatch(probe)
			for i, k := range probe {
				wv, wok := loopTree.Get(k)
				if found[i] != wok || vals[i] != wv {
					t.Fatalf("%s: GetBatch[%d]=(%v,%v), Get=(%v,%v)", name, i, vals[i], found[i], wv, wok)
				}
			}

			// DeleteBatch over a mix of present, absent and duplicated keys.
			del := append([]float64(nil), ks[:1500]...)
			del = append(del, -5, -7, del[0])
			if sorted {
				sort.Float64s(del)
			}
			gotD := batchTree.DeleteBatch(del)
			wantD := 0
			for _, k := range del {
				if loopTree.Delete(k) {
					wantD++
				}
			}
			if gotD != wantD {
				t.Fatalf("%s: DeleteBatch = %d, loop = %d", name, gotD, wantD)
			}
			crossCheck(t, name+"/delete", batchTree, loopTree)
		}
	}
}

func TestBatchEmptyAndEdge(t *testing.T) {
	for _, cfg := range batchVariants() {
		tr := New(cfg)
		if n := tr.InsertBatch(nil, nil); n != 0 {
			t.Fatalf("InsertBatch(nil) = %d", n)
		}
		if n := tr.DeleteBatch(nil); n != 0 {
			t.Fatalf("DeleteBatch(nil) = %d", n)
		}
		vals, found := tr.GetBatch(nil)
		if len(vals) != 0 || len(found) != 0 {
			t.Fatal("GetBatch(nil) returned elements")
		}
		// Batch insert into a cold-start (empty) tree.
		keys := uniqueKeys(3000, 4)
		sort.Float64s(keys)
		pays := make([]uint64, len(keys))
		for i := range pays {
			pays[i] = uint64(i)
		}
		if n := tr.InsertBatch(keys, pays); n != len(keys) {
			t.Fatalf("InsertBatch into empty = %d, want %d", n, len(keys))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		vals, found = tr.GetBatch(keys)
		for i := range keys {
			if !found[i] || vals[i] != pays[i] {
				t.Fatalf("GetBatch[%d] = (%v,%v), want (%v,true)", i, vals[i], found[i], pays[i])
			}
		}
		if n := tr.DeleteBatch(keys); n != len(keys) {
			t.Fatalf("DeleteBatch = %d, want %d", n, len(keys))
		}
		if tr.Len() != 0 {
			t.Fatalf("Len after full delete = %d", tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMergeMatchesSingleOps(t *testing.T) {
	base := uniqueKeys(5000, 5)
	basePay := make([]uint64, len(base))
	for i := range basePay {
		basePay[i] = uint64(i) + 1
	}
	batch := append([]float64(nil), uniqueKeys(8000, 6)...)
	batch = append(batch, base[:400]...) // overwrite some existing keys
	batch = append(batch, batch[0])      // intra-batch duplicate: last wins
	pays := make([]uint64, len(batch))
	for i := range pays {
		pays[i] = uint64(i) + 100
	}
	for _, cfg := range batchVariants() {
		cfg.MaxKeysPerLeaf = 512
		name := cfg.VariantName()

		mergeTree, err := BulkLoad(base, basePay, cfg)
		if err != nil {
			t.Fatal(err)
		}
		loopTree, err := BulkLoad(base, basePay, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotN := mergeTree.Merge(batch, pays)
		wantN := 0
		for i := range batch {
			if loopTree.Insert(batch[i], pays[i]) {
				wantN++
			}
		}
		if gotN != wantN {
			t.Fatalf("%s: Merge = %d new, loop = %d", name, gotN, wantN)
		}
		crossCheck(t, name+"/merge", mergeTree, loopTree)
	}
}

func TestMergeIntoEmptyIsBulkLoad(t *testing.T) {
	keys := uniqueKeys(10000, 7)
	pays := make([]uint64, len(keys))
	for i := range pays {
		pays[i] = uint64(i)
	}
	for _, cfg := range batchVariants() {
		tr := New(cfg)
		if n := tr.Merge(keys, pays); n != len(keys) {
			t.Fatalf("Merge into empty = %d, want %d", n, len(keys))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if v, ok := tr.Get(k); !ok || v != pays[i] {
				t.Fatalf("Get(%v) = (%v,%v) after empty merge", k, v, ok)
			}
		}
	}
}

// TestBatchRandomizedChurn interleaves batch and single operations over
// many rounds and checks the tree against a map oracle.
func TestBatchRandomizedChurn(t *testing.T) {
	for _, cfg := range batchVariants() {
		cfg.MaxKeysPerLeaf = 256
		rng := rand.New(rand.NewSource(99))
		tr := New(cfg)
		oracle := make(map[float64]uint64)
		keyOf := func() float64 { return float64(rng.Intn(5000)) }
		for round := 0; round < 60; round++ {
			n := rng.Intn(200)
			ks := make([]float64, n)
			ps := make([]uint64, n)
			for i := range ks {
				ks[i] = keyOf()
				ps[i] = uint64(rng.Intn(1 << 20))
			}
			sort.Float64s(ks)
			switch round % 4 {
			case 0:
				tr.InsertBatch(ks, ps)
				for i := range ks {
					// Later duplicates overwrite earlier ones, matching
					// in-order application.
					oracle[ks[i]] = ps[i]
				}
			case 1:
				tr.Merge(ks, ps)
				for i := range ks {
					oracle[ks[i]] = ps[i]
				}
			case 2:
				tr.DeleteBatch(ks)
				for _, k := range ks {
					delete(oracle, k)
				}
			default:
				for i := range ks {
					tr.Insert(ks[i], ps[i])
					oracle[ks[i]] = ps[i]
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s round %d: %v", cfg.VariantName(), round, err)
			}
			if tr.Len() != len(oracle) {
				t.Fatalf("%s round %d: Len %d, oracle %d", cfg.VariantName(), round, tr.Len(), len(oracle))
			}
		}
		for k, want := range oracle {
			if v, ok := tr.Get(k); !ok || v != want {
				t.Fatalf("%s: Get(%v) = (%v,%v), want (%v,true)", cfg.VariantName(), k, v, ok, want)
			}
		}
	}
}

// TestBatchRestoresLeafBound verifies that a batch pouring many keys
// into one leaf leaves the tree with bounded leaves under
// split-on-insert, as a loop of single inserts would.
func TestBatchRestoresLeafBound(t *testing.T) {
	const maxLeaf = 256
	for _, useMerge := range []bool{false, true} {
		cfg := Config{RMI: AdaptiveRMI, SplitOnInsert: true, MaxKeysPerLeaf: maxLeaf}
		base := uniqueKeys(2000, 8)
		tr, err := BulkLoad(base, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A dense cluster in a narrow range routes to few leaves.
		cluster := make([]float64, 8000)
		for i := range cluster {
			cluster[i] = 1e6 + float64(i)/16
		}
		pays := make([]uint64, len(cluster))
		if useMerge {
			tr.Merge(cluster, pays)
		} else {
			tr.InsertBatch(cluster, pays)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		worst := 0
		for _, sz := range tr.LeafSizes() {
			if sz > worst {
				worst = sz
			}
		}
		if worst > maxLeaf {
			t.Fatalf("merge=%v: leaf of %d keys exceeds bound %d after batch",
				useMerge, worst, maxLeaf)
		}
	}
}
