package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// allVariants enumerates the paper's gapped-array ALEX configurations
// (§5.1).
func allVariants() []Config {
	return []Config{
		{RMI: StaticRMI},
		{RMI: AdaptiveRMI},
	}
}

func uniqueKeys(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[float64]bool, n)
	keys := make([]float64, 0, n)
	for len(keys) < n {
		k := math.Floor(rng.Float64()*1e12) / 100
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}

func TestVariantNames(t *testing.T) {
	want := map[string]bool{
		"ALEX-GA-SRMI": true, "ALEX-GA-ARMI": true,
	}
	for _, cfg := range allVariants() {
		if !want[cfg.VariantName()] {
			t.Fatalf("unexpected variant name %q", cfg.VariantName())
		}
	}
}

// TestBulkLoadCountsNoRetrains: a bulk load builds its leaves; it does
// not retrain them, so Stats().Retrains starts at zero however many
// leaves the load produced.
func TestBulkLoadCountsNoRetrains(t *testing.T) {
	keys := uniqueKeys(100000, 4)
	sort.Float64s(keys)
	st := BulkLoadSorted(keys, nil, Config{}).Stats()
	if st.NumLeaves < 2 || st.Retrains != 0 {
		t.Fatalf("bulk load of %d keys: %d leaves, Retrains = %d; want several leaves and 0", len(keys), st.NumLeaves, st.Retrains)
	}
}

func TestBulkLoadAndGetAllVariants(t *testing.T) {
	keys := uniqueKeys(30000, 1)
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i) + 1
	}
	for _, cfg := range allVariants() {
		cfg.MaxKeysPerLeaf = 1024
		tr, err := BulkLoad(keys, payloads, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.VariantName(), err)
		}
		if tr.Len() != len(keys) {
			t.Fatalf("%s: Len = %d", cfg.VariantName(), tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", cfg.VariantName(), err)
		}
		for i, k := range keys {
			v, ok := tr.Get(k)
			if !ok || v != payloads[i] {
				t.Fatalf("%s: Get(%v) = (%v,%v), want (%v,true)", cfg.VariantName(), k, v, ok, payloads[i])
			}
		}
		if _, ok := tr.Get(-1e18); ok {
			t.Fatalf("%s: absent key found", cfg.VariantName())
		}
	}
}

func TestBulkLoadRejectsBadInput(t *testing.T) {
	if _, err := BulkLoad([]float64{1, 2, 2}, nil, Config{}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
	if _, err := BulkLoad([]float64{1, math.NaN()}, nil, Config{}); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := BulkLoad([]float64{1, math.Inf(1)}, nil, Config{}); err == nil {
		t.Fatal("Inf accepted")
	}
	if _, err := BulkLoad([]float64{1, 2}, []uint64{1}, Config{}); err == nil {
		t.Fatal("mismatched payloads accepted")
	}
}

func TestBulkLoadUnsortedInput(t *testing.T) {
	keys := []float64{5, 1, 9, 3, 7}
	payloads := []uint64{50, 10, 90, 30, 70}
	tr, err := BulkLoad(keys, payloads, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if v, ok := tr.Get(k); !ok || v != payloads[i] {
			t.Fatalf("Get(%v) = (%v,%v)", k, v, ok)
		}
	}
	if mn, _ := tr.MinKey(); mn != 1 {
		t.Fatalf("MinKey = %v", mn)
	}
	if mx, _ := tr.MaxKey(); mx != 9 {
		t.Fatalf("MaxKey = %v", mx)
	}
}

func TestEmptyIndex(t *testing.T) {
	for _, cfg := range allVariants() {
		tr := New(cfg)
		if tr.Len() != 0 {
			t.Fatal("nonzero length")
		}
		if _, ok := tr.Get(1); ok {
			t.Fatal("Get on empty succeeded")
		}
		if tr.Delete(1) {
			t.Fatal("Delete on empty succeeded")
		}
		if _, ok := tr.MinKey(); ok {
			t.Fatal("MinKey on empty")
		}
		if _, ok := tr.MaxKey(); ok {
			t.Fatal("MaxKey on empty")
		}
		if n := tr.Scan(0, func(float64, uint64) bool { return true }); n != 0 {
			t.Fatalf("Scan on empty visited %d", n)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestColdStartInsertsAllVariants(t *testing.T) {
	for _, cfg := range allVariants() {
		cfg.MaxKeysPerLeaf = 256
		cfg.SplitOnInsert = true
		tr := New(cfg)
		rng := rand.New(rand.NewSource(2))
		ref := make(map[float64]uint64)
		for i := 0; i < 20000; i++ {
			k := math.Floor(rng.Float64() * 1e9)
			ins := tr.Insert(k, uint64(i))
			if _, existed := ref[k]; existed == ins {
				t.Fatalf("%s: insert return mismatch", cfg.VariantName())
			}
			ref[k] = uint64(i)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("%s: Len %d != ref %d", cfg.VariantName(), tr.Len(), len(ref))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", cfg.VariantName(), err)
		}
		for k, v := range ref {
			got, ok := tr.Get(k)
			if !ok || got != v {
				t.Fatalf("%s: Get(%v) = (%v,%v), want (%v,true)", cfg.VariantName(), k, got, ok, v)
			}
		}
	}
}

func TestSplitOnInsertGrowsTree(t *testing.T) {
	cfg := Config{RMI: AdaptiveRMI, MaxKeysPerLeaf: 128, SplitOnInsert: true}
	tr := New(cfg)
	for i := 0; i < 5000; i++ {
		tr.Insert(float64(i)*7.3, uint64(i))
	}
	st := tr.Stats()
	if st.Splits == 0 {
		t.Fatal("no splits despite 5000 inserts into 128-key leaves")
	}
	if st.NumLeaves < 2 {
		t.Fatalf("NumLeaves = %d", st.NumLeaves)
	}
	if tr.Height() < 2 {
		t.Fatalf("Height = %d, want >= 2 after splits", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestNoSplitWithoutFlag(t *testing.T) {
	cfg := Config{RMI: AdaptiveRMI, MaxKeysPerLeaf: 128, SplitOnInsert: false}
	tr := New(cfg)
	for i := 0; i < 5000; i++ {
		tr.Insert(float64(i)*3.1, uint64(i))
	}
	if st := tr.Stats(); st.Splits != 0 {
		t.Fatalf("splits happened with SplitOnInsert=false: %d", st.Splits)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveInitBoundsLeafSizes(t *testing.T) {
	// Appendix B / Fig 12: adaptive RMI achieves leaves at or below the
	// maximum bound.
	keys := uniqueKeys(50000, 3)
	cfg := Config{RMI: AdaptiveRMI, MaxKeysPerLeaf: 1000}
	tr, err := BulkLoad(keys, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, sz := range tr.LeafSizes() {
		if sz > 1000 {
			t.Fatalf("leaf %d has %d keys > bound 1000", i, sz)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStaticRMIIsTwoLevel(t *testing.T) {
	keys := uniqueKeys(50000, 4)
	tr, err := BulkLoad(keys, nil, Config{RMI: StaticRMI, NumLeafModels: 64})
	if err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h != 2 {
		t.Fatalf("static RMI height = %d, want 2", h)
	}
	st := tr.Stats()
	if st.NumInner != 1 {
		t.Fatalf("NumInner = %d, want 1", st.NumInner)
	}
	if st.NumLeaves != 64 {
		t.Fatalf("NumLeaves = %d, want 64", st.NumLeaves)
	}
}

func TestDeleteAllVariants(t *testing.T) {
	keys := uniqueKeys(10000, 5)
	for _, cfg := range allVariants() {
		cfg.MaxKeysPerLeaf = 512
		tr, err := BulkLoad(keys, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range keys[:5000] {
			if !tr.Delete(k) {
				t.Fatalf("%s: Delete(%v) failed", cfg.VariantName(), k)
			}
		}
		if tr.Len() != 5000 {
			t.Fatalf("%s: Len = %d", cfg.VariantName(), tr.Len())
		}
		for _, k := range keys[:5000] {
			if _, ok := tr.Get(k); ok {
				t.Fatalf("%s: deleted key %v still found", cfg.VariantName(), k)
			}
		}
		for _, k := range keys[5000:] {
			if _, ok := tr.Get(k); !ok {
				t.Fatalf("%s: surviving key %v lost", cfg.VariantName(), k)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", cfg.VariantName(), err)
		}
	}
}

func TestUpdate(t *testing.T) {
	tr, _ := BulkLoad([]float64{1, 2, 3}, []uint64{10, 20, 30}, Config{})
	if !tr.Update(2, 99) {
		t.Fatal("Update failed")
	}
	if v, _ := tr.Get(2); v != 99 {
		t.Fatalf("payload = %d", v)
	}
	if tr.Update(5, 1) {
		t.Fatal("Update of absent key succeeded")
	}
	// Insert of existing key overwrites (payload-only update, §3.2).
	if tr.Insert(3, 77) {
		t.Fatal("duplicate insert returned true")
	}
	if v, _ := tr.Get(3); v != 77 {
		t.Fatalf("payload = %d", v)
	}
}

func TestScanAcrossLeaves(t *testing.T) {
	n := 20000
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i) * 2
	}
	for _, cfg := range allVariants() {
		cfg.MaxKeysPerLeaf = 256 // force many leaves
		tr := BulkLoadSorted(keys, nil, cfg)
		// Scan 1000 elements from the middle: must cross several leaves.
		start := keys[n/2]
		got, _ := tr.ScanN(start, 1000)
		if len(got) != 1000 {
			t.Fatalf("%s: scan returned %d", cfg.VariantName(), len(got))
		}
		for i, k := range got {
			if k != keys[n/2+i] {
				t.Fatalf("%s: scan[%d] = %v, want %v", cfg.VariantName(), i, k, keys[n/2+i])
			}
		}
		// Scan from before all keys sees the global minimum first.
		first, _ := tr.ScanN(-100, 1)
		if len(first) != 1 || first[0] != 0 {
			t.Fatalf("%s: scan from -100 = %v", cfg.VariantName(), first)
		}
		// Scan beyond the end returns nothing.
		if res, _ := tr.ScanN(keys[n-1]+1, 10); len(res) != 0 {
			t.Fatalf("%s: scan past end returned %d", cfg.VariantName(), len(res))
		}
		// ScanCount agrees with ScanN.
		if c := tr.ScanCount(start, 500); c != 500 {
			t.Fatalf("%s: ScanCount = %d", cfg.VariantName(), c)
		}
	}
}

func TestScanEntireTreeInOrder(t *testing.T) {
	keys := uniqueKeys(15000, 6)
	sorted := append([]float64(nil), keys...)
	sort.Float64s(sorted)
	cfg := Config{RMI: AdaptiveRMI, MaxKeysPerLeaf: 512}
	tr, _ := BulkLoad(keys, nil, cfg)
	var got []float64
	tr.Scan(math.Inf(-1), func(k float64, v uint64) bool {
		got = append(got, k)
		return true
	})
	if len(got) != len(sorted) {
		t.Fatalf("full scan saw %d keys, want %d", len(got), len(sorted))
	}
	for i := range got {
		if got[i] != sorted[i] {
			t.Fatalf("scan[%d] = %v, want %v", i, got[i], sorted[i])
		}
	}
}

func TestSizesAccounting(t *testing.T) {
	keys := uniqueKeys(40000, 7)
	tr, _ := BulkLoad(keys, nil, Config{MaxKeysPerLeaf: 1024})
	idx := tr.IndexSizeBytes()
	data := tr.DataSizeBytes()
	if idx <= 0 || data <= 0 {
		t.Fatalf("sizes: idx=%d data=%d", idx, data)
	}
	// The headline property: index size is a tiny fraction of data size.
	if float64(idx) > 0.2*float64(data) {
		t.Fatalf("index size %d not small vs data size %d", idx, data)
	}
	// Data size must cover at least the raw keys+payloads.
	if data < len(keys)*16 {
		t.Fatalf("data size %d below raw minimum %d", data, len(keys)*16)
	}
	// 80-byte payload accounting grows data size accordingly.
	tr80, _ := BulkLoad(keys, nil, Config{MaxKeysPerLeaf: 1024, PayloadBytes: 80})
	if tr80.DataSizeBytes() <= data {
		t.Fatal("PayloadBytes=80 did not grow data size")
	}
}

func TestPredictionErrorSmallOnLinearData(t *testing.T) {
	n := 50000
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = float64(i) * 3
	}
	tr := BulkLoadSorted(keys, nil, Config{MaxKeysPerLeaf: 4096})
	var sum, cnt int
	for i := 0; i < n; i += 17 {
		e, ok := tr.PredictionError(keys[i])
		if !ok {
			t.Fatalf("key %v missing", keys[i])
		}
		sum += e
		cnt++
	}
	if avg := float64(sum) / float64(cnt); avg > 2 {
		t.Fatalf("mean prediction error %v on linear data", avg)
	}
}

func TestSkewedDataAdaptiveDepth(t *testing.T) {
	// Highly skewed (lognormal-like) data should make adaptive RMI
	// recurse into deeper inner nodes for the dense region.
	rng := rand.New(rand.NewSource(8))
	seen := make(map[float64]bool)
	var keys []float64
	for len(keys) < 60000 {
		k := math.Floor(math.Exp(rng.NormFloat64()*2) * 1e6)
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	tr, err := BulkLoad(keys, nil, Config{RMI: AdaptiveRMI, MaxKeysPerLeaf: 512})
	if err != nil {
		t.Fatal(err)
	}
	if h := tr.Height(); h < 3 {
		t.Fatalf("height %d; expected deeper adaptive RMI on skewed data", h)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:1000] {
		if _, ok := tr.Get(k); !ok {
			t.Fatalf("key %v lost", k)
		}
	}
}

func TestSequentialInsertAdversarial(t *testing.T) {
	// Fig 5c's adversarial pattern: strictly increasing inserts. All
	// variants must stay correct (performance is the benchmark's
	// concern, correctness is ours).
	for _, cfg := range allVariants() {
		cfg.MaxKeysPerLeaf = 512
		cfg.SplitOnInsert = cfg.RMI == AdaptiveRMI
		tr := New(cfg)
		for i := 0; i < 10000; i++ {
			if !tr.Insert(float64(i), uint64(i)) {
				t.Fatalf("%s: sequential insert %d failed", cfg.VariantName(), i)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", cfg.VariantName(), err)
		}
		for i := 0; i < 10000; i += 331 {
			if _, ok := tr.Get(float64(i)); !ok {
				t.Fatalf("%s: key %d lost", cfg.VariantName(), i)
			}
		}
	}
}

func TestDistributionShiftInserts(t *testing.T) {
	// Fig 5b: initialize from one key domain, insert a disjoint domain.
	init := make([]float64, 10000)
	for i := range init {
		init[i] = float64(i)
	}
	cfg := Config{RMI: AdaptiveRMI, MaxKeysPerLeaf: 512, SplitOnInsert: true}
	tr := BulkLoadSorted(init, nil, cfg)
	for i := 0; i < 10000; i++ {
		tr.Insert(1e6+float64(i), uint64(i))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Stats().Splits == 0 {
		t.Fatal("disjoint-domain inserts never split a node")
	}
	if tr.Len() != 20000 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestStatsAggregation(t *testing.T) {
	keys := uniqueKeys(20000, 9)
	tr, _ := BulkLoad(keys, nil, Config{MaxKeysPerLeaf: 1024})
	st := tr.Stats()
	if st.NumLeaves == 0 || st.Height == 0 {
		t.Fatalf("stats: %+v", st)
	}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 20000; i++ {
		tr.Insert(math.Floor(rng.Float64()*1e12)+0.5, uint64(i))
	}
	st2 := tr.Stats()
	if st2.Inserts < 20000 {
		t.Fatalf("Inserts = %d", st2.Inserts)
	}
	if st2.Shifts == 0 && st2.Expands == 0 {
		t.Fatal("no shifts or expands after 20k inserts")
	}
}

// Property: any op sequence leaves every variant equivalent to a map.
func TestQuickAllVariantsAgainstMap(t *testing.T) {
	type op struct {
		Kind    uint8
		Key     uint16
		Payload uint64
	}
	for _, cfg := range allVariants() {
		cfg.MaxKeysPerLeaf = 64
		cfg.SplitOnInsert = true
		cfg.SplitFanout = 4
		name := cfg.VariantName()
		f := func(ops []op) bool {
			tr := New(cfg)
			ref := make(map[float64]uint64)
			for _, o := range ops {
				k := float64(o.Key % 1024)
				switch o.Kind % 4 {
				case 0:
					ins := tr.Insert(k, o.Payload)
					if _, existed := ref[k]; existed == ins {
						return false
					}
					ref[k] = o.Payload
				case 1:
					if tr.Delete(k) != hasKey(ref, k) {
						return false
					}
					delete(ref, k)
				case 2:
					if tr.Update(k, o.Payload) != hasKey(ref, k) {
						return false
					}
					if hasKey(ref, k) {
						ref[k] = o.Payload
					}
				case 3:
					v, ok := tr.Get(k)
					want, existed := ref[k]
					if ok != existed || (ok && v != want) {
						return false
					}
				}
			}
			if tr.Len() != len(ref) {
				return false
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Logf("%s: %v", name, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func hasKey(m map[float64]uint64, k float64) bool {
	_, ok := m[k]
	return ok
}

// Property: bulk load + full scan returns exactly the sorted input for
// every variant and random leaf bounds.
func TestQuickBulkLoadScanRoundTrip(t *testing.T) {
	f := func(raw []uint32, layoutSeed uint8) bool {
		seen := make(map[float64]bool)
		var keys []float64
		for _, v := range raw {
			k := float64(v)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		cfg := allVariants()[int(layoutSeed)%len(allVariants())]
		cfg.MaxKeysPerLeaf = 32
		tr, err := BulkLoad(keys, nil, cfg)
		if err != nil {
			return false
		}
		sort.Float64s(keys)
		var got []float64
		tr.Scan(math.Inf(-1), func(k float64, v uint64) bool {
			got = append(got, k)
			return true
		})
		if len(got) != len(keys) {
			return false
		}
		for i := range got {
			if got[i] != keys[i] {
				return false
			}
		}
		return tr.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkGetBulkLoaded(b *testing.B) {
	keys := uniqueKeys(1<<18, 20)
	tr, _ := BulkLoad(keys, nil, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i&(len(keys)-1)])
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	tr := New(Config{SplitOnInsert: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(rng.Float64()*1e12, uint64(i))
	}
}
