package alex_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	alex "repro"
	"repro/internal/datasets"
)

func TestQuickstartFlow(t *testing.T) {
	keys := []float64{10, 20, 30, 40, 50}
	payloads := []uint64{1, 2, 3, 4, 5}
	idx, err := alex.Load(keys, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := idx.Get(30); !ok || v != 3 {
		t.Fatalf("Get(30) = %v,%v", v, ok)
	}
	if !idx.Insert(35, 6) {
		t.Fatal("insert")
	}
	if idx.Len() != 6 {
		t.Fatalf("Len = %d", idx.Len())
	}
	got, _ := idx.ScanN(20, 3)
	want := []float64{20, 30, 35}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v", got)
		}
	}
	if !idx.Delete(10) {
		t.Fatal("delete")
	}
	if idx.Contains(10) {
		t.Fatal("deleted key present")
	}
	if !idx.Update(20, 22) {
		t.Fatal("update")
	}
	if v, _ := idx.Get(20); v != 22 {
		t.Fatalf("updated payload = %d", v)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := alex.Load([]float64{1, 1}, nil); err == nil {
		t.Fatal("duplicates accepted")
	}
	if _, err := alex.Load([]float64{math.NaN()}, nil); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestOptionsCompose(t *testing.T) {
	keys := datasets.GenLognormal(50000, 1)
	idx, err := alex.Load(keys, nil,
		alex.WithMaxKeysPerLeaf(512),
		alex.WithSplitOnInsert(),
		alex.WithSplitFanout(8),
		alex.WithPayloadBytes(80),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, sz := range idx.LeafSizes() {
		if sz > 512 {
			t.Fatalf("leaf size %d above bound", sz)
		}
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		idx.Insert(math.Floor(rng.Float64()*1e15)+0.5, uint64(i))
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if idx.Stats().Splits == 0 {
		t.Fatal("no splits with WithSplitOnInsert")
	}
}

func TestStaticRMIOption(t *testing.T) {
	keys := datasets.GenYCSB(30000, 3)
	idx, err := alex.Load(keys, nil, alex.WithStaticRMI(32))
	if err != nil {
		t.Fatal(err)
	}
	if h := idx.Height(); h != 2 {
		t.Fatalf("static RMI height = %d", h)
	}
}

func TestSpaceOverheadOption(t *testing.T) {
	keys := datasets.GenYCSB(50000, 4)
	tight, _ := alex.Load(keys, nil, alex.WithSpaceOverhead(0.2))
	roomy, _ := alex.Load(keys, nil, alex.WithSpaceOverhead(2.0))
	if roomy.DataSizeBytes() <= tight.DataSizeBytes() {
		t.Fatalf("2x overhead data size %d not above 20%%: %d",
			roomy.DataSizeBytes(), tight.DataSizeBytes())
	}
}

func TestScanRange(t *testing.T) {
	keys := make([]float64, 1000)
	for i := range keys {
		keys[i] = float64(i)
	}
	idx := alex.LoadSorted(keys, nil)
	var got []float64
	n := idx.ScanRange(100, 110, func(k float64, v uint64) bool {
		got = append(got, k)
		return true
	})
	if n != 10 || len(got) != 10 || got[0] != 100 || got[9] != 109 {
		t.Fatalf("ScanRange = %v (n=%d)", got, n)
	}
}

func TestMinMaxHeightSizes(t *testing.T) {
	keys := datasets.GenLongitudes(40000, 5)
	idx, _ := alex.Load(keys, nil)
	sorted := datasets.Sorted(keys)
	if k, _ := idx.MinKey(); k != sorted[0] {
		t.Fatalf("MinKey = %v", k)
	}
	if k, _ := idx.MaxKey(); k != sorted[len(sorted)-1] {
		t.Fatalf("MaxKey = %v", k)
	}
	if idx.IndexSizeBytes() <= 0 || idx.DataSizeBytes() <= 0 {
		t.Fatal("sizes")
	}
	if idx.Height() < 1 {
		t.Fatal("height")
	}
	st := idx.Stats()
	if st.NumLeaves < 1 {
		t.Fatal("stats")
	}
}

func TestPredictionErrorExposed(t *testing.T) {
	keys := make([]float64, 10000)
	for i := range keys {
		keys[i] = float64(i) * 2
	}
	idx := alex.LoadSorted(keys, nil)
	e, ok := idx.PredictionError(5000)
	if !ok {
		t.Fatal("key missing")
	}
	if e > 4 {
		t.Fatalf("prediction error %d on linear data", e)
	}
	if _, ok := idx.PredictionError(5001); ok {
		t.Fatal("absent key has error")
	}
}

// Property: the public API behaves like a sorted map end to end.
func TestQuickPublicAPIAgainstMap(t *testing.T) {
	type op struct {
		Kind    uint8
		Key     uint16
		Payload uint64
	}
	f := func(ops []op) bool {
		idx := alex.New(alex.WithMaxKeysPerLeaf(64), alex.WithSplitOnInsert())
		ref := make(map[float64]uint64)
		for _, o := range ops {
			k := float64(o.Key % 700)
			switch o.Kind % 4 {
			case 0:
				ins := idx.Insert(k, o.Payload)
				if _, existed := ref[k]; existed == ins {
					return false
				}
				ref[k] = o.Payload
			case 1:
				_, existed := ref[k]
				if idx.Delete(k) != existed {
					return false
				}
				delete(ref, k)
			case 2:
				_, existed := ref[k]
				if idx.Update(k, o.Payload) != existed {
					return false
				}
				if existed {
					ref[k] = o.Payload
				}
			case 3:
				v, ok := idx.Get(k)
				want, existed := ref[k]
				if ok != existed || (ok && v != want) {
					return false
				}
			}
		}
		if idx.Len() != len(ref) {
			return false
		}
		var scanned []float64
		idx.Scan(math.Inf(-1), func(k float64, v uint64) bool {
			scanned = append(scanned, k)
			return true
		})
		want := make([]float64, 0, len(ref))
		for k := range ref {
			want = append(want, k)
		}
		sort.Float64s(want)
		if len(scanned) != len(want) {
			return false
		}
		for i := range want {
			if scanned[i] != want[i] {
				return false
			}
		}
		return idx.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
