package core

import (
	"math"
	"testing"
)

// Failure-injection tests: key distributions chosen to stress the models
// and placement machinery at the edges of float64.

func TestExtremeMagnitudeKeys(t *testing.T) {
	keys := []float64{
		-1e300, -1e200, -1e100, -1, -1e-300, 0,
		5e-324, // smallest subnormal
		1e-300, 1, 1e100, 1e200, 1e300,
	}
	for _, cfg := range allVariants() {
		tr, err := BulkLoad(keys, nil, cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.VariantName(), err)
		}
		for _, k := range keys {
			if _, ok := tr.Get(k); !ok {
				t.Fatalf("%s: Get(%v) failed", cfg.VariantName(), k)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", cfg.VariantName(), err)
		}
	}
}

func TestAdjacentFloatKeys(t *testing.T) {
	// Keys one ULP apart: the model slope explodes; exponential search
	// and placement must still behave.
	base := 1e15
	keys := make([]float64, 100)
	k := base
	for i := range keys {
		keys[i] = k
		k = math.Nextafter(k, math.Inf(1))
	}
	tr := BulkLoadSorted(keys, nil, Config{MaxKeysPerLeaf: 32})
	for _, key := range keys {
		if _, ok := tr.Get(key); !ok {
			t.Fatalf("Get(%v) failed", key)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Inserts between adjacent representable floats are impossible, but
	// inserting far-away keys into this cluster must work.
	tr2 := New(Config{MaxKeysPerLeaf: 32, SplitOnInsert: true})
	for _, key := range keys {
		tr2.Insert(key, 1)
	}
	tr2.Insert(0, 2)
	tr2.Insert(1e30, 3)
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr2.Len() != len(keys)+2 {
		t.Fatalf("Len = %d", tr2.Len())
	}
}

func TestClusteredPlusOutlierKeys(t *testing.T) {
	// A dense cluster plus one extreme outlier destroys a single linear
	// fit; adaptive RMI must recurse and remain correct.
	var keys []float64
	for i := 0; i < 10000; i++ {
		keys = append(keys, 1000+float64(i)*0.001)
	}
	keys = append(keys, 1e18)
	tr, err := BulkLoad(keys, nil, Config{MaxKeysPerLeaf: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := tr.Get(1e18); !ok {
		t.Fatal("outlier lost")
	}
	if _, ok := tr.Get(1000.5); !ok {
		t.Fatal("cluster key lost")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAlternatingEndsInserts(t *testing.T) {
	// Inserts alternating between the extremes of the domain stress the
	// leftmost/rightmost leaves simultaneously.
	for _, cfg := range allVariants() {
		cfg.MaxKeysPerLeaf = 256
		cfg.SplitOnInsert = cfg.RMI == AdaptiveRMI
		tr := New(cfg)
		for i := 0; i < 5000; i++ {
			tr.Insert(float64(i), uint64(i))
			tr.Insert(-float64(i)-1, uint64(i))
		}
		if tr.Len() != 10000 {
			t.Fatalf("%s: Len = %d", cfg.VariantName(), tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", cfg.VariantName(), err)
		}
		if mn, _ := tr.MinKey(); mn != -5000 {
			t.Fatalf("%s: MinKey = %v", cfg.VariantName(), mn)
		}
		if mx, _ := tr.MaxKey(); mx != 4999 {
			t.Fatalf("%s: MaxKey = %v", cfg.VariantName(), mx)
		}
	}
}

func TestTinyLeafBoundAndFanouts(t *testing.T) {
	// Pathologically small tuning values must clamp, not crash.
	cfg := Config{MaxKeysPerLeaf: 1, SplitFanout: 1, SplitOnInsert: true}
	tr := New(cfg)
	for i := 0; i < 1000; i++ {
		tr.Insert(float64(i), uint64(i))
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	keys := uniqueKeys(3000, 71)
	tr2, err := BulkLoad(keys, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSingleKeyAndTwoKeyTrees(t *testing.T) {
	for _, cfg := range allVariants() {
		one, err := BulkLoad([]float64{42}, []uint64{7}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := one.Get(42); !ok || v != 7 {
			t.Fatalf("%s: single-key Get", cfg.VariantName())
		}
		if mn, _ := one.MinKey(); mn != 42 {
			t.Fatal("MinKey")
		}
		two, _ := BulkLoad([]float64{1, 2}, nil, cfg)
		if !two.Delete(1) || !two.Delete(2) {
			t.Fatalf("%s: two-key deletes", cfg.VariantName())
		}
		if two.Len() != 0 {
			t.Fatal("not empty")
		}
		if err := two.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNegativeZeroKey(t *testing.T) {
	// -0.0 == 0.0 in float comparison; inserting both must behave as one
	// key (a duplicate), never two.
	tr := New(Config{})
	if !tr.Insert(0.0, 1) {
		t.Fatal("insert 0")
	}
	negZero := math.Copysign(0, -1)
	if tr.Insert(negZero, 2) {
		t.Fatal("-0.0 treated as a distinct key")
	}
	if v, _ := tr.Get(0); v != 2 {
		t.Fatalf("payload = %d", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}
