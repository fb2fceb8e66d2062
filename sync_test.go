package alex_test

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	alex "repro"
	"repro/internal/datasets"
)

func TestSyncBasicOps(t *testing.T) {
	s, err := alex.LoadSync([]float64{1, 2, 3}, []uint64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(2); !ok || v != 20 {
		t.Fatalf("Get = %v,%v", v, ok)
	}
	if !s.Insert(4, 40) || s.Len() != 4 {
		t.Fatal("insert")
	}
	if !s.Update(1, 11) || !s.Delete(3) {
		t.Fatal("update/delete")
	}
	if s.Contains(3) {
		t.Fatal("deleted key present")
	}
	keys, _ := s.ScanN(0, 10)
	if len(keys) != 3 {
		t.Fatalf("scan = %v", keys)
	}
	if mn, _ := s.MinKey(); mn != 1 {
		t.Fatalf("MinKey = %v", mn)
	}
	if mx, _ := s.MaxKey(); mx != 4 {
		t.Fatalf("MaxKey = %v", mx)
	}
	if s.IndexSizeBytes() <= 0 || s.DataSizeBytes() <= 0 {
		t.Fatal("sizes")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncConcurrentReadersAndWriter(t *testing.T) {
	init := datasets.GenYCSB(20000, 51)
	s, err := alex.LoadSync(init, nil, alex.WithSplitOnInsert())
	if err != nil {
		t.Fatal(err)
	}
	extra := datasets.GenYCSB(40000, 52)[20000:]

	var wg sync.WaitGroup
	var reads, scans atomic.Int64
	stop := make(chan struct{})

	// 4 readers hammer lookups and scans on the initial key set. Each
	// performs a minimum amount of work even if the writer finishes
	// first, so the test always overlaps reads with writes somewhere.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for n := 0; ; n++ {
				if n >= 2000 {
					select {
					case <-stop:
						return
					default:
					}
				}
				k := init[i%len(init)]
				if _, ok := s.Get(k); !ok {
					t.Errorf("reader lost key %v", k)
					return
				}
				reads.Add(1)
				if i%64 == 0 {
					s.Scan(k, func(float64, uint64) bool { return false })
					scans.Add(1)
				}
				i += 7
			}
		}(r * 1000)
	}

	// One writer inserts and deletes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, k := range extra {
			s.Insert(k, uint64(i))
			if i%4 == 0 {
				s.Delete(k)
			}
		}
		close(stop)
	}()

	wg.Wait()
	if t.Failed() {
		return
	}
	if reads.Load() == 0 || scans.Load() == 0 {
		t.Fatalf("reads=%d scans=%d", reads.Load(), scans.Load())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := 20000 + len(extra) - (len(extra)+3)/4
	if s.Len() != want {
		t.Fatalf("Len = %d, want %d", s.Len(), want)
	}
}

func TestSyncConcurrentWriters(t *testing.T) {
	s := alex.NewSync(alex.WithMaxKeysPerLeaf(256), alex.WithSplitOnInsert())
	var wg sync.WaitGroup
	const perWriter = 5000
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Insert(float64(base*perWriter+i), uint64(i))
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 4*perWriter {
		t.Fatalf("Len = %d", s.Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncSerializeUnderReaders(t *testing.T) {
	s, _ := alex.LoadSync(datasets.GenLognormal(5000, 53), nil)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := alex.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("round trip Len %d != %d", got.Len(), s.Len())
	}
	if s.Unwrap().Len() != s.Len() {
		t.Fatal("Unwrap disagrees")
	}
}

func TestIndexSerializationFacade(t *testing.T) {
	keys := datasets.GenLongitudes(10000, 54)
	idx, _ := alex.Load(keys, nil)
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := alex.ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var a, b []float64
	idx.Scan(math.Inf(-1), func(k float64, v uint64) bool { a = append(a, k); return true })
	got.Scan(math.Inf(-1), func(k float64, v uint64) bool { b = append(b, k); return true })
	if len(a) != len(b) {
		t.Fatalf("scan %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverges at %d", i)
		}
	}
	if _, err := alex.ReadFrom(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("junk accepted")
	}
}

// statsCountedIndex is the write surface the stats-count tests drive;
// both wrappers satisfy it.
type statsCountedIndex interface {
	Insert(key float64, payload uint64) bool
	Delete(key float64) bool
	Stats() alex.Stats
}

// countWrites runs n random point inserts and deletes (about one delete
// per three inserts) against ix, calling mid once halfway, and checks
// that Stats().Inserts and Stats().Deletes equal the calls that
// succeeded: work counters must survive every leaf and shard the index
// replaces on the way.
func countWrites(t *testing.T, ix statsCountedIndex, n int, mid func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	var ins, del uint64
	for i := 0; i < n; i++ {
		if i == n/2 {
			mid()
		}
		k := float64(rng.Intn(4 * n))
		if rng.Intn(4) == 0 {
			if ix.Delete(k) {
				del++
			}
		} else if ix.Insert(k, uint64(i)) {
			ins++
		}
	}
	st := ix.Stats()
	if st.Inserts != ins || st.Deletes != del {
		t.Fatalf("Stats() counts %d inserts and %d deletes; %d and %d succeeded (splits %d)",
			st.Inserts, st.Deletes, ins, del, st.Splits)
	}
	if st.Splits == 0 {
		t.Fatal("no leaf split: the test does not exercise leaf replacement")
	}
}

// TestSyncStatsCountAcrossSplits: a split replaces a leaf with fresh
// ones, and Rebuild replaces every leaf; the replaced leaves' counters
// must still count.
func TestSyncStatsCountAcrossSplits(t *testing.T) {
	s := alex.NewSync(alex.WithSplitOnInsert(), alex.WithMaxKeysPerLeaf(256))
	countWrites(t, s, 20000, s.Rebuild)
}
