// The weak package arrived in Go 1.24; go.mod still says go 1.23.
//go:build go1.24

package alex

// Reclamation test: a leaf that only a dropped snapshot could reach
// must be freed by the garbage collector even while an older snapshot
// is still open. The index keeps no list of replaced structures, so the
// old snapshot holds exactly the leaves it sealed and nothing cut or
// replaced after it.

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"weak"

	"repro/internal/gapped"
)

func TestDroppedSnapshotLeavesAreCollected(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	keys := make([]float64, 10_000)
	payloads := make([]uint64, len(keys))
	for i := range keys {
		keys[i] = rng.ExpFloat64() * 1e6
	}
	sort.Float64s(keys)
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	s, err := LoadSync(keys, payloads, WithSplitOnInsert())
	if err != nil {
		t.Fatal(err)
	}
	insert := func(n int) {
		for i := 0; i < n; i++ {
			k := rng.ExpFloat64() * 1e6
			s.Insert(k, uint64(i))
		}
	}

	s1 := s.Snapshot()
	insert(2_000)

	inS1 := make(map[*gapped.Array]bool)
	for _, p := range s1.parts {
		for _, d := range p.Leaves {
			inS1[d] = true
		}
	}
	var ptrs []weak.Pointer[gapped.Array]
	s2 := s.Snapshot()
	for _, d := range s2.parts[0].Leaves {
		if !inS1[d] {
			ptrs = append(ptrs, weak.Make(d))
		}
	}
	if len(ptrs) == 0 {
		t.Fatal("no leaf was replaced between the two snapshots")
	}
	s2.Close()
	s2 = nil

	// Enough inserts to clone or replace every leaf S2 sealed, so the
	// live tree no longer reaches any of them.
	insert(100_000)
	runtime.GC()

	live := 0
	for _, p := range ptrs {
		if p.Value() != nil {
			live++
		}
	}
	if live != 0 {
		t.Errorf("%d of %d leaves reachable only from a dropped snapshot are still live", live, len(ptrs))
	}
	if s1.Len() != len(keys) {
		t.Errorf("open snapshot Len = %d, want %d", s1.Len(), len(keys))
	}
	runtime.KeepAlive(s1)
}
