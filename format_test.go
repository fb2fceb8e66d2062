package alex

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The snapshot format is frozen by fixtures under testdata/formats:
// each NAME.alex is a WriteTo stream and NAME.txt its expected contents,
// one "%.17g payload" line per element in key order. Run
//
//	go test -run TestSnapshotFormatFixtures -update .
//
// to rewrite the fixtures this build can still produce; the others are
// bytes written by older builds, kept to prove they still open.
var updateFixtures = flag.Bool("update", false, "rewrite testdata/formats fixtures")

const fixtureDir = "testdata/formats"

// fixtureKeys returns a few hundred unique keys spread over several
// magnitudes, in random order, and the float64 edge values the
// encoding must carry bit-exactly: -0, the smallest denormal, and
// ±MaxFloat64 with their neighbours toward zero.
func fixtureKeys() (keys, edges []float64) {
	r := rand.New(rand.NewSource(44))
	edges = []float64{
		math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
		-math.MaxFloat64, math.Nextafter(-math.MaxFloat64, 0),
	}
	seen := map[float64]bool{0: true}
	for len(keys) < 480 {
		k := math.Round(r.ExpFloat64()*1e6) / 1e3
		if r.Intn(4) == 0 {
			k = -k
		}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys, edges
}

// fixturePayload spreads payloads over all 64 bits.
func fixturePayload(i int) uint64 { return uint64(i+1) * 0x9E3779B97F4A7C15 }

// loadFixture bulk loads keys and then inserts edges one by one. The
// edge keys go in last because a bulk load spanning ±MaxFloat64 cannot
// train a usable root model and collapses into a single leaf, which
// would leave no inner nodes for the fixture to pin.
func loadFixture(t *testing.T, keys, edges []float64, opts ...Option) *Index {
	ps := make([]uint64, len(keys))
	for i := range ps {
		ps[i] = fixturePayload(i)
	}
	ix, err := Load(keys, ps, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range edges {
		ix.Insert(k, fixturePayload(len(keys)+i))
	}
	return ix
}

// writableFixtures builds the fixtures this build writes on -update.
// b_pma_split (a packed-memory-array tree grown by split-on-insert,
// header layout word 1) and c_heuristic_fanout8 (a fixed-fanout bulk
// load at inner fanout 8) were written by builds that still had those
// code paths; they stay as frozen bytes.
func writableFixtures(t *testing.T) map[string]*Index {
	keys, edges := fixtureKeys()
	return map[string]*Index{
		"a_gapped": loadFixture(t, keys, edges, WithMaxKeysPerLeaf(64)),
	}
}

// fixtureText renders an index's contents the way the .txt fixtures
// store them.
func fixtureText(ix *Index) string {
	var sb strings.Builder
	ix.Scan(math.Inf(-1), func(k float64, v uint64) bool {
		fmt.Fprintf(&sb, "%.17g %d\n", k, v)
		return true
	})
	return sb.String()
}

// walkSnapshot counts the inner nodes, leaves and repeated child
// pointers of a WriteTo stream, and returns the layout header word.
func walkSnapshot(t *testing.T, b []byte) (layout uint64, inner, leaves, repeats int) {
	t.Helper()
	word := func() uint64 {
		if len(b) < 8 {
			t.Fatal("snapshot truncated")
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	word() // magic
	layout = word()
	for i := 1; i < 10; i++ {
		word()
	}
	var node func(tag uint64)
	node = func(tag uint64) {
		switch tag {
		case 0:
			inner++
			word()
			word()
			for n := word(); n > 0; n-- {
				if c := word(); c == 2 {
					repeats++
				} else {
					node(c)
				}
			}
		case 1:
			leaves++
			n := word()
			b = b[16*n:]
		default:
			t.Fatalf("bad node tag %d", tag)
		}
	}
	node(word())
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes", len(b))
	}
	return layout, inner, leaves, repeats
}

func TestSnapshotFormatFixtures(t *testing.T) {
	if *updateFixtures {
		if err := os.MkdirAll(fixtureDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, ix := range writableFixtures(t) {
			var buf bytes.Buffer
			if _, err := ix.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			base := filepath.Join(fixtureDir, name)
			if err := os.WriteFile(base+".alex", buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(base+".txt", []byte(fixtureText(ix)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, tc := range []struct {
		name   string
		layout uint64
	}{
		{"a_gapped", 0},
		{"b_pma_split", 1},
		{"c_heuristic_fanout8", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := filepath.Join(fixtureDir, tc.name)
			raw, err := os.ReadFile(base + ".alex")
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(base + ".txt")
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) > 16<<10 {
				t.Fatalf("fixture is %d bytes, want <= 16 KiB", len(raw))
			}
			layout, inner, leaves, repeats := walkSnapshot(t, raw)
			if layout != tc.layout || inner == 0 || leaves < 2 || repeats == 0 {
				t.Fatalf("fixture shape: layout %d, %d inner, %d leaves, %d repeated children; want layout %d and some of each",
					layout, inner, leaves, repeats, tc.layout)
			}

			ix, err := ReadFrom(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if err := ix.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if got := fixtureText(ix); got != string(want) {
				t.Fatalf("decoded contents differ from %s.txt", base)
			}
			lines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
			if ix.Len() != len(lines) {
				t.Fatalf("Len %d, want %d", ix.Len(), len(lines))
			}
			for _, edge := range []string{"-0 ", "4.9406564584124654e-324 ", "1.7976931348623157e+308 ", "-1.7976931348623157e+308 "} {
				if !strings.Contains(string(want), edge) {
					t.Fatalf("fixture lacks edge key %q", edge)
				}
			}

			if tc.name == "a_gapped" {
				var buf bytes.Buffer
				if _, err := ix.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), raw) {
					t.Fatal("re-encoding the decoded fixture changed its bytes")
				}
			}
		})
	}
}
