package alex

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The snapshot formats are frozen by fixtures under testdata/formats:
// each NAME.alex is a WriteTo stream and NAME.txt its expected contents,
// one "%.17g payload" line per element in key order. Run
//
//	go test -run TestSnapshotFormatFixtures -update .
//
// to rewrite the fixtures this build can still produce (d, e and f, the
// current format); a, b and c are version-1 bytes written by older
// builds, kept to prove they still open.
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

// writableFixtures builds the fixtures this build writes on -update:
// d_sorted_run is the current format's stream of a_gapped's contents,
// and e_empty and f_one_key are the smallest streams, each under
// options that set header words away from their defaults. The
// version-1 fixtures stay as frozen bytes: a_gapped (a default
// tree), b_pma_split (a packed-memory-array tree grown by
// split-on-insert, header layout word 1) and c_heuristic_fanout8 (a
// fixed-fanout bulk load at inner fanout 8) were written by builds that
// still had those code paths.
func writableFixtures(t *testing.T) map[string]*Index {
	keys, edges := fixtureKeys()
	return map[string]*Index{
		"d_sorted_run": loadFixture(t, keys, edges, WithMaxKeysPerLeaf(64)),
		"e_empty":      New(emptyFixtureOpts...),
		"f_one_key":    loadFixture(t, oneKeyFixture, nil, oneKeyFixtureOpts...),
	}
}

// The options and the key of the e_empty and f_one_key fixtures.
var (
	emptyFixtureOpts  = []Option{WithSplitOnInsert(), WithMaxKeysPerLeaf(128)}
	oneKeyFixtureOpts = []Option{WithMaxKeysPerLeaf(64), WithDensity(0.6), WithPayloadBytes(16)}
	oneKeyFixture     = []float64{-2.5}
)

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
// pointers of a version-1 stream, and returns the layout header word.
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

// checkSortedRun checks the framing of a version-2 stream: magic,
// eight header words, count 16-byte records, a 4-byte checksum.
func checkSortedRun(t *testing.T, b []byte, count int) {
	t.Helper()
	if string(b[:8]) != "ALEXGO02" {
		t.Fatalf("magic %q", b[:8])
	}
	if got := binary.LittleEndian.Uint64(b[8+7*8:]); got != uint64(count) {
		t.Fatalf("header count %d, want %d", got, count)
	}
	if want := 8 + 8*8 + 16*count + 4; len(b) != want {
		t.Fatalf("%d bytes, want %d", len(b), want)
	}
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

	defaultHeader := headerWords(t, New())
	for _, tc := range []struct {
		name   string
		v1     bool
		layout uint64
		edges  bool // holds fixtureKeys' edge values
		// reencodes names the fixture whose bytes re-encoding the
		// decoded index must give; "" skips the check.
		reencodes string
	}{
		{"a_gapped", true, 0, true, "d_sorted_run"},
		{"b_pma_split", true, 1, true, ""},
		{"c_heuristic_fanout8", true, 0, true, ""},
		{"d_sorted_run", false, 0, true, "d_sorted_run"},
		{"e_empty", false, 0, false, "e_empty"},
		{"f_one_key", false, 0, false, "f_one_key"},
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
			count := strings.Count(string(want), "\n")
			if tc.v1 {
				layout, inner, leaves, repeats := walkSnapshot(t, raw)
				if layout != tc.layout || inner == 0 || leaves < 2 || repeats == 0 {
					t.Fatalf("fixture shape: layout %d, %d inner, %d leaves, %d repeated children; want layout %d and some of each",
						layout, inner, leaves, repeats, tc.layout)
				}
			} else {
				checkSortedRun(t, raw, count)
				if !tc.edges && bytes.Equal(raw[8:8+7*8], defaultHeader) {
					t.Fatal("every configuration header word has its default value")
				}
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
			if ix.Len() != count {
				t.Fatalf("Len %d, want %d", ix.Len(), count)
			}
			for _, edge := range []string{"-0 ", "4.9406564584124654e-324 ", "1.7976931348623157e+308 ", "-1.7976931348623157e+308 "} {
				if tc.edges && !strings.Contains(string(want), edge) {
					t.Fatalf("fixture lacks edge key %q", edge)
				}
			}

			// Re-encoding writes the current format: byte for byte each
			// version-2 fixture from itself, and d from a, which holds
			// the same contents.
			if tc.reencodes != "" {
				var buf bytes.Buffer
				if _, err := ix.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				d, err := os.ReadFile(filepath.Join(fixtureDir, tc.reencodes+".alex"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf.Bytes(), d) {
					t.Fatalf("re-encoding the decoded fixture does not give %s's bytes", tc.reencodes)
				}
			}
		})
	}
}

// TestReopenPlansShape: a tree grown by split-on-insert
// appends has a shape no planner would choose; reopening its snapshot
// must re-plan it to the height a fresh bulk load of the same pairs
// gets, for the single index and for the sharded one.
func TestReopenPlansShape(t *testing.T) {
	const loaded, appended = 1 << 16, 1 << 18
	keys := make([]float64, loaded+appended)
	for i := range keys {
		keys[i] = float64(i) * 0.5
	}
	grow := func(ins func(float64, uint64) bool) {
		for i := loaded; i < len(keys); i++ {
			ins(keys[i], uint64(i))
		}
	}

	t.Run("Index", func(t *testing.T) {
		ix := LoadSorted(keys[:loaded], nil, WithSplitOnInsert())
		grow(ix.Insert)
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrom(&buf)
		if err != nil {
			t.Fatal(err)
		}
		ks, ps := collect(back.Scan)
		fresh := LoadSorted(ks, ps, WithSplitOnInsert())
		if got, want := back.Stats().Height, fresh.Stats().Height; got != want {
			t.Fatalf("reopened height %d (grown %d), fresh bulk load %d", got, ix.Stats().Height, want)
		}
		if back.Len() != len(keys) {
			t.Fatalf("Len %d, want %d", back.Len(), len(keys))
		}
	})

	t.Run("Sharded", func(t *testing.T) {
		s, err := LoadSharded(2, keys[:loaded], nil, WithSplitOnInsert())
		if err != nil {
			t.Fatal(err)
		}
		grow(s.Insert)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFromSharded(&buf, 2)
		if err != nil {
			t.Fatal(err)
		}
		ks, ps := collect(back.Scan)
		fresh, err := LoadSharded(2, ks, ps, WithSplitOnInsert())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := back.Stats().Height, fresh.Stats().Height; got != want {
			t.Fatalf("reopened height %d (grown %d), fresh bulk load %d", got, s.Stats().Height, want)
		}
		if back.Len() != len(keys) {
			t.Fatalf("Len %d, want %d", back.Len(), len(keys))
		}
	})
}

// headerWords returns the seven configuration words of ix's version-2
// header (the count word excluded).
func headerWords(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[8 : 8+7*8]
}

// TestWriteToSameBytesAcrossBackends: SyncIndex and a 2-shard
// ShardedIndex write the same pairs under the same options to the bytes
// Index writes. The empty and one-key cases are the e_empty and
// f_one_key fixtures.
func TestWriteToSameBytesAcrossBackends(t *testing.T) {
	many := make([]float64, 5000)
	for i := range many {
		many[i] = float64(i)*1.5 - 2000
	}
	for _, tc := range []struct {
		name    string
		keys    []float64
		opts    []Option
		fixture string
	}{
		{"empty", nil, emptyFixtureOpts, "e_empty"},
		{"one key", oneKeyFixture, oneKeyFixtureOpts, "f_one_key"},
		{"5000 keys", many, []Option{WithSplitOnInsert()}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ps := make([]uint64, len(tc.keys))
			for i := range ps {
				ps[i] = fixturePayload(i)
			}
			ix, err := Load(tc.keys, ps, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sy, err := LoadSync(tc.keys, ps, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := LoadSharded(2, tc.keys, ps, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if _, err := ix.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if tc.fixture != "" {
				raw, err := os.ReadFile(filepath.Join(fixtureDir, tc.fixture+".alex"))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(want.Bytes(), raw) {
					t.Fatalf("Index.WriteTo does not give %s's bytes", tc.fixture)
				}
			}
			for _, b := range []struct {
				name string
				w    interface {
					WriteTo(io.Writer) (int64, error)
				}
			}{{"SyncIndex", sy}, {"ShardedIndex", sh}} {
				var got bytes.Buffer
				if _, err := b.w.WriteTo(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Errorf("%s.WriteTo wrote %d bytes that differ from Index.WriteTo's %d", b.name, got.Len(), want.Len())
				}
			}
		})
	}
}

// collect gathers everything a Scan method visits.
func collect(scan func(float64, func(float64, uint64) bool) int) ([]float64, []uint64) {
	var ks []float64
	var ps []uint64
	scan(math.Inf(-1), func(k float64, v uint64) bool {
		ks = append(ks, k)
		ps = append(ps, v)
		return true
	})
	return ks, ps
}

// TestDensityOptionSnapshotReopens: every density the options accept
// survives a round trip, including one below gapped.MinDensity, which
// the reader raises to it.
func TestDensityOptionSnapshotReopens(t *testing.T) {
	for _, d := range []float64{0.001, 0.05, 0.5, 1} {
		ix := LoadSorted([]float64{1, 2, 3, 4, 5}, nil, WithDensity(d))
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("WithDensity(%v): %v", d, err)
		}
		if back.Len() != 5 {
			t.Fatalf("WithDensity(%v): Len %d", d, back.Len())
		}
	}
}

// TestDurableReopensEveryOptionValue: a durable index whose options put
// a header word at the edge of what the reader plans from — more static
// leaf models than keys, one key per leaf, a density below
// gapped.MinDensity — checkpoints (truncating its log) and reopens
// with identical contents.
func TestDurableReopensEveryOptionValue(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"static 100000 models", []Option{WithStaticRMI(100000)}},
		{"adaptive 1 key per leaf", []Option{WithMaxKeysPerLeaf(1)}},
		{"static 1 key per leaf", []Option{WithStaticRMI(0), WithMaxKeysPerLeaf(1)}},
		{"density 0.01", []Option{WithDensity(0.01)}},
	} {
		for _, backend := range []struct {
			name string
			opt  DurableOption
		}{{"sharded", WithDurableShards(2)}, {"sync", WithSyncBackend()}} {
			t.Run(tc.name+"/"+backend.name, func(t *testing.T) {
				dir := t.TempDir()
				d, err := OpenDurable(dir, WithIndexOptions(tc.opts...), backend.opt)
				if err != nil {
					t.Fatal(err)
				}
				const n = 1000
				for i := 0; i < n; i++ {
					d.Insert(float64(i)*0.75, uint64(i))
				}
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := d.Close(); err != nil {
					t.Fatal(err)
				}
				back, err := OpenDurable(dir, backend.opt)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				defer back.Close()
				if back.Len() != n {
					t.Fatalf("Len %d, want %d", back.Len(), n)
				}
				for i := 0; i < n; i++ {
					if v, ok := back.Get(float64(i) * 0.75); !ok || v != uint64(i) {
						t.Fatalf("Get(%v) = %d, %v", float64(i)*0.75, v, ok)
					}
				}
			})
		}
	}
}
