package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/gapped"
)

func roundTrip(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestEncodeRoundTripAllVariants(t *testing.T) {
	keys := uniqueKeys(20000, 41)
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i) * 3
	}
	for _, cfg := range allVariants() {
		cfg.MaxKeysPerLeaf = 512
		tr, err := BulkLoad(keys, payloads, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := roundTrip(t, tr)
		if got.Len() != tr.Len() {
			t.Fatalf("%s: Len %d != %d", cfg.VariantName(), got.Len(), tr.Len())
		}
		if got.Config().VariantName() != cfg.VariantName() {
			t.Fatalf("config lost: %s", got.Config().VariantName())
		}
		for i, k := range keys {
			v, ok := got.Get(k)
			if !ok || v != payloads[i] {
				t.Fatalf("%s: Get(%v) = (%v,%v) after round trip", cfg.VariantName(), k, v, ok)
			}
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", cfg.VariantName(), err)
		}
	}
}

func TestEncodeRoundTripAfterMutation(t *testing.T) {
	cfg := Config{MaxKeysPerLeaf: 128, SplitOnInsert: true}
	tr := New(cfg)
	for i := 0; i < 10000; i++ {
		tr.Insert(float64(i)*1.5, uint64(i))
	}
	for i := 0; i < 10000; i += 3 {
		tr.Delete(float64(i) * 1.5)
	}
	got := roundTrip(t, tr)
	if got.Len() != tr.Len() {
		t.Fatalf("Len %d != %d", got.Len(), tr.Len())
	}
	var want, have []float64
	tr.Scan(math.Inf(-1), func(k float64, v uint64) bool { want = append(want, k); return true })
	got.Scan(math.Inf(-1), func(k float64, v uint64) bool { have = append(have, k); return true })
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("scan diverges at %d: %v vs %v", i, want[i], have[i])
		}
	}
}

func TestEncodeEmptyIndex(t *testing.T) {
	tr := New(Config{})
	got := roundTrip(t, tr)
	if got.Len() != 0 {
		t.Fatalf("Len = %d", got.Len())
	}
	if _, ok := got.Get(1); ok {
		t.Fatal("phantom key")
	}
	got.Insert(5, 50)
	if v, _ := got.Get(5); v != 50 {
		t.Fatal("insert after decode")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC battered remains of a stream"),
		append([]byte(magicV1), make([]byte, 10)...), // truncated header
		append([]byte(magicV2), make([]byte, 10)...),
	}
	for i, data := range cases {
		if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

// formatFixture reads one frozen snapshot from testdata/formats.
func formatFixture(tb testing.TB, name string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "formats", name+".alex"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// truncationInputs are well-formed streams of both versions: two
// frozen version-1 fixtures and a version-2 stream from WriteTo.
func truncationInputs(t *testing.T) map[string][]byte {
	tr, _ := BulkLoad(uniqueKeys(5000, 42), nil, Config{MaxKeysPerLeaf: 256})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"v1 a_gapped":    formatFixture(t, "a_gapped"),
		"v1 b_pma_split": formatFixture(t, "b_pma_split"),
		"v2":             buf.Bytes(),
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	for name, full := range truncationInputs(t) {
		if _, err := ReadFrom(bytes.NewReader(full)); err != nil {
			t.Fatalf("%s: untruncated stream: %v", name, err)
		}
		for _, cut := range []int{9, len(full) / 4, len(full) / 2, len(full) - 9, len(full) - 1} {
			if _, err := ReadFrom(bytes.NewReader(full[:cut])); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("%s: truncation at %d of %d: got %v, want ErrBadFormat", name, cut, len(full), err)
			}
		}
	}
}

// TestDecodeRejectsCorruptLeafOrder flips each byte of a stream of
// either version in turn. Every mutation either is rejected or decodes
// to a tree that passes its invariant check, and some must be rejected.
func TestDecodeRejectsCorruptLeafOrder(t *testing.T) {
	var v2 bytes.Buffer
	BulkLoadSorted([]float64{1, 2, 3, 4}, nil, Config{}).WriteTo(&v2)
	for name, data := range map[string][]byte{
		"v1 a_gapped":    formatFixture(t, "a_gapped"),
		"v1 b_pma_split": formatFixture(t, "b_pma_split"),
		"v2":             v2.Bytes(),
	} {
		rejected := 0
		for off := range data {
			mut := append([]byte(nil), data...)
			mut[off] ^= 0xff
			got, err := ReadFrom(bytes.NewReader(mut))
			if err != nil {
				if !errors.Is(err, ErrBadFormat) {
					t.Fatalf("%s: error does not wrap ErrBadFormat: %v", name, err)
				}
				rejected++
				continue
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("%s: accepted corrupt stream violates invariants: %v", name, err)
			}
		}
		if rejected == 0 {
			t.Fatalf("%s: no corruption was ever rejected", name)
		}
	}
}

// v1Stream assembles a version-1 stream: the ten header words (count
// last) for an adaptive index holding count pairs, then the node words.
func v1Stream(count uint64, nodes ...uint64) []byte {
	b := []byte(magicV1)
	for _, w := range append([]uint64{0, 0, 4096, 32, 4, 0, 0, 0, 8, count}, nodes...) {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// v1Leaf is a version-1 leaf node: tag, element count, keys, payloads
// (each payload ten times its key).
func v1Leaf(keys ...float64) []uint64 {
	w := []uint64{tagLeaf, uint64(len(keys))}
	for _, k := range keys {
		w = append(w, math.Float64bits(k))
	}
	for _, k := range keys {
		w = append(w, uint64(10*k))
	}
	return w
}

// v1Inner is a version-1 inner node header with a zero model and nc
// children; the children's words follow it.
func v1Inner(nc uint64) []uint64 { return []uint64{tagInner, 0, 0, nc} }

func words(parts ...[]uint64) []uint64 {
	var w []uint64
	for _, p := range parts {
		w = append(w, p...)
	}
	return w
}

func TestDecodeV1RejectsMalformedNodeStream(t *testing.T) {
	repeat := []uint64{tagRepeat}
	// An inner root over a leaf, a repeat of it, and a second leaf.
	valid := v1Stream(4, words(v1Inner(3), v1Leaf(1, 2), repeat, v1Leaf(3, 4))...)
	tr, err := ReadFrom(bytes.NewReader(valid))
	if err != nil {
		t.Fatalf("well-formed stream: %v", err)
	}
	if tr.Len() != 4 {
		t.Fatalf("well-formed stream: Len %d", tr.Len())
	}
	for v := 1; v <= 4; v++ {
		if p, ok := tr.Get(float64(v)); !ok || p != uint64(10*v) {
			t.Fatalf("well-formed stream: Get(%d) = %d, %v", v, p, ok)
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"repeat as the root", v1Stream(0, repeat...)},
		{"repeat as the first child", v1Stream(4, words(v1Inner(3), repeat, v1Leaf(1, 2), v1Leaf(3, 4))...)},
		{"repeat as a nested first child", v1Stream(4, words(v1Inner(2), v1Leaf(1, 2), v1Inner(2), repeat, v1Leaf(3, 4))...)},
		{"child count 0", v1Stream(0, v1Inner(0)...)},
		{"child count above 2^24", v1Stream(4, words(v1Inner(1<<24+1), v1Leaf(1, 2), v1Leaf(3, 4))...)},
		{"leaf count above the header count", v1Stream(3, words(v1Inner(2), v1Leaf(1, 2), v1Leaf(3, 4))...)},
		{"leaf totals below the header count", v1Stream(5, words(v1Inner(2), v1Leaf(1, 2), v1Leaf(3, 4))...)},
		{"keys out of order across two leaves", v1Stream(4, words(v1Inner(2), v1Leaf(3, 4), v1Leaf(1, 2))...)},
		{"keys out of order inside a leaf", v1Stream(2, v1Leaf(2, 1)...)},
		{"NaN key", v1Stream(2, v1Leaf(1, math.NaN())...)},
		{"unknown tag", v1Stream(0, 3)},
		{"unknown layout word", append(append([]byte(magicV1), binary.LittleEndian.AppendUint64(nil, 2)...), valid[16:]...)},
		{"truncated mid-leaf", valid[:len(valid)-12]},
		{"missing child", v1Stream(2, words(v1Inner(2), v1Leaf(1, 2))...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadFrom(bytes.NewReader(tc.data)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("got %v, want ErrBadFormat", err)
			}
		})
	}
}

// TestDecodeClampsAllocationWords: header words that only size an
// allocation are clamped, not rejected, so every value an older build
// wrote still opens. A version-1 stream with density 0.01 reopens at
// gapped.MinDensity; a static RMI with more leaf models than max(count,
// 2^16) reopens capped there.
func TestDecodeClampsAllocationWords(t *testing.T) {
	a := formatFixture(t, "a_gapped")
	want, err := ReadFrom(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	const v1DensityOff = 8 + 7*8
	lowDensity := append([]byte(nil), a...)
	binary.LittleEndian.PutUint64(lowDensity[v1DensityOff:], math.Float64bits(0.01))
	got, err := ReadFrom(bytes.NewReader(lowDensity))
	if err != nil {
		t.Fatalf("density 0.01: %v", err)
	}
	if d := got.Config().Density; d != gapped.MinDensity {
		t.Fatalf("density 0.01 reopened at %v, want %v", d, gapped.MinDensity)
	}
	sameContents(t, got, want)
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	keys := uniqueKeys(1000, 43)
	tr, err := BulkLoad(keys, nil, Config{RMI: StaticRMI, NumLeafModels: 100000})
	if err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, tr)
	if m := back.Config().NumLeafModels; m != 1<<16 {
		t.Fatalf("100000 leaf models over 1000 keys reopened with %d", m)
	}
	sameContents(t, back, tr)
}

// sameContents fails unless both trees scan to the same pairs.
func sameContents(t *testing.T, got, want *Tree) {
	t.Helper()
	type pair struct {
		k float64
		v uint64
	}
	var g, w []pair
	got.Scan(math.Inf(-1), func(k float64, v uint64) bool { g = append(g, pair{k, v}); return true })
	want.Scan(math.Inf(-1), func(k float64, v uint64) bool { w = append(w, pair{k, v}); return true })
	if len(g) != len(w) {
		t.Fatalf("%d pairs, want %d", len(g), len(w))
	}
	for i := range w {
		if math.Float64bits(g[i].k) != math.Float64bits(w[i].k) || g[i].v != w[i].v {
			t.Fatalf("pair %d = %v, want %v", i, g[i], w[i])
		}
	}
}

// Property: encode/decode is lossless for contents over random key sets.
func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(raw []uint16, variant uint8) bool {
		seen := make(map[float64]bool)
		var keys []float64
		for _, v := range raw {
			k := float64(v)
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		cfg := allVariants()[int(variant)%len(allVariants())]
		cfg.MaxKeysPerLeaf = 64
		tr, err := BulkLoad(keys, nil, cfg)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Log(err)
			return false
		}
		if got.Len() != len(keys) {
			return false
		}
		for _, k := range keys {
			if _, ok := got.Get(k); !ok {
				return false
			}
		}
		return got.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// v2Stream encodes n keys 1..n with payloads 10*key.
func v2Stream(t *testing.T, n int) []byte {
	t.Helper()
	keys := make([]float64, n)
	payloads := make([]uint64, n)
	for i := range keys {
		keys[i] = float64(i + 1)
		payloads[i] = uint64(10 * (i + 1))
	}
	var buf bytes.Buffer
	if _, err := BulkLoadSorted(keys, payloads, Config{MaxKeysPerLeaf: 16}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reseal rewrites a version-2 stream's checksum trailer over its
// current bytes, so a test can corrupt the body and still pass the CRC.
func reseal(b []byte) []byte {
	n := len(b) - 4
	binary.LittleEndian.PutUint32(b[n:], crc32.Checksum(b[:n], crc32.MakeTable(crc32.Castagnoli)))
	return b
}

// Version-2 offsets: magic, eight header words (count last), records.
const (
	v2CountOff   = 8 + 7*8
	v2RecordsOff = 8 + 8*8
)

func TestDecodeRejectsCorruptSortedRun(t *testing.T) {
	const n = 100
	record := func(b []byte, i int) []byte { return b[v2RecordsOff+16*i:] }
	for _, tc := range []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"flipped payload byte", func(b []byte) []byte {
			record(b, 7)[12] ^= 0x40
			return b
		}},
		{"flipped trailer byte", func(b []byte) []byte {
			b[len(b)-1] ^= 1
			return b
		}},
		{"truncated trailer", func(b []byte) []byte { return b[:len(b)-2] }},
		{"truncated records", func(b []byte) []byte { return b[:v2RecordsOff+16*n/2] }},
		{"count above records", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[v2CountOff:], n+1)
			return reseal(b)
		}},
		{"count below records", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[v2CountOff:], n-1)
			return reseal(b)
		}},
		{"keys out of order", func(b []byte) []byte {
			a, c := record(b, 3)[:8], record(b, 4)[:8]
			var tmp [8]byte
			copy(tmp[:], a)
			copy(a, c)
			copy(c, tmp[:])
			return reseal(b)
		}},
		{"duplicate key", func(b []byte) []byte {
			copy(record(b, 4)[:8], record(b, 3)[:8])
			return reseal(b)
		}},
		{"NaN key", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(record(b, 50), math.Float64bits(math.NaN()))
			return reseal(b)
		}},
		{"infinite key", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(record(b, n-1), math.Float64bits(math.Inf(1)))
			return reseal(b)
		}},
		{"bad rmi", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:], 7)
			return reseal(b)
		}},
		{"NaN density", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8+5*8:], math.Float64bits(math.NaN()))
			return reseal(b)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(v2Stream(t, n))
			if _, err := ReadFrom(bytes.NewReader(b)); !errors.Is(err, ErrBadFormat) {
				t.Fatalf("got %v, want ErrBadFormat", err)
			}
		})
	}
	if _, err := ReadFrom(bytes.NewReader(v2Stream(t, n))); err != nil {
		t.Fatalf("unmutated stream: %v", err)
	}
}

// TestDecodeHugeCountAllocatesLittle: a header that claims 2^40 pairs
// over an empty body fails on the short read, having allocated one
// chunk, not an array sized from the claim.
func TestDecodeHugeCountAllocatesLittle(t *testing.T) {
	b := v2Stream(t, 0)
	binary.LittleEndian.PutUint64(b[v2CountOff:], 1<<40)
	b = reseal(b)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrom(bytes.NewReader(b))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("got %v, want ErrBadFormat", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding allocated %d bytes", grew)
	}
}

// fixtureStreams returns the frozen snapshot fixtures (both formats).
func fixtureStreams(tb testing.TB) [][]byte {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "formats", "*.alex"))
	if err != nil || len(paths) < 4 {
		tb.Fatalf("fixtures: %v %v", paths, err)
	}
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzReadFrom: any input either decodes to a tree that passes its
// invariant check, or is rejected with ErrBadFormat; it never panics.
func FuzzReadFrom(f *testing.F) {
	for _, b := range fixtureStreams(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("error does not wrap ErrBadFormat: %v", err)
			}
			return
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
