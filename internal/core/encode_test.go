package core

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
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
		append([]byte(magic), make([]byte, 10)...), // truncated header
	}
	for i, data := range cases {
		if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	tr, _ := BulkLoad(uniqueKeys(5000, 42), nil, Config{MaxKeysPerLeaf: 256})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 1} {
		if _, err := ReadFrom(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		} else if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("truncation error not ErrBadFormat: %v", err)
		}
	}
}

func TestDecodeRejectsCorruptLeafOrder(t *testing.T) {
	tr := BulkLoadSorted([]float64{1, 2, 3, 4}, nil, Config{})
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	data := buf.Bytes()
	// Flip bytes in the key area until decoding fails or we exhaust the
	// stream; any accepted mutation must still satisfy invariants.
	rejected := 0
	for off := len(data) - 64; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		got, err := ReadFrom(bytes.NewReader(mut))
		if err != nil {
			rejected++
			continue
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("accepted corrupt stream violates invariants: %v", err)
		}
	}
	if rejected == 0 {
		t.Fatal("no corruption was ever rejected")
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
