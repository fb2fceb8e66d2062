package wal

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

func sampleRecords() []*Record {
	return []*Record{
		{Op: OpInsert, Keys: []float64{1.5}, Payloads: []uint64{10}},
		{Op: OpDelete, Keys: []float64{-2.25}},
		{Op: OpInsertBatch, Keys: []float64{1, 2, 3}, Payloads: []uint64{4, 5, 6}},
		{Op: OpDeleteBatch, Keys: []float64{7, 8}},
		{Op: OpMerge, Keys: []float64{9, 10}, Payloads: []uint64{11, 12}},
		{Op: OpUpdate, Keys: []float64{3.25}, Payloads: []uint64{13}},
		{Op: OpCheckpoint, Seq: 42},
		{Op: OpInsertBatch, Keys: []float64{}, Payloads: []uint64{}},
	}
}

// encodeStream frames recs into a full segment image (magic included).
func encodeStream(t *testing.T, recs []*Record) []byte {
	t.Helper()
	buf := []byte(Magic)
	for _, r := range recs {
		var err error
		buf, err = AppendRecord(buf, r)
		if err != nil {
			t.Fatalf("AppendRecord: %v", err)
		}
	}
	return buf
}

// readAll decodes records until EOF or corruption.
func readAll(t *testing.T, stream []byte) (recs []*Record, corrupt bool) {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("NewReader: %v", err)
		}
		return nil, true
	}
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return recs, false
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Next: %v", err)
			}
			return recs, true
		}
		recs = append(recs, rec)
	}
}

func recordsEqual(a, b *Record) bool {
	if a.Op != b.Op || a.Seq != b.Seq || len(a.Keys) != len(b.Keys) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	// Normalize nil vs empty payload slices before comparing.
	return reflect.DeepEqual(append([]uint64{}, a.Payloads...), append([]uint64{}, b.Payloads...))
}

func TestWALCodecRoundTrip(t *testing.T) {
	want := sampleRecords()
	got, corrupt := readAll(t, encodeStream(t, want))
	if corrupt {
		t.Fatal("round trip reported corruption")
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Errorf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestWALCodecRejects(t *testing.T) {
	if _, err := AppendRecord(nil, &Record{Op: Op(99)}); err == nil {
		t.Error("unknown op accepted")
	}
	if _, err := AppendRecord(nil, &Record{Op: OpInsert, Keys: []float64{1}, Payloads: nil}); err == nil {
		t.Error("insert without payload accepted")
	}
	big := make([]float64, MaxRecordPairs+1)
	if _, err := AppendRecord(nil, &Record{Op: OpDeleteBatch, Keys: big}); err == nil {
		t.Error("oversized batch accepted")
	}
}

// TestWALTornTail truncates a valid stream at every possible byte
// offset: the decoded records must always be a prefix of the originals
// and decoding must never error fatally or panic.
func TestWALTornTail(t *testing.T) {
	want := sampleRecords()
	stream := encodeStream(t, want)
	for cut := 0; cut <= len(stream); cut++ {
		got, _ := readAll(t, stream[:cut])
		if len(got) > len(want) {
			t.Fatalf("cut %d: decoded %d > %d records", cut, len(got), len(want))
		}
		for i := range got {
			if !recordsEqual(got[i], want[i]) {
				t.Fatalf("cut %d: record %d diverged", cut, i)
			}
		}
	}
}

// TestWALCorruptByte flips each byte of the stream in turn; decoding
// must yield a prefix of the original records (CRC catches the flip).
func TestWALCorruptByte(t *testing.T) {
	want := sampleRecords()
	stream := encodeStream(t, want)
	for pos := 0; pos < len(stream); pos++ {
		mut := append([]byte(nil), stream...)
		mut[pos] ^= 0xff
		got, _ := readAll(t, mut)
		for i := range got {
			if i < len(want) && !recordsEqual(got[i], want[i]) {
				// The flipped byte landed in this record yet it decoded:
				// only acceptable if CRC happened to collide, which
				// crc32c cannot for a single-byte flip.
				t.Fatalf("flip at %d: record %d decoded differently", pos, i)
			}
		}
	}
}

// TestWALZeroRecord: a zero length prefix (e.g. preallocated zero pages
// after a crash) stops replay cleanly.
func TestWALZeroRecord(t *testing.T) {
	stream := encodeStream(t, sampleRecords()[:2])
	stream = append(stream, make([]byte, 64)...)
	got, corrupt := readAll(t, stream)
	if !corrupt || len(got) != 2 {
		t.Fatalf("got %d records, corrupt=%v; want 2, true", len(got), corrupt)
	}
}

// TestWALNonFiniteKeyRejected: even a CRC-valid record cannot smuggle a
// NaN key into replay.
func TestWALNonFiniteKeyRejected(t *testing.T) {
	stream := []byte(Magic)
	stream, err := AppendRecord(stream, &Record{Op: OpInsert, Keys: []float64{math.NaN()}, Payloads: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	got, corrupt := readAll(t, stream)
	if !corrupt || len(got) != 0 {
		t.Fatalf("NaN key decoded: %d records, corrupt=%v", len(got), corrupt)
	}
}

func TestWALWriterReadBack(t *testing.T) {
	for _, policy := range []Policy{SyncAlways, SyncInterval, SyncNever} {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg.log")
		w, err := NewWriter(path, policy, 5*time.Millisecond, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := sampleRecords()
		for _, r := range want {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(want[0]); !errors.Is(err, ErrClosed) {
			t.Fatalf("append after close: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, corrupt := readAll(t, data)
		if corrupt || len(got) != len(want) {
			t.Fatalf("policy %d: %d records, corrupt=%v", policy, len(got), corrupt)
		}
	}
}

// TestWALGroupCommit: 8 concurrent appenders under SyncAlways must
// coalesce fsyncs — strictly fewer syncs than appends.
func TestWALGroupCommit(t *testing.T) {
	w, err := NewWriter(filepath.Join(t.TempDir(), "seg.log"), SyncAlways, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := &Record{Op: OpInsert, Keys: []float64{float64(g*perWriter + i)}, Payloads: []uint64{uint64(i)}}
				if err := w.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Appends != writers*perWriter {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*perWriter)
	}
	if st.Syncs == 0 || st.Syncs >= st.Appends {
		t.Fatalf("syncs = %d for %d appends: group commit not coalescing", st.Syncs, st.Appends)
	}
	t.Logf("group commit: %d appends, %d fsyncs (%.3f fsyncs/op)",
		st.Appends, st.Syncs, float64(st.Syncs)/float64(st.Appends))
}

func TestWALLogRotateAndRemove(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{Op: OpInsert, Keys: []float64{1}, Payloads: []uint64{2}}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments = %v, err %v; want 2", segs, err)
	}
	// Replay across both segments, once sealed, sees both records.
	// Recovery never reads a segment whose writer is still open: a live
	// segment's file runs past its last record.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	n, torn, err := ReplaySegments(segs, func(*Record) error { return nil })
	if err != nil || torn || n != 2 {
		t.Fatalf("replay: n=%d torn=%v err=%v", n, torn, err)
	}
	if err := l.RemoveObsolete(); err != nil {
		t.Fatal(err)
	}
	segs, _ = Segments(dir)
	if len(segs) != 1 || segs[0].Seq != l.CurrentSeq() {
		t.Fatalf("after remove: %v, cur %d", segs, l.CurrentSeq())
	}
	if err := l.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	n, torn, err = ReplaySegments(segs, func(*Record) error { return nil })
	if err != nil || torn || n != 1 {
		t.Fatalf("replay after close: n=%d torn=%v err=%v", n, torn, err)
	}
}

// TestWALLogConcurrentAppendRotate races appenders against rotations;
// every acked append must survive into some segment.
func TestWALLogConcurrentAppendRotate(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 100
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := &Record{Op: OpInsert, Keys: []float64{float64(g*perWriter + i)}, Payloads: []uint64{1}}
				if err := l.Append(rec); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 5; i++ {
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := Segments(dir)
	seen := map[float64]bool{}
	n, torn, err := ReplaySegments(segs, func(r *Record) error {
		seen[r.Keys[0]] = true
		return nil
	})
	if err != nil || torn {
		t.Fatalf("replay: n=%d torn=%v err=%v", n, torn, err)
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("replayed %d distinct keys, want %d", len(seen), writers*perWriter)
	}
}
