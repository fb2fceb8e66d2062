package wal

import (
	"encoding/binary"
	"errors"
	"os"
	"testing"
	"time"
)

// collectTail drains every immediately available record (stopping at
// the live tail via a pre-closed stop channel would abort mid-record,
// so it uses Pending as the gate).
func collectTail(t *testing.T, tl *Tailer) []*Record {
	t.Helper()
	var got []*Record
	for tl.Pending() {
		rec, _, _, err := tl.Next(nil)
		if err != nil {
			if errors.Is(err, ErrClosed) {
				break
			}
			t.Fatalf("Next: %v", err)
		}
		got = append(got, rec)
	}
	return got
}

// TestTailAcrossRotation: a tailer that starts at the beginning of
// history must see every record exactly once, in order, across segment
// rotations — no drops at the seam, no duplicates.
func TestTailAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var want []float64
	appendN := func(n int) {
		for i := 0; i < n; i++ {
			k := float64(len(want))
			want = append(want, k)
			if err := l.Append(&Record{Op: OpInsert, Keys: []float64{k}, Payloads: []uint64{1}}); err != nil {
				t.Fatal(err)
			}
		}
	}

	appendN(50)
	tl, err := l.NewTailer(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	got := collectTail(t, tl)
	for r := 0; r < 3; r++ {
		if err := l.Rotate(); err != nil {
			t.Fatal(err)
		}
		appendN(25)
		got = append(got, collectTail(t, tl)...)
	}

	if len(got) != len(want) {
		t.Fatalf("tailed %d records across rotations, want %d", len(got), len(want))
	}
	for i, rec := range got {
		if rec.Keys[0] != want[i] {
			t.Fatalf("record %d: key %g, want %g (drop or duplicate at the seam)", i, rec.Keys[0], want[i])
		}
	}
	if tl.Seg() != l.CurrentSeq() {
		t.Fatalf("tailer parked at segment %d, want current %d", tl.Seg(), l.CurrentSeq())
	}
}

// TestTailLiveWakeup: a tailer blocked at the live tail must wake when
// the next record commits, without polling.
func TestTailLiveWakeup(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tl, err := l.NewTailer(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	type result struct {
		rec *Record
		err error
	}
	res := make(chan result, 1)
	go func() {
		rec, _, _, err := tl.Next(nil)
		res <- result{rec, err}
	}()

	select {
	case r := <-res:
		t.Fatalf("Next returned before any append: %+v %v", r.rec, r.err)
	case <-time.After(20 * time.Millisecond):
	}

	if err := l.Append(&Record{Op: OpInsert, Keys: []float64{7}, Payloads: []uint64{7}}); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-res:
		if r.err != nil || r.rec.Keys[0] != 7 {
			t.Fatalf("woke with %+v, %v", r.rec, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("tailer never woke after commit")
	}
}

// TestTailStopAndClose: stop aborts a live-tail wait with ErrStopped;
// closing the log surfaces ErrClosed once drained.
func TestTailStopAndClose(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}

	tl, err := l.NewTailer(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		_, _, _, err := tl.Next(stop)
		errs <- err
	}()
	close(stop)
	select {
	case err := <-errs:
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("stopped wait returned %v, want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stop did not abort the wait")
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := tl.Next(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("tail of closed log returned %v, want ErrClosed", err)
	}
}

// TestTailMidRecordFlush: a record larger than the writer's buffer
// auto-flushes in pieces, so the segment file transiently ends inside a
// record. The visible watermark must hold the tailer back — it may not
// see a torn frame, and must deliver the whole record only after the
// policy commits it.
func TestTailMidRecordFlush(t *testing.T) {
	dir := t.TempDir()
	// An interval far beyond the test's lifetime: nothing commits until
	// the explicit Sync.
	l, err := OpenLog(dir, SyncInterval, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	tl, err := l.NewTailer(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()

	// ~160 KiB of key/payload pairs — crosses the 64 KiB bufio buffer,
	// forcing mid-record auto-flushes.
	n := 10_000
	keys := make([]float64, n)
	pays := make([]uint64, n)
	for i := range keys {
		keys[i] = float64(i)
		pays[i] = uint64(i)
	}
	if err := l.Append(&Record{Op: OpInsertBatch, Keys: keys, Payloads: pays}); err != nil {
		t.Fatal(err)
	}

	// The file's size runs ahead of its records, so look for the
	// record's own length prefix past the visible watermark.
	seg, vis := l.Position()
	data, err := os.ReadFile(segmentPath(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) < vis+4 || binary.LittleEndian.Uint32(data[vis:]) == 0 {
		t.Fatalf("no record bytes past visible %d: record did not auto-flush mid-append; grow it", vis)
	}
	if tl.Pending() {
		t.Fatal("tailer sees a pending record inside an uncommitted tail")
	}

	res := make(chan *Record, 1)
	errs := make(chan error, 1)
	go func() {
		rec, _, _, err := tl.Next(nil)
		if err != nil {
			errs <- err
			return
		}
		res <- rec
	}()
	select {
	case rec := <-res:
		t.Fatalf("record of %d pairs delivered before commit", len(rec.Keys))
	case err := <-errs:
		t.Fatalf("Next: %v", err)
	case <-time.After(20 * time.Millisecond):
	}

	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	select {
	case rec := <-res:
		if len(rec.Keys) != n || rec.Keys[n-1] != float64(n-1) {
			t.Fatalf("decoded %d pairs, want %d", len(rec.Keys), n)
		}
	case err := <-errs:
		t.Fatalf("Next after sync: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatal("tailer never delivered the committed record")
	}
}

// TestTailSealedTornTail: an incomplete record at the end of a *sealed*
// segment is a permanent crash tear — the tailer must skip past it into
// the next segment instead of waiting forever, matching what recovery
// replays.
func TestTailSealedTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&Record{Op: OpInsert, Keys: []float64{1}, Payloads: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash tear: a half-written record at the tail of the
	// now-final segment.
	segs, err := Segments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[0].Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := AppendRecord(nil, &Record{Op: OpInsert, Keys: []float64{99}, Payloads: []uint64{99}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// The restarted process appends acknowledged records to a new segment.
	l2, err := OpenLog(dir, SyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.Append(&Record{Op: OpInsert, Keys: []float64{2}, Payloads: []uint64{2}}); err != nil {
		t.Fatal(err)
	}

	tl, err := l2.NewTailer(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	got := collectTail(t, tl)
	if len(got) != 2 || got[0].Keys[0] != 1 || got[1].Keys[0] != 2 {
		t.Fatalf("tailed %d records across the tear, want keys [1 2]", len(got))
	}

	// Recovery must reconstruct the same stream: the tear ends segment 1
	// but not the history — segment 2's acknowledged record replays.
	segs, err = Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []float64
	n, torn, err := ReplaySegments(segs, func(r *Record) error {
		keys = append(keys, r.Keys[0])
		return nil
	})
	if err != nil || !torn || n != 2 || keys[0] != 1 || keys[1] != 2 {
		t.Fatalf("replay: n=%d torn=%v keys=%v err=%v; want both sides of the tear", n, torn, keys, err)
	}
}

// TestTailTruncated: positioning a tailer inside checkpointed-away
// history fails with ErrTruncated — the re-bootstrap signal.
func TestTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(&Record{Op: OpInsert, Keys: []float64{1}, Payloads: []uint64{1}}); err != nil {
		t.Fatal(err)
	}
	first := l.CurrentSeq()
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveObsolete(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.NewTailer(first, HeaderSize); !errors.Is(err, ErrTruncated) {
		t.Fatalf("tailer into truncated history: %v, want ErrTruncated", err)
	}
	// seg 0 ("oldest retained") still works and sees only live history.
	tl, err := l.NewTailer(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	tl.Close()
}
