package wal

// Segment sizing under faults: a live segment's file runs a step ahead
// of its last record, so a crash leaves a zero tail that replay must
// read as a torn tail, and a seal must trim the file back to the end of
// its last record. The schedules run against faultfs.Inject.

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/faultfs"
)

var errScripted = errors.New("scripted fault")

func insertRec(k float64) *Record {
	return &Record{Op: OpInsert, Keys: []float64{k}, Payloads: []uint64{uint64(k)}}
}

// appendN appends keys from, from+1, ... and returns the next key.
func appendN(t *testing.T, l *Log, from, n int) int {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := l.Append(insertRec(float64(from + i))); err != nil {
			t.Fatalf("append %d: %v", from+i, err)
		}
	}
	return from + n
}

// replayKeys replays dir's segments on the real filesystem, returning
// the first key of every record and whether replay hit a torn tail.
func replayKeys(t *testing.T, dir string) (keys []float64, torn bool) {
	t.Helper()
	segs, err := Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, torn, err = ReplaySegments(segs, func(r *Record) error {
		keys = append(keys, r.Keys[0])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, torn
}

// wantKeys checks got is exactly 0..n-1.
func wantKeys(t *testing.T, got []float64, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, k := range got {
		if k != float64(i) {
			t.Fatalf("record %d has key %g, want %d", i, k, i)
		}
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestFaultSealTrimsToLastRecord: every sealed segment, by rotation or
// by close, ends exactly at its last record, and replays clean.
func TestFaultSealTrimsToLastRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	next := appendN(t, l, 0, 10)
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	next = appendN(t, l, next, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := Segments(dir)
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments %v, err %v; want 2", segs, err)
	}
	frame, _ := AppendRecord(nil, insertRec(0))
	for i, n := range []int{10, 5} {
		want := HeaderSize + int64(n*len(frame))
		if got := fileSize(t, segs[i].Path); got != want {
			t.Errorf("sealed segment %d is %d bytes, want %d (the end of its last record)", segs[i].Seq, got, want)
		}
	}
	keys, torn := replayKeys(t, dir)
	if torn {
		t.Fatal("cleanly sealed segments replayed torn")
	}
	wantKeys(t, keys, next)
}

// TestCrashSyncedSegmentKeepsZeroTail: a crash after every append was
// fsynced loses nothing. The live segment keeps its extended size, its
// zero tail reads as a torn tail, and every acked record replays.
func TestCrashSyncedSegmentKeepsZeroTail(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	l, err := OpenLogFS(inj, dir, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	acked := appendN(t, l, 0, 40)
	inj.CrashNow()
	//alexvet:ignore the storage has crashed; the files on disk are what this test checks
	_ = l.Close()

	if got := fileSize(t, segmentPath(dir, 1)); got != sizeStep {
		t.Fatalf("crashed live segment is %d bytes, want its extended size %d", got, sizeStep)
	}
	keys, torn := replayKeys(t, dir)
	if !torn {
		t.Fatal("a crashed live segment's zero tail did not read as torn")
	}
	wantKeys(t, keys, acked)
}

// TestCrashUnsyncedTailYieldsSyncedPrefix: records written to the OS
// but never fsynced vanish in a crash; replay yields exactly the
// fsynced prefix.
func TestCrashUnsyncedTailYieldsSyncedPrefix(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	l, err := OpenLogFS(inj, dir, SyncNever, 0)
	if err != nil {
		t.Fatal(err)
	}
	synced := appendN(t, l, 0, 25)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, synced, 30)
	inj.CrashNow()
	//alexvet:ignore the storage has crashed; the files on disk are what this test checks
	_ = l.Close()

	keys, _ := replayKeys(t, dir)
	wantKeys(t, keys, synced)
}

// TestCrashBatchCrossesSizeStep: a batch record larger than the size
// step is appended across the boundary whole — the file is extended to
// the step past the record's end before any of it is written — and
// replays whole, after a crash and after a seal alike.
func TestCrashBatchCrossesSizeStep(t *testing.T) {
	for _, crash := range []bool{true, false} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.New(faultfs.OS)
			l, err := OpenLogFS(inj, dir, SyncAlways, 0)
			if err != nil {
				t.Fatal(err)
			}
			next := appendN(t, l, 0, 3)
			n := sizeStep/16 + 1000 // 16 bytes a pair: the record alone outgrows a step
			keys := make([]float64, n)
			pays := make([]uint64, n)
			for i := range keys {
				keys[i] = float64(next + i)
			}
			if err := l.Append(&Record{Op: OpInsertBatch, Keys: keys, Payloads: pays}); err != nil {
				t.Fatal(err)
			}
			next = appendN(t, l, next+n, 3)
			seg, end := l.Position()
			wantSize := end - end%sizeStep + sizeStep
			if crash {
				inj.CrashNow()
				//alexvet:ignore the storage has crashed; the files on disk are what this test checks
				_ = l.Close()
			} else {
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				wantSize = end
			}
			if got := fileSize(t, segmentPath(dir, seg)); got != wantSize {
				t.Fatalf("segment is %d bytes with records ending at %d, want %d", got, end, wantSize)
			}

			segs, err := Segments(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []float64
			_, torn, err := ReplaySegments(segs, func(r *Record) error {
				got = append(got, r.Keys...)
				return nil
			})
			if err != nil || torn != crash {
				t.Fatalf("replay: torn=%v err=%v, want torn=%v", torn, err, crash)
			}
			wantKeys(t, got, next)
		})
	}
}

// TestFaultSegmentCreateRetry: a failure at any step after a segment's
// create — the magic write, or the extension of its size — fails the
// rotation without sealing anything, and leaves no file behind, so the
// retried rotation succeeds.
func TestFaultSegmentCreateRetry(t *testing.T) {
	for _, kind := range []faultfs.OpKind{faultfs.OpWrite, faultfs.OpTruncate} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.New(faultfs.OS)
			inj.FailNth(kind, "wal-0000000000000002", 1, faultfs.ErrNoSpace)
			l, err := OpenLogFS(inj, dir, SyncAlways, 0)
			if err != nil {
				t.Fatal(err)
			}
			next := appendN(t, l, 0, 5)
			err = l.Rotate()
			if !errors.Is(err, faultfs.ErrNoSpace) || errors.Is(err, ErrSealFailed) {
				t.Fatalf("rotate = %v, want the injected ENOSPC, not a seal failure", err)
			}
			if _, err := os.Stat(segmentPath(dir, 2)); !os.IsNotExist(err) {
				t.Fatalf("failed create left the segment behind: %v", err)
			}
			next = appendN(t, l, next, 5)
			if err := l.Rotate(); err != nil {
				t.Fatalf("retried rotate: %v", err)
			}
			next = appendN(t, l, next, 5)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			keys, torn := replayKeys(t, dir)
			if torn {
				t.Fatal("replay torn after clean seals")
			}
			wantKeys(t, keys, next)
		})
	}
}

// TestFaultSealTrimFailure: the trim at seal fails. Rotation reports
// ErrSealFailed — the caller's cue to stop acknowledging writes — and
// every acked record still replays: the untrimmed zero tail is just a
// torn tail.
func TestFaultSealTrimFailure(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	// Truncate #1 on segment 1 is its extension at create; #2 is the trim.
	inj.FailNth(faultfs.OpTruncate, "wal-0000000000000001", 2, errScripted)
	l, err := OpenLogFS(inj, dir, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	acked := appendN(t, l, 0, 20)
	if err := l.Rotate(); !errors.Is(err, ErrSealFailed) || !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("rotate = %v, want ErrSealFailed wrapping the injected fault", err)
	}
	acked = appendN(t, l, acked, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	keys, torn := replayKeys(t, dir)
	if !torn {
		t.Fatal("untrimmed segment's zero tail did not read as torn")
	}
	wantKeys(t, keys, acked)
}

// TestFaultExtendFailure: when the extension an append needs fails, the
// append is not acked and the error sticks, like any WAL write error;
// everything acked before it replays.
func TestFaultExtendFailure(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	// Truncate #1 on segment 1 is its extension at create; #2 is the
	// extension the oversized batch below needs.
	inj.FailNth(faultfs.OpTruncate, "wal-0000000000000001", 2, errScripted)
	l, err := OpenLogFS(inj, dir, SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	acked := appendN(t, l, 0, 10)
	keys := make([]float64, sizeStep/8) // 8 bytes a key: the record alone outgrows a step
	err = l.Append(&Record{Op: OpDeleteBatch, Keys: keys})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append needing an extension = %v, want the injected fault", err)
	}
	if err := l.Append(insertRec(float64(acked))); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append after a failed extension = %v, want the sticky fault", err)
	}
	//alexvet:ignore the log's error is sticky; the files on disk are what this test checks
	_ = l.Close()
	replayed, _ := replayKeys(t, dir)
	wantKeys(t, replayed, acked)
}
