package main

import (
	"os"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

// buildWALDir writes a real two-segment log: records, a rotation, more
// records.
func buildWALDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	l, err := wal.OpenLog(dir, wal.SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(&wal.Record{Op: wal.OpInsert, Keys: []float64{float64(i)}, Payloads: []uint64{uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Append(&wal.Record{Op: wal.OpDelete, Keys: []float64{float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestFaultWalinspectScan: clean segments scan clean with the right
// counts; a torn tail is located at its exact offset.
func TestFaultWalinspectScan(t *testing.T) {
	dir := buildWALDir(t)
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("built %d segments, want 2", len(segs))
	}
	r0, err := scanSegment(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if r0.torn || r0.records != 10 || r0.byOp[wal.OpInsert] != 10 || r0.cleanEnd != r0.size {
		t.Fatalf("segment 0 scan: records=%d torn=%v cleanEnd=%d size=%d", r0.records, r0.torn, r0.cleanEnd, r0.size)
	}

	// Tear the tail of the LAST segment: scan must flag it and place
	// clean-end exactly at the pre-tear size.
	last := segs[1]
	st, _ := os.Stat(last.Path)
	f, err := os.OpenFile(last.Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2}) // a 9-byte record's prefix, cut short
	f.Close()
	r1, err := scanSegment(last)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.torn || r1.records != 5 || r1.cleanEnd != st.Size() {
		t.Fatalf("torn scan: torn=%v records=%d cleanEnd=%d want %d", r1.torn, r1.records, r1.cleanEnd, st.Size())
	}

	// Repair truncates exactly the torn bytes.
	if err := repairAll([]*segReport{r0, r1}); err != nil {
		t.Fatal(err)
	}
	st2, _ := os.Stat(last.Path)
	if st2.Size() != st.Size() {
		t.Fatalf("repair left %d bytes, want %d", st2.Size(), st.Size())
	}
	r1b, _ := scanSegment(last)
	if r1b.torn || r1b.records != 5 {
		t.Fatalf("post-repair scan still dirty: torn=%v records=%d", r1b.torn, r1b.records)
	}
}

// TestFaultWalinspectRepairRefusesMidHistoryTear: a tear in a segment
// that is FOLLOWED by valid records is not a crash tail; repair must
// refuse to destroy the evidence.
func TestFaultWalinspectRepairRefusesMidHistoryTear(t *testing.T) {
	dir := buildWALDir(t)
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segs[0].Path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{42, 0, 0, 0}) // torn frame in the OLD segment
	f.Close()

	var reports []*segReport
	for _, s := range segs {
		r, err := scanSegment(s)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	if !reports[0].torn {
		t.Fatal("old-segment tear not detected")
	}
	err = repairAll(reports)
	if err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("repairAll = %v, want a refusal", err)
	}
	// And the file is untouched.
	r0, _ := scanSegment(segs[0])
	if !r0.torn {
		t.Fatal("refused repair still modified the segment")
	}
}

// crashedWALDir leaves the state a crash of a running writer leaves: a
// live segment whose file is sized past its last record, followed by
// the segment a restarted process appended to and sealed.
func crashedWALDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	l, err := wal.OpenLogFS(inj, dir, wal.SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := l.Append(&wal.Record{Op: wal.OpInsert, Keys: []float64{float64(i)}, Payloads: []uint64{1}}); err != nil {
			t.Fatal(err)
		}
	}
	inj.CrashNow()
	//alexvet:ignore the storage has crashed; the files on disk are what this test inspects
	_ = l.Close()

	l, err = wal.OpenLog(dir, wal.SyncAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(&wal.Record{Op: wal.OpDelete, Keys: []float64{0}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func scanAll(t *testing.T, dir string) []*segReport {
	t.Helper()
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var reports []*segReport
	for _, s := range segs {
		r, err := scanSegment(s)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	return reports
}

// TestFaultWalinspectUnwrittenTail: the all-zero space past a crashed
// segment's last record is reported as unwritten, not torn, and
// -repair trims it even though a later segment holds records.
func TestFaultWalinspectUnwrittenTail(t *testing.T) {
	dir := crashedWALDir(t)
	reports := scanAll(t, dir)
	if len(reports) != 2 {
		t.Fatalf("%d segments, want 2", len(reports))
	}
	r := reports[0]
	if r.torn || r.corrupt != nil || !r.unwritten || r.records != 7 || r.size <= r.cleanEnd {
		t.Fatalf("crashed segment scan: torn=%v corrupt=%v unwritten=%v records=%d cleanEnd=%d size=%d",
			r.torn, r.corrupt, r.unwritten, r.records, r.cleanEnd, r.size)
	}
	if reports[1].torn || reports[1].unwritten || reports[1].records != 1 {
		t.Fatalf("sealed segment scan: torn=%v unwritten=%v records=%d", reports[1].torn, reports[1].unwritten, reports[1].records)
	}

	if err := repairAll(reports); err != nil {
		t.Fatal(err)
	}
	after := scanAll(t, dir)
	if after[0].unwritten || after[0].torn || after[0].size != r.cleanEnd || after[0].records != 7 {
		t.Fatalf("post-repair scan: unwritten=%v torn=%v size=%d records=%d, want a clean %d-byte segment",
			after[0].unwritten, after[0].torn, after[0].size, after[0].records, r.cleanEnd)
	}
}

// TestFaultWalinspectNonzeroPastTailIsTorn: one nonzero byte anywhere
// past the last valid record makes the tail a tear, not unwritten
// space, and -repair refuses it when a later segment holds records.
func TestFaultWalinspectNonzeroPastTailIsTorn(t *testing.T) {
	dir := crashedWALDir(t)
	segs, err := wal.Segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	r, err := scanSegment(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segs[0].Path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1}, r.cleanEnd+4096); err != nil {
		t.Fatal(err)
	}
	f.Close()

	reports := scanAll(t, dir)
	if !reports[0].torn || reports[0].unwritten || reports[0].cleanEnd != r.cleanEnd {
		t.Fatalf("scan: torn=%v unwritten=%v cleanEnd=%d, want a tear at %d",
			reports[0].torn, reports[0].unwritten, reports[0].cleanEnd, r.cleanEnd)
	}
	if err := repairAll(reports); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("repairAll = %v, want a refusal", err)
	}
}
