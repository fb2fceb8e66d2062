// Command walinspect examines the write-ahead-log segments in a data
// directory offline: per-segment record counts (by op), the visible
// watermark a restart would recover to, and the exact byte offset of
// the first corruption or torn record in each segment. It is the
// forensic half of the fault-injection harness — after a scripted
// crash or a real one, walinspect shows what the log actually holds.
//
//	walinspect [-v] [-repair] DIR
//
// Output is one line per segment:
//
//	wal-0000000000000003.log  size=12808    records=512  clean-end=12808
//	wal-0000000000000004.log  size=1048576  records=9    clean-end=233  unwritten tail: 1048343 bytes
//	wal-0000000000000005.log  size=288      records=9    clean-end=233  TORN tail: 55 trailing bytes
//
// followed by the recovery watermark — the position replay stops at,
// which is exactly the acknowledged prefix under the fsync=always
// policy. An unwritten tail is the all-zero space a live segment's
// file is sized ahead of its records; a crash leaves it in place. It
// holds no record and is not a tear. Exit status is 0 when every
// segment is clean or ends in unwritten space, 1 when any segment
// holds a tear or corruption, 2 on usage or I/O errors.
//
// -repair truncates a torn or unwritten tail at the last valid record
// boundary, so tools that insist on clean segments can run afterwards.
// Recovery itself never needs this: a tear in a sealed segment ends
// only that segment's replay, and later segments still hold valid
// acknowledged records. For the same reason -repair REFUSES to touch a
// torn segment when any later segment holds valid records — a
// mid-history tear with intact history after it is not a crash tail,
// and truncating it would destroy the evidence of whatever corrupted
// it. -v additionally prints per-op record counts.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/wal"
)

// segReport is one segment's scan result.
type segReport struct {
	seg       wal.Segment
	size      int64
	records   int
	byOp      map[wal.Op]int
	cleanEnd  int64 // offset of the last valid record boundary
	torn      bool  // trailing bytes past cleanEnd that never decode
	unwritten bool  // trailing bytes past cleanEnd, all zero
	badMagic  bool
	corrupt   error // non-nil when the tail is ErrCorrupt rather than short
}

var opNames = map[wal.Op]string{
	wal.OpInsert:      "insert",
	wal.OpDelete:      "delete",
	wal.OpInsertBatch: "insert-batch",
	wal.OpDeleteBatch: "delete-batch",
	wal.OpMerge:       "merge",
	wal.OpCheckpoint:  "checkpoint",
	wal.OpUpdate:      "update",
}

func main() {
	verbose := flag.Bool("v", false, "print per-op record counts")
	repair := flag.Bool("repair", false, "truncate a torn tail at the last valid record boundary")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: walinspect [-v] [-repair] DIR\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	dir := flag.Arg(0)

	segs, err := wal.Segments(dir)
	if err != nil {
		fatalf("walinspect: %v", err)
	}
	if len(segs) == 0 {
		fmt.Printf("%s: no WAL segments\n", dir)
		return
	}

	reports := make([]*segReport, 0, len(segs))
	dirty := false
	for _, s := range segs {
		r, err := scanSegment(s)
		if err != nil {
			fatalf("walinspect: %s: %v", s.Path, err)
		}
		if r.torn || r.badMagic {
			dirty = true
		}
		reports = append(reports, r)
	}

	for _, r := range reports {
		printReport(r, *verbose)
	}
	last := reports[len(reports)-1]
	fmt.Printf("watermark: seg %d off %d\n", last.seg.Seq, last.cleanEnd)

	if *repair {
		if err := repairAll(reports); err != nil {
			fatalf("walinspect: %v", err)
		}
		return
	}
	if dirty {
		os.Exit(1)
	}
}

// scanSegment walks one segment's frames with the same decoder the
// recovery path uses, so its notion of "valid" is recovery's.
func scanSegment(s wal.Segment) (*segReport, error) {
	b, err := os.ReadFile(s.Path)
	if err != nil {
		return nil, err
	}
	r := &segReport{seg: s, size: int64(len(b)), byOp: make(map[wal.Op]int)}
	if int64(len(b)) < wal.HeaderSize || string(b[:wal.HeaderSize]) != wal.Magic {
		r.badMagic = true
		r.cleanEnd = 0
		return r, nil
	}
	off := wal.HeaderSize
	for off < int64(len(b)) {
		rec, n, err := wal.DecodeFramed(b[off:])
		if err != nil {
			if allZero(b[off:]) {
				r.unwritten = true
				break
			}
			r.torn = true
			if !errors.Is(err, wal.ErrShortFrame) {
				r.corrupt = err
			}
			break
		}
		r.records++
		r.byOp[rec.Op]++
		off += int64(n)
	}
	r.cleanEnd = off
	return r, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

func printReport(r *segReport, verbose bool) {
	name := filepath.Base(r.seg.Path)
	switch {
	case r.badMagic:
		fmt.Printf("%s  size=%d  BAD HEADER (not a WAL segment)\n", name, r.size)
		return
	case r.corrupt != nil:
		fmt.Printf("%s  size=%d  records=%d  clean-end=%d  CORRUPT at offset %d: %v\n",
			name, r.size, r.records, r.cleanEnd, r.cleanEnd, r.corrupt)
	case r.torn:
		fmt.Printf("%s  size=%d  records=%d  clean-end=%d  TORN tail: %d trailing bytes\n",
			name, r.size, r.records, r.cleanEnd, r.size-r.cleanEnd)
	case r.unwritten:
		fmt.Printf("%s  size=%d  records=%d  clean-end=%d  unwritten tail: %d bytes\n",
			name, r.size, r.records, r.cleanEnd, r.size-r.cleanEnd)
	default:
		fmt.Printf("%s  size=%d  records=%d  clean-end=%d\n", name, r.size, r.records, r.cleanEnd)
	}
	if verbose {
		for op, name := range opNames {
			if n := r.byOp[op]; n > 0 {
				fmt.Printf("    %-13s %d\n", name, n)
			}
		}
	}
}

// repairAll truncates torn and unwritten tails, refusing to touch a
// torn segment that has valid records after it in the log. An unwritten
// tail holds no record, so trimming it is safe wherever it sits.
func repairAll(reports []*segReport) error {
	repaired := 0
	for i, r := range reports {
		if !r.torn && !r.badMagic && !r.unwritten {
			continue
		}
		for _, later := range reports[i+1:] {
			if later.records > 0 && !r.unwritten {
				return fmt.Errorf("refusing to repair %s: later segment %s holds %d valid records (mid-history tear, not a crash tail)",
					filepath.Base(r.seg.Path), filepath.Base(later.seg.Path), later.records)
			}
		}
		if r.badMagic {
			return fmt.Errorf("refusing to repair %s: header is not a WAL header; remove the file manually if it does not belong",
				filepath.Base(r.seg.Path))
		}
		if err := os.Truncate(r.seg.Path, r.cleanEnd); err != nil {
			return err
		}
		fmt.Printf("repaired %s: truncated %d bytes at offset %d\n",
			filepath.Base(r.seg.Path), r.size-r.cleanEnd, r.cleanEnd)
		repaired++
	}
	if repaired == 0 {
		fmt.Println("nothing to repair")
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
