package wal

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
)

// Policy selects when appended records are fsynced.
type Policy int

const (
	// SyncAlways makes every Append block until its record is on stable
	// storage. Concurrent appenders group-commit: records buffered while
	// one fsync is in flight are all covered by the next, so the cost is
	// amortized across writers.
	SyncAlways Policy = iota
	// SyncInterval fsyncs on a timer; a crash loses at most one
	// interval's worth of acknowledged records.
	SyncInterval
	// SyncNever writes records through to the OS but never fsyncs; an
	// OS crash or power loss may lose records the kernel has not yet
	// written back (a mere process crash loses nothing).
	SyncNever
)

// Stats counts log activity. Counters are cumulative across segment
// rotations when read from a Log.
type Stats struct {
	Appends uint64 // records appended
	Syncs   uint64 // fsync calls issued
	Bytes   uint64 // record bytes written
}

// counters is the shared mutable form of Stats, so rotated-out writers
// keep contributing to one cumulative total.
type counters struct {
	appends atomic.Uint64
	syncs   atomic.Uint64
	bytes   atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{Appends: c.appends.Load(), Syncs: c.syncs.Load(), Bytes: c.bytes.Load()}
}

// sizeStep is how far a live segment's file size runs ahead of its write
// offset. The size is set with a sparse Truncate, so a commit's fsync
// only flushes data: it journals a file-size change once per step, not
// once per group commit.
const sizeStep = 1 << 20

// Writer appends records to one segment file. It is safe for
// concurrent use; under SyncAlways, concurrent Appends coalesce into
// shared fsyncs (group commit).
type Writer struct {
	policy   Policy
	interval time.Duration
	stats    *counters
	notify   func() // called after visible advances; may be nil

	mu      sync.Mutex
	cond    *sync.Cond
	f       faultfs.File
	buf     *bufio.Writer
	seq     uint64 // records appended
	synced  uint64 // records known durable
	written int64  // file offset past the last appended record (buffered or not)
	size    int64  // file size set ahead of written; trimmed back to written at seal
	syncing bool   // a leader is mid-fsync
	err     error  // sticky I/O error
	closed  bool

	// visible is the tail watermark replication may ship: the file
	// offset up to which the segment holds only whole records that the
	// durability policy has committed to (flushed under SyncNever,
	// fsynced otherwise). bufio may auto-flush mid-record when a record
	// crosses the buffer boundary, so readers of a live segment must
	// never trust raw file size — only this watermark, which advances
	// exclusively at record boundaries.
	visible atomic.Int64

	stop chan struct{} // interval syncer shutdown
	done chan struct{}
}

// NewWriter creates path (which must not exist — segments are never
// reopened for append) and returns a Writer over it. stats may be nil;
// notify (may be nil) is invoked whenever the visible tail watermark
// advances, so tailing readers can wake without polling.
func NewWriter(path string, policy Policy, interval time.Duration, stats *counters, notify func()) (*Writer, error) {
	return NewWriterFS(faultfs.OS, path, policy, interval, stats, notify)
}

// NewWriterFS is NewWriter on an explicit filesystem — the seam fault
// injection enters through. When a step after the create fails, the
// file is removed again, so a retry at the same path does not trip
// O_EXCL.
func NewWriterFS(fsys faultfs.FS, path string, policy Policy, interval time.Duration, stats *counters, notify func()) (*Writer, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	_, err = f.Write([]byte(Magic))
	if err == nil {
		err = f.Truncate(sizeStep)
	}
	if err != nil {
		f.Close()
		//alexvet:ignore best-effort backout so a retry can recreate the segment; the create-step error below is the reported failure
		_ = fsys.Remove(path)
		return nil, err
	}
	if stats == nil {
		stats = &counters{}
	}
	w := &Writer{
		policy:   policy,
		interval: interval,
		stats:    stats,
		notify:   notify,
		f:        f,
		buf:      bufio.NewWriterSize(f, 1<<16),
		written:  int64(len(Magic)),
		size:     sizeStep,
	}
	w.visible.Store(int64(len(Magic)))
	w.cond = sync.NewCond(&w.mu)
	if policy == SyncInterval {
		if interval <= 0 {
			w.interval = 100 * time.Millisecond
		}
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// Append encodes rec, writes it to the segment, and blocks per the sync
// policy: until durable (SyncAlways) or just buffered (the others).
func (w *Writer) Append(rec *Record) error {
	enc, err := AppendRecord(nil, rec)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	// Extend before the record is buffered: bufio may flush any part of
	// it, and a write past the current size would change the size itself.
	if end := w.written + int64(len(enc)); end > w.size {
		size := end - end%sizeStep + sizeStep
		if err := w.f.Truncate(size); err != nil {
			w.err = fmt.Errorf("wal: extend segment: %w", err)
			w.cond.Broadcast()
			return w.err
		}
		w.size = size
	}
	if _, err := w.buf.Write(enc); err != nil {
		w.err = err
		w.cond.Broadcast()
		return err
	}
	w.seq++
	w.written += int64(len(enc))
	w.stats.appends.Add(1)
	w.stats.bytes.Add(uint64(len(enc)))
	switch w.policy {
	case SyncNever:
		// Hand the record to the OS right away: "never" means the
		// kernel decides when it reaches disk, so a process kill (as
		// opposed to an OS crash) still loses nothing.
		if err := w.buf.Flush(); err != nil {
			w.err = err
			w.cond.Broadcast()
			return err
		}
		w.advanceVisible(w.written)
		return nil
	case SyncInterval:
		// Buffered; the interval loop flushes and fsyncs.
		return nil
	}
	return w.syncToLocked(w.seq)
}

// syncToLocked blocks until records up to lsn are durable, electing the
// caller as the flush leader when no fsync is in flight. Followers wait;
// the leader's fsync covers every record buffered before its flush, so
// under concurrency many appends share one fsync. Caller holds w.mu.
func (w *Writer) syncToLocked(lsn uint64) error {
	for w.err == nil && w.synced < lsn {
		if w.syncing {
			w.cond.Wait()
			continue
		}
		w.syncing = true
		upTo := w.seq
		upToBytes := w.written
		err := w.buf.Flush()
		if err == nil {
			// fsync outside the lock: appenders keep buffering into the
			// next commit group while the disk works.
			w.mu.Unlock()
			err = w.f.Sync()
			w.mu.Lock()
		}
		w.syncing = false
		if err != nil {
			w.err = err
		} else {
			w.synced = upTo
			w.stats.syncs.Add(1)
			w.advanceVisible(upToBytes)
		}
		w.cond.Broadcast()
	}
	return w.err
}

// Sync flushes buffered records and blocks until everything appended so
// far is durable, regardless of policy.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	if w.synced >= w.seq {
		return nil
	}
	return w.syncToLocked(w.seq)
}

// syncLoop is the SyncInterval flusher.
func (w *Writer) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			// Errors stick in w.err and surface on the next Append.
			//alexvet:ignore interval sync is advisory; Sync latches its error in w.err and every later Append returns it
			_ = w.Sync()
		}
	}
}

// Close makes all appended records durable, trims the file to the end
// of the last record, and closes it: a sealed segment's size is its
// log's end. Further appends return ErrClosed.
func (w *Writer) Close() error {
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	var err error
	if w.err == nil && w.synced < w.seq {
		err = w.syncToLocked(w.seq)
	}
	if w.err == nil {
		err = w.f.Truncate(w.written)
		if err == nil {
			err = w.f.Sync()
		}
		if err != nil {
			err = fmt.Errorf("wal: trim segment: %w", err)
			w.err = err
		} else {
			w.stats.syncs.Add(1)
		}
	}
	w.closed = true
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: close segment: %w", cerr)
		w.err = err
	}
	w.cond.Broadcast()
	return err
}

// Stats returns this writer's cumulative counters.
func (w *Writer) Stats() Stats { return w.stats.snapshot() }

// advanceVisible publishes a new tail watermark and wakes tailing
// readers. Watermarks only move forward; every call site passes a
// record-boundary offset captured under w.mu.
func (w *Writer) advanceVisible(off int64) {
	if off > w.visible.Load() {
		w.visible.Store(off)
		if w.notify != nil {
			w.notify()
		}
	}
}

// Visible returns the segment file offset up to which the segment is
// safe to replicate: everything below it is whole records the sync
// policy has committed (see the field comment).
func (w *Writer) Visible() int64 { return w.visible.Load() }
