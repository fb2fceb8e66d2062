package alex_test

// Disk fault-injection torture: a DurableIndex opened over a scripted
// faultfs.Inject filesystem, driven through randomized fault schedules
// (failed fsync, disk full, short write, torn-write-at-crash, latency,
// failed directory sync, failed snapshot fsync). Every schedule checks
// the same contract the kill -9 harness checks at process level:
//
//   - every acknowledged write is recovered on reopen,
//   - the unacknowledged in-flight write fails loudly (a typed error,
//     never a silent drop) and is recovered all-or-nothing,
//   - after a durability failure the index degrades to read-only:
//     mutations are rejected with ErrDegraded while reads keep serving.
//
// Schedules are randomized per run; every test logs its seed and honors
// FAULT_SEED for deterministic replay.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"
	"syscall"
	"testing"
	"time"

	alex "repro"
	"repro/internal/faultfs"
	"repro/internal/wal"
)

// tortureSeed returns a fresh random seed, or the FAULT_SEED override,
// and logs it so a failure can be replayed exactly.
func tortureSeed(t *testing.T) int64 {
	t.Helper()
	seed := time.Now().UnixNano()
	if s := os.Getenv("FAULT_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("FAULT_SEED=%q: %v", s, err)
		}
		seed = v
	}
	t.Logf("fault schedule seed=%d (replay with FAULT_SEED=%d)", seed, seed)
	return seed
}

// tortureResult is the oracle a fault workload leaves behind: exactly
// what the index acknowledged, and what was in flight when it failed.
type tortureResult struct {
	acked    map[float64]uint64
	pending  []float64 // keys of the op that errored (empty if none)
	pendVal  uint64
	firstErr error
}

// runFaultWorkload drives single inserts and 4-key batches through the
// Try API until the schedule bites or rounds run out.
func runFaultWorkload(d *alex.DurableIndex, rounds int) *tortureResult {
	res := &tortureResult{acked: make(map[float64]uint64)}
	for i := 0; i < rounds; i++ {
		val := uint64(i + 1)
		if i%7 == 6 {
			keys := make([]float64, 4)
			vals := make([]uint64, 4)
			for j := range keys {
				keys[j] = 1e6 + float64(i*10+j)
				vals[j] = val
			}
			res.pending, res.pendVal = keys, val
			if _, err := d.TryInsertBatch(keys, vals); err != nil {
				res.firstErr = err
				return res
			}
			for _, k := range keys {
				res.acked[k] = val
			}
		} else {
			k := float64(i * 10)
			res.pending, res.pendVal = []float64{k}, val
			if _, err := d.TryInsert(k, val); err != nil {
				res.firstErr = err
				return res
			}
			res.acked[k] = val
		}
		res.pending = nil
	}
	return res
}

// assertDegraded checks the graceful-degradation contract on the still
// open index: sticky typed rejection of writes, reads fully served.
func assertDegraded(t *testing.T, d *alex.DurableIndex, res *tortureResult) {
	t.Helper()
	if err := d.Degraded(); !errors.Is(err, alex.ErrDegraded) {
		t.Fatalf("Degraded() = %v, want ErrDegraded", err)
	}
	if !errors.Is(res.firstErr, alex.ErrDegraded) {
		t.Fatalf("failing write returned %v, want it to wrap ErrDegraded", res.firstErr)
	}
	if !errors.Is(res.firstErr, faultfs.ErrInjected) {
		t.Fatalf("failing write returned %v, want the injected cause preserved", res.firstErr)
	}
	if _, err := d.TryInsert(-1, 1); !errors.Is(err, alex.ErrDegraded) {
		t.Fatalf("write on degraded index = %v, want ErrDegraded", err)
	}
	if !d.WALStats().Degraded {
		t.Fatal("WALStats().Degraded = false on a degraded index")
	}
	if err := d.Checkpoint(); !errors.Is(err, alex.ErrDegraded) {
		t.Fatalf("Checkpoint on degraded index = %v, want ErrDegraded", err)
	}
	// Reads keep serving the acknowledged prefix, lock-free.
	for k, v := range res.acked {
		got, ok := d.Get(k)
		if !ok || got != v {
			t.Fatalf("degraded read Get(%g) = %d,%v want %d,true", k, got, ok, v)
		}
	}
	if d.Len() < len(res.acked) {
		t.Fatalf("degraded Len = %d < %d acked", d.Len(), len(res.acked))
	}
}

// reopenAndVerify recovers dir with a clean filesystem and checks the
// acked-exactly contract: every acknowledged write present with its
// value, the in-flight op all-or-nothing, nothing else.
func reopenAndVerify(t *testing.T, dir string, res *tortureResult) {
	t.Helper()
	d, err := alex.OpenDurable(dir, alex.WithCheckpointEvery(0))
	if err != nil {
		t.Fatalf("reopen after fault: %v", err)
	}
	defer d.Close()
	for k, v := range res.acked {
		got, ok := d.Get(k)
		if !ok || got != v {
			t.Fatalf("acked key %g lost or wrong after recovery: %d,%v want %d,true", k, got, ok, v)
		}
	}
	inFlight, present := 0, 0
	for _, k := range res.pending {
		if _, acked := res.acked[k]; acked {
			continue
		}
		inFlight++
		if got, ok := d.Get(k); ok {
			if got != res.pendVal {
				t.Fatalf("in-flight key %g recovered with foreign value %d", k, got)
			}
			present++
		}
	}
	if present != 0 && present != inFlight {
		t.Fatalf("in-flight op half-recovered: %d of %d keys", present, inFlight)
	}
	if got, want := d.Len(), len(res.acked)+present; got != want {
		t.Fatalf("recovered Len = %d, want %d acked + %d whole in-flight", got, len(res.acked), present)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("recovered index invariants: %v", err)
	}
	t.Logf("recovered %d acked keys (+%d whole in-flight)", len(res.acked), present)
}

// openTorture opens a durable index over an injector with fsync=always,
// so acknowledged and fsynced coincide and the oracle is exact.
func openTorture(t *testing.T, dir string, inj *faultfs.Inject) *alex.DurableIndex {
	t.Helper()
	d, err := alex.OpenDurable(dir,
		alex.WithFilesystem(inj),
		alex.WithFsyncPolicy(alex.FsyncAlways),
		alex.WithCheckpointEvery(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFaultDiskFailNthFsync: the Nth WAL fsync fails. The write that
// needed it errors, the index degrades, and after a power cut at that
// point recovery returns exactly the acked prefix.
func TestFaultDiskFailNthFsync(t *testing.T) {
	rng := rand.New(rand.NewSource(tortureSeed(t)))
	n := 3 + rng.Intn(40)
	t.Logf("schedule: fail fsync #%d on wal segments, then crash", n)

	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	inj.FailNth(faultfs.OpSync, "wal-", n, fmt.Errorf("scripted fsync failure"))

	d := openTorture(t, dir, inj)
	res := runFaultWorkload(d, n+60)
	if res.firstErr == nil {
		t.Fatalf("schedule never fired: %d writes all acked", len(res.acked))
	}
	assertDegraded(t, d, res)

	// Power cut while degraded: un-fsynced bytes vanish.
	inj.CrashNow()
	d.Close() // errors are expected on crashed storage; state is on disk
	reopenAndVerify(t, dir, res)
}

// TestFaultDiskENOSPC: the disk fills mid-workload. The write fails
// with an error carrying ENOSPC, the index degrades, and the torn
// record the partial write left behind is invisible to recovery.
func TestFaultDiskENOSPC(t *testing.T) {
	rng := rand.New(rand.NewSource(tortureSeed(t)))
	budget := int64(512 + rng.Intn(4096))
	t.Logf("schedule: write budget %d bytes (ENOSPC after)", budget)

	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	inj.SetWriteBudget(budget)

	d := openTorture(t, dir, inj)
	res := runFaultWorkload(d, 800)
	if res.firstErr == nil {
		t.Fatal("schedule never fired: budget not exhausted")
	}
	if !errors.Is(res.firstErr, syscall.ENOSPC) {
		t.Fatalf("full-disk write returned %v, want it to wrap ENOSPC", res.firstErr)
	}
	assertDegraded(t, d, res)
	d.Close()
	reopenAndVerify(t, dir, res)
}

// TestFaultDiskShortWrite: one WAL write persists only a prefix. The
// append fails, the index degrades, and replay stops cleanly at the
// last whole record.
func TestFaultDiskShortWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(tortureSeed(t)))
	n := 2 + rng.Intn(30)
	keep := 1 + rng.Intn(8)
	t.Logf("schedule: write #%d to wal segments persists only %d bytes", n, keep)

	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	inj.ShortWriteNth("wal-", n, keep, io.ErrShortWrite)

	d := openTorture(t, dir, inj)
	res := runFaultWorkload(d, n+60)
	if res.firstErr == nil {
		t.Fatal("schedule never fired")
	}
	assertDegraded(t, d, res)
	d.Close()
	reopenAndVerify(t, dir, res)
}

// TestFaultDiskTornWriteCrash: power loss mid-write leaves a torn
// record and loses everything not fsynced. Recovery returns exactly
// the acked prefix; the torn bytes never decode.
func TestFaultDiskTornWriteCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(tortureSeed(t)))
	n := 2 + rng.Intn(40)
	torn := rng.Intn(16)
	t.Logf("schedule: crash at wal write #%d, %d torn bytes persist", n, torn)

	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	inj.CrashAtWrite("wal-", n, torn)

	d := openTorture(t, dir, inj)
	res := runFaultWorkload(d, n+60)
	if res.firstErr == nil {
		t.Fatal("schedule never fired")
	}
	if !inj.Crashed() {
		t.Fatal("injector did not crash")
	}
	if !errors.Is(res.firstErr, faultfs.ErrCrashed) {
		t.Fatalf("crashing write returned %v, want ErrCrashed", res.firstErr)
	}
	d.Close()
	reopenAndVerify(t, dir, res)
}

// TestFaultDiskLatency: injected per-op latency must slow the index
// down without changing any outcome: everything acks and recovers.
func TestFaultDiskLatency(t *testing.T) {
	rng := rand.New(rand.NewSource(tortureSeed(t)))
	syncDelay := time.Duration(1+rng.Intn(3)) * time.Millisecond
	writeDelay := time.Duration(rng.Intn(2)) * time.Millisecond
	t.Logf("schedule: +%v per fsync, +%v per write", syncDelay, writeDelay)

	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	inj.DelayOps(faultfs.OpSync, syncDelay)
	inj.DelayOps(faultfs.OpWrite, writeDelay)

	d := openTorture(t, dir, inj)
	res := runFaultWorkload(d, 60)
	if res.firstErr != nil {
		t.Fatalf("latency-only schedule failed a write: %v", res.firstErr)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint under latency: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndVerify(t, dir, res)
}

// TestFaultDiskDirSyncRotateFailure: the directory fsync after a
// rotation fails. The checkpoint reports a transient error, nothing
// degrades, the backed-out segment does not block the retry, and no
// data is lost.
func TestFaultDiskDirSyncRotateFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(tortureSeed(t)))
	rounds := 50 + rng.Intn(100)
	t.Logf("schedule: fail dir fsync #2 (the one after the first rotate), %d writes", rounds)

	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	// Dir sync #1 made the initial segment's entry durable at open;
	// #2 is the one covering the first rotation's new segment.
	inj.FailNth(faultfs.OpSyncDir, "", 2, fmt.Errorf("scripted dir fsync failure"))

	d := openTorture(t, dir, inj)
	res := runFaultWorkload(d, rounds)
	if res.firstErr != nil {
		t.Fatalf("workload failed before the checkpoint: %v", res.firstErr)
	}
	err := d.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint swallowed the dir fsync failure")
	}
	if errors.Is(err, alex.ErrDegraded) || d.Degraded() != nil {
		t.Fatalf("transient rotate failure degraded the index: %v", err)
	}
	// Still writable, and the retry must not trip over the backed-out
	// segment file.
	if _, werr := d.TryInsert(-42, 1); werr != nil {
		t.Fatalf("write after failed rotate: %v", werr)
	}
	res.acked[-42] = 1
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint retry after backed-out rotate: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndVerify(t, dir, res)
}

// TestFaultDiskSnapshotFsyncFailure: the snapshot file's fsync fails
// mid-checkpoint. The checkpoint errors BEFORE any WAL truncation, so
// the log still holds every record recovery needs.
func TestFaultDiskSnapshotFsyncFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(tortureSeed(t)))
	rounds := 50 + rng.Intn(100)
	t.Logf("schedule: fail the snapshot fsync, %d writes", rounds)

	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	inj.FailNth(faultfs.OpSync, "snapshot", 1, fmt.Errorf("scripted snapshot fsync failure"))

	d := openTorture(t, dir, inj)
	res := runFaultWorkload(d, rounds)
	if res.firstErr != nil {
		t.Fatalf("workload failed before the checkpoint: %v", res.firstErr)
	}
	err := d.Checkpoint()
	if err == nil {
		t.Fatal("checkpoint swallowed the snapshot fsync failure")
	}
	if d.Degraded() != nil {
		t.Fatalf("transient snapshot failure degraded the index: %v", d.Degraded())
	}
	if got := d.Checkpoints(); got != 0 {
		t.Fatalf("failed checkpoint counted: %d", got)
	}
	// The failed checkpoint must not have truncated the segments the
	// (never-written) snapshot would have covered.
	segs, serr := wal.Segments(dir)
	if serr != nil {
		t.Fatal(serr)
	}
	if len(segs) < 2 {
		t.Fatalf("only %d WAL segments after failed checkpoint: pre-rotation history truncated", len(segs))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAndVerify(t, dir, res)
}

// TestFaultDiskSegmentCreateRetry: a step after the next segment's
// create fails — the disk fills on its magic write, or the extension of
// its size fails. The checkpoint reports the error, nothing degrades,
// the half-born file is removed, and the retried checkpoint succeeds
// instead of tripping over it with "file exists".
func TestFaultDiskSegmentCreateRetry(t *testing.T) {
	for _, kind := range []faultfs.OpKind{faultfs.OpWrite, faultfs.OpTruncate} {
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(tortureSeed(t)))
			rounds := 20 + rng.Intn(100)
			t.Logf("schedule: fail the first %v on segment 2 with ENOSPC, %d writes", kind, rounds)

			dir := t.TempDir()
			inj := faultfs.New(faultfs.OS)
			inj.FailNth(kind, "wal-0000000000000002", 1, syscall.ENOSPC)

			d := openTorture(t, dir, inj)
			res := runFaultWorkload(d, rounds)
			if res.firstErr != nil {
				t.Fatalf("workload failed before the checkpoint: %v", res.firstErr)
			}
			if err := d.Checkpoint(); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("checkpoint = %v, want the injected ENOSPC", err)
			}
			if d.Degraded() != nil {
				t.Fatalf("failed segment create degraded the index: %v", d.Degraded())
			}
			if _, err := d.TryInsert(-42, 1); err != nil {
				t.Fatalf("write after failed checkpoint: %v", err)
			}
			res.acked[-42] = 1
			for i := 0; i < 2; i++ {
				if err := d.Checkpoint(); err != nil {
					t.Fatalf("checkpoint retry %d: %v", i+1, err)
				}
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			reopenAndVerify(t, dir, res)
		})
	}
}

// TestFaultDiskSegmentTrimFailure: trimming the rotated-out segment to
// its last record fails at seal. That is a seal failure like any other:
// the checkpoint degrades the index, and no acked write is lost — the
// untrimmed zero tail replays as a torn tail.
func TestFaultDiskSegmentTrimFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(tortureSeed(t)))
	rounds := 20 + rng.Intn(100)
	t.Logf("schedule: fail the trim of segment 1 at seal, %d writes", rounds)

	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	// Truncate #1 on segment 1 is its extension at create; #2 is the trim.
	inj.FailNth(faultfs.OpTruncate, "wal-0000000000000001", 2, fmt.Errorf("scripted trim failure"))

	d := openTorture(t, dir, inj)
	res := runFaultWorkload(d, rounds)
	if res.firstErr != nil {
		t.Fatalf("workload failed before the checkpoint: %v", res.firstErr)
	}
	res.firstErr = d.Checkpoint()
	if !errors.Is(res.firstErr, wal.ErrSealFailed) {
		t.Fatalf("checkpoint = %v, want ErrSealFailed", res.firstErr)
	}
	assertDegraded(t, d, res)
	d.Close()
	reopenAndVerify(t, dir, res)
}

// TestDegradedPanicAPIAndRecovery: the bool mutation API panics with an
// error wrapping ErrDegraded (the server recovers it into a protocol
// error), Flush refuses, and a restart fully clears the state.
func TestDegradedPanicAPIAndRecovery(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(faultfs.OS)
	inj.FailNth(faultfs.OpSync, "wal-", 3, fmt.Errorf("scripted fsync failure"))

	d := openTorture(t, dir, inj)
	res := runFaultWorkload(d, 30)
	if res.firstErr == nil {
		t.Fatal("schedule never fired")
	}
	mustPanicDegraded(t, func() { d.Insert(1, 1) })
	mustPanicDegraded(t, func() { d.Delete(1) })
	mustPanicDegraded(t, func() { d.InsertBatch([]float64{1}, []uint64{1}) })
	mustPanicDegraded(t, func() { d.DeleteBatch([]float64{1}) })
	mustPanicDegraded(t, func() { d.Merge([]float64{1}, []uint64{1}) })
	if err := d.Flush(); !errors.Is(err, alex.ErrDegraded) {
		t.Fatalf("Flush on degraded index = %v, want ErrDegraded", err)
	}
	d.Close()

	// Degradation is per-process state, not an on-disk mark: a restart
	// over healthy storage recovers and serves writes again.
	d2, err := alex.OpenDurable(dir, alex.WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Degraded() != nil {
		t.Fatalf("degraded state survived restart: %v", d2.Degraded())
	}
	if ok, err := d2.TryInsert(-7, 7); err != nil || !ok {
		t.Fatalf("write after restart = %v,%v", ok, err)
	}
	for k, v := range res.acked {
		if got, ok := d2.Get(k); !ok || got != v {
			t.Fatalf("acked key %g lost across degrade+restart", k)
		}
	}
}

func mustPanicDegraded(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("bool-API mutation did not panic on a degraded index")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, alex.ErrDegraded) {
			t.Fatalf("mutation panicked with %v, want an error wrapping ErrDegraded", r)
		}
	}()
	fn()
}
