package alex_test

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	alex "repro"
	"repro/internal/faultfs"
)

func openDurable(t *testing.T, dir string, opts ...alex.DurableOption) *alex.DurableIndex {
	t.Helper()
	d, err := alex.OpenDurable(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// expectContents fails unless d holds exactly want.
func expectContents(t *testing.T, d *alex.DurableIndex, want map[float64]uint64) {
	t.Helper()
	if d.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(want))
	}
	for k, v := range want {
		got, ok := d.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%v) = %d,%v; want %d,true", k, got, ok, v)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableReplayWithoutCheckpoint closes without ever checkpointing,
// so recovery runs purely off the WAL tail.
func TestDurableReplayWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, alex.WithCheckpointEvery(0), alex.WithDurableShards(4))
	want := map[float64]uint64{}
	for i := 0; i < 500; i++ {
		k := float64(i) * 1.5
		d.Insert(k, uint64(i))
		want[k] = uint64(i)
	}
	keys := []float64{1000, 1001, 1002}
	pays := []uint64{1, 2, 3}
	d.InsertBatch(keys, pays)
	for i, k := range keys {
		want[k] = pays[i]
	}
	d.Delete(1.5)
	delete(want, 1.5)
	d.DeleteBatch([]float64{3, 4.5})
	delete(want, 3)
	delete(want, 4.5)
	d.Merge([]float64{2000, 2001}, []uint64{9, 9})
	want[2000], want[2001] = 9, 9
	if !d.Update(2000, 77) {
		t.Fatal("Update(existing) = false")
	}
	want[2000] = 77
	if d.Update(-555, 1) {
		t.Fatal("Update(missing) = true")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir, alex.WithCheckpointEvery(0), alex.WithDurableShards(4))
	defer re.Close()
	if st := re.WALStats(); st.Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	expectContents(t, re, want)
}

// TestDurableCheckpointTruncates verifies a checkpoint writes the
// snapshot, deletes sealed segments, and recovery = snapshot + tail.
func TestDurableCheckpointTruncates(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, alex.WithCheckpointEvery(0))
	want := map[float64]uint64{}
	for i := 0; i < 300; i++ {
		d.Insert(float64(i), uint64(i))
		want[float64(i)] = uint64(i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d.Checkpoints() != 1 {
		t.Fatalf("Checkpoints = %d", d.Checkpoints())
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.alex")); err != nil {
		t.Fatalf("no snapshot: %v", err)
	}
	// Post-checkpoint tail.
	for i := 300; i < 350; i++ {
		d.Insert(float64(i), uint64(i))
		want[float64(i)] = uint64(i)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir, alex.WithCheckpointEvery(0))
	defer re.Close()
	st := re.WALStats()
	// Only the records after the checkpoint (50 inserts + 1 marker
	// segment worth) should replay — far fewer than the 351 logged.
	if st.Replayed == 0 || st.Replayed > 60 {
		t.Fatalf("replayed %d records, want the ~50-record tail", st.Replayed)
	}
	expectContents(t, re, want)
}

// TestDurableTornTail truncates the last WAL segment mid-record: every
// record before the tear recovers, the torn one vanishes whole — a
// batch is never half-applied.
func TestDurableTornTail(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, alex.WithCheckpointEvery(0))
	for i := 0; i < 100; i++ {
		d.Insert(float64(i), uint64(i))
	}
	// The record that will be torn: a batch, to check atomicity.
	d.InsertBatch([]float64{500, 501, 502, 503}, []uint64{1, 2, 3, 4})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v err %v", segs, err)
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the batch record: cut into its payload but leave its header.
	if err := os.Truncate(last, fi.Size()-20); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir, alex.WithCheckpointEvery(0))
	defer re.Close()
	if re.Len() != 100 {
		t.Fatalf("Len = %d after torn tail, want 100", re.Len())
	}
	for _, k := range []float64{500, 501, 502, 503} {
		if re.Contains(k) {
			t.Fatalf("torn batch key %v partially applied", k)
		}
	}
	for i := 0; i < 100; i++ {
		if _, ok := re.Get(float64(i)); !ok {
			t.Fatalf("pre-tear key %d lost", i)
		}
	}
}

// TestDurableGroupCommit is the coalescing acceptance bar: with
// FsyncAlways and 8 concurrent writers, measured fsyncs per op < 1.
func TestDurableGroupCommit(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, alex.WithFsyncPolicy(alex.FsyncAlways), alex.WithCheckpointEvery(0))
	const writers, perWriter = 8, 150
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d.Insert(float64(g*perWriter+i), uint64(g))
			}
		}(g)
	}
	wg.Wait()
	st := d.WALStats()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	total := uint64(writers * perWriter)
	if st.Appends != total {
		t.Fatalf("appends = %d, want %d", st.Appends, total)
	}
	if st.Syncs >= total {
		t.Fatalf("fsyncs per op = %.3f (syncs %d / appends %d), want < 1",
			float64(st.Syncs)/float64(total), st.Syncs, total)
	}
	t.Logf("group commit: %d appends, %d fsyncs (%.3f fsyncs/op)",
		total, st.Syncs, float64(st.Syncs)/float64(total))

	re := openDurable(t, dir)
	defer re.Close()
	if re.Len() != writers*perWriter {
		t.Fatalf("recovered Len = %d, want %d", re.Len(), writers*perWriter)
	}
}

// TestDurableSyncBackend runs the roundtrip over the SyncIndex backend.
func TestDurableSyncBackend(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, alex.WithSyncBackend(), alex.WithCheckpointEvery(0))
	want := map[float64]uint64{}
	for i := 0; i < 200; i++ {
		d.Insert(float64(i)/3, uint64(i))
		want[float64(i)/3] = uint64(i)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Delete(0)
	delete(want, 0)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir, alex.WithSyncBackend())
	defer re.Close()
	expectContents(t, re, want)
}

// TestDurableAutoCheckpoint: the background checkpointer fires once
// enough records accumulate.
func TestDurableAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, alex.WithCheckpointEvery(100), alex.WithFsyncPolicy(alex.FsyncNever))
	defer d.Close()
	for i := 0; i < 300; i++ {
		d.Insert(float64(i), 1)
	}
	deadline := time.Now().Add(5 * time.Second)
	for d.Checkpoints() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no auto checkpoint after 300 records (every=100); err=%v", d.CheckpointError())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDurableConcurrentCheckpoint races writers against checkpoints and
// verifies no acked write is lost across recovery — the rotate barrier
// under test is exactly what guarantees sealed segments are fully
// applied before their snapshot replaces them.
func TestDurableConcurrentCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, alex.WithFsyncPolicy(alex.FsyncNever), alex.WithCheckpointEvery(0), alex.WithDurableShards(4))
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perWriter; i++ {
				switch rng.Intn(3) {
				case 0:
					d.Insert(float64(g*perWriter+i), uint64(g))
				case 1:
					ks := []float64{float64(g*perWriter+i) + 0.5}
					d.InsertBatch(ks, []uint64{7})
				case 2:
					d.Insert(float64(g*perWriter+i), uint64(g))
					d.Delete(float64(g*perWriter + i))
				}
			}
		}(g)
	}
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for i := 0; i < 10; i++ {
			if err := d.Checkpoint(); err != nil && !errors.Is(err, alex.ErrClosed) {
				t.Errorf("checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-ckptDone
	wantLen := d.Len()
	snap := map[float64]uint64{}
	d.Scan(-1e18, func(k float64, v uint64) bool {
		snap[k] = v
		return true
	})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir, alex.WithDurableShards(4))
	defer re.Close()
	if re.Len() != wantLen {
		t.Fatalf("recovered Len = %d, want %d", re.Len(), wantLen)
	}
	for k, v := range snap {
		got, ok := re.Get(k)
		if !ok || got != v {
			t.Fatalf("recovered Get(%v) = %d,%v; want %d,true", k, got, ok, v)
		}
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableUpdateReplay: updates are logged ahead as conditional
// records — replay never resurrects a key that a delete beat to the
// log, and an update of an absent key replays as a no-op.
func TestDurableUpdateReplay(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, alex.WithCheckpointEvery(0))
	d.Insert(1, 10)
	if !d.Update(1, 11) {
		t.Fatal("Update(existing) = false")
	}
	if d.Update(99, 5) {
		t.Fatal("Update(missing) = true")
	}
	d.Insert(2, 20)
	d.Delete(2)
	if d.Update(2, 21) {
		t.Fatal("Update(deleted) = true")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir)
	defer re.Close()
	expectContents(t, re, map[float64]uint64{1: 11})
}

// TestDurableLifecycleAfterClose: lifecycle methods fail cleanly once
// closed.
func TestDurableLifecycleAfterClose(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir)
	d.Insert(1, 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := d.Flush(); !errors.Is(err, alex.ErrClosed) {
		t.Fatalf("Flush after close: %v", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, alex.ErrClosed) {
		t.Fatalf("Checkpoint after close: %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Insert after Close did not panic")
			}
		}()
		d.Insert(3, 4)
	}()
}

// TestDurableChunkedBatch exercises the multi-record chunking path with
// a batch just over the per-record bound... scaled down via the public
// invariant instead: a large batch roundtrips. (The real bound is 2^20
// pairs; logging 2^20+1 keys here is still fast.)
func TestDurableChunkedBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("large batch")
	}
	dir := t.TempDir()
	d := openDurable(t, dir, alex.WithFsyncPolicy(alex.FsyncNever), alex.WithCheckpointEvery(0))
	n := 1<<20 + 3
	keys := make([]float64, n)
	pays := make([]uint64, n)
	for i := range keys {
		keys[i] = float64(i)
		pays[i] = uint64(i)
	}
	if got := d.InsertBatch(keys, pays); got != n {
		t.Fatalf("InsertBatch = %d, want %d", got, n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir)
	defer re.Close()
	if re.Len() != n {
		t.Fatalf("recovered Len = %d, want %d", re.Len(), n)
	}
	for _, i := range []int{0, 1 << 19, 1 << 20, n - 1} {
		if v, ok := re.Get(keys[i]); !ok || v != pays[i] {
			t.Fatalf("Get(%v) = %d,%v", keys[i], v, ok)
		}
	}
}

// snapshotGateFS passes every operation through to the real filesystem
// but counts snapshot temp-file creations, and makes each snapshot
// file's Sync announce itself on synced and then wait until release is
// closed, so a test can hold a checkpoint in flight while it writes.
type snapshotGateFS struct {
	faultfs.FS
	created atomic.Int32
	synced  chan struct{}
	release chan struct{}
}

func (g *snapshotGateFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := g.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != "snapshot.alex.tmp" {
		return f, err
	}
	g.created.Add(1)
	return gatedFile{File: f, g: g}, nil
}

type gatedFile struct {
	faultfs.File
	g *snapshotGateFS
}

func (f gatedFile) Sync() error {
	f.g.synced <- struct{}{}
	<-f.g.release
	return f.File.Sync()
}

// waitCheckpoints polls until d has completed want checkpoints.
func waitCheckpoints(t *testing.T, d *alex.DurableIndex, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for d.Checkpoints() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d checkpoints, want %d; err=%v", d.Checkpoints(), want, d.CheckpointError())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableCheckpointTriggerNotStale: writes made while a checkpoint
// is in flight re-arm the trigger, but once that checkpoint discharges
// the records it covered, fewer than checkpointEvery remain, so the
// queued request must not start a second checkpoint back to back. An
// explicit TriggerCheckpoint still runs with nothing dirty.
func TestDurableCheckpointTriggerNotStale(t *testing.T) {
	const every = 64
	g := &snapshotGateFS{FS: faultfs.OS, synced: make(chan struct{}, 8), release: make(chan struct{})}
	d := openDurable(t, t.TempDir(), alex.WithCheckpointEvery(every), alex.WithFsyncPolicy(alex.FsyncNever),
		alex.WithDurableShards(2), alex.WithFilesystem(g))
	defer d.Close()
	next := 0
	write := func(n int) {
		for i := 0; i < n; i++ {
			d.Insert(float64(next), uint64(next))
			next++
		}
	}

	write(every)
	select {
	case <-g.synced:
	case <-time.After(10 * time.Second):
		t.Fatal("checkpoint 1 never reached its snapshot fsync")
	}
	write(every / 2) // lands in the new segment; re-arms the trigger
	close(g.release)
	waitCheckpoints(t, d, 1)
	time.Sleep(500 * time.Millisecond)
	if n, c := g.created.Load(), d.Checkpoints(); n != 1 || c != 1 {
		t.Fatalf("after a checkpoint that left %d of %d records dirty: %d snapshot files, %d checkpoints; want 1 and 1",
			every/2, every, n, c)
	}

	write(every / 2)
	waitCheckpoints(t, d, 2)
	time.Sleep(500 * time.Millisecond)
	if n, c := g.created.Load(), d.Checkpoints(); n != 2 || c != 2 {
		t.Fatalf("%d more records: %d snapshot files, %d checkpoints; want 2 and 2", every/2, n, c)
	}

	d.TriggerCheckpoint() // nothing dirty: an explicit request still runs
	waitCheckpoints(t, d, 3)
	if err := d.CheckpointError(); err != nil {
		t.Fatal(err)
	}
}
