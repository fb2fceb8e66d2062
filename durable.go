package alex

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultfs"
	"repro/internal/wal"
)

// DurableIndex makes an index survive process death: every acknowledged
// mutation is appended to a write-ahead log before it is applied to the
// wrapped in-memory index, a background checkpointer periodically
// serializes the index to a snapshot and truncates the log, and
// OpenDurable recovers by loading the latest snapshot and replaying the
// log tail through the unified batch apply path — so recovery runs at
// amortized one-descent-per-leaf speed rather than one descent per
// logged key.
//
// The directory holds one snapshot (written atomically via a temp file
// and rename) plus numbered WAL segments; a checkpoint rotates to a new
// segment, snapshots, and deletes the sealed segments the snapshot now
// covers. Both files are safe against torn writes: the snapshot is
// replaced atomically and the WAL reader stops at the first invalid
// record, so a mid-record crash loses nothing that was acknowledged.
//
// Durability is governed by the fsync policy: FsyncAlways acknowledges
// a mutation only once its record is on stable storage (concurrent
// writers group-commit, sharing fsyncs — see WALStats), FsyncInterval
// bounds the loss window to the sync interval, FsyncNever leaves
// flushing to the OS.
//
// Recovery replays the log in append order. For mutations that raced
// on the same key, log order and in-memory apply order can differ, so
// the recovered value is the last *logged* of the racing writes — a
// valid linearization of operations that were concurrent, but possibly
// not the one the pre-crash index settled on. Clients that serialize
// their own writes per key (the common case) always recover exactly
// what was acknowledged.
//
// The wrapped index is either a ShardedIndex (default) or a SyncIndex
// (WithSyncBackend); all read methods delegate to it and are safe for
// concurrent use, exactly as on the wrapped type.
//
// A WAL I/O failure (failed fsync, disk full, I/O error) poisons the
// index into a degraded read-only state: the failing mutation is never
// acknowledged, every later mutation is rejected with ErrDegraded, and
// lock-free reads keep serving the last acknowledged state. Degraded
// is terminal for the process — a failed fsync leaves the kernel's
// dirty-page state unknowable, so retrying a sync and acking on its
// success would ack data the disk may never have seen (the fsync-gate
// rule). Restart the process; recovery replays exactly the acknowledged
// prefix. The bool-returning mutators (the pre-degradation API) panic
// with an error wrapping ErrDegraded; the Try variants return it. See
// docs/failure-model.md.
type DurableIndex struct {
	backend Backend
	log     *wal.Log
	dir     string
	cfg     durableConfig

	// opGate is held shared across each mutation's log-then-apply pair
	// and exclusively around the checkpoint's segment rotation, so every
	// record in a sealed (deletable) segment is fully applied before the
	// snapshot that supersedes it is cut.
	opGate sync.RWMutex
	closed bool // guarded by opGate

	ckptMu      sync.Mutex // serializes checkpoints
	dirty       atomic.Int64
	checkpoints atomic.Uint64
	replayed    int
	torn        bool
	ckptErr     atomic.Pointer[error]

	// degradedErr is the first durability failure; non-nil means the
	// index is poisoned read-only (see the type comment). First cause
	// wins; never cleared.
	degradedErr atomic.Pointer[error]

	// ckptCh carries checkpoint requests to the background loop;
	// ckptForced marks a pending request as explicit (TriggerCheckpoint,
	// the open-time trigger), which runs even with nothing dirty.
	ckptCh     chan struct{}
	ckptForced atomic.Bool
	done       chan struct{}
	wg         sync.WaitGroup

	followerRegistry // connected replication followers, for lag reporting
}

// Backend is the thread-safe index surface DurableIndex wraps; both
// *SyncIndex and *ShardedIndex implement it. All mutations flow through
// Apply — the unified path WAL replay reuses.
type Backend interface {
	Get(key float64) (uint64, bool)
	Contains(key float64) bool
	GetBatch(keys []float64) ([]uint64, []bool)
	GetBatchInto(keys []float64, payloads []uint64, found []bool)
	Scan(start float64, visit func(key float64, payload uint64) bool) int
	ScanN(start float64, max int) ([]float64, []uint64)
	ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64)
	ScanRange(start, end float64, visit func(key float64, payload uint64) bool) int
	MinKey() (float64, bool)
	MaxKey() (float64, bool)
	Len() int
	Stats() Stats
	IndexSizeBytes() int
	DataSizeBytes() int
	WriteTo(w io.Writer) (int64, error)
	Apply(op Op) int
	Update(key float64, payload uint64) bool
	CheckInvariants() error
}

// Both concurrency wrappers implement the backend surface.
var (
	_ Backend = (*SyncIndex)(nil)
	_ Backend = (*ShardedIndex)(nil)
)

// Snapshotter is the optional backend capability DurableIndex prefers
// when writing checkpoints: cutting an IndexSnapshot lets
// the snapshot file be serialized outside the backend's exclusive gate,
// so a checkpoint never stalls concurrent reads or writes for the
// duration of the disk write. Both concurrency wrappers implement it.
type Snapshotter interface {
	Snapshot() *IndexSnapshot
}

var (
	_ Snapshotter = (*SyncIndex)(nil)
	_ Snapshotter = (*ShardedIndex)(nil)
)

// FsyncPolicy selects when WAL appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways: every mutation is fsynced before it is acknowledged.
	// Concurrent writers group-commit: records appended while one fsync
	// is in flight all share the next, so fsyncs per op drop well below
	// one under load.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval: the WAL is fsynced on a timer; a crash loses at
	// most one interval of acknowledged writes.
	FsyncInterval
	// FsyncNever: flushing is left to the OS page cache.
	FsyncNever
)

func (p FsyncPolicy) walPolicy() wal.Policy {
	switch p {
	case FsyncInterval:
		return wal.SyncInterval
	case FsyncNever:
		return wal.SyncNever
	}
	return wal.SyncAlways
}

// ParseFsyncPolicy converts the flag spellings "always", "interval",
// "never" into a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("alex: unknown fsync policy %q (want always, interval or never)", s)
}

// ErrClosed is returned by lifecycle methods of a closed DurableIndex.
var ErrClosed = errors.New("alex: durable index closed")

// ErrDegraded reports that a durability failure (failed fsync, disk
// full, WAL I/O error) has poisoned the index into read-only mode:
// mutations are rejected, reads keep serving. Every rejection wraps
// both ErrDegraded and the original cause; test with errors.Is. The
// state is terminal until the process restarts and recovers.
var ErrDegraded = errors.New("alex: durable index degraded (read-only)")

type durableConfig struct {
	policy          FsyncPolicy
	interval        time.Duration
	checkpointEvery int
	shards          int
	syncBackend     bool
	indexOpts       []Option
	fsys            faultfs.FS
}

// DurableOption configures OpenDurable.
type DurableOption func(*durableConfig)

// WithFsyncPolicy selects the WAL fsync policy (default FsyncAlways).
func WithFsyncPolicy(p FsyncPolicy) DurableOption {
	return func(c *durableConfig) { c.policy = p }
}

// WithFsyncInterval sets the timer of FsyncInterval (default 100ms).
func WithFsyncInterval(d time.Duration) DurableOption {
	return func(c *durableConfig) { c.interval = d }
}

// WithCheckpointEvery sets how many logged mutation records accumulate
// before the background checkpointer snapshots the index and truncates
// the log (default 1<<20; 0 disables automatic checkpoints — Checkpoint
// and SAVE still work). The count is checked again when the checkpointer
// picks a request up, so records logged during one checkpoint start the
// next only once they reach n themselves.
func WithCheckpointEvery(n int) DurableOption {
	return func(c *durableConfig) { c.checkpointEvery = n }
}

// WithDurableShards sets the shard count of the wrapped ShardedIndex
// (default 0 = one per CPU). Ignored with WithSyncBackend.
func WithDurableShards(n int) DurableOption {
	return func(c *durableConfig) { c.shards = n }
}

// WithSyncBackend wraps a SyncIndex (one index behind a readers-writer
// lock) instead of the default ShardedIndex.
func WithSyncBackend() DurableOption {
	return func(c *durableConfig) { c.syncBackend = true }
}

// WithIndexOptions passes index construction options through to the
// wrapped index. When a snapshot exists, its embedded configuration
// wins (exactly as with ReadFrom) and these are ignored.
func WithIndexOptions(opts ...Option) DurableOption {
	return func(c *durableConfig) { c.indexOpts = opts }
}

// WithFilesystem routes every file operation — WAL segments, snapshot
// writes, directory syncs — through fsys (default faultfs.OS). Fault
// injection tests pass a faultfs.Inject here; production never needs
// this option.
func WithFilesystem(fsys faultfs.FS) DurableOption {
	return func(c *durableConfig) { c.fsys = fsys }
}

const (
	snapshotName = "snapshot.alex"
	snapshotTmp  = "snapshot.alex.tmp"
)

// OpenDurable opens (or creates) the durable index stored in dir. It
// recovers the pre-crash state: the latest snapshot is loaded, then the
// WAL tail is replayed through the batch apply path — consecutive
// logged inserts coalesce into bulk merges and consecutive deletes into
// sorted delete batches, so replay pays one tree descent per touched
// leaf, not per logged key. Replay stops at the first invalid record (a
// torn tail from a mid-write crash loses only unacknowledged tail
// records). The directory must be owned by one process at a time.
func OpenDurable(dir string, opts ...DurableOption) (*DurableIndex, error) {
	cfg := durableConfig{
		policy:          FsyncAlways,
		interval:        100 * time.Millisecond,
		checkpointEvery: 1 << 20,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.shards <= 0 {
		cfg.shards = runtime.GOMAXPROCS(0)
	}
	if cfg.fsys == nil {
		cfg.fsys = faultfs.OS
	}
	if err := cfg.fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A crash mid-checkpoint can leave a partial temp snapshot; the real
	// snapshot (if any) is intact because the rename never happened.
	//alexvet:ignore best-effort cleanup of a crash leftover; the open itself does not depend on it
	_ = cfg.fsys.Remove(filepath.Join(dir, snapshotTmp))

	backend, err := openBackend(dir, &cfg)
	if err != nil {
		return nil, err
	}
	replayed, torn, err := replayInto(cfg.fsys, dir, backend)
	if err != nil {
		return nil, err
	}
	log, err := wal.OpenLogFS(cfg.fsys, dir, cfg.policy.walPolicy(), cfg.interval)
	if err != nil {
		return nil, err
	}
	d := &DurableIndex{
		backend:  backend,
		log:      log,
		dir:      dir,
		cfg:      cfg,
		replayed: replayed,
		torn:     torn,
		ckptCh:   make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	d.dirty.Store(int64(replayed))
	d.wg.Add(1)
	go d.checkpointLoop()
	if cfg.checkpointEvery > 0 && replayed >= cfg.checkpointEvery {
		d.TriggerCheckpoint()
	}
	return d, nil
}

// openBackend loads the snapshot into the configured backend kind, or
// builds an empty one.
func openBackend(dir string, cfg *durableConfig) (Backend, error) {
	f, err := faultfs.Open(cfg.fsys, filepath.Join(dir, snapshotName))
	if err != nil {
		if !os.IsNotExist(err) {
			return nil, err
		}
		if cfg.syncBackend {
			return NewSync(cfg.indexOpts...), nil
		}
		return NewSharded(cfg.shards, cfg.indexOpts...), nil
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	if cfg.syncBackend {
		ix, err := ReadFrom(br)
		if err != nil {
			return nil, fmt.Errorf("alex: load snapshot: %w", err)
		}
		return newSyncFrom(ix), nil
	}
	s, err := ReadFromSharded(br, cfg.shards)
	if err != nil {
		return nil, fmt.Errorf("alex: load snapshot: %w", err)
	}
	return s, nil
}

// Rebuilder is the optional backend capability recovery uses to restore
// bulk-load-quality structure after a heavy replay; both *SyncIndex and
// *ShardedIndex implement it.
type Rebuilder interface{ Rebuild() }

// rebuildMinMerged is the merged-key volume below which a recovery
// rebuild cannot pay for itself: replay that touched fewer keys left
// most of the snapshot-loaded structure intact.
const rebuildMinMerged = 1 << 16

// replayInto applies the WAL tail to b through the batch apply path,
// reporting how many records replayed and whether replay stopped at an
// invalid record. When the coalesced merges dominated the recovered
// contents — at least rebuildMinMerged keys and half the final size —
// the tree's shape is replay-grown rather than planned, and the backend
// is rebuilt through the cost-optimal planner before the index opens.
// Followers tailing a primary never take this path: they apply records
// incrementally through their own Replayer and stay open throughout.
func replayInto(fsys faultfs.FS, dir string, b Backend) (int, bool, error) {
	segs, err := wal.SegmentsFS(fsys, dir)
	if err != nil {
		return 0, false, err
	}
	r := NewReplayer(b)
	n, torn, err := wal.ReplaySegmentsFS(fsys, segs, r.Add)
	if err != nil {
		return n, torn, err
	}
	r.Flush()
	if rb, ok := b.(Rebuilder); ok {
		if m := r.MergedKeys(); m >= rebuildMinMerged && 2*m >= b.Len() {
			rb.Rebuild()
		}
	}
	return n, torn, nil
}

// degrade poisons the index with cause (first cause wins) and returns
// the canonical degraded error — cause wrapped in ErrDegraded.
func (d *DurableIndex) degrade(cause error) error {
	werr := fmt.Errorf("%w: %w", ErrDegraded, cause)
	d.degradedErr.CompareAndSwap(nil, &werr)
	return *d.degradedErr.Load()
}

// Degraded returns nil while the index is healthy, or the error (first
// durability failure, wrapped in ErrDegraded) that poisoned it into
// read-only mode.
func (d *DurableIndex) Degraded() error {
	if p := d.degradedErr.Load(); p != nil {
		return *p
	}
	return nil
}

// applyErr logs rec and then applies op to the backend — the
// write-ahead ordering every acknowledged mutation follows. A WAL
// failure degrades the index (the record was never made durable, so
// the backend is NOT touched — the in-memory state stays exactly the
// acknowledged prefix) and returns an error wrapping ErrDegraded. Use
// after Close panics.
func (d *DurableIndex) applyErr(rec *wal.Record, op Op) (int, error) {
	d.opGate.RLock()
	defer d.opGate.RUnlock()
	if d.closed {
		panic("alex: DurableIndex used after Close")
	}
	if err := d.Degraded(); err != nil {
		return 0, err
	}
	if err := d.log.Append(rec); err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return 0, ErrClosed
		}
		return 0, d.degrade(err)
	}
	n := d.backend.Apply(op)
	d.noteRecords(1)
	return n, nil
}

// apply is applyErr for the bool-returning mutator surface: errors
// (including ErrDegraded rejections) panic with the error value, so
// callers that want a recoverable rejection use the Try variants.
func (d *DurableIndex) apply(rec *wal.Record, op Op) int {
	n, err := d.applyErr(rec, op)
	if err != nil {
		panic(err)
	}
	return n
}

// applyChunked logs and applies a batch, splitting batches beyond the
// WAL's per-record element bound into several records; each chunk is
// atomic on replay, and chunks apply in order so duplicate resolution
// matches the unchunked batch. A mid-batch degradation leaves the
// chunks already applied acknowledged (they are durable) and rejects
// the rest.
func (d *DurableIndex) applyChunked(kind OpKind, walOp wal.Op, keys []float64, payloads []uint64) (int, error) {
	total := 0
	for start := 0; start < len(keys); start += wal.MaxRecordPairs {
		end := min(start+wal.MaxRecordPairs, len(keys))
		ks := keys[start:end]
		var ps []uint64
		if payloads != nil {
			ps = payloads[start:end]
		}
		rec := wal.Record{Op: walOp, Keys: ks, Payloads: ps}
		n, err := d.applyErr(&rec, Op{Kind: kind, Keys: ks, Payloads: ps})
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Insert adds key with payload; see Index.Insert. With FsyncAlways it
// returns only once the mutation is on stable storage. On a degraded
// index it panics with an error wrapping ErrDegraded; use TryInsert
// for an error return.
func (d *DurableIndex) Insert(key float64, payload uint64) bool {
	ok, err := d.TryInsert(key, payload)
	if err != nil {
		panic(err)
	}
	return ok
}

// TryInsert is Insert with degradation as an error instead of a panic.
func (d *DurableIndex) TryInsert(key float64, payload uint64) (bool, error) {
	k, p := [1]float64{key}, [1]uint64{payload}
	rec := wal.Record{Op: wal.OpInsert, Keys: k[:], Payloads: p[:]}
	n, err := d.applyErr(&rec, Op{Kind: OpInsert, Keys: k[:], Payloads: p[:]})
	return n > 0, err
}

// Delete removes key; see Index.Delete. Panics when degraded; use
// TryDelete for an error return.
func (d *DurableIndex) Delete(key float64) bool {
	ok, err := d.TryDelete(key)
	if err != nil {
		panic(err)
	}
	return ok
}

// TryDelete is Delete with degradation as an error instead of a panic.
func (d *DurableIndex) TryDelete(key float64) (bool, error) {
	k := [1]float64{key}
	rec := wal.Record{Op: wal.OpDelete, Keys: k[:]}
	n, err := d.applyErr(&rec, Op{Kind: OpDelete, Keys: k[:]})
	return n > 0, err
}

// Update overwrites the payload of an existing key. Like every
// mutation it is logged before it is applied — as a dedicated
// update-if-present record, which replay applies conditionally, so a
// missing key is never resurrected. An update of an absent key logs a
// record that replays as a no-op. Panics when degraded; use TryUpdate
// for an error return.
func (d *DurableIndex) Update(key float64, payload uint64) bool {
	ok, err := d.TryUpdate(key, payload)
	if err != nil {
		panic(err)
	}
	return ok
}

// TryUpdate is Update with degradation as an error instead of a panic.
func (d *DurableIndex) TryUpdate(key float64, payload uint64) (bool, error) {
	d.opGate.RLock()
	defer d.opGate.RUnlock()
	if d.closed {
		panic("alex: DurableIndex used after Close")
	}
	if err := d.Degraded(); err != nil {
		return false, err
	}
	k, p := [1]float64{key}, [1]uint64{payload}
	rec := wal.Record{Op: wal.OpUpdate, Keys: k[:], Payloads: p[:]}
	if err := d.log.Append(&rec); err != nil {
		if errors.Is(err, wal.ErrClosed) {
			return false, ErrClosed
		}
		return false, d.degrade(err)
	}
	ok := d.backend.Update(key, payload)
	d.noteRecords(1)
	return ok, nil
}

// InsertBatch adds many key/payload pairs, returning how many were new;
// see Index.InsertBatch. A batch of up to 2^20 pairs is logged as one
// WAL record, so replay applies it atomically — a crash can never leave
// it half-applied. Larger batches are logged and applied in 2^20-pair
// chunks: each chunk is atomic and chunks recover strictly in order, so
// a crash can truncate a giant batch only at a chunk boundary.
func (d *DurableIndex) InsertBatch(keys []float64, payloads []uint64) int {
	n, err := d.TryInsertBatch(keys, payloads)
	if err != nil {
		panic(err)
	}
	return n
}

// TryInsertBatch is InsertBatch with degradation as an error. The
// count reports pairs applied before a mid-batch failure (whole chunks
// of 2^20 pairs — all durable and acknowledged).
func (d *DurableIndex) TryInsertBatch(keys []float64, payloads []uint64) (int, error) {
	if len(payloads) != len(keys) {
		panic("alex: len(payloads) != len(keys)")
	}
	return d.applyChunked(OpInsert, wal.OpInsertBatch, keys, payloads)
}

// DeleteBatch removes many keys, returning how many were present; see
// Index.DeleteBatch. Logged as one record, like InsertBatch. Panics
// when degraded; use TryDeleteBatch for an error return.
func (d *DurableIndex) DeleteBatch(keys []float64) int {
	n, err := d.TryDeleteBatch(keys)
	if err != nil {
		panic(err)
	}
	return n
}

// TryDeleteBatch is DeleteBatch with degradation as an error.
func (d *DurableIndex) TryDeleteBatch(keys []float64) (int, error) {
	return d.applyChunked(OpDelete, wal.OpDeleteBatch, keys, nil)
}

// Merge bulk-merges key/payload pairs, returning how many were new; see
// Index.Merge. payloads may be nil. Logged as one record, like
// InsertBatch. Panics when degraded; use TryMerge for an error return.
func (d *DurableIndex) Merge(keys []float64, payloads []uint64) int {
	n, err := d.TryMerge(keys, payloads)
	if err != nil {
		panic(err)
	}
	return n
}

// TryMerge is Merge with degradation as an error.
func (d *DurableIndex) TryMerge(keys []float64, payloads []uint64) (int, error) {
	if payloads == nil {
		payloads = make([]uint64, len(keys))
	}
	if len(payloads) != len(keys) {
		panic("alex: len(payloads) != len(keys)")
	}
	return d.applyChunked(OpMerge, wal.OpMerge, keys, payloads)
}

// Get returns the payload stored for key.
func (d *DurableIndex) Get(key float64) (uint64, bool) { return d.backend.Get(key) }

// Contains reports whether key is present.
func (d *DurableIndex) Contains(key float64) bool { return d.backend.Contains(key) }

// GetBatch looks up many keys at once; see Index.GetBatch.
func (d *DurableIndex) GetBatch(keys []float64) ([]uint64, []bool) {
	return d.backend.GetBatch(keys)
}

// GetBatchInto is the zero-allocation GetBatch; reads never touch the
// WAL, so it delegates straight to the wrapped index's optimistic read
// path.
func (d *DurableIndex) GetBatchInto(keys []float64, payloads []uint64, found []bool) {
	d.backend.GetBatchInto(keys, payloads, found)
}

// Scan visits elements with key >= start in ascending key order; see
// the wrapped type's Scan for the callback restrictions.
func (d *DurableIndex) Scan(start float64, visit func(key float64, payload uint64) bool) int {
	return d.backend.Scan(start, visit)
}

// ScanN collects up to max elements from the first key >= start.
func (d *DurableIndex) ScanN(start float64, max int) ([]float64, []uint64) {
	return d.backend.ScanN(start, max)
}

// ScanNInto is the zero-allocation ScanN, delegating to the wrapped
// index's optimistic read path.
func (d *DurableIndex) ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	return d.backend.ScanNInto(start, max, keys, payloads)
}

// ScanRange visits all elements with start <= key < end in order.
func (d *DurableIndex) ScanRange(start, end float64, visit func(key float64, payload uint64) bool) int {
	return d.backend.ScanRange(start, end, visit)
}

// MinKey returns the smallest key.
func (d *DurableIndex) MinKey() (float64, bool) { return d.backend.MinKey() }

// MaxKey returns the largest key.
func (d *DurableIndex) MaxKey() (float64, bool) { return d.backend.MaxKey() }

// Len returns the number of stored elements.
func (d *DurableIndex) Len() int { return d.backend.Len() }

// Stats returns the wrapped index's aggregated counters.
func (d *DurableIndex) Stats() Stats { return d.backend.Stats() }

// IndexSizeBytes accounts the RMI structure of the wrapped index.
func (d *DurableIndex) IndexSizeBytes() int { return d.backend.IndexSizeBytes() }

// DataSizeBytes accounts the wrapped index's data node storage.
func (d *DurableIndex) DataSizeBytes() int { return d.backend.DataSizeBytes() }

// CheckInvariants verifies the wrapped index.
func (d *DurableIndex) CheckInvariants() error { return d.backend.CheckInvariants() }

// Unwrap returns the wrapped backend for read-only phases; callers must
// not mutate through it (those writes would bypass the WAL).
func (d *DurableIndex) Unwrap() Backend { return d.backend }

// WALStats reports durability activity: log records appended, fsyncs
// issued (under group commit Syncs/Appends < 1 with concurrent
// writers), bytes logged, checkpoints completed, and how many records
// the last OpenDurable replayed.
type WALStats struct {
	Appends     uint64
	Syncs       uint64
	Bytes       uint64
	Checkpoints uint64
	Replayed    int
	// TornTail reports that the last recovery hit an invalid record.
	// Every crash now reports one: the live segment's file is sized
	// ahead of its last record, so even a crash that lost nothing
	// leaves a zero tail, which reads as torn (replay resumes with the
	// next segment, if any). After a clean shutdown every segment is
	// sealed and trimmed, so a torn tail then indicates on-disk
	// corruption.
	TornTail bool
	// Followers is the number of replication followers currently
	// streaming this index's WAL; MaxFollowerLagBytes is the worst
	// follower's committed-but-unshipped byte count (0 when none).
	Followers           int
	MaxFollowerLagBytes int64
	// Degraded reports the poisoned read-only state: a durability
	// failure occurred and mutations are being rejected (see
	// DurableIndex.Degraded for the cause).
	Degraded bool
}

// WALStats returns cumulative durability counters.
func (d *DurableIndex) WALStats() WALStats {
	st := d.log.Stats()
	ws := WALStats{
		Appends:     st.Appends,
		Syncs:       st.Syncs,
		Bytes:       st.Bytes,
		Checkpoints: d.checkpoints.Load(),
		Replayed:    d.replayed,
		TornTail:    d.torn,
		Degraded:    d.Degraded() != nil,
	}
	for _, f := range d.Followers() {
		ws.Followers++
		ws.MaxFollowerLagBytes = max(ws.MaxFollowerLagBytes, f.LagBytes)
	}
	return ws
}

// Flush blocks until every acknowledged mutation is on stable storage,
// regardless of the fsync policy. A sync failure degrades the index
// (the fsync-gate rule: a failed fsync is never retried over the same
// dirty buffers); on an already-degraded index Flush returns the
// poisoning error without touching the disk.
func (d *DurableIndex) Flush() error {
	if err := d.Degraded(); err != nil {
		return err
	}
	err := d.log.Sync()
	if errors.Is(err, wal.ErrClosed) {
		return ErrClosed
	}
	if err != nil {
		return d.degrade(err)
	}
	return nil
}

// Checkpoint synchronously serializes the index to a fresh snapshot and
// truncates the WAL segments the snapshot covers. The snapshot file is
// streamed from an IndexSnapshot's sealed leaves as one
// sorted run (see IndexSnapshot.WriteTo), so it copies no contents and
// builds no tree. Mutations continue concurrently (they land in the new
// segment, which is replayed over the snapshot on recovery; replay is
// idempotent, so overlap is harmless). Safe to call at any time;
// concurrent checkpoints serialize.
func (d *DurableIndex) Checkpoint() error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	// A degraded index must not checkpoint: the snapshot would capture
	// only the acknowledged prefix (the backend never applied the failed
	// mutation), but truncating WAL segments on degraded storage risks
	// deleting history while the snapshot's own durability is suspect.
	// Reads still serve; recovery after restart is the way forward.
	if err := d.Degraded(); err != nil {
		return err
	}
	// Rotate under the exclusive gate: once no mutation is in flight,
	// everything in the sealed segments is applied, so the snapshot cut
	// after the rotation covers them all.
	d.opGate.Lock()
	if d.closed {
		d.opGate.Unlock()
		return ErrClosed
	}
	covered := d.dirty.Load()
	err := d.log.Rotate()
	d.opGate.Unlock()
	if err != nil {
		if errors.Is(err, wal.ErrSealFailed) {
			// The rotated-out segment could not be flushed/fsynced:
			// records acknowledged under a deferred-sync policy may be
			// lost. That is a durability failure, not a transient
			// checkpoint failure.
			return d.degrade(err)
		}
		// Creating the next segment failed (e.g. disk full): nothing
		// rotated, appends continue into the current segment, and the
		// next trigger retries.
		return err
	}
	if err := d.writeSnapshot(); err != nil {
		// Leave dirty untouched: the auto-checkpoint clock keeps
		// ticking, so a transient failure (disk full) is retried as
		// soon as the next trigger fires instead of after another full
		// checkpointEvery records.
		return err
	}
	// Discharge only the records the snapshot covers; mutations logged
	// while it was being written stay on the clock.
	d.dirty.Add(-covered)
	// Advisory marker noting the snapshot; replay skips it.
	//alexvet:ignore the marker is advisory — recovery is correct without it; a real append failure resurfaces on the next mutation
	_ = d.log.Append(&wal.Record{Op: wal.OpCheckpoint, Seq: d.log.CurrentSeq()})
	if err := d.log.RemoveObsolete(); err != nil {
		return err
	}
	d.checkpoints.Add(1)
	return nil
}

// writeSnapshot atomically replaces the snapshot file with the current
// index state. Every failure path — create, write, fsync, rename, dir
// sync — returns before the caller reaches WAL truncation, so a failed
// checkpoint can never delete segments recovery still needs.
func (d *DurableIndex) writeSnapshot() error {
	tmp := filepath.Join(d.dir, snapshotTmp)
	f, err := faultfs.Create(d.cfg.fsys, tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if sn, ok := d.backend.(Snapshotter); ok {
		// Cut a snapshot (brief exclusive section) and stream it without
		// holding any index lock: writers proceed while the file is built.
		_, err = sn.Snapshot().WriteTo(bw)
	} else {
		_, err = d.backend.WriteTo(bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		//alexvet:ignore best-effort backout of the temp file; the write error on the next line is the one that matters
		_ = d.cfg.fsys.Remove(tmp)
		return err
	}
	if err := d.cfg.fsys.Rename(tmp, filepath.Join(d.dir, snapshotName)); err != nil {
		return err
	}
	// The rename must be durable before the WAL segments it supersedes
	// are truncated; a swallowed error here could lose the snapshot AND
	// the log. faultfs.OS already treats platform "can't fsync a dir"
	// errnos as success, so every error left is real.
	return d.cfg.fsys.SyncDir(d.dir)
}

// TriggerCheckpoint asks the background checkpointer for a checkpoint
// without waiting for it (the BGSAVE path). It runs even if no record
// is dirty; a request already queued absorbs it. Errors are
// retrievable via CheckpointError.
func (d *DurableIndex) TriggerCheckpoint() {
	d.ckptForced.Store(true)
	d.requestCheckpoint()
}

// requestCheckpoint queues a request unless one is already queued.
func (d *DurableIndex) requestCheckpoint() {
	select {
	case d.ckptCh <- struct{}{}:
	default:
	}
}

// CheckpointError returns the last background checkpoint failure, if
// any.
func (d *DurableIndex) CheckpointError() error {
	if p := d.ckptErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Checkpoints returns how many checkpoints have completed.
func (d *DurableIndex) Checkpoints() uint64 { return d.checkpoints.Load() }

// noteRecords advances the auto-checkpoint clock.
func (d *DurableIndex) noteRecords(n int) {
	if d.cfg.checkpointEvery <= 0 {
		return
	}
	if d.dirty.Add(int64(n)) >= int64(d.cfg.checkpointEvery) {
		d.requestCheckpoint()
	}
}

// checkpointLoop runs requested checkpoints off the mutation path. An
// automatic request is re-checked when it is dequeued: writes made
// during a checkpoint queue one, but that checkpoint may have
// discharged the clock below checkpointEvery, and running it anyway
// would checkpoint back to back. A failed checkpoint leaves the clock
// untouched, so the next automatic request retries it.
func (d *DurableIndex) checkpointLoop() {
	defer d.wg.Done()
	for {
		select {
		case <-d.done:
			return
		case <-d.ckptCh:
			if !d.ckptForced.Swap(false) && d.dirty.Load() < int64(d.cfg.checkpointEvery) {
				continue
			}
			if err := d.Checkpoint(); err != nil && !errors.Is(err, ErrClosed) {
				d.ckptErr.Store(&err)
			}
		}
	}
}

// Close flushes the WAL to stable storage, stops the background
// checkpointer, and closes the log. It does not write a final
// checkpoint — call Checkpoint first for an instant next open (as the
// server's graceful shutdown does); recovery replays the log tail
// either way. Mutations must not race with Close; after it, they panic
// and lifecycle methods return ErrClosed.
func (d *DurableIndex) Close() error {
	d.opGate.Lock()
	if d.closed {
		d.opGate.Unlock()
		return nil
	}
	d.closed = true
	d.opGate.Unlock()
	close(d.done)
	d.wg.Wait()
	err := d.log.Close()
	if errors.Is(err, wal.ErrClosed) {
		return nil
	}
	return err
}
