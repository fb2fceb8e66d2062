// Package alex is a Go implementation of ALEX, the updatable adaptive
// learned index of Ding et al. (SIGMOD 2020). An ALEX index replaces
// B+Tree inner nodes with linear regression models (a Recursive Model
// Index) and stores data in gapped arrays whose elements sit at the
// positions the models predict, so lookups need only a short exponential
// search from the prediction and inserts rarely shift more than a few
// elements.
//
// Quick start:
//
//	idx, err := alex.Load(keys, payloads)       // bulk load
//	v, ok := idx.Get(k)                          // point lookup
//	idx.Insert(k, v)                             // dynamic insert
//	idx.Scan(lo, func(k float64, v uint64) bool { // range scan
//		return k < hi
//	})
//
// The public API is batch-first: every point operation has a multi-key
// variant. A sorted write batch is grouped by destination data node, so
// it pays one RMI descent per leaf instead of per key, and each node
// makes at most one expand/retrain/split decision per batch. A batch
// read amortizes nothing, so it needs no sorting: it resolves its keys
// in small groups, in lockstep, so that the cache misses of independent
// lookups overlap instead of queueing:
//
//	vals, found := idx.GetBatch(keys)            // overlapped lookups
//	idx.InsertBatch(keys, payloads)              // amortized inserts
//	idx.DeleteBatch(keys)                        // amortized deletes
//	idx.Merge(keys, payloads)                    // bulk-load-speed merge
//
// Unsorted write batches remain correct (they fall back to per-key
// application; Merge sorts first), but sorted input is what unlocks the
// write amortization. Batch results are always identical in content to
// the equivalent loop of single-key calls.
//
// The paper's variants are expressed through options: the model
// hierarchy (adaptive vs static RMI) and node splitting on inserts.
// Data nodes are always gapped arrays, and the adaptive RMI is always
// shaped by the §4 cost model; WithDensity and WithSpaceOverhead trade
// memory for insert throughput. Defaults follow the paper's read-write
// sweet spot, ALEX-GA-ARMI with ~43% data space overhead.
//
// Keys are float64 and must be finite and unique; payloads are uint64
// (store an offset or pointer-equivalent for larger values). The index
// is not safe for concurrent mutation — like the system evaluated in
// the paper, it is single-writer (§7 lists concurrency as future work).
// Two wrappers add concurrency on top: SyncIndex guards one index with
// a readers-writer lock plus a lock-free optimistic read path (simple,
// read-mostly), and ShardedIndex partitions the key space across
// per-core shards behind a learned quantile router so reads and writes
// to different regions run in parallel (write-heavy, multi-core). Both
// publish structural changes with single atomic pointer stores and cut
// consistent point-in-time views via Snapshot, which the garbage
// collector reclaims with whatever only they still reference — see
// docs/architecture.md for the layer map and docs/concurrency.md for
// the full memory-model story. DurableIndex adds crash safety over
// either: every acknowledged mutation is written ahead to a
// group-committed log, a background checkpointer snapshots the index
// and truncates the log, and OpenDurable recovers the acknowledged
// state after any crash by replaying the log tail through the batch
// apply path.
package alex

import (
	"io"

	"repro/internal/core"
	"repro/internal/gapped"
)

// Stats aggregates the index's work counters (shifts, expands, splits,
// model retrains) and structural counts (leaves, inner nodes, height).
type Stats = core.Stats

// NodeStats is the per-data-node counter block inside Stats.
type NodeStats = gapped.Stats

// Option configures an Index at construction.
type Option func(*core.Config)

// WithStaticRMI uses a fixed two-level RMI with numModels leaf models
// (0 = auto), as the Learned Index does; the default is the adaptive
// RMI of §3.4, which bounds leaf sizes and adapts depth to the data.
func WithStaticRMI(numModels int) Option {
	return func(c *core.Config) {
		c.RMI = core.StaticRMI
		c.NumLeafModels = numModels
	}
}

// WithMaxKeysPerLeaf bounds data node size for the adaptive RMI
// (default 4096).
func WithMaxKeysPerLeaf(n int) Option {
	return func(c *core.Config) { c.MaxKeysPerLeaf = n }
}

// WithSplitOnInsert enables node splitting on inserts (§3.4.2),
// recommended when the key distribution shifts over time.
func WithSplitOnInsert() Option {
	return func(c *core.Config) { c.SplitOnInsert = true }
}

// WithSplitFanout sets the fanout budget of a node split (default 4):
// the split planner may choose any power of two up to it, or nest
// deeper where the modeled cost is lower.
func WithSplitFanout(n int) Option {
	return func(c *core.Config) { c.SplitFanout = n }
}

// WithDensity sets the gapped array's upper density limit d directly.
func WithDensity(d float64) Option {
	return func(c *core.Config) { c.Density = d }
}

// WithSpaceOverhead sets the gapped array density from a target data
// space overhead (Fig 10): 0.43 reproduces the paper's default
// (B+Tree-comparable), larger values trade memory for throughput.
func WithSpaceOverhead(overhead float64) Option {
	return func(c *core.Config) { c.Density = gapped.DensityForOverhead(overhead) }
}

// WithPayloadBytes sets the payload size used in data-size accounting
// (default 8; the paper's YCSB dataset uses 80).
func WithPayloadBytes(n int) Option {
	return func(c *core.Config) { c.PayloadBytes = n }
}

// Index is an updatable adaptive learned index from float64 keys to
// uint64 payloads.
type Index struct {
	t *core.Tree
}

func buildConfig(opts []Option) core.Config {
	var cfg core.Config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// New returns an empty index (a "cold start": it grows by node
// expansion and, with WithSplitOnInsert, node splitting).
func New(opts ...Option) *Index {
	return &Index{t: core.New(buildConfig(opts))}
}

// Load bulk loads an index. keys need not be sorted; duplicates are
// rejected. payloads may be nil.
func Load(keys []float64, payloads []uint64, opts ...Option) (*Index, error) {
	t, err := core.BulkLoad(keys, payloads, buildConfig(opts))
	if err != nil {
		return nil, err
	}
	return &Index{t: t}, nil
}

// LoadSorted bulk loads from keys that are already sorted and unique,
// skipping the sort and the duplicate check.
func LoadSorted(keys []float64, payloads []uint64, opts ...Option) *Index {
	return &Index{t: core.BulkLoadSorted(keys, payloads, buildConfig(opts))}
}

// Get returns the payload stored for key.
func (ix *Index) Get(key float64) (uint64, bool) { return ix.t.Get(key) }

// Contains reports whether key is present.
func (ix *Index) Contains(key float64) bool { return ix.t.Contains(key) }

// Insert adds key with payload, reporting whether a new element was
// added; inserting an existing key overwrites its payload and returns
// false. Keys must be finite.
func (ix *Index) Insert(key float64, payload uint64) bool { return ix.t.Insert(key, payload) }

// Delete removes key, reporting whether it was present.
func (ix *Index) Delete(key float64) bool { return ix.t.Delete(key) }

// Update overwrites the payload of an existing key.
func (ix *Index) Update(key float64, payload uint64) bool { return ix.t.Update(key, payload) }

// GetBatch looks up many keys at once. It returns parallel slices:
// payloads[i] and found[i] describe keys[i]. Keys may come in any
// order: they are resolved in small lockstep groups — every key's
// descent, then every key's in-leaf search, then every payload — so
// their cache misses overlap.
func (ix *Index) GetBatch(keys []float64) (payloads []uint64, found []bool) {
	return ix.t.GetBatch(keys)
}

// GetBatchInto is GetBatch into caller-supplied result slices:
// payloads and found must have len(keys) elements and every slot is
// overwritten. It is the zero-allocation form: the lockstep groups live
// on the stack.
func (ix *Index) GetBatchInto(keys []float64, payloads []uint64, found []bool) {
	ix.t.GetBatchInto(keys, payloads, found)
}

// InsertBatch adds many key/payload pairs, returning how many keys were
// new. Existing keys have their payloads overwritten, and a key
// duplicated within the batch keeps its last payload — the same end
// state as the equivalent loop of Insert calls. A non-decreasing batch
// pays one descent per data node and at most one expand/retrain/split
// decision per node; unsorted batches fall back to per-key inserts.
// len(payloads) must equal len(keys); keys must be finite.
func (ix *Index) InsertBatch(keys []float64, payloads []uint64) int {
	return ix.t.InsertBatch(keys, payloads)
}

// DeleteBatch removes many keys at once, returning how many were
// present. A non-decreasing batch shares one descent per data node and
// applies contraction policies once per batch; unsorted batches fall
// back to per-key deletes.
func (ix *Index) DeleteBatch(keys []float64) int { return ix.t.DeleteBatch(keys) }

// Merge bulk-merges key/payload pairs, returning how many keys were
// new. It is the fastest way to add a large batch: every touched data
// node is rebuilt once from a sorted merge of its elements and its
// slice of the batch — one retrain per node, no per-key shifting — so
// large batches approach bulk-load speed. Unsorted input is sorted
// first (the last occurrence of a duplicated key wins); merging into
// an empty index is exactly a bulk load. payloads may be nil.
func (ix *Index) Merge(keys []float64, payloads []uint64) int { return ix.t.Merge(keys, payloads) }

// Len returns the number of stored elements.
func (ix *Index) Len() int { return ix.t.Len() }

// Scan visits elements with key >= start in ascending key order until
// visit returns false; it returns the number of elements visited.
func (ix *Index) Scan(start float64, visit func(key float64, payload uint64) bool) int {
	return ix.t.Scan(start, visit)
}

// ScanN collects up to max elements starting from the first key >= start.
func (ix *Index) ScanN(start float64, max int) ([]float64, []uint64) {
	return ix.t.ScanN(start, max)
}

// ScanNInto is ScanN appending into caller-supplied slices (reset to
// length 0 first) and returning them; with capacity for max elements
// the whole scan allocates nothing.
func (ix *Index) ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64) {
	return ix.t.ScanNInto(start, max, keys, payloads)
}

// ScanRange visits all elements with start <= key < end in order.
// Empty or unordered ranges (end <= start, NaN bounds) visit nothing.
func (ix *Index) ScanRange(start, end float64, visit func(key float64, payload uint64) bool) int {
	if !(start < end) {
		return 0
	}
	n := 0
	ix.t.Scan(start, func(k float64, v uint64) bool {
		if k >= end {
			return false
		}
		n++
		return visit(k, v)
	})
	return n
}

// Iterator is a stateful cursor over the index in ascending key order.
// Mutating the index invalidates outstanding iterators.
type Iterator = core.Iterator

// Iter returns a cursor positioned before the first element.
func (ix *Index) Iter() *Iterator { return ix.t.Iter() }

// IterFrom returns a cursor positioned before the first element whose
// key is >= start.
func (ix *Index) IterFrom(start float64) *Iterator { return ix.t.IterFrom(start) }

// MinKey returns the smallest key.
func (ix *Index) MinKey() (float64, bool) { return ix.t.MinKey() }

// MaxKey returns the largest key.
func (ix *Index) MaxKey() (float64, bool) { return ix.t.MaxKey() }

// Height returns the number of tree levels (a lone data node is 1).
func (ix *Index) Height() int { return ix.t.Height() }

// IndexSizeBytes accounts the RMI structure: models, child pointers and
// node metadata — the quantity Fig 4e-4h compares against B+Tree inner
// nodes.
func (ix *Index) IndexSizeBytes() int { return ix.t.IndexSizeBytes() }

// DataSizeBytes accounts data node storage: key/payload arrays including
// gaps, plus occupancy bitmaps.
func (ix *Index) DataSizeBytes() int { return ix.t.DataSizeBytes() }

// Stats returns aggregated work counters and structural counts.
func (ix *Index) Stats() Stats { return ix.t.Stats() }

// PredictionError returns the RMI's absolute position prediction error
// for an existing key — the quantity of the paper's Fig 7.
func (ix *Index) PredictionError(key float64) (int, bool) { return ix.t.PredictionError(key) }

// LeafSizes returns the key count of every data node, left to right.
func (ix *Index) LeafSizes() []int { return ix.t.LeafSizes() }

// Rebuild reconstructs the whole index from its current contents
// through the cost-optimal fanout-tree planner, for the static RMI
// too. Incremental growth — merges, splits, expansions — optimizes
// one node at a time; Rebuild re-plans globally, restoring
// bulk-load-quality structure after the tree has drifted far from its
// loaded shape (it is what recovery uses after replaying a large log
// tail).
func (ix *Index) Rebuild() { ix.t.RebuildCostOptimal() }

// CheckInvariants verifies the structural invariants of the whole tree;
// it is meant for tests and debugging and costs a full traversal.
func (ix *Index) CheckInvariants() error { return ix.t.CheckInvariants() }

// WriteTo serializes the index to w as a sorted run: its configuration,
// then every element in key order, then a checksum (docs/formats.md).
// The shape is not saved: ReadFrom bulk-loads the elements, so a round
// trip restores a freshly planned index with identical contents.
func (ix *Index) WriteTo(w io.Writer) (int64, error) { return ix.t.WriteTo(w) }

// ReadFrom deserializes an index written with WriteTo — by this build
// or, in the older shape-carrying format, by an earlier one — by
// bulk-loading its elements. Corrupt or truncated streams are rejected
// with an error wrapping core.ErrBadFormat.
func ReadFrom(r io.Reader) (*Index, error) {
	t, err := core.ReadFrom(r)
	if err != nil {
		return nil, err
	}
	return &Index{t: t}, nil
}
