package core

import (
	"math"
	"sort"

	"repro/internal/gapped"
)

// This file implements the tree half of the batch API. For writes the
// point of batching is amortization across every layer the single-key
// path pays per key: one RMI descent per *leaf group* instead of per
// key, and at most one expand/retrain/split decision per node per batch
// instead of per insert. The grouping pass visits each inner node on
// the batch's route once, partitioning the sorted keys among its
// children by the same monotone model the single-key path routes with,
// so the batch and looped results are always identical in content.
// Reads amortize nothing (see GetBatchInto); they overlap cache misses.

// leafGroup is a contiguous run keys[lo:hi] of a sorted batch that
// routes to one data node.
type leafGroup struct {
	leaf   *node
	parent *node
	lo, hi int
}

// groupSorted partitions a non-decreasing key batch by destination
// leaf. Inner-node models have non-negative slope (partition enforces
// it), so a child's key run is contiguous in the sorted batch and each
// boundary is found with a binary search over the batch — O(L log B)
// model evaluations for a batch of B keys spanning L leaves, instead
// of B full descents. Writer-side only: it assumes the child slots are
// stable while it runs.
func (t *Tree) groupSorted(keys []float64) []leafGroup {
	groups := make([]leafGroup, 0, 8)
	var descend func(c, parent *node, ks []float64, base int)
	descend = func(c, parent *node, ks []float64, base int) {
		for {
			if c.isLeaf() {
				groups = append(groups, leafGroup{c, parent, base, base + len(ks)})
				return
			}
			n := c
			p := len(n.children)
			first := n.model.PredictClamped(ks[0], p)
			last := n.model.PredictClamped(ks[len(ks)-1], p)
			if n.children[first].Load() == n.children[last].Load() {
				// One child takes the whole run (a shared child always
				// occupies a contiguous slot range): descend iteratively.
				parent = n
				c = n.children[first].Load()
				continue
			}
			i, idx := 0, first
			for i < len(ks) {
				// Slots [idx, run] all point at the same child; keys
				// predicted into any of them form one group.
				cur := n.children[idx].Load()
				run := idx
				for run+1 < p && n.children[run+1].Load() == cur {
					run++
				}
				j := i + sort.Search(len(ks)-i, func(k int) bool {
					return n.model.PredictClamped(ks[i+k], p) > run
				})
				descend(cur, n, ks[i:j], base+i)
				i = j
				if i < len(ks) {
					idx = n.model.PredictClamped(ks[i], p)
				}
			}
			return
		}
	}
	if len(keys) > 0 {
		descend(t.root.Load(), nil, keys, 0)
	}
	return groups
}

// GetBatch looks up many keys at once, returning parallel payload and
// found slices; see GetBatchInto.
func (t *Tree) GetBatch(keys []float64) ([]uint64, []bool) {
	vals := make([]uint64, len(keys))
	found := make([]bool, len(keys))
	t.GetBatchInto(keys, vals, found)
	return vals, found
}

// lookupGroup is how many keys GetBatchInto resolves in lockstep: enough
// independent probes to keep the CPU's outstanding misses busy, few
// enough that the per-group leaf array stays on the stack.
const lookupGroup = 32

// GetBatchInto is GetBatch into caller-supplied result slices (vals[i],
// found[i] describe keys[i]; both must have len(keys) elements — every
// slot is overwritten). It performs no allocations and serves every key
// order alike.
//
// A point lookup is a chain of dependent cache misses — inner nodes,
// the leaf header, the predicted slot — so batching saves nothing by
// sharing descents: a real batch scatters over far more leaves than it
// has keys per leaf. What it can do is overlap the misses of
// independent keys (group prefetching, Chen et al. ICDE 2004): each
// group of lookupGroup keys is resolved in two lockstep passes —
// descend every key to its leaf array, then probe every key, which
// reads its payload from the slot the key compare hit — so one key's
// miss is in flight while the next key's probe issues. Each pass is
// exactly Get's step, torn-probe guards included: a nil leaf is a miss,
// and Lookup's unsigned bound check keeps the probe in bounds.
func (t *Tree) GetBatchInto(keys []float64, vals []uint64, found []bool) {
	if len(vals) != len(keys) || len(found) != len(keys) {
		panic("core: GetBatchInto result slices must have len(keys)")
	}
	var leaves [lookupGroup]*gapped.Array
	for lo := 0; lo < len(keys); lo += lookupGroup {
		ks := keys[lo:min(lo+lookupGroup, len(keys))]
		vs, fs := vals[lo:lo+len(ks)], found[lo:lo+len(ks)]
		for i, k := range ks {
			leaves[i] = nil
			leaf := t.leafFor(k)
			if leaf == nil {
				continue // torn optimistic probe; see leafFor
			}
			if g := leaf.ga.Load(); g != nil {
				leaves[i] = g
			}
		}
		for i, k := range ks {
			vs[i], fs[i] = 0, false
			if b := leaves[i]; b != nil {
				vs[i], fs[i] = b.Lookup(k)
			}
		}
	}
}

// InsertBatch adds many key/payload pairs, returning how many keys were
// new (existing keys have their payloads overwritten, and a key
// duplicated within the batch keeps its last payload — the same end
// state a loop of single Inserts reaches). A non-decreasing batch is
// grouped by destination leaf, with at most one expand/retrain/split
// decision per node per batch; other batches fall back to per-key
// inserts. len(payloads) must equal len(keys).
func (t *Tree) InsertBatch(keys []float64, payloads []uint64) int {
	if len(payloads) != len(keys) {
		panic("core: InsertBatch len(payloads) != len(keys)")
	}
	if len(keys) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(keys) {
		n := 0
		for i := range keys {
			if t.Insert(keys[i], payloads[i]) {
				n++
			}
		}
		return n
	}
	return t.insertSorted(keys, payloads)
}

// insertSorted inserts an already-sorted batch group by group. A leaf
// at the split bound is split once and its group re-routed through the
// fresh subtree; the split distributes the leaf's keys across several
// children, so re-routed groups sit below the bound and the recursion
// terminates after one level.
func (t *Tree) insertSorted(keys []float64, payloads []uint64) int {
	n := 0
	for _, g := range t.groupSorted(keys) {
		ks, ps := keys[g.lo:g.hi], payloads[g.lo:g.hi]
		if t.cfg.RMI == AdaptiveRMI && t.cfg.SplitOnInsert && g.leaf.data().Num() >= t.cfg.MaxKeysPerLeaf {
			if t.splitLeaf(g.leaf, g.parent) {
				n += t.insertSorted(ks, ps)
				continue
			}
		}
		added := t.leafInsertSortedBatch(g.leaf, ks, ps)
		t.count += added
		n += added
		// One cost-model decision per node per batch, like the
		// expand/retrain/split decisions the batch API amortizes.
		t.costCheck(g.leaf, g.parent)
		t.restoreLeafBound(ks)
	}
	return n
}

// restoreLeafBound re-establishes the MaxKeysPerLeaf bound over the
// leaves holding the sorted keys after a batch poured into them at
// once — the state a loop of single inserts would have reached by
// splitting at each crossing. Each over-bound leaf is split until its
// pieces fit (or until its keys cannot be partitioned). No-op unless
// split-on-insert is enabled.
func (t *Tree) restoreLeafBound(ks []float64) {
	if t.cfg.RMI != AdaptiveRMI || !t.cfg.SplitOnInsert || len(ks) == 0 {
		return
	}
	i := 0
	for i < len(ks) {
		leaf, parent := t.traverse(ks[i])
		if leaf.data().Num() > t.cfg.MaxKeysPerLeaf && t.splitLeaf(leaf, parent) {
			continue // re-check the same key against the new children
		}
		// Skip the rest of this leaf's keys.
		adv := 1
		if mx, ok := leaf.data().MaxKey(); ok {
			if a := sort.Search(len(ks)-i, func(j int) bool { return ks[i+j] > mx }); a > adv {
				adv = a
			}
		}
		i += adv
	}
}

// DeleteBatch removes many keys at once, returning how many were
// present. A non-decreasing batch shares one descent per leaf and
// applies each node's contraction policy once per batch; other batches
// fall back to per-key deletes.
func (t *Tree) DeleteBatch(keys []float64) int {
	if len(keys) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(keys) {
		n := 0
		for _, k := range keys {
			if t.Delete(k) {
				n++
			}
		}
		return n
	}
	n := 0
	for _, g := range t.groupSorted(keys) {
		d := t.leafDeleteSortedBatch(g.leaf, keys[g.lo:g.hi])
		t.count -= d
		n += d
	}
	return n
}

// Merge bulk-merges key/payload pairs into the index, returning how
// many keys were new. It is the sorted-bulk-merge fast path: every
// touched data node is rebuilt once from the merge of its current
// elements and its slice of the batch — one retrain and one
// model-based placement pass per node, no per-key shifting — so large
// batches approach bulk-load speed. Unsorted input is sorted first
// (last occurrence of a duplicated key wins); merging into an empty
// index is exactly a bulk load. payloads may be nil (zero payloads);
// otherwise len(payloads) must equal len(keys).
func (t *Tree) Merge(keys []float64, payloads []uint64) int {
	if payloads == nil {
		payloads = make([]uint64, len(keys))
	}
	if len(payloads) != len(keys) {
		panic("core: Merge len(payloads) != len(keys)")
	}
	if len(keys) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(keys) {
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		// Stable on the original order so "last occurrence wins"
		// survives the sort.
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		sk := make([]float64, len(keys))
		sp := make([]uint64, len(keys))
		for i, j := range idx {
			sk[i] = keys[j]
			sp[i] = payloads[j]
		}
		keys, payloads = sk, sp
	}
	if t.count == 0 {
		return t.mergeIntoEmpty(keys, payloads)
	}
	n := 0
	for _, g := range t.groupSorted(keys) {
		added := t.leafMergeSorted(g.leaf, keys[g.lo:g.hi], payloads[g.lo:g.hi])
		t.count += added
		n += added
		t.restoreLeafBound(keys[g.lo:g.hi])
	}
	return n
}

// mergeIntoEmpty rebuilds the whole tree from a sorted batch — merging
// into an empty index is a bulk load. The fresh root is published with
// one atomic store, so concurrent readers cut over atomically.
func (t *Tree) mergeIntoEmpty(keys []float64, payloads []uint64) int {
	uk := make([]float64, 0, len(keys))
	up := make([]uint64, 0, len(keys))
	for i := range keys {
		if i+1 < len(keys) && keys[i+1] == keys[i] {
			continue // last occurrence wins
		}
		uk = append(uk, keys[i])
		up = append(up, payloads[i])
	}
	for _, k := range uk {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			panic("core: key must be finite")
		}
	}
	nt := bulkLoadSorted(uk, up, t.cfg)
	for l := t.head.Load(); l != nil; l = l.next.Load() {
		t.replaced.Add(&l.data().Stats)
	}
	// The bulk-loaded leaves count from zero; every key they hold is
	// new, since the tree was empty.
	t.replaced.Inserts += uint64(nt.count)
	t.head.Store(nt.head.Load())
	t.root.Store(nt.root.Load())
	t.count = nt.count
	return nt.count
}
