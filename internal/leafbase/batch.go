package leafbase

// This file implements the data-node half of the batch write API:
// amortized multi-key primitives that the tree layer invokes once per
// leaf after grouping a sorted batch by destination node. The main
// amortization is the merge rebuild, which replaces per-key shifting
// with one model retrain and one model-based placement pass
// (Algorithm 3 run once for the whole batch instead of once per
// expansion). Batch reads need no node-level primitive: the tree
// resolves them with Find, key by key.

// MergeSorted merges a non-decreasing batch with the node's current
// elements into fresh sorted slices, without touching the node. A batch
// key equal to an existing key overwrites its payload; within the batch
// the last occurrence of a duplicated key wins. added is the number of
// batch keys that were not already present. The caller rebuilds the
// node from the returned slices with its own capacity policy.
func (b *Base) MergeSorted(keys []float64, payloads []uint64) (mk []float64, mp []uint64, added int) {
	ek, ep := b.Collect(nil, nil)
	mk = make([]float64, 0, len(ek)+len(keys))
	mp = make([]uint64, 0, len(ek)+len(keys))
	i, j := 0, 0
	for i < len(ek) && j < len(keys) {
		// Collapse an intra-batch duplicate run to its last occurrence.
		for j+1 < len(keys) && keys[j+1] == keys[j] {
			j++
		}
		switch {
		case ek[i] < keys[j]:
			mk = append(mk, ek[i])
			mp = append(mp, ep[i])
			i++
		case ek[i] > keys[j]:
			mk = append(mk, keys[j])
			mp = append(mp, payloads[j])
			j++
			added++
		default:
			mk = append(mk, keys[j])
			mp = append(mp, payloads[j])
			i++
			j++
		}
	}
	mk = append(mk, ek[i:]...)
	mp = append(mp, ep[i:]...)
	for j < len(keys) {
		for j+1 < len(keys) && keys[j+1] == keys[j] {
			j++
		}
		mk = append(mk, keys[j])
		mp = append(mp, payloads[j])
		j++
		added++
	}
	return mk, mp, added
}

// DeleteSortedNoRepack removes every present key of a non-decreasing
// batch, returning how many were removed. It never contracts the node;
// the gapped array wraps it and applies its contraction policy once per
// batch instead of once per key.
func (b *Base) DeleteSortedNoRepack(keys []float64) int {
	n := 0
	for _, k := range keys {
		if b.Delete(k) {
			n++
		}
	}
	return n
}
