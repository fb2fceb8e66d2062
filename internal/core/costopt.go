package core

import (
	"repro/internal/costmodel"
	"repro/internal/gapped"
)

// planParams derives the cost-model parameters from the tree's
// configuration: the leaf bound and the expected post-build occupancy,
// d² for the gapped array's n/d² build capacity.
func (t *Tree) planParams() costmodel.Params {
	d := t.cfg.Density
	if d <= 0 || d > 1 {
		d = gapped.DefaultDensity
	}
	return costmodel.Params{
		MaxKeysPerLeaf: t.cfg.MaxKeysPerLeaf,
		Density:        d * d,
	}
}

// buildCostOptimal builds the subtree for the sorted segment through
// the fanout-tree planner.
func (t *Tree) buildCostOptimal(keys []float64, payloads []uint64) *node {
	return t.buildFromPlan(keys, payloads, t.planParams().NewPlan(keys), 0)
}

// buildFromPlan materializes a fanout-tree plan into nodes. Repeated
// child-plan pointers (the planner's merged undersized partitions)
// become repeated child-node pointers, the same sharing convention
// splitLeaf's fallback partition uses.
func (t *Tree) buildFromPlan(keys []float64, payloads []uint64, pl *costmodel.Plan, depth int) *node {
	if pl.Children == nil || depth >= maxBuildDepth {
		return t.newLeaf(keys[pl.Lo:pl.Hi], payloads[pl.Lo:pl.Hi])
	}
	inner := newInner(pl.Model, len(pl.Children))
	var lastPlan *costmodel.Plan
	var lastNode *node
	for i, c := range pl.Children {
		if c == lastPlan {
			inner.children[i].Store(lastNode)
			continue
		}
		nd := t.buildFromPlan(keys, payloads, c, depth+1)
		inner.children[i].Store(nd)
		lastPlan, lastNode = c, nd
	}
	return inner
}

// RebuildCostOptimal rebuilds the whole tree through the fanout-tree
// planner, for the static RMI too: the recovery path calls it after
// heavy coalesced replay left the tree shaped by incremental merges
// rather than by a plan. The replacement is built
// completely off to the side and published with two atomic stores
// (root, then head), so concurrent lock-free readers observe either
// the old intact tree or the new one. Caller must hold the writer's
// exclusion.
func (t *Tree) RebuildCostOptimal() {
	keys := make([]float64, 0, t.count)
	payloads := make([]uint64, 0, t.count)
	for l := t.head.Load(); l != nil; l = l.next.Load() {
		keys, payloads = l.data().Collect(keys, payloads)
		t.replaced.Add(&l.data().Stats)
	}
	var root *node
	if len(keys) == 0 {
		root = t.newLeaf(nil, nil)
	} else {
		root = t.buildCostOptimal(keys, payloads)
	}
	head, _ := linkChain(root)
	t.root.Store(root)
	t.head.Store(head)
}
