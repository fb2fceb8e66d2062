// Package gapped implements ALEX's Gapped Array data node layout
// (§3.3.1, Algorithm 1): a model-based array whose gaps are distributed
// "naturally" by inserting each key at the position its linear model
// predicts. When the density of the array reaches the upper limit d, the
// array expands by a factor of 1/d, retrains its model, and re-inserts
// every element model-based (Algorithm 3), restoring density d².
//
// The layout is search-optimized: keys sit at (or very near) their
// predicted positions, so exponential search terminates in a few probes.
// Its weakness is the fully-packed region (Fig 3): worst-case O(n)
// shifts when the model crams many keys into one contiguous run.
package gapped

import (
	"fmt"
	"math"

	"repro/internal/leafbase"
)

// DefaultDensity is the upper density limit d tuned, per §5.1, so that
// data storage overhead is around 43%, comparable to a B+Tree: densities
// cycle in [d², d] with d = 0.8, averaging ≈0.72 occupancy.
const DefaultDensity = 0.8

// MinDensity is the smallest density limit DensityForOverhead returns,
// and the one a snapshot with a lower limit reopens with. A fresh node
// allocates n/d² slots, so below it the space overhead (above 200×)
// stops being a tuning choice.
const MinDensity = 0.05

// minCapacity keeps degenerate nodes from thrashing expansions.
const minCapacity = 4

// Config parameterizes a gapped array node.
type Config struct {
	// Density is the upper density limit d in (0, 1]. The array expands
	// by 1/d when an insert would cross it; initial and post-expansion
	// density is d².
	Density float64
	// LowDensity, when > 0, triggers contraction after deletes once the
	// density falls below it. Defaults to d²/4.
	LowDensity float64
}

func (c Config) withDefaults() Config {
	if c.Density <= 0 || c.Density > 1 {
		c.Density = DefaultDensity
	}
	if c.LowDensity <= 0 {
		c.LowDensity = c.Density * c.Density / 4
	}
	if c.LowDensity >= c.Density*c.Density {
		c.LowDensity = c.Density * c.Density / 2
	}
	return c
}

// DensityForOverhead returns the density limit d that yields the given
// average data space overhead (Fig 10): overhead 0.43 means allocated
// space ≈ 1.43× the minimum, i.e. average density 1/1.43. Densities
// cycle between d² (fresh) and d (full), so the average is (d+d²)/2.
func DensityForOverhead(overhead float64) float64 {
	if overhead <= 0 {
		return 1
	}
	target := 1 / (1 + overhead) // desired average density
	// Solve (d + d²)/2 = target for d in (0, 1].
	d := (math.Sqrt(1+8*target) - 1) / 2
	if d > 1 {
		d = 1
	}
	if d < MinDensity {
		d = MinDensity
	}
	return d
}

// Array is a gapped array data node. The zero value is unusable; use New
// or NewFromSorted.
type Array struct {
	leafbase.Base
	cfg Config
}

// New returns an empty gapped array.
func New(cfg Config) *Array {
	a := &Array{cfg: cfg.withDefaults()}
	a.Base.Init(minCapacity)
	return a
}

// NewFromSorted bulk-loads a node from sorted unique keys. The initial
// capacity is n/d² (§3.3.1: "allocating an array of length c*n such that
// the density is also d²").
func NewFromSorted(keys []float64, payloads []uint64, cfg Config) *Array {
	a := &Array{cfg: cfg.withDefaults()}
	a.Base.BuildFromSorted(keys, payloads, a.initialCapacity(len(keys)))
	return a
}

func (a *Array) initialCapacity(n int) int {
	d2 := a.cfg.Density * a.cfg.Density
	capacity := int(math.Ceil(float64(n) / d2))
	if capacity < minCapacity {
		capacity = minCapacity
	}
	return capacity
}

// Config returns the node's configuration.
func (a *Array) Config() Config { return a.cfg }

// Insert adds key with payload, expanding first if the insert would cross
// the density limit (Algorithm 1). It reports whether a new element was
// added; inserting an existing key overwrites its payload and returns
// false.
func (a *Array) Insert(key float64, payload uint64) bool {
	if math.IsNaN(key) || math.IsInf(key, 0) {
		panic("gapped: key must be finite")
	}
	if float64(a.NumKeys+1) > a.cfg.Density*float64(a.Cap()) {
		a.Expand()
	}
	switch a.PlaceModelBased(key, payload) {
	case leafbase.Inserted:
		return true
	case leafbase.Duplicate:
		return false
	default:
		// Full despite the density check (tiny nodes): force an expansion.
		a.Expand()
		if a.PlaceModelBased(key, payload) == leafbase.NeedRoom {
			panic("gapped: insert failed after expansion")
		}
		return true
	}
}

// Expand grows the array by 1/d and redistributes all elements
// model-based (Algorithm 3), restoring density to about d².
func (a *Array) Expand() {
	newCap := int(math.Ceil(float64(a.Cap()) / a.cfg.Density))
	if newCap <= a.Cap() {
		newCap = a.Cap() + 1
	}
	a.Stats.Expands++
	a.RebuildModelBased(newCap)
}

// Retrain rebuilds the node at the bulk-load capacity (density d²) with
// a fresh model — the §4 cost-model action the tree takes when the
// node's prediction-error bound says searches have drifted (see
// leafbase.RetrainAdvised). It is exactly the rebuild an expansion
// performs, minus the growth.
func (a *Array) Retrain() {
	a.RebuildModelBased(a.initialCapacity(a.NumKeys))
}

// Delete removes key; when the density drops below the lower bound the
// node contracts back to density d² (§3.2: "nodes can also contract upon
// deletes, and the models are retrained in the same way").
func (a *Array) Delete(key float64) bool {
	if !a.Base.Delete(key) {
		return false
	}
	if a.Cap() > minCapacity && a.Density() < a.cfg.LowDensity {
		a.Stats.Contracts++
		a.RebuildModelBased(a.initialCapacity(a.NumKeys))
	}
	return true
}

// FullyPackedRegions returns the number and maximum length of maximal
// gap-free runs of at least minRun occupied slots — the pathology of
// Fig 3 that makes worst-case inserts O(n).
func (a *Array) FullyPackedRegions(minRun int) (count, maxLen int) {
	run := 0
	for i := 0; i < a.Cap(); i++ {
		if a.Occ.Test(i) {
			run++
			continue
		}
		if run >= minRun {
			count++
		}
		if run > maxLen {
			maxLen = run
		}
		run = 0
	}
	if run >= minRun {
		count++
	}
	if run > maxLen {
		maxLen = run
	}
	return count, maxLen
}

// CheckInvariants verifies base invariants plus the density limit.
func (a *Array) CheckInvariants() error {
	if err := a.Base.CheckInvariants(); err != nil {
		return err
	}
	if a.Cap() > minCapacity && a.NumKeys > 0 {
		if d := a.Density(); d > a.cfg.Density+1e-9 {
			return fmt.Errorf("%w: density %.3f exceeds limit %.3f", leafbase.ErrInvariant, d, a.cfg.Density)
		}
	}
	return nil
}
