// Package costmodel implements the §4 expected-cost model that drives
// cost-optimal tree construction: bulk load, post-recovery rebuilds,
// and cost-based node splits all plan their structure by minimizing the
// modeled cost of future operations instead of applying fixed fanout
// heuristics.
//
// The model prices the two per-operation quantities the paper
// identifies — expected search iterations (from the prediction-error
// distribution of the leaf model that would serve a segment) and
// expected shifts per insert (from the layout's gap density and the
// error-driven clustering of inserts) — plus a traverse cost per inner
// level. The planner (see Plan) builds a per-node *fanout tree*: the
// node's partition model is trained once, candidate fanouts are the
// powers of two obtained by repeatedly halving that model's range, and
// a dynamic program picks, per region, whether to stop at a data node,
// split further, or recurse into a fresh child node — merging adjacent
// undersized partitions exactly when the merged data node is modeled
// cheaper than separate ones.
//
// Training a candidate partition's model is O(1) after one prefix pass:
// Accumulator keeps running moments of (key, rank) over the node's
// sorted segment, so every sub-segment's least-squares fit is a
// difference of prefix sums. The residual statistics that feed the
// search-cost term still take one pass over the segment, so a full plan
// costs O(n · log fanout) — the same order as the build it guides.
package costmodel

import (
	"math"

	"repro/internal/gapped"
	"repro/internal/linmodel"
)

// Params configures the cost model and the fanout-tree planner. The
// zero value of every field selects a measured default, so callers only
// override what they know (typically MaxKeysPerLeaf and Density, which
// must match the tree configuration the plan will be built under).
type Params struct {
	// MaxKeysPerLeaf bounds the keys a planned data node may hold,
	// matching core.Config.MaxKeysPerLeaf. Default 4096.
	MaxKeysPerLeaf int
	// MaxFanout caps a single node's fanout at a power of two.
	// Default 1 << 14.
	MaxFanout int
	// Density is the expected post-build occupancy of a data node
	// (stored keys / allocated slots), used to translate rank-domain
	// model residuals into slot-domain search errors and to price the
	// shift distance to the nearest gap. Default 0.64 (the gapped
	// array's d² build occupancy at the paper's default d = 0.8).
	Density float64
	// TraverseCost is the modeled cost of descending one inner level:
	// one model evaluation plus one dependent pointer load. Default 2.
	TraverseCost float64
	// IterCost is the modeled cost of one exponential-search iteration
	// (a data-dependent load and branch). The other cost terms are
	// expressed relative to it. Default 1.
	IterCost float64
	// CompareCost is the modeled cost of one branch-free compare inside
	// the bounded-search window; the window runs at full out-of-order
	// width, so it is cheaper than an iteration. Default 0.25.
	CompareCost float64
	// ShiftCost is the modeled cost of moving one element while making
	// a gap for an insert. Default 0.5.
	ShiftCost float64
	// InsertFrac is the expected fraction of future operations that are
	// inserts, weighting the shift term against the search term.
	// Default 0.5.
	InsertFrac float64
	// FanoutPenalty is the per-key regularization charged for each
	// fanout doubling, modeling the larger child array and router
	// pressure; it is what stops the planner from shattering well-fit
	// regions into needless tiny leaves. Default 0.1.
	FanoutPenalty float64
	// MinLeafKeys is the segment size at or below which the planner
	// always emits a data node (cold nodes below gapped.MinModelKeys
	// binary-search anyway, so subdividing them buys nothing).
	// Default gapped.MinModelKeys.
	MinLeafKeys int
}

// WithDefaults returns p with every zero field replaced by its default.
func (p Params) WithDefaults() Params {
	if p.MaxKeysPerLeaf <= 0 {
		p.MaxKeysPerLeaf = 4096
	}
	if p.MaxFanout < 2 {
		p.MaxFanout = 1 << 14
	}
	if p.Density <= 0 || p.Density >= 1 {
		p.Density = 0.64
	}
	if p.TraverseCost <= 0 {
		p.TraverseCost = 2
	}
	if p.IterCost <= 0 {
		p.IterCost = 1
	}
	if p.CompareCost <= 0 {
		p.CompareCost = 0.25
	}
	if p.ShiftCost <= 0 {
		p.ShiftCost = 0.5
	}
	if p.InsertFrac <= 0 {
		p.InsertFrac = 0.5
	}
	if p.FanoutPenalty <= 0 {
		p.FanoutPenalty = 0.1
	}
	if p.MinLeafKeys <= 0 {
		p.MinLeafKeys = gapped.MinModelKeys
	}
	return p
}

// Accumulator holds prefix moments of (key, rank) over one sorted key
// slice, so the ordinary-least-squares model of any sub-segment
// [lo, hi) is a difference of prefix sums — O(1) per candidate
// partition instead of O(hi-lo). Keys are shifted by the slice's first
// key before accumulation to tame cancellation; segments whose variance
// still cancels catastrophically fall back to the two-pass mean-shifted
// fit (see Model).
type Accumulator struct {
	keys []float64
	off  float64   // keys[0], subtracted before accumulation
	pu   []float64 // pu[i]  = Σ_{j<i} (keys[j]-off)
	puu  []float64 // puu[i] = Σ_{j<i} (keys[j]-off)²
	pur  []float64 // pur[i] = Σ_{j<i} (keys[j]-off)·j
}

// NewAccumulator builds the prefix moments for keys, which must be
// sorted (not verified). One O(n) pass; Model is O(1) afterwards.
func NewAccumulator(keys []float64) *Accumulator {
	a := &Accumulator{
		keys: keys,
		pu:   make([]float64, len(keys)+1),
		puu:  make([]float64, len(keys)+1),
		pur:  make([]float64, len(keys)+1),
	}
	if len(keys) > 0 {
		a.off = keys[0]
	}
	var su, suu, sur float64
	for i, k := range keys {
		u := k - a.off
		su += u
		suu += u * u
		sur += u * float64(i)
		a.pu[i+1] = su
		a.puu[i+1] = suu
		a.pur[i+1] = sur
	}
	return a
}

// Model returns the least-squares rank model of keys[lo:hi] — a model
// predicting local ranks [0, hi-lo) in the original key domain, the
// same fit linmodel.TrainRange computes — in O(1) from the prefix
// moments. When the prefix-difference variance loses too much precision
// to cancellation (segments far from the slice origin with a tiny key
// range), it falls back to the two-pass fit.
func (a *Accumulator) Model(lo, hi int) linmodel.Model {
	n := hi - lo
	switch {
	case n <= 0:
		return linmodel.Model{}
	case n == 1:
		return linmodel.Model{}
	}
	fn := float64(n)
	sumU := a.pu[hi] - a.pu[lo]
	sumUU := a.puu[hi] - a.puu[lo]
	// Local ranks: Σ u·(j-lo) = Σ u·j - lo·Σ u.
	sumUR := (a.pur[hi] - a.pur[lo]) - float64(lo)*sumU
	meanU := sumU / fn
	meanR := (fn - 1) / 2
	varU := sumUU - fn*meanU*meanU
	cov := sumUR - fn*meanU*meanR
	// Relative-cancellation guard: when the surviving variance is below
	// ~1e-9 of the magnitudes that cancelled, the prefix difference has
	// lost half the mantissa; re-fit stably instead.
	if !(varU > 0) || varU < sumUU*1e-9 {
		return linmodel.TrainRange(a.keys, lo, hi)
	}
	slope := cov / varU
	// Shift back to the original key domain: rank = slope·(k-off) + b.
	return linmodel.Model{Slope: slope, Intercept: meanR - slope*meanU - slope*a.off}
}

// SegStats summarizes the prediction-error distribution of a segment's
// would-be data node model, the input to the search-cost term.
type SegStats struct {
	// Count is the number of keys in the segment.
	Count int
	// MaxErr is the maximum rank-domain residual |floor(pred) - rank|;
	// -1 for cold segments below gapped.MinModelKeys, which hold no
	// model.
	MaxErr int
	// MeanErr is the mean rank-domain residual.
	MeanErr float64
}

// statsMaxSamples caps the residual pass of Stats. The planner prices
// every DP cell with Stats, and a cell can cover thousands of keys;
// measuring every residual would make the plan's residual passes its
// dominant cost (several full passes over the input across the merge
// levels). Above this size the pass samples at a fixed stride instead:
// the mean estimate stays tight on the smooth segments where it
// matters, the max becomes a (deterministic) lower-bound estimate, and
// both are only ever used to *price* candidates — the built leaf
// measures its true error bound itself.
const statsMaxSamples = 256

// Stats trains the segment's rank model (O(1) via the prefix moments)
// and measures its residual distribution — the same quantities
// linmodel.TrainRangeBounded computes, extended with the mean the
// expected-cost terms need. Segments larger than statsMaxSamples are
// strided-sampled, so MaxErr and MeanErr are deterministic estimates
// there, not exact maxima.
func (a *Accumulator) Stats(lo, hi int) SegStats {
	n := hi - lo
	st := SegStats{Count: n, MaxErr: -1}
	if n < gapped.MinModelKeys {
		return st
	}
	stride := 1
	if n > statsMaxSamples {
		stride = (n + statsMaxSamples - 1) / statsMaxSamples
	}
	m := a.Model(lo, hi)
	st.MaxErr = 0
	var sum float64
	samples := 0
	for i := lo; i < hi; i += stride {
		e := int(math.Floor(m.Predict(a.keys[i]))) - (i - lo)
		if e < 0 {
			e = -e
		}
		if e > st.MaxErr {
			st.MaxErr = e
		}
		sum += float64(e)
		samples++
	}
	st.MeanErr = sum / float64(samples)
	return st
}

// LeafCost returns the modeled expected cost per operation of serving a
// segment with one data node: the probe's search cost — priced by the
// strategy the per-leaf error bound would select, bounded branch-free
// window for small bounds, exponential bracketing for large ones — plus
// the insert-weighted expected shift cost. Residuals are scaled from
// the rank domain to the slot domain by 1/Density, mirroring the
// capacity scaling of the model at build.
func (p Params) LeafCost(st SegStats) float64 {
	if st.Count == 0 {
		return 0
	}
	if st.MaxErr < 0 {
		// Cold node: plain binary search, negligible shifts.
		return p.IterCost * math.Log2(float64(st.Count)+1)
	}
	maxSlot := float64(st.MaxErr) / p.Density
	meanSlot := st.MeanErr / p.Density
	var search float64
	if maxSlot <= float64(gapped.BoundedSearchMaxErr) {
		// Direct predict + one-sided window of independent compares.
		search = p.IterCost + p.CompareCost*(meanSlot+1)
	} else {
		// Exponential bracketing (~log2 e probes out, ~log2 e back).
		search = p.IterCost * (1 + 2*math.Log2(meanSlot+2))
	}
	// Expected shift: distance to the nearest gap at density d plus the
	// clustering the prediction error concentrates onto popular slots.
	shift := p.ShiftCost * p.InsertFrac * (0.5*p.Density/(1-p.Density) + 0.25*meanSlot)
	return search + shift
}
