package main

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/datasets"
)

// payloadOf is the payload every key carries, so any reply can be
// checked from the key alone, without a shadow map.
func payloadOf(key float64) uint64 {
	x := math.Float64bits(key)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// An op packs a kind and an index into 32 bits: a position in
// inputs.keys (Get, Scan), in inputs.pool (Insert, Delete, MSet: the
// first of mgetKeys consecutive pool keys) or in stream.aux (MGet: the
// first of mgetKeys positions in inputs.keys).
type op uint32

const opIdxBits = 28

func mkOp(k opKind, idx int) op { return op(uint32(k)<<opIdxBits | uint32(idx)) }
func (o op) kind() opKind       { return opKind(o >> opIdxBits) }
func (o op) idx() int           { return int(o & (1<<opIdxBits - 1)) }

// stream is one client's op sequence. A client owns pool[poolLo:poolHi]
// and nobody else inserts or deletes those keys, so every reply is
// determined by the client's own history.
type stream struct {
	ops            []op
	aux            []uint32
	poolLo, poolHi int
}

// inputs is everything a run derives from (workload, seed).
type inputs struct {
	w       workload
	keys    []float64 // sorted, bulk-loaded
	vals    []uint64  // payloadOf(keys[i])
	pool    []float64 // new keys, in insertion order, partitioned by client
	streams []stream
	// preload are the pool keys a Ring workload needs present before the
	// first op (the ring's tail, which the first deletes remove).
	preload []float64
}

// keysOf returns how many keys an op of kind k touches.
func keysOf(k opKind) int {
	switch k {
	case opMGet, opMSet:
		return mgetKeys
	case opScan:
		return scanLen
	}
	return 1
}

// generate builds the inputs for opsPerClient ops per client. Ring
// workloads get one ring revolution per client instead (the runner
// replays it), so opsPerClient only sizes the other workloads. The last
// extraPool keys of the pool belong to no client (the ladder's writes).
func generate(w workload, seed int64, clients, opsPerClient, extraPool int) *inputs {
	perCycle := map[opKind]int{}
	for _, k := range w.Cycle {
		perCycle[k]++
	}
	cycles := (opsPerClient + len(w.Cycle) - 1) / len(w.Cycle)
	if w.Ring {
		cycles = max(min(cycles, 100_000), 4*ringLag)
	}
	n := cycles * len(w.Cycle)
	poolPer := cycles * (perCycle[opInsert] + perCycle[opMSet]*mgetKeys)

	in := &inputs{w: w}
	all := datasets.Generate(w.Dataset, w.Keys+poolPer*clients+extraPool, seed)
	in.keys = all[:w.Keys:w.Keys]
	sort.Float64s(in.keys)
	in.pool = all[w.Keys:]
	in.vals = make([]uint64, len(in.keys))
	for i, k := range in.keys {
		in.vals[i] = payloadOf(k)
	}

	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)*7919 + 17))
		var zipf *datasets.Zipfian
		if w.Zipfian {
			zipf = datasets.NewZipfian(rng, len(in.keys), datasets.ZipfTheta)
		}
		// Scans need scanLen keys at or above their start; inserts only
		// add keys, so any start this far from the top has them.
		pick := func(limit int) int {
			if zipf != nil {
				return zipf.Scrambled() % limit
			}
			return rng.Intn(limit)
		}
		st := stream{ops: make([]op, 0, n), poolLo: c * poolPer, poolHi: (c + 1) * poolPer}
		ins, del := st.poolLo, st.poolLo
		if w.Ring {
			del = st.poolHi - ringLag
			in.preload = append(in.preload, in.pool[del:st.poolHi]...)
		}
		for i := 0; i < n; i++ {
			switch k := w.Cycle[i%len(w.Cycle)]; k {
			case opGet:
				st.ops = append(st.ops, mkOp(k, pick(len(in.keys))))
			case opScan:
				st.ops = append(st.ops, mkOp(k, pick(len(in.keys)-scanLen)))
			case opMGet:
				st.ops = append(st.ops, mkOp(k, len(st.aux)))
				for j := 0; j < mgetKeys; j++ {
					st.aux = append(st.aux, uint32(pick(len(in.keys))))
				}
			case opInsert:
				st.ops = append(st.ops, mkOp(k, ins))
				ins++
			case opMSet:
				st.ops = append(st.ops, mkOp(k, ins))
				ins += mgetKeys
			case opDelete:
				st.ops = append(st.ops, mkOp(k, del))
				if del++; del == st.poolHi {
					del = st.poolLo
				}
			}
		}
		in.streams = append(in.streams, st)
	}
	return in
}

// liveAfter returns the pool keys present after a client has executed
// the first done ops of its stream passes times over plus done more
// (Ring streams are replayed; others run at most once).
func (in *inputs) liveAfter(c, done int) []float64 {
	st := &in.streams[c]
	if in.w.Ring {
		// One revolution restores the ring, so only the partial pass
		// matters: replay its inserts and deletes over the preload.
		live := map[int]bool{}
		for i := st.poolHi - ringLag; i < st.poolHi; i++ {
			live[i] = true
		}
		for _, o := range st.ops[:done%len(st.ops)] {
			switch o.kind() {
			case opInsert:
				live[o.idx()] = true
			case opDelete:
				delete(live, o.idx())
			}
		}
		out := make([]float64, 0, len(live))
		for i := range live {
			out = append(out, in.pool[i])
		}
		sort.Float64s(out)
		return out
	}
	hi := st.poolLo
	for _, o := range st.ops[:done] {
		switch o.kind() {
		case opInsert:
			hi = o.idx() + 1
		case opMSet:
			hi = o.idx() + mgetKeys
		}
	}
	return in.pool[st.poolLo:hi]
}
