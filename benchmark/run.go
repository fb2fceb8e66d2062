package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	alex "repro"
	"repro/internal/btree"
)

// runner holds what every run of one workload shares.
type runner struct {
	w       workload
	repS    float64 // measured seconds one repetition is sized for
	clients int
	spawn   spawnFunc
	tmp     string // scratch directory for data dirs
	in      *inputs
	plan    plan
	keygenS float64
}

// plan is the fixed op count of each phase, per client.
type plan struct {
	warm   int
	closed int
	open   []int           // one entry per open-loop rate
	rates  []float64       // ops/s over all clients
	openD  []time.Duration // nominal length of each open-loop phase
	ratio  int             // ops of the ALEX-vs-B+tree replay (client 0's stream)
}

func (p plan) perClient() int {
	n := p.warm + p.closed
	for _, o := range p.open {
		n += o
	}
	return max(n, p.ratio)
}

// clientCount is C = min(nproc, 4): connections for net workloads,
// goroutines for lib ones.
func clientCount() int { return min(runtime.NumCPU(), 4) }

// newRunner sizes the phases and generates the inputs. repS is the
// measured time one repetition gets and ratioS the head-to-head
// replay's; net selects the TCP transport; rateMul lists the open-loop
// rates as multiples of RateBase; extraPool reserves new keys for the
// ladder.
func newRunner(w workload, seed int64, repS, ratioS float64, net bool, rateMul []float64, extraPool int, spawn spawnFunc, tmp string) *runner {
	r := &runner{w: w, repS: repS, clients: clientCount(), spawn: spawn, tmp: tmp}
	closedS, openS := repS, 0.0
	if len(rateMul) > 0 {
		openS = repS * openShare / float64(len(rateMul))
		closedS = repS * (1 - openShare)
	}
	closedRate := w.ClosedRate
	if net && w.Transport == "lib" {
		// A lib workload driven over TCP (traced runs only): its own
		// ClosedRate is the in-process one, so size the closed loop
		// from the TCP rate, which RateBase is 40% of.
		closedRate = w.RateBase / 0.4
	}
	p := plan{closed: max(int(closedRate*closedS)/r.clients, 64)}
	for _, m := range rateMul {
		rate := w.RateBase * m
		p.rates = append(p.rates, rate)
		p.open = append(p.open, max(int(rate*openS)/r.clients, 16))
		p.openD = append(p.openD, time.Duration(openS*float64(time.Second)))
	}
	p.warm = max(p.perClient()/100, 16)
	if ratioS > 0 {
		p.ratio = max(int(w.RatioRate*ratioS), 256)
	}
	r.plan = p

	t0 := time.Now()
	r.in = generate(w, seed, r.clients, p.perClient(), extraPool)
	r.keygenS = time.Since(t0).Seconds()
	return r
}

// repResult is one repetition: a fresh system, set up, measured,
// checked and torn down.
type repResult struct {
	setupS           float64
	closedOps        int
	closedS          float64
	closedKeys       int
	cpuPerOpUs       float64
	lat              [2][]int64   // closed-loop latencies, ns; [0] reads, [1] writes
	open             []openResult // one per open-loop rate
	bytesPerKey      float64
	attempted        int
	failed           int
	firstErr         string
	recoverS         float64
	checkpoints      int
	writeAmp         float64
	rssPeakMB        float64
	mgetP50, scanP50 float64
}

type openResult struct {
	rate    float64
	lat     [2][]int64
	late    []int64
	backlog int
	ops     int
}

func (rr *repResult) absorb(cs []clientResult, lat *[2][]int64) {
	for i := range cs {
		c := &cs[i]
		rr.failed += c.failed
		if rr.firstErr == "" {
			rr.firstErr = c.firstErr
		}
		if lat != nil {
			lat[0] = append(lat[0], c.lat[0]...)
			lat[1] = append(lat[1], c.lat[1]...)
		}
	}
}

func (rr *repResult) check(ok bool, format string, args ...any) {
	rr.attempted++
	if !ok {
		rr.failed++
		if rr.firstErr == "" {
			rr.firstErr = fmt.Sprintf(format, args...)
		}
	}
}

// parallel runs f(c) for every client and waits.
func (r *runner) parallel(f func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// libSampleEvery is how often the in-process closed loop times a call:
// often enough for a p99, rarely enough that the two clock reads do not
// show in the throughput, and prime so it visits every position of
// every Cycle.
const libSampleEvery = 31

// libRep loads a fresh ShardedIndex and runs the closed loop on it.
func (r *runner) libRep() (repResult, error) {
	var rr repResult
	in, p := r.in, r.plan
	t0 := time.Now()
	ix, err := alex.LoadSharded(r.clients, in.keys, in.vals, alex.WithSplitOnInsert())
	if err != nil {
		return rr, err
	}
	if len(in.preload) > 0 {
		vs := make([]uint64, len(in.preload))
		for i, k := range in.preload {
			vs[i] = payloadOf(k)
		}
		ix.InsertBatch(in.preload, vs)
	}
	far := time.Now().Add(time.Hour)
	warm := make([]clientResult, r.clients)
	r.parallel(func(c int) {
		closedLoop(newLibClient(ix, in, c, &warm[c]), &in.streams[c], 0, p.warm, 1<<30, far, &warm[c])
	})
	rr.setupS = time.Since(t0).Seconds()
	rr.absorb(warm, nil)

	cs := make([]clientResult, r.clients)
	for c := range cs {
		cs[c].lat[0] = make([]int64, 0, p.closed/libSampleEvery+1)
	}
	deadline := time.Now().Add(time.Duration(4 * r.repS * float64(time.Second)))
	t1 := time.Now()
	r.parallel(func(c int) {
		closedLoop(newLibClient(ix, in, c, &cs[c]), &in.streams[c], p.warm, p.closed, libSampleEvery, deadline, &cs[c])
	})
	rr.closedS = time.Since(t1).Seconds()
	rr.absorb(cs, &rr.lat)
	for c := range cs {
		rr.closedOps += cs[c].done - p.warm
	}
	rr.attempted = rr.closedOps + r.clients*p.warm

	// Final state: every key the streams left behind is there, with its
	// payload, and nothing else is.
	want := len(in.keys)
	for c := range cs {
		live := in.liveAfter(c, cs[c].done)
		want += len(live)
		vals, found := ix.GetBatch(live)
		for i, k := range live {
			rr.check(found[i] && vals[i] == payloadOf(k), "after the run, key %v inserted by client %d is missing or wrong", k, c)
		}
	}
	rr.check(ix.Len() == want, "Len = %d after the run, want %d", ix.Len(), want)
	rr.bytesPerKey = float64(ix.IndexSizeBytes()+ix.DataSizeBytes()) / float64(ix.Len())
	return rr, nil
}

// netRep seeds a data dir, starts alexkv on it and drives it over TCP:
// closed loop, then one open-loop phase per rate, then SIGKILL, restart
// and read-back of every acknowledged write.
func (r *runner) netRep(probes bool) (rr repResult, err error) {
	in, p := r.in, r.plan
	dir, err := os.MkdirTemp(r.tmp, "data-")
	if err != nil {
		return rr, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	if err := seedDataDir(dir, in.keys, in.vals, r.clients); err != nil {
		return rr, err
	}
	be, err := r.spawn(dir, r.w.CheckpointEvery, r.clients)
	if err != nil {
		return rr, err
	}
	defer func() { be.kill() }()
	conns, ctl, err := r.connect(be.addr(), r.clients)
	if err != nil {
		return rr, err
	}
	defer closeAll(conns, ctl)
	var ctlRes clientResult
	ctl.r = &ctlRes
	for i := 0; i < len(in.preload); i += mgetKeys {
		ctl.mset(in.preload[i : i+mgetKeys])
	}
	warm := make([]clientResult, r.clients)
	far := time.Now().Add(time.Hour)
	r.parallel(func(c int) {
		conns[c].r = &warm[c]
		closedLoop(conns[c], &in.streams[c], 0, p.warm, 1, far, &warm[c])
	})
	rr.setupS = time.Since(t0).Seconds()
	rr.absorb(warm, nil)
	rr.attempted += r.clients * p.warm

	// Closed loop: C connections, each sends its next request when the
	// reply to the last one has arrived.
	cs := make([]clientResult, r.clients)
	deadline := time.Now().Add(time.Duration(4 * r.repS * float64(time.Second)))
	cpu0, t1 := be.cpu(), time.Now()
	r.parallel(func(c int) {
		conns[c].r = &cs[c]
		closedLoop(conns[c], &in.streams[c], p.warm, p.closed, 1, deadline, &cs[c])
	})
	rr.closedS = time.Since(t1).Seconds()
	cpu1 := be.cpu()
	pos := make([]int, r.clients)
	rr.absorb(cs, &rr.lat)
	for c := range cs {
		pos[c] = cs[c].done
		rr.closedOps += cs[c].done - p.warm
		rr.closedKeys += in.keysIn(c, p.warm, cs[c].done, false)
	}
	rr.attempted += rr.closedOps
	rr.cpuPerOpUs = float64((cpu1 - cpu0).Microseconds()) / float64(max(rr.closedOps, 1))

	// Open loop, one phase per rate, lowest first.
	for i, rate := range p.rates {
		os_ := make([]clientResult, r.clients)
		interval := time.Duration(float64(r.clients) / rate * float64(time.Second))
		start := time.Now().Add(2 * time.Millisecond)
		r.parallel(func(c int) {
			conns[c].r = &os_[c]
			// Stagger the clients across one interval so their due
			// times interleave instead of colliding.
			openLoop(conns[c], &in.streams[c], pos[c], p.open[i], start.Add(interval*time.Duration(c)/time.Duration(r.clients)), interval, p.openD[i], &os_[c])
		})
		or := openResult{rate: rate}
		rr.absorb(os_, &or.lat)
		for c := range os_ {
			or.ops += os_[c].done - pos[c]
			pos[c] = os_[c].done
			or.late = append(or.late, os_[c].late...)
			or.backlog += os_[c].backlog
		}
		rr.attempted += or.ops
		rr.open = append(rr.open, or)
	}
	if probes {
		rr.mgetP50, rr.scanP50 = r.probe(conns[0], &ctlRes, &rr)
	}

	// The server's own account of its state, then the crash.
	want := len(in.keys)
	for c := range pos {
		want += len(in.liveAfter(c, pos[c]))
	}
	n, st, wal := ctl.askInts("LEN"), ctl.askInts("STATS"), ctl.askInts("WALSTATS")
	rr.check(len(n) == 1 && n[0] == int64(want), "LEN replied %v, want %d", n, want)
	rr.check(len(st) == 4 && len(wal) == 8, "STATS replied %v, WALSTATS %v", st, wal)
	if len(n) == 1 && len(st) == 4 && len(wal) == 8 {
		rr.bytesPerKey = float64(st[2]+st[3]) / float64(n[0])
		rr.checkpoints = int(wal[3])
		written := 0
		for c := range pos {
			written += in.keysIn(c, p.warm, pos[c], true)
		}
		rr.writeAmp = float64(wal[2]+wal[3]*snapshotBytes(dir)) / float64(16*max(written, 1))
	}
	closeAll(conns, ctl)
	rr.rssPeakMB = be.kill()

	// Recovery: SIGKILL leaves the OS cache intact, so this checks WAL
	// replay and restart time, not power loss.
	t2 := time.Now()
	be2, err := r.spawn(dir, r.w.CheckpointEvery, r.clients)
	if err != nil {
		return rr, err
	}
	defer func() { be2.kill() }()
	_, ctl2, err := r.connect(be2.addr(), 0)
	if err != nil {
		return rr, err
	}
	defer ctl2.conn.Close()
	var res2 clientResult
	ctl2.r = &res2
	rr.check(ctl2.exec(mkOp(opGet, 0)), "first GET after restart failed")
	rr.recoverS = time.Since(t2).Seconds()
	for c := range pos {
		live := in.liveAfter(c, pos[c])
		for i := 0; i < len(live); i += mgetKeys {
			batch := live[i:min(i+mgetKeys, len(live))]
			ctl2.mget(batch)
			rr.attempted += len(batch)
		}
	}
	n = ctl2.askInts("LEN")
	rr.check(len(n) == 1 && n[0] == int64(want), "LEN after restart replied %v, want %d", n, want)
	rr.absorb([]clientResult{ctlRes, res2}, nil)
	return rr, nil
}

// probe times a few single-connection MGETs and SCANs, so every
// workload's traced run reports client.mget_p50_us and
// client.scan_p50_us whatever its own mix is.
func (r *runner) probe(nc *netClient, res *clientResult, rr *repResult) (mgetP50, scanP50 float64) {
	const n = 256
	nc.r = res
	var lat [2][]int64
	for i := 0; i < n; i++ {
		ks := nc.ks[:0]
		for j := 0; j < mgetKeys; j++ {
			ks = append(ks, r.in.keys[(i*mgetKeys+j)*7919%len(r.in.keys)])
		}
		t0 := time.Now()
		nc.mget(ks)
		lat[0] = append(lat[0], int64(time.Since(t0)))
		t0 = time.Now()
		nc.exec(mkOp(opScan, i*7919%(len(r.in.keys)-scanLen)))
		lat[1] = append(lat[1], int64(time.Since(t0)))
	}
	rr.attempted += 2 * n
	return percentile(lat[0], 50) / 1e3, percentile(lat[1], 50) / 1e3
}

// connect dials n stream connections and one control connection.
func (r *runner) connect(addr string, n int) ([]*netClient, *netClient, error) {
	var conns []*netClient
	for c := 0; c <= n; c++ {
		i := c
		if c == n {
			i = -1
		}
		nc, err := dial(addr, r.in, i, nil)
		if err != nil {
			closeAll(conns, nil)
			return nil, nil, err
		}
		conns = append(conns, nc)
	}
	return conns[:n], conns[n], nil
}

func closeAll(conns []*netClient, ctl *netClient) {
	for _, c := range conns {
		c.conn.Close()
	}
	if ctl != nil {
		ctl.conn.Close()
	}
}

// askInts sends a control command and parses the integers after the
// reply's first word; nil on any error.
func (c *netClient) askInts(cmd string) []int64 {
	l, ok := c.ask(cmd)
	if !ok {
		return nil
	}
	var out []int64
	for _, f := range strings.Fields(l)[1:] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil
		}
		out = append(out, v)
	}
	return out
}

// keysIn counts the keys client c touched in ops [from, to) — only
// the keys it wrote, if writes is set.
func (in *inputs) keysIn(c, from, to int, writes bool) int {
	st := &in.streams[c]
	n := 0
	for i := from; i < to; i++ {
		if k := st.ops[i%len(st.ops)].kind(); k.write() || !writes {
			n += keysOf(k)
		}
	}
	return n
}

// ratio replays the head of client 0's stream, single goroutine, on a
// bare alex.Index and on the B+tree baseline, alternating blocks so
// both see the same machine, and returns the median of the per-block
// time ratios (B+tree time ÷ ALEX time, i.e. ALEX ops/s ÷ B+tree ops/s)
// with each side's overall ops/s.
func (r *runner) ratio() (ratio, alexOps, btreeOps float64, ops, failed int) {
	in := r.in
	ax := alex.LoadSorted(in.keys, in.vals, alex.WithSplitOnInsert())
	bt := btree.BulkLoad(in.keys, in.vals, btree.Config{})
	for _, k := range in.preload {
		ax.Insert(k, payloadOf(k))
		bt.Insert(k, payloadOf(k))
	}
	st := &in.streams[0]
	const blocks = 32
	block := max(r.plan.ratio/blocks, 1)
	var ratios []float64
	var ta, tb time.Duration
	ae, be := &alexExec{ix: ax, in: in, st: st}, &btreeExec{t: bt, in: in, st: st}
	run := func(ex executor, lo, hi int) time.Duration {
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			if !ex.exec(st.ops[i%len(st.ops)]) {
				failed++
			}
		}
		return time.Since(t0)
	}
	for b := 0; b < blocks; b++ {
		lo, hi := b*block, (b+1)*block
		var da, db time.Duration
		if b%2 == 0 {
			da, db = run(ae, lo, hi), run(be, lo, hi)
		} else {
			db, da = run(be, lo, hi), run(ae, lo, hi)
		}
		ta, tb = ta+da, tb+db
		ratios = append(ratios, float64(db)/float64(da))
	}
	n := float64(blocks * block)
	return median(ratios), n / ta.Seconds(), n / tb.Seconds(), 2 * blocks * block, failed
}

// alexExec and btreeExec run the op stream on the two single-threaded
// indexes; batch ops map to the batch API on ALEX and to the loop a
// B+tree user would write.
type alexExec struct {
	ix    *alex.Index
	in    *inputs
	st    *stream
	ks    [scanLen]float64
	vs    [scanLen]uint64
	found [mgetKeys]bool
}

func (e *alexExec) exec(o op) bool {
	in := e.in
	switch o.kind() {
	case opGet:
		k := in.keys[o.idx()]
		v, ok := e.ix.Get(k)
		return ok && v == payloadOf(k)
	case opInsert:
		k := in.pool[o.idx()]
		return e.ix.Insert(k, payloadOf(k))
	case opDelete:
		return e.ix.Delete(in.pool[o.idx()])
	case opMGet:
		ks := e.ks[:0]
		for _, i := range e.st.aux[o.idx() : o.idx()+mgetKeys] {
			ks = append(ks, in.keys[i])
		}
		e.ix.GetBatchInto(ks, e.vs[:mgetKeys], e.found[:])
		for i, k := range ks {
			if !e.found[i] || e.vs[i] != payloadOf(k) {
				return false
			}
		}
	case opScan:
		start := in.keys[o.idx()]
		ks, vs := e.ix.ScanNInto(start, scanLen, e.ks[:0], e.vs[:0])
		return checkScan(start, ks, vs)
	case opMSet:
		ks := in.pool[o.idx() : o.idx()+mgetKeys]
		for i, k := range ks {
			e.vs[i] = payloadOf(k)
		}
		return e.ix.InsertBatch(ks, e.vs[:mgetKeys]) == mgetKeys
	}
	return true
}

type btreeExec struct {
	t  *btree.Tree
	in *inputs
	st *stream
}

func (e *btreeExec) exec(o op) bool {
	in := e.in
	get := func(k float64) bool {
		v, ok := e.t.Get(k)
		return ok && v == payloadOf(k)
	}
	switch o.kind() {
	case opGet:
		return get(in.keys[o.idx()])
	case opInsert:
		k := in.pool[o.idx()]
		return e.t.Insert(k, payloadOf(k))
	case opDelete:
		return e.t.Delete(in.pool[o.idx()])
	case opMGet:
		ok := true
		for _, i := range e.st.aux[o.idx() : o.idx()+mgetKeys] {
			ok = get(in.keys[i]) && ok
		}
		return ok
	case opScan:
		start := in.keys[o.idx()]
		ks, vs := e.t.ScanN(start, scanLen)
		return checkScan(start, ks, vs)
	case opMSet:
		ok := true
		for _, k := range in.pool[o.idx() : o.idx()+mgetKeys] {
			ok = e.t.Insert(k, payloadOf(k)) && ok
		}
		return ok
	}
	return true
}

// result is one run's outcome in the shape the driver reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Notes carries what the metrics do not: sample counts, both bases
	// of every ratio, the first failure. Not part of the driver's line.
	Notes map[string]any `json:"-"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result {
	return &result{Metrics: map[string]metricValue{}, Notes: map[string]any{}}
}

func (res *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			res.Metrics[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the spec table")
}

func (res *result) absorbRep(rr *repResult) {
	res.Attempted += rr.attempted
	res.Failed += rr.failed
	if rr.firstErr != "" && res.Notes["first_failure"] == nil {
		res.Notes["first_failure"] = rr.firstErr
	}
}

// runUntraced measures the end-to-end metrics: Reps repetitions of
// set-up + closed loop (+ open loop over TCP), then the head-to-head
// replay. Medians are over repetitions; latency percentiles pool the
// repetitions' samples.
func runUntraced(w workload, seed int64, seconds float64, spawn spawnFunc, tmp string) (*result, error) {
	net := w.Transport == "net"
	r := newRunner(w, seed, seconds*(1-ratioShare)/float64(w.Reps), seconds*ratioShare, net, nil, 0, spawn, tmp)
	res := newResult()
	var setups, tputs, bpks []float64
	var lat [2][]int64
	for rep := 0; rep < w.Reps; rep++ {
		var rr repResult
		var err error
		if net {
			rr, err = r.netRep(false)
		} else {
			rr, err = r.libRep()
		}
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.Name, rep, err)
		}
		res.absorbRep(&rr)
		setups = append(setups, rr.setupS)
		tputs = append(tputs, float64(rr.closedOps)/rr.closedS)
		bpks = append(bpks, rr.bytesPerKey)
		lat[0] = append(lat[0], rr.lat[0]...)
		lat[1] = append(lat[1], rr.lat[1]...)
		// Return the repetition's memory before the next one loads.
		runtime.GC()
	}
	ratio, alexOps, btreeOps, rops, rfailed := r.ratio()
	res.Attempted += rops
	res.Failed += rfailed

	res.set(endToEnd, "setup_s", r.keygenS+median(setups))
	res.set(endToEnd, "throughput_ops_s", median(tputs))
	res.set(endToEnd, "read_p50_us", percentile(lat[0], 50)/1e3)
	res.set(endToEnd, "write_p50_us", percentile(lat[1], 50)/1e3)
	res.set(endToEnd, "alex_over_btree", ratio)
	res.set(endToEnd, "bytes_per_key", median(bpks))
	res.Notes["read_samples"] = len(lat[0])
	res.Notes["write_samples"] = len(lat[1])
	res.Notes["alex_ops_s"] = alexOps
	res.Notes["btree_ops_s"] = btreeOps
	res.Notes["keygen_s"] = r.keygenS
	res.Notes["reps"] = w.Reps
	res.Notes["rep_throughputs"] = tputs
	res.Correct = res.Failed == 0
	return res, nil
}

func median(v []float64) float64 {
	return percentileF(v, 50)
}

// percentile returns the p-th percentile (nearest rank) of v as a
// float; NaN-free: an empty sample yields 0.
func percentile(v []int64, p float64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return percentileF(f, p)
}

func percentileF(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if p == 50 && len(s)%2 == 0 {
		return (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// ladderReads and ladderWrites size the slice of the op stream the
// ladder replays (before any smoke-test scaling).
const (
	ladderReads  = 1 << 20
	ladderWrites = 256 << 10
)

// sustainedLimitUs is the latency limit of client.sustained_rate_ops_s:
// the highest open-loop rung whose pooled p99 stays under it with no
// more than 1% of its ops still unsent at the phase's nominal end.
const sustainedLimitUs = 2000

// runTraced measures the per-layer metrics: the ladder over the
// in-process layers, then one repetition against the alexkv child with
// the 1×, 1.5× and 2× open-loop rungs for proc.* and client.*. Every
// workload, lib ones too, goes through both, so every workload reports
// every per-layer metric. scale shrinks the ladder's slice with the
// workload (1 in real runs).
func runTraced(w workload, seed int64, seconds, scale float64, spawn spawnFunc, tmp, outDir string) (*result, error) {
	writes := max(int(ladderWrites*scale)/(4*mgetKeys)*(4*mgetKeys), 4*mgetKeys)
	r := newRunner(w, seed, seconds*(1-ladderShare), 0, true, []float64{1, 1.5, 2}, writes, spawn, tmp)
	res := newResult()

	l := &ladder{r: r, epoch: time.Now(), m: map[string]float64{},
		budget: time.Duration(seconds * ladderShare / ladderMeasurements * float64(time.Second))}
	l.collectReads(max(int(ladderReads*scale)/blockOps, 16) * blockOps)
	l.whi = len(r.in.pool)
	l.wlo = l.whi - writes
	l.wmid = l.wlo + writes*3/4
	if err := l.run(); err != nil {
		return nil, fmt.Errorf("%s ladder: %w", w.Name, err)
	}
	res.Attempted += l.ops
	res.Failed += l.bad
	if outDir != "" {
		if err := writeSpans(outDir, w.Name, l.spans); err != nil {
			return nil, err
		}
	}
	runtime.GC()

	rr, err := r.netRep(true)
	if err != nil {
		return nil, fmt.Errorf("%s child phase: %w", w.Name, err)
	}
	res.absorbRep(&rr)
	m := l.m
	m["proc.cpu_us_per_op"] = rr.cpuPerOpUs
	m["proc.rss_peak_mb"] = rr.rssPeakMB
	m["proc.recover_s"] = rr.recoverS
	m["proc.write_amp"] = rr.writeAmp
	m["proc.checkpoints"] = float64(rr.checkpoints)
	base := rr.open[0]
	m["client.gen_late_p99_us"] = percentile(base.late, 99) / 1e3
	m["client.open_read_p50_us"] = percentile(base.lat[0], 50) / 1e3
	m["client.open_write_p50_us"] = percentile(base.lat[1], 50) / 1e3
	// Open-loop hygiene: the latencies mean what they say only if the
	// generator kept its own schedule, quantile for quantile, and the
	// phase ended without a backlog.
	late50 := percentile(base.late, 50) / 1e3
	res.Notes["gen_late_p50_us"] = late50
	res.Notes["backlog_share"] = float64(base.backlog) / float64(max(base.ops, 1))
	res.Notes["open_loop_unresolved"] = late50 > 0.1*m["client.open_read_p50_us"] ||
		m["client.gen_late_p99_us"] > 0.1*percentile(base.lat[0], 99)/1e3 ||
		float64(base.backlog) > 0.01*float64(base.ops)
	m["client.read_p99_us"] = percentile(base.lat[0], 99) / 1e3
	m["client.write_p99_us"] = percentile(base.lat[1], 99) / 1e3
	m["client.read_p999_us"] = percentile(base.lat[0], 99.9) / 1e3
	m["client.write_p999_us"] = percentile(base.lat[1], 99.9) / 1e3
	m["client.mget_p50_us"], m["client.scan_p50_us"] = rr.mgetP50, rr.scanP50
	m["client.keys_per_s"] = float64(rr.closedKeys) / rr.closedS
	m["client.sustained_rate_ops_s"] = 0
	for _, or := range rr.open {
		pooled := append(append([]int64(nil), or.lat[0]...), or.lat[1]...)
		if percentile(pooled, 99)/1e3 <= sustainedLimitUs && float64(or.backlog) <= 0.01*float64(or.ops) {
			m["client.sustained_rate_ops_s"] = or.rate
		}
	}
	for _, d := range perLayer {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s: the traced run produced no %s", w.Name, d.Name)
		}
		res.set(perLayer, d.Name, v)
	}
	res.Notes["closed_loop_ops_s"] = float64(rr.closedOps) / rr.closedS
	res.Notes["spans"] = len(l.spans)
	res.Correct = res.Failed == 0
	return res, nil
}
