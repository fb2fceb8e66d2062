package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	alex "repro"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/faultfs"
	"repro/internal/gapped"
	"repro/internal/wal"
	"repro/server"
)

// The layer ladder replays one recorded slice of the workload's op
// stream, single goroutine, through each layer's public entry point in
// turn, bottom to top: leaf → core → index → sync → shard → server →
// net on the read side, with wal, durable and btree beside them. A
// rung's mean ns/op minus the rung below is that layer's self time, so
// the self times of the read chain sum to the loopback round trip by
// construction. Rungs are built one at a time and dropped before the
// next, and reads run against the frozen post-load state before any
// write does.

const blockOps = 1024 // ops per span

// span is one traced interval: a rung's measurement, or one block of
// blockOps ops inside it (Parent is the measurement's ID).
type span struct {
	ID       int    `json:"id"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
}

// ladderMeasurements is how many timed measurements the ladder makes;
// each gets an equal share of the ladder's time.
const ladderMeasurements = 29

type ladder struct {
	r        *runner
	epoch    time.Time
	spans    []span
	untraced bool          // suppress block spans (the overhead control)
	budget   time.Duration // per measurement
	m        map[string]float64
	ops      int // ops executed, for the run's attempted count
	bad      int // replies that were not the expected one

	reads []int // positions in in.keys, in stream order
	scans []int // the reads that leave scanLen keys above them
	wlo   int   // in.pool[wlo:whi] are the ladder's own new keys:
	wmid  int   // [wlo,wmid) for point inserts, [wmid,whi) for batches
	whi   int
}

func (l *ladder) now() int64 { return int64(time.Since(l.epoch)) }

// measure runs f over ops [0,n) in blocks of blockOps, one span per
// block under one span for the whole measurement, until n or the
// measurement's time share is used up. It returns the mean ns per op
// and each full block's duration. f returns how many of its replies
// were wrong.
func (l *ladder) measure(layer, name string, n int, f func(lo, hi int) int) (nsPerOp float64, blocks []int64) {
	parent := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: parent, Name: name, Layer: layer, StartNs: l.now(), Workload: l.r.w.Name})
	start := l.now()
	done := 0
	for done < n {
		hi := min(done+blockOps, n)
		t0 := l.now()
		l.bad += f(done, hi)
		t1 := l.now()
		if !l.untraced {
			l.spans = append(l.spans, span{ID: len(l.spans) + 1, Name: name, Layer: layer, StartNs: t0, EndNs: t1, Parent: parent, Workload: l.r.w.Name})
		}
		if hi-done == blockOps {
			blocks = append(blocks, t1-t0)
		}
		done = hi
		if time.Duration(t1-start) > l.budget {
			break
		}
	}
	end := l.now()
	l.spans[parent-1].EndNs = end
	l.ops += done
	return float64(end-start) / float64(max(done, 1)), blocks
}

// collectReads walks client 0's stream and gathers the key positions
// its reads touch, wrapping until n (a multiple of blockOps) are found.
func (l *ladder) collectReads(n int) {
	in := l.r.in
	st := &in.streams[0]
	for len(l.reads) < n {
		before := len(l.reads)
		for _, o := range st.ops {
			switch o.kind() {
			case opGet, opScan:
				l.reads = append(l.reads, o.idx())
			case opMGet:
				for _, i := range st.aux[o.idx() : o.idx()+mgetKeys] {
					l.reads = append(l.reads, int(i))
				}
			}
			if len(l.reads) >= n {
				break
			}
		}
		if len(l.reads) == before {
			panic("benchmark: workload " + l.r.w.Name + " has no reads")
		}
	}
	l.reads = l.reads[:n]
	for _, i := range l.reads {
		if i < len(in.keys)-scanLen {
			l.scans = append(l.scans, i)
		}
	}
}

// getter and inserter are the point surface every index rung shares.
type getter interface {
	Get(key float64) (uint64, bool)
}
type inserter interface {
	Insert(key float64, payload uint64) bool
}
type batcher interface {
	GetBatchInto(keys []float64, payloads []uint64, found []bool)
	ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64)
}

// readPasses is how many times at most a point-read measurement walks
// the recorded reads; its time share, not the slice's end, stops it, so
// the chain of self times rests on a few million lookups per rung.
const readPasses = 64

// gets measures point reads of the recorded keys. len(l.reads) is a
// multiple of blockOps, so a block never straddles the wrap.
func (l *ladder) gets(layer string, g getter) float64 {
	keys := l.r.in.keys
	ns, _ := l.measure(layer, "get", readPasses*len(l.reads), func(lo, hi int) (bad int) {
		lo %= len(l.reads)
		for _, i := range l.reads[lo : lo+blockOps] {
			if v, ok := g.Get(keys[i]); !ok || v != payloadOf(keys[i]) {
				bad++
			}
		}
		return bad
	})
	l.m[layer+".get_ns"] = ns
	return ns
}

// inserts measures point inserts of the new keys pool[from:to].
func (l *ladder) inserts(layer string, ix inserter, from, to int) (float64, []int64) {
	pool := l.r.in.pool
	ns, blocks := l.measure(layer, "insert", to-from, func(lo, hi int) (bad int) {
		for _, k := range pool[from+lo : from+hi] {
			if !ix.Insert(k, payloadOf(k)) {
				bad++
			}
		}
		return bad
	})
	l.m[layer+".insert_ns"] = ns
	return ns, blocks
}

// batches measures GetBatchInto over groups of mgetKeys reads and
// ScanNInto of scanLen elements, per key and per element.
func (l *ladder) batches(layer string, b batcher) {
	keys := l.r.in.keys
	ks, vs, found := make([]float64, 0, scanLen), make([]uint64, scanLen), make([]bool, mgetKeys)
	ns, _ := l.measure(layer, "getbatch", len(l.reads)/mgetKeys, func(lo, hi int) (bad int) {
		for g := lo; g < hi; g++ {
			ks = ks[:0]
			for _, i := range l.reads[g*mgetKeys : (g+1)*mgetKeys] {
				ks = append(ks, keys[i])
			}
			b.GetBatchInto(ks, vs[:mgetKeys], found)
			for j, k := range ks {
				if !found[j] || vs[j] != payloadOf(k) {
					bad++
				}
			}
		}
		return bad
	})
	l.m[layer+".getbatch_ns_per_key"] = ns / mgetKeys
	ns, _ = l.measure(layer, "scan", len(l.scans)/16, func(lo, hi int) (bad int) {
		for _, i := range l.scans[lo:hi] {
			sk, sv := b.ScanNInto(keys[i], scanLen, ks[:0], vs[:0])
			if !checkScan(keys[i], sk, sv) {
				bad++
			}
		}
		return bad
	})
	l.m[layer+".scan_ns_per_elem"] = ns / scanLen
}

// run climbs the ladder and fills l.m with every per-layer metric the
// in-process rungs produce.
func (l *ladder) run() error {
	in := l.r.in
	c := l.r.clients
	cfg := core.Config{SplitOnInsert: true}
	opts := []alex.Option{alex.WithSplitOnInsert()}
	m := l.m

	// leaf + core share one tree: the leaf rung rebuilds the tree's own
	// leaf partition as bare gapped arrays and looks keys up with the
	// leaf already resolved, so core.get minus leaf.lookup is the RMI
	// descent.
	t0 := time.Now()
	tree := core.BulkLoadSorted(in.keys, in.vals, cfg)
	m["core.bulkload_s"] = time.Since(t0).Seconds()
	st := tree.Stats()
	m["core.height"], m["core.leaves"], m["core.inner_nodes"] = float64(st.Height), float64(st.NumLeaves), float64(st.NumInner)
	m["core.index_bytes"] = float64(tree.IndexSizeBytes())
	m["leaf.err_bound_p99"], m["leaf.bounded_share"] = float64(st.LeafErrPercentile(99)), st.BoundedShare()
	{
		var leaves []*gapped.Array
		var first []float64
		off := 0
		for _, sz := range tree.LeafSizes() {
			if sz > 0 {
				leaves = append(leaves, gapped.NewFromSorted(in.keys[off:off+sz], in.vals[off:off+sz], gapped.Config{Density: tree.Config().Density}))
				first = append(first, in.keys[off])
				off += sz
			}
		}
		leafOf := make([]int32, len(l.reads))
		var direct, errSum int
		for j, i := range l.reads {
			k := in.keys[i]
			leafOf[j] = int32(sort.Search(len(first), func(x int) bool { return first[x] > k }) - 1)
			e, _ := leaves[leafOf[j]].PredictionError(k)
			errSum += e
			if e == 0 {
				direct++
			}
		}
		m["leaf.direct_hit_share"] = float64(direct) / float64(len(l.reads))
		m["leaf.pred_err_mean"] = float64(errSum) / float64(len(l.reads))
		m["leaf.lookup_ns"], _ = l.measure("leaf", "lookup", readPasses*len(l.reads), func(lo, hi int) (bad int) {
			lo %= len(l.reads)
			for j := lo; j < lo+blockOps; j++ {
				k := in.keys[l.reads[j]]
				if v, ok := leaves[leafOf[j]].Lookup(k); !ok || v != payloadOf(k) {
					bad++
				}
			}
			return bad
		})
	}
	coreGet := l.gets("core", tree)
	m["core.get_self_ns"] = coreGet - m["leaf.lookup_ns"]
	l.batches("core", tree)
	_, blocks := l.inserts("core", tree, l.wlo, l.wmid)
	m["core.insert_batch1k_p99_us"] = percentile(blocks, 99) / 1e3
	ns, _ := l.measure("core", "insertbatch", (l.whi-l.wmid)/mgetKeys, func(lo, hi int) (bad int) {
		vs := make([]uint64, mgetKeys)
		for g := lo; g < hi; g++ {
			ks := in.pool[l.wmid+g*mgetKeys : l.wmid+(g+1)*mgetKeys]
			for j, k := range ks {
				vs[j] = payloadOf(k)
			}
			if tree.InsertBatch(ks, vs) != mgetKeys {
				bad++
			}
		}
		return bad
	})
	m["core.insertbatch_ns_per_key"] = ns / mgetKeys
	st = tree.Stats()
	m["core.splits"], m["core.cost_retrains"] = float64(st.Splits), float64(st.CostRetrains)
	m["leaf.shifts_per_insert"] = float64(st.Shifts) / float64(max(st.Inserts, 1))
	m["leaf.expands"], m["leaf.retrains"] = float64(st.Expands), float64(st.Retrains)
	tree = nil
	runtime.GC()

	// index, sync, shard: the three wrappers over core.
	ix := alex.LoadSorted(in.keys, in.vals, opts...)
	m["index.get_self_ns"] = l.gets("index", ix) - coreGet
	l.inserts("index", ix, l.wlo, l.wmid)
	ix = nil
	runtime.GC()

	sy, err := alex.LoadSync(in.keys, in.vals, opts...)
	if err != nil {
		return err
	}
	m["sync.get_self_ns"] = l.gets("sync", sy) - m["index.get_ns"]
	l.inserts("sync", sy, l.wlo, l.wmid)
	sy = nil
	runtime.GC()

	sh, err := alex.LoadSharded(c, in.keys, in.vals, opts...)
	if err != nil {
		return err
	}
	m["shard.get_self_ns"] = l.gets("shard", sh) - m["sync.get_ns"]
	l.batches("shard", sh)
	if err := l.serverRungs(sh); err != nil {
		return err
	}
	sh = nil
	runtime.GC()

	if err := l.walRung(); err != nil {
		return err
	}
	if err := l.durableRung(); err != nil {
		return err
	}

	t0 = time.Now()
	bt := btree.BulkLoad(in.keys, in.vals, btree.Config{})
	m["btree.bulkload_s"] = time.Since(t0).Seconds()
	m["btree.index_bytes"] = float64(bt.IndexSizeBytes())
	l.gets("btree", bt)
	l.inserts("btree", bt, l.wlo, l.wmid)
	return nil
}

// blockReader feeds pre-rendered commands to Server.Handle one block
// of blockOps commands at a time; a Read that arrives when a block has
// been handed out entirely means the server has finished that block.
type blockReader struct {
	data   []byte
	ends   []int // ends[i] is the offset just past block i
	off    int
	blk    int
	onDone func(blk int) bool // false stops the replay
}

func (b *blockReader) Read(p []byte) (int, error) {
	if b.blk < len(b.ends) && b.off == b.ends[b.blk] {
		cont := b.onDone(b.blk)
		b.blk++
		if !cont {
			b.blk = len(b.ends)
		}
	}
	if b.blk >= len(b.ends) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:b.ends[b.blk]])
	b.off += n
	return n, nil
}

// replyCounter is the other half of the in-memory connection: it
// counts reply lines and flags any miss or error among them.
type replyCounter struct {
	lines int
	bad   bool
}

func (w *replyCounter) Write(p []byte) (int, error) {
	w.lines += bytes.Count(p, []byte{'\n'})
	if bytes.Contains(p, []byte("NOTFOUND")) || bytes.Contains(p, []byte("ERR")) || bytes.Contains(p, []byte("updated")) {
		w.bad = true
	}
	return len(p), nil
}

// handle replays n commands rendered by render through Server.Handle
// and returns the mean ns per command. linesPer is the reply lines one
// command produces.
func (l *ladder) handle(srv *server.Server, name string, n, linesPer int, render func(b []byte, i int) []byte) float64 {
	var data []byte
	var ends []int
	for i := 0; i < n; i++ {
		data = render(data, i)
		if (i+1)%blockOps == 0 || i == n-1 {
			ends = append(ends, len(data))
		}
	}
	parent := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: parent, Name: name, Layer: "server", StartNs: l.now(), Workload: l.r.w.Name})
	start := l.now()
	last := start
	done := 0
	rd := &blockReader{data: data, ends: ends, onDone: func(blk int) bool {
		t := l.now()
		l.spans = append(l.spans, span{ID: len(l.spans) + 1, Name: name, Layer: "server", StartNs: last, EndNs: t, Parent: parent, Workload: l.r.w.Name})
		last = t
		done = min((blk+1)*blockOps, n)
		return time.Duration(t-start) <= l.budget
	}}
	var out replyCounter
	srv.Handle(struct {
		io.Reader
		io.Writer
	}{rd, &out})
	l.spans[parent-1].EndNs = last
	l.ops += done
	if out.bad || out.lines != done*linesPer {
		l.bad++
	}
	return float64(last-start) / float64(max(done, 1))
}

// serverRungs puts the protocol and then a loopback socket on top of
// the sharded index the shard rung just read from: all three layers'
// reads run against the same frozen post-load state, then their writes
// take disjoint thirds of the ladder's point keys.
func (l *ladder) serverRungs(sh *alex.ShardedIndex) error {
	in, m := l.r.in, l.m
	srv := server.New(sh)
	key := func(b []byte, cmd string, k float64) []byte { return appendKey(append(b, cmd...), k) }

	m["server.get_ns"] = l.handle(srv, "get", len(l.reads), 1, func(b []byte, i int) []byte {
		return append(key(b, "GET ", in.keys[l.reads[i]]), '\n')
	})
	m["server.get_self_ns"] = m["server.get_ns"] - m["shard.get_ns"]
	m["server.mget_ns_per_key"] = l.handle(srv, "mget", len(l.reads)/mgetKeys, mgetKeys+1, func(b []byte, g int) []byte {
		b = append(b, "MGET"...)
		for _, i := range l.reads[g*mgetKeys : (g+1)*mgetKeys] {
			b = key(b, " ", in.keys[i])
		}
		return append(b, '\n')
	}) / mgetKeys
	m["server.scan_ns_per_elem"] = l.handle(srv, "scan", len(l.scans)/16, scanLen+1, func(b []byte, i int) []byte {
		return append(strconv.AppendInt(append(key(b, "SCAN ", in.keys[l.scans[i]]), ' '), scanLen, 10), '\n')
	}) / scanLen

	// net: the same server behind a loopback listener, one connection,
	// one request in flight. Measured with and without block spans; the
	// difference is what tracing costs.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(served)
	}()
	defer func() {
		ln.Close()
		srv.Close()
		<-served
	}()
	var res clientResult
	nc, err := dial(ln.Addr().String(), in, 0, &res)
	if err != nil {
		return err
	}
	defer nc.conn.Close()
	roundTrips := func(name string, k opKind, idx func(i int) int, n int) float64 {
		ns, _ := l.measure("net", name, n, func(lo, hi int) int {
			before := res.failed
			for i := lo; i < hi; i++ {
				nc.exec(mkOp(k, idx(i)))
			}
			return res.failed - before
		})
		return ns
	}
	// Slices with and without block spans alternate, so that drift on
	// the box cancels and the difference is what tracing costs.
	const slices = 8
	per := len(l.reads) / slices
	budget := l.budget
	l.budget /= slices
	var ns, ops [2]float64 // [0] traced, [1] untraced
	for s := 0; s < slices; s++ {
		for k := 0; k < 2; k++ {
			u := (s + k) % 2
			l.untraced = u == 1
			before := l.ops
			t := roundTrips("get", opGet, func(i int) int { return l.reads[s*per+i] }, per)
			n := float64(l.ops - before)
			ns[u], ops[u] = ns[u]+t*n, ops[u]+n
		}
	}
	l.untraced, l.budget = false, budget
	m["net.get_rtt_ns"] = ns[0] / ops[0]
	m["net.get_self_ns"] = m["net.get_rtt_ns"] - m["server.get_ns"]
	m["client.trace_overhead_share"] = (m["net.get_rtt_ns"] - ns[1]/ops[1]) / (ns[1] / ops[1])

	third := (l.wmid - l.wlo) / 3
	l.inserts("shard", sh, l.wlo, l.wlo+third)
	m["net.set_rtt_ns"] = roundTrips("set", opInsert, func(i int) int { return l.wlo + third + i }, third)
	m["server.set_ns"] = l.handle(srv, "set", third, 1, func(b []byte, i int) []byte {
		k := in.pool[l.wlo+2*third+i]
		return append(strconv.AppendUint(append(key(b, "SET ", k), ' '), payloadOf(k), 10), '\n')
	})
	m["server.set_self_ns"] = m["server.set_ns"] - m["shard.insert_ns"]
	m["server.mset_ns_per_key"] = l.handle(srv, "mset", (l.whi-l.wmid)/mgetKeys, 1, func(b []byte, g int) []byte {
		b = append(b, "MSET"...)
		for _, k := range in.pool[l.wmid+g*mgetKeys : l.wmid+(g+1)*mgetKeys] {
			b = strconv.AppendUint(append(key(b, " ", k), ' '), payloadOf(k), 10)
		}
		return append(b, '\n')
	}) / mgetKeys
	return nil
}

// countingFS wraps the OS filesystem and counts what the durability
// stack asks of the device.
type countingFS struct {
	faultfs.FS
	mu     sync.Mutex
	writes int64
	bytes  int64
	syncs  int64
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{f, c}, nil
}

func (c *countingFS) SyncDir(name string) error {
	c.mu.Lock()
	c.syncs++
	c.mu.Unlock()
	return c.FS.SyncDir(name)
}

func (f *countingFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	f.fs.writes++
	f.fs.bytes += int64(len(p))
	f.fs.mu.Unlock()
	return f.File.Write(p)
}

func (f *countingFile) Sync() error {
	f.fs.mu.Lock()
	f.fs.syncs++
	f.fs.mu.Unlock()
	return f.File.Sync()
}

func (c *countingFS) snapshot() (writes, bytes, syncs int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.bytes, c.syncs
}

// walRung appends the ladder's write records to a bare log, fsync
// always, with one writer and then with C.
func (l *ladder) walRung() error {
	in, m := l.r.in, l.m
	dir, err := os.MkdirTemp(l.r.tmp, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lg, err := wal.OpenLogFS(faultfs.OS, dir, wal.SyncAlways, 0)
	if err != nil {
		return err
	}
	defer lg.Close()
	appendRange := func(lo, hi int) (bad int) {
		rec := wal.Record{Op: wal.OpInsert, Keys: make([]float64, 1), Payloads: make([]uint64, 1)}
		for _, k := range in.pool[l.wlo+lo : l.wlo+hi] {
			rec.Keys[0], rec.Payloads[0] = k, payloadOf(k)
			if lg.Append(&rec) != nil {
				bad++
			}
		}
		return bad
	}
	m["wal.append_ns"], _ = l.measure("wal", "append", l.wmid-l.wlo, appendRange)
	// C writers share each block, so group commit can merge their fsyncs.
	before := lg.Stats()
	c := l.r.clients
	m["wal.append_par_ns"], _ = l.measure("wal", "append_par", l.wmid-l.wlo, func(lo, hi int) int {
		var wg sync.WaitGroup
		bad := make([]int, c)
		for w := 0; w < c; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bad[w] = appendRange(lo+w*(hi-lo)/c, lo+(w+1)*(hi-lo)/c)
			}()
		}
		wg.Wait()
		sum := 0
		for _, b := range bad {
			sum += b
		}
		return sum
	})
	after := lg.Stats()
	appends := float64(after.Appends - before.Appends)
	m["wal.syncs_per_append"] = float64(after.Syncs-before.Syncs) / appends
	m["wal.bytes_per_append"] = float64(after.Bytes-before.Bytes) / appends
	return nil
}

// durableRung runs the slice through alex.DurableIndex over a counting
// filesystem: checkpoint cost, the insert path with its fsync, inserts
// racing a checkpoint, and reopening.
func (l *ladder) durableRung() error {
	in, m := l.r.in, l.m
	dir, err := os.MkdirTemp(l.r.tmp, "durable-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfs := &countingFS{FS: faultfs.OS}
	open := func() (*alex.DurableIndex, error) {
		return alex.OpenDurable(dir, alex.WithFilesystem(cfs), alex.WithDurableShards(l.r.clients),
			alex.WithCheckpointEvery(0), alex.WithIndexOptions(alex.WithSplitOnInsert()))
	}
	d, err := open()
	if err != nil {
		return err
	}
	defer func() { d.Close() }()
	if _, err := d.TryMerge(in.keys, in.vals); err != nil {
		return err
	}
	t0 := time.Now()
	if err := d.Checkpoint(); err != nil {
		return err
	}
	m["durable.checkpoint_s"] = time.Since(t0).Seconds()
	m["durable.checkpoint_bytes"] = float64(snapshotBytes(dir))

	l.gets("durable", d)
	w0, b0, s0 := cfs.snapshot()
	ops0 := l.ops
	insertNs, _ := l.inserts("durable", d, l.wlo, l.wmid)
	w1, b1, s1 := cfs.snapshot()
	n := float64(max(l.ops-ops0, 1))
	m["device.fsyncs_per_op"] = float64(s1-s0) / n
	m["device.write_calls_per_op"] = float64(w1-w0) / n
	m["device.bytes_per_op"] = float64(b1-b0) / n
	m["durable.insert_self_ns"] = insertNs - m["shard.insert_ns"]

	// Inserts racing a checkpoint: a foreground writer keeps inserting
	// until the checkpoint started beside it returns.
	ckpt := make(chan error, 1)
	go func() { ckpt <- d.Checkpoint() }()
	var lat []int64
	racing := true
	_, _ = l.measure("durable", "insert_during_checkpoint", l.whi-l.wmid, func(lo, hi int) (bad int) {
		for _, k := range in.pool[l.wmid+lo : l.wmid+hi] {
			if !racing {
				break
			}
			t := time.Now()
			if !d.Insert(k, payloadOf(k)) {
				bad++
			}
			lat = append(lat, int64(time.Since(t)))
			select {
			case err = <-ckpt:
				racing = false
			default:
			}
		}
		return bad
	})
	if racing {
		err = <-ckpt
	}
	if err != nil {
		return err
	}
	m["durable.insert_p99_during_checkpoint_us"] = percentile(lat, 99) / 1e3

	if err := d.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	d, err = open()
	if err != nil {
		return err
	}
	m["durable.open_s"] = time.Since(t0).Seconds()
	return nil
}

// writeSpans writes the trace as one JSON object per line.
func writeSpans(outDir, workload string, spans []span) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".jsonl"), buf.Bytes(), 0o644)
}
