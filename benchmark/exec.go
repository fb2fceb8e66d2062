package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"syscall"
	"time"

	alex "repro"
)

// An executor runs one op against the system under test and reports
// whether the reply was the one the op stream determines.
type executor interface {
	exec(o op) bool
}

// clientResult is what one client (goroutine or connection) observed.
type clientResult struct {
	done     int // ops executed, the position reached in the stream
	failed   int
	lat      [2][]int64 // ns; [0] reads, [1] writes
	late     []int64    // open loop: ns between an op's due time and its send
	backlog  int        // open loop: ops still unsent at the phase's nominal end
	firstErr string
}

func (r *clientResult) fail(format string, args ...any) bool {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = fmt.Sprintf(format, args...)
	}
	return false
}

func latClass(k opKind) int {
	if k.write() {
		return 1
	}
	return 0
}

// closedLoop runs ops [from, from+n) of st (wrapping, for Ring streams)
// back to back, timing one op in every sampleEvery. It stops early at
// the hard deadline, which only a system several times slower than the
// seed commit reaches. The loop itself is part of what the in-process
// workloads measure, so it avoids divisions and per-op bookkeeping.
func closedLoop(ex executor, st *stream, from, n, sampleEvery int, deadline time.Time, r *clientResult) {
	ops := st.ops
	j := from % len(ops)
	toSample := 1
	for i := from; i < from+n; i++ {
		o := ops[j]
		if j++; j == len(ops) {
			j = 0
		}
		if toSample--; toSample == 0 {
			toSample = sampleEvery
			t0 := time.Now()
			ok := ex.exec(o)
			d := time.Since(t0)
			if ok {
				c := latClass(o.kind())
				r.lat[c] = append(r.lat[c], int64(d))
			}
		} else {
			ex.exec(o)
		}
		if i&1023 == 0 && time.Now().After(deadline) {
			r.done = i + 1
			return
		}
	}
	r.done = from + n
}

// openLoop sends op i of the phase at start + i×interval, whatever
// happened to the ops before it, and times each from its due time, so a
// stall is charged to every request it delayed. The schedule is a pure
// function of i. The wait sleeps only while the next due time is far
// away, because a sleeping thread wakes tens of microseconds late, and
// covers the last stretch reading the clock with sched_yield in
// between, so that the server can have the core when it needs it.
//
// late records the generator's own error: how long after both the due
// time and the previous reply the request went out.
func openLoop(ex executor, st *stream, from, n int, start time.Time, interval, phase time.Duration, r *clientResult) {
	const spin = 200 * time.Microsecond
	nominalEnd := start.Add(phase)
	hardEnd := start.Add(2 * phase)
	ops := st.ops
	r.done = from
	free := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		now := time.Now()
		if wait := due.Sub(now); wait > spin {
			time.Sleep(wait - spin)
			now = time.Now()
		}
		for now.Before(due) {
			yield()
			now = time.Now()
		}
		if now.After(nominalEnd) {
			if r.backlog == 0 {
				r.backlog = n - i
			}
			if now.After(hardEnd) {
				return
			}
		}
		if free.After(due) {
			r.late = append(r.late, int64(now.Sub(free)))
		} else {
			r.late = append(r.late, int64(now.Sub(due)))
		}
		o := ops[(from+i)%len(ops)]
		ok := ex.exec(o)
		free = time.Now()
		if ok {
			c := latClass(o.kind())
			r.lat[c] = append(r.lat[c], int64(free.Sub(due)))
		}
		r.done = from + i + 1
	}
}

// checkScan verifies a scan reply: scanLen elements, ascending, none
// below start, every payload the key's own.
func checkScan(start float64, ks []float64, vs []uint64) bool {
	if len(ks) != scanLen || ks[0] < start {
		return false
	}
	for i, k := range ks {
		if vs[i] != payloadOf(k) || (i > 0 && k <= ks[i-1]) {
			return false
		}
	}
	return true
}

// libClient drives an in-process index.
type libClient struct {
	ix    *alex.ShardedIndex
	in    *inputs
	st    *stream
	r     *clientResult
	ks    []float64
	vs    []uint64
	found []bool
}

func newLibClient(ix *alex.ShardedIndex, in *inputs, c int, r *clientResult) *libClient {
	return &libClient{ix: ix, in: in, st: &in.streams[c], r: r,
		ks: make([]float64, 0, scanLen), vs: make([]uint64, scanLen), found: make([]bool, mgetKeys)}
}

func (c *libClient) exec(o op) bool {
	in := c.in
	switch o.kind() {
	case opGet:
		k := in.keys[o.idx()]
		if v, ok := c.ix.Get(k); !ok || v != payloadOf(k) {
			return c.r.fail("Get(%v) = %d, %v", k, v, ok)
		}
	case opInsert:
		k := in.pool[o.idx()]
		if !c.ix.Insert(k, payloadOf(k)) {
			return c.r.fail("Insert(%v) of a new key reported an update", k)
		}
	case opDelete:
		k := in.pool[o.idx()]
		if !c.ix.Delete(k) {
			return c.r.fail("Delete(%v) of a present key reported absent", k)
		}
	case opMGet:
		ks := c.ks[:0]
		for _, i := range c.st.aux[o.idx() : o.idx()+mgetKeys] {
			ks = append(ks, in.keys[i])
		}
		c.ix.GetBatchInto(ks, c.vs[:mgetKeys], c.found)
		for i, k := range ks {
			if !c.found[i] || c.vs[i] != payloadOf(k) {
				return c.r.fail("GetBatch key %v = %d, %v", k, c.vs[i], c.found[i])
			}
		}
	case opScan:
		start := in.keys[o.idx()]
		ks, vs := c.ix.ScanNInto(start, scanLen, c.ks[:0], c.vs[:0])
		if !checkScan(start, ks, vs) {
			return c.r.fail("ScanN(%v) returned %d elements, unsorted or with a wrong payload", start, len(ks))
		}
	case opMSet:
		ks := in.pool[o.idx() : o.idx()+mgetKeys]
		vs := c.vs[:0]
		for _, k := range ks {
			vs = append(vs, payloadOf(k))
		}
		if n := c.ix.InsertBatch(ks, vs); n != mgetKeys {
			return c.r.fail("InsertBatch of %d new keys inserted %d", mgetKeys, n)
		}
	}
	return true
}

// netClient drives alexkv over one TCP connection, one request in
// flight.
type netClient struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte
	in   *inputs
	st   *stream
	r    *clientResult
	ks   []float64
	vs   []uint64
}

func yield() { syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) }

func dial(addr string, in *inputs, c int, r *clientResult) (*netClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	nc := &netClient{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), in: in, r: r,
		ks: make([]float64, 0, scanLen), vs: make([]uint64, 0, scanLen)}
	if c >= 0 {
		nc.st = &in.streams[c]
	}
	return nc, nil
}

func appendKey(b []byte, k float64) []byte { return strconv.AppendFloat(b, k, 'g', -1, 64) }

// send writes the command in c.buf (which must end in a newline).
func (c *netClient) send() bool {
	if _, err := c.conn.Write(c.buf); err != nil {
		return c.r.fail("write: %v", err)
	}
	return true
}

// line reads one reply line without its newline.
func (c *netClient) line() ([]byte, bool) {
	l, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, c.r.fail("read: %v", err)
	}
	return l[:len(l)-1], true
}

func (c *netClient) expect(want string) bool {
	l, ok := c.line()
	if !ok {
		return false
	}
	if string(l) != want {
		return c.r.fail("reply %q, want %q", l, want)
	}
	return true
}

var valuePrefix = []byte("VALUE ")

// expectValue reads a "VALUE <payloadOf(k)>" line.
func (c *netClient) expectValue(k float64) bool {
	l, ok := c.line()
	if !ok {
		return false
	}
	if v, err := strconv.ParseUint(string(bytes.TrimPrefix(l, valuePrefix)), 10, 64); err != nil || !bytes.HasPrefix(l, valuePrefix) || v != payloadOf(k) {
		return c.r.fail("key %v: reply %q, want VALUE %d", k, l, payloadOf(k))
	}
	return true
}

func (c *netClient) exec(o op) bool {
	in := c.in
	switch o.kind() {
	case opGet:
		k := in.keys[o.idx()]
		c.buf = append(appendKey(append(c.buf[:0], "GET "...), k), '\n')
		return c.send() && c.expectValue(k)
	case opInsert:
		k := in.pool[o.idx()]
		c.buf = append(appendKey(append(c.buf[:0], "SET "...), k), ' ')
		c.buf = append(strconv.AppendUint(c.buf, payloadOf(k), 10), '\n')
		return c.send() && c.expect("OK inserted")
	case opDelete:
		c.buf = append(appendKey(append(c.buf[:0], "DEL "...), in.pool[o.idx()]), '\n')
		return c.send() && c.expect("OK")
	case opMGet:
		ks := c.ks[:0]
		for _, i := range c.st.aux[o.idx() : o.idx()+mgetKeys] {
			ks = append(ks, in.keys[i])
		}
		return c.mget(ks)
	case opScan:
		start := in.keys[o.idx()]
		c.buf = append(appendKey(append(c.buf[:0], "SCAN "...), start), ' ')
		c.buf = append(strconv.AppendInt(c.buf, scanLen, 10), '\n')
		if !c.send() {
			return false
		}
		ks, vs := c.ks[:0], c.vs[:0]
		for {
			l, ok := c.line()
			if !ok {
				return false
			}
			if string(l) == "END" {
				break
			}
			f := bytes.Fields(l)
			if len(f) != 3 || string(f[0]) != "KEY" {
				return c.r.fail("SCAN reply line %q", l)
			}
			k, err1 := strconv.ParseFloat(string(f[1]), 64)
			v, err2 := strconv.ParseUint(string(f[2]), 10, 64)
			if err1 != nil || err2 != nil {
				return c.r.fail("SCAN reply line %q", l)
			}
			ks, vs = append(ks, k), append(vs, v)
		}
		c.ks, c.vs = ks[:0], vs[:0]
		if !checkScan(start, ks, vs) {
			return c.r.fail("SCAN %v returned %d elements, unsorted or with a wrong payload", start, len(ks))
		}
	case opMSet:
		return c.mset(in.pool[o.idx() : o.idx()+mgetKeys])
	}
	return true
}

// mset sends one MSET of new keys and checks that all were inserted.
func (c *netClient) mset(ks []float64) bool {
	c.buf = append(c.buf[:0], "MSET"...)
	for _, k := range ks {
		c.buf = append(appendKey(append(c.buf, ' '), k), ' ')
		c.buf = strconv.AppendUint(c.buf, payloadOf(k), 10)
	}
	c.buf = append(c.buf, '\n')
	return c.send() && c.expect("OK "+strconv.Itoa(len(ks)))
}

// mget sends one MGET for ks and checks every value.
func (c *netClient) mget(ks []float64) bool {
	c.buf = append(c.buf[:0], "MGET"...)
	for _, k := range ks {
		c.buf = appendKey(append(c.buf, ' '), k)
	}
	c.buf = append(c.buf, '\n')
	if !c.send() {
		return false
	}
	ok := true
	for _, k := range ks {
		ok = c.expectValue(k) && ok
	}
	return c.expect("END") && ok
}

// ask sends one control command and returns its single reply line.
func (c *netClient) ask(cmd string) (string, bool) {
	c.buf = append(append(c.buf[:0], cmd...), '\n')
	if !c.send() {
		return "", false
	}
	l, ok := c.line()
	return string(l), ok
}
