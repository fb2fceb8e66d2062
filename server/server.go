// Package server implements the line-oriented KV protocol of cmd/alexkv
// on top of any thread-safe index (alex.ShardedIndex for multi-core
// parallelism, alex.SyncIndex for the coarse-grained wrapper). It lives
// outside internal/ so the protocol handling is testable and reusable
// by embedders.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	alex "repro"
	"repro/internal/repl"
	"repro/internal/wal"
)

// Store is the thread-safe index surface the protocol needs;
// *alex.SyncIndex, *alex.ShardedIndex and *alex.DurableIndex all
// satisfy it. Implementations must be safe for concurrent use — every
// connection runs on its own goroutine.
//
// Flush and Close are the durability lifecycle: Flush blocks until
// every acknowledged write is on stable storage and Close releases the
// store's resources (for the in-memory indexes both are no-ops). The
// server never calls them itself — the owner does, after Server.Close
// has drained the connection handlers.
type Store interface {
	Get(key float64) (uint64, bool)
	Insert(key float64, payload uint64) bool
	Delete(key float64) bool
	GetBatch(keys []float64) (payloads []uint64, found []bool)
	GetBatchInto(keys []float64, payloads []uint64, found []bool)
	InsertBatch(keys []float64, payloads []uint64) int
	DeleteBatch(keys []float64) int
	ScanN(start float64, max int) ([]float64, []uint64)
	ScanNInto(start float64, max int, keys []float64, payloads []uint64) ([]float64, []uint64)
	Len() int
	Stats() alex.Stats
	IndexSizeBytes() int
	DataSizeBytes() int
	Flush() error
	Close() error
}

// Checkpointer is the optional Store extension behind SAVE and BGSAVE;
// *alex.DurableIndex implements it. SAVE runs a synchronous checkpoint,
// BGSAVE hands the request to the store's background checkpointer.
type Checkpointer interface {
	Checkpoint() error
	TriggerCheckpoint()
}

// WALStatser is the optional Store extension behind WALSTATS.
type WALStatser interface {
	WALStats() alex.WALStats
}

// Degrader is the optional Store extension reporting the poisoned
// read-only state behind HEALTH and the degraded write rejection;
// *alex.DurableIndex implements it. A non-nil Degraded means a
// durability failure occurred: the store rejects mutations (wrapping
// alex.ErrDegraded) while reads keep serving.
type Degrader interface {
	Degraded() error
}

// Replicator is the optional Store extension behind the primary side
// of WAL-shipping replication (REPLINFO, SNAPSHOT and REPLICATE);
// *alex.DurableIndex implements it.
type Replicator interface {
	ReplicationPosition() (seg uint64, off int64)
	NewTailer(seg uint64, off int64) (*wal.Tailer, error)
	SnapshotForReplication() (rc io.ReadCloser, size int64, startSeg uint64, err error)
	RegisterFollower(addr string, seg uint64, off int64) *alex.FollowerHandle
	Followers() []alex.FollowerInfo
	Checkpoints() uint64
}

// ReplicaStatuser is the optional Store extension behind REPLINFO on a
// read replica; repl.Follower implements it.
type ReplicaStatuser interface {
	ReplicaStatus() (source string, connected bool, seg uint64, off int64)
}

// The three index wrappers satisfy the Store surface.
var (
	_ Store = (*alex.SyncIndex)(nil)
	_ Store = (*alex.ShardedIndex)(nil)
	_ Store = (*alex.DurableIndex)(nil)

	_ Checkpointer = (*alex.DurableIndex)(nil)
	_ WALStatser   = (*alex.DurableIndex)(nil)
	_ Replicator   = (*alex.DurableIndex)(nil)
	_ Degrader     = (*alex.DurableIndex)(nil)
)

// Server handles connections speaking the alexkv protocol against one
// shared thread-safe index.
type Server struct {
	idx Store

	// ReadOnly rejects every mutating command ("ERR read-only
	// replica"), the replica mode of a server fed by a repl.Follower.
	// Set before Serve.
	ReadOnly bool

	// HeartbeatEvery is how often an idle REPLICATE stream sends a
	// header-only heartbeat frame so followers can run a read deadline
	// against a hung primary. 0 picks the 2s default; negative disables
	// heartbeats. Set before Serve.
	HeartbeatEvery time.Duration

	// StreamWriteTimeout bounds each REPLICATE flush to the follower: a
	// follower that stops reading (hung peer, full TCP window) ends the
	// stream instead of pinning the handler forever. 0 picks the 30s
	// default. Set before Serve.
	StreamWriteTimeout time.Duration

	stop chan struct{} // closed first in Close; ends REPLICATE streams

	mu       sync.Mutex
	closed   bool
	conns    map[net.Conn]struct{}
	handlers sync.WaitGroup
}

// New returns a server over idx.
func New(idx Store) *Server {
	return &Server{idx: idx, conns: make(map[net.Conn]struct{}), stop: make(chan struct{})}
}

// Serve accepts connections until the listener or the server is
// closed; each connection is handled on its own goroutine. Running out
// of file descriptors (EMFILE, ENFILE) or a connection aborted before
// it was accepted (ECONNABORTED) does not stop it: it retries with a
// backoff from 5ms doubling to 1s, as net/http does. Any other accept
// error is returned.
func (s *Server) Serve(ln net.Listener) error {
	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			if !errors.Is(err, syscall.EMFILE) && !errors.Is(err, syscall.ENFILE) && !errors.Is(err, syscall.ECONNABORTED) {
				return err
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-time.After(backoff):
				continue
			case <-s.stop:
				return nil
			}
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go func() {
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
				s.handlers.Done()
			}()
			s.Handle(conn)
		}()
	}
}

// Close terminates all active connections and waits for their handlers
// to finish the command in flight, so the caller can safely close the
// Store afterwards (the graceful-shutdown sequence of cmd/alexkv).
func (s *Server) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		// Stop first: a REPLICATE handler parked at the live WAL tail
		// holds no connection read, so only this channel unblocks it.
		close(s.stop)
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.handlers.Wait()
}

// Handle speaks the protocol on one stream until EOF or QUIT. Exposed
// for tests (net.Pipe) and embedding.
func (s *Server) Handle(rw io.ReadWriter) {
	sc := bufio.NewScanner(rw)
	// 1 MiB lines: a pipelined MSET of tens of thousands of pairs is the
	// workload the batch commands exist for.
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	// Each hot reply reaches w in one Write. An empty bufio.Writer passes
	// a Write larger than its buffer straight through, so even a reply
	// past the 4 KiB default leaves in one write.
	c := &conn{s: s, w: bufio.NewWriter(rw)}
	defer c.w.Flush()
	for sc.Scan() {
		// The tokens alias the scanner's buffer, which is ours until the
		// next Scan: the verb is upper-cased in place and nothing keeps
		// a token past its command.
		c.toks = appendFields(c.toks[:0], sc.Bytes())
		if len(c.toks) == 0 {
			continue
		}
		verb, args := upperASCII(c.toks[0]), c.toks[1:]
		if string(verb) == "REPLICATE" {
			// REPLICATE takes over the connection as a binary record
			// stream; it never returns to the command loop.
			s.handleReplicate(rw, c.w, args)
			c.w.Flush()
			return
		}
		if quit := c.dispatch(verb, args); quit {
			break
		}
		if err := c.w.Flush(); err != nil {
			return
		}
		c.release()
	}
	if err := sc.Err(); err != nil {
		// Tell the client why the connection is going away (e.g. a
		// command line beyond the buffer limit) instead of a bare reset,
		// then drain a bounded amount of the already-sent input so the
		// close doesn't RST the reply away before the client reads it.
		fmt.Fprintf(c.w, "ERR %v\n", err)
		if c.w.Flush() == nil {
			io.Copy(io.Discard, io.LimitReader(rw, 1<<20))
		}
	}
}

// conn is the command loop state of one connection. Its buffers are
// reused from command to command, so GET, MGET and SCAN run without
// allocating.
type conn struct {
	s     *Server
	w     *bufio.Writer
	toks  [][]byte // the current line's tokens
	out   []byte   // the reply being built, sent with one Write
	keys  []float64
	vals  []uint64
	found []bool
}

// release drops the buffers after a command that grew them past
// maxKept elements (a 1 MiB line can carry half a million keys), so a
// long-lived connection does not pin them.
func (c *conn) release() {
	const maxKept = 4096
	if cap(c.toks) > maxKept || cap(c.keys) > maxKept || cap(c.vals) > maxKept ||
		cap(c.found) > maxKept || cap(c.out) > 16*maxKept {
		*c = conn{s: c.s, w: c.w}
	}
}

// fail replies "ERR <prefix><err>".
func (c *conn) fail(prefix string, err error) {
	c.w.WriteString("ERR " + prefix + err.Error() + "\n")
}

// sendCount replies "OK <n>".
func (c *conn) sendCount(n int) {
	c.out = append(strconv.AppendInt(append(c.out[:0], "OK "...), int64(n), 10), '\n')
	c.w.Write(c.out)
}

// dispatch executes one command; verb is upper case. It reports whether
// the client quit.
func (c *conn) dispatch(verb []byte, args [][]byte) bool {
	s, w := c.s, c.w
	if s.ReadOnly {
		switch string(verb) {
		case "SET", "DEL", "MSET", "MDEL", "SAVE", "BGSAVE":
			w.WriteString("ERR read-only replica: writes go to the primary\n")
			return false
		}
	}
	switch string(verb) {
	case "SET", "DEL", "MSET", "MDEL":
		// Degraded fast path: a poisoned store rejects every write with
		// the cause; reads below keep serving. A degradation that lands
		// mid-command instead surfaces through writeGuarded.
		if dg, ok := s.idx.(Degrader); ok {
			if err := dg.Degraded(); err != nil {
				c.fail("degraded: ", err)
				return false
			}
		}
	}
	switch string(verb) {
	case "GET":
		key, err := wantKey(args, 1)
		if err != nil {
			c.fail("", err)
			return false
		}
		v, ok := s.idx.Get(key)
		c.out = appendValue(c.out[:0], v, ok)
		w.Write(c.out)
	case "SET":
		if len(args) != 2 {
			w.WriteString("ERR usage: SET <key> <value>\n")
			return false
		}
		key, err := parseKey(args[0])
		if err != nil {
			c.fail("", err)
			return false
		}
		val, err := strconv.ParseUint(string(args[1]), 10, 64)
		if err != nil {
			c.fail("bad value: ", err)
			return false
		}
		writeGuarded(w, func() {
			if s.idx.Insert(key, val) {
				w.WriteString("OK inserted\n")
			} else {
				w.WriteString("OK updated\n")
			}
		})
	case "DEL":
		key, err := wantKey(args, 1)
		if err != nil {
			c.fail("", err)
			return false
		}
		writeGuarded(w, func() {
			if s.idx.Delete(key) {
				w.WriteString("OK\n")
			} else {
				w.WriteString("NOTFOUND\n")
			}
		})
	case "MGET":
		keys, err := parseKeys(c.keys[:0], args)
		c.keys = keys
		if err != nil {
			c.fail("", err)
			return false
		}
		c.vals, c.found = resize(c.vals, len(keys)), resize(c.found, len(keys))
		s.idx.GetBatchInto(keys, c.vals, c.found)
		b := c.out[:0]
		for i := range keys {
			b = appendValue(b, c.vals[i], c.found[i])
		}
		c.out = append(b, "END\n"...)
		w.Write(c.out)
	case "MSET":
		if len(args) < 2 || len(args)%2 != 0 {
			w.WriteString("ERR usage: MSET <key> <value> [<key> <value> ...]\n")
			return false
		}
		keys, vals := c.keys[:0], c.vals[:0]
		for i := 0; i < len(args); i += 2 {
			key, err := parseKey(args[i])
			if err != nil {
				c.fail("", err)
				return false
			}
			val, err := strconv.ParseUint(string(args[i+1]), 10, 64)
			if err != nil {
				c.fail("bad value: ", err)
				return false
			}
			keys = append(keys, key)
			vals = append(vals, val)
		}
		c.keys, c.vals = keys, vals
		writeGuarded(w, func() { c.sendCount(s.idx.InsertBatch(keys, vals)) })
	case "MDEL":
		keys, err := parseKeys(c.keys[:0], args)
		c.keys = keys
		if err != nil {
			c.fail("", err)
			return false
		}
		writeGuarded(w, func() { c.sendCount(s.idx.DeleteBatch(keys)) })
	case "SCAN":
		if len(args) != 2 {
			w.WriteString("ERR usage: SCAN <start> <n>\n")
			return false
		}
		start, err := parseKey(args[0])
		if err != nil {
			c.fail("bad start: ", err)
			return false
		}
		n, err := strconv.Atoi(string(args[1]))
		if err != nil || n < 0 {
			w.WriteString("ERR bad count\n")
			return false
		}
		const maxScan = 10000
		c.keys, c.vals = s.idx.ScanNInto(start, min(n, maxScan), c.keys[:0], c.vals[:0])
		b := c.out[:0]
		for i, k := range c.keys {
			// 17 significant digits, as %.17g: every float64 key
			// round-trips exactly.
			b = strconv.AppendFloat(append(b, "KEY "...), k, 'g', 17, 64)
			b = append(strconv.AppendUint(append(b, ' '), c.vals[i], 10), '\n')
		}
		c.out = append(b, "END\n"...)
		w.Write(c.out)
	case "LEN":
		fmt.Fprintf(w, "LEN %d\n", s.idx.Len())
	case "STATS":
		st := s.idx.Stats()
		fmt.Fprintf(w, "STATS %d %d %d %d\n",
			st.NumLeaves, st.Height, s.idx.IndexSizeBytes(), s.idx.DataSizeBytes())
	case "FLUSH":
		if err := s.idx.Flush(); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
		} else {
			fmt.Fprintln(w, "OK")
		}
	case "SAVE":
		cp, ok := s.idx.(Checkpointer)
		if !ok {
			fmt.Fprintln(w, "ERR store is not durable")
			return false
		}
		if err := cp.Checkpoint(); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
		} else {
			fmt.Fprintln(w, "OK")
		}
	case "BGSAVE":
		cp, ok := s.idx.(Checkpointer)
		if !ok {
			fmt.Fprintln(w, "ERR store is not durable")
			return false
		}
		cp.TriggerCheckpoint()
		fmt.Fprintln(w, "OK scheduled")
	case "WALSTATS":
		ws, ok := s.idx.(WALStatser)
		if !ok {
			fmt.Fprintln(w, "ERR store is not durable")
			return false
		}
		st := ws.WALStats()
		fmt.Fprintf(w, "WAL %d %d %d %d %d %d %d %d\n",
			st.Appends, st.Syncs, st.Bytes, st.Checkpoints, st.Replayed,
			st.Followers, st.MaxFollowerLagBytes, boolInt(st.Degraded))
	case "HEALTH":
		// One line a probe can act on: OK (writable), OK read-only (a
		// replica — healthy but not writable here), or DEGRADED with
		// the poisoning cause.
		if dg, ok := s.idx.(Degrader); ok {
			if err := dg.Degraded(); err != nil {
				fmt.Fprintf(w, "DEGRADED %v\n", err)
				return false
			}
		}
		if s.ReadOnly {
			fmt.Fprintln(w, "OK read-only")
		} else {
			fmt.Fprintln(w, "OK")
		}
	case "REPLINFO":
		switch ix := s.idx.(type) {
		case Replicator:
			seg, off := ix.ReplicationPosition()
			fmt.Fprintln(w, "ROLE primary")
			fmt.Fprintf(w, "POSITION %d %d\n", seg, off)
			fmt.Fprintf(w, "CHECKPOINTS %d\n", ix.Checkpoints())
			if dg, ok := s.idx.(Degrader); ok && dg.Degraded() != nil {
				fmt.Fprintln(w, "DEGRADED true")
			}
			for _, f := range ix.Followers() {
				fmt.Fprintf(w, "FOLLOWER %s %d %d %d\n", f.Addr, f.Seg, f.Off, f.LagBytes)
			}
			fmt.Fprintln(w, "END")
		case ReplicaStatuser:
			source, connected, seg, off := ix.ReplicaStatus()
			fmt.Fprintln(w, "ROLE replica")
			fmt.Fprintf(w, "SOURCE %s\n", source)
			fmt.Fprintf(w, "CONNECTED %v\n", connected)
			fmt.Fprintf(w, "APPLIED %d %d\n", seg, off)
			fmt.Fprintln(w, "END")
		default:
			fmt.Fprintln(w, "ERR store does not replicate")
		}
	case "SNAPSHOT":
		rep, ok := s.idx.(Replicator)
		if !ok {
			fmt.Fprintln(w, "ERR store does not replicate")
			return false
		}
		rc, size, startSeg, err := rep.SnapshotForReplication()
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return false
		}
		fmt.Fprintf(w, "SNAPSHOT %d %d\n", size, startSeg)
		if rc != nil {
			_, err := io.CopyN(w, rc, size)
			rc.Close()
			if err != nil {
				// Mid-binary-stream there is no way to signal the error
				// in-band; the short body desynchronizes the client,
				// which drops the connection and retries.
				return true
			}
		}
	case "QUIT":
		fmt.Fprintln(w, "BYE")
		return true
	default:
		// strings.ToUpper, not the ASCII fold, names the verb exactly
		// as the reply always has.
		fmt.Fprintf(w, "ERR unknown command %q\n", strings.ToUpper(string(verb)))
	}
	return false
}

// handleReplicate serves one follower's record stream: validate the
// requested position, reply STREAM (or TRUNCATED — the re-bootstrap
// signal), then ship every committed record from there on, blocking at
// the live tail until the next group commit lands. The stream ends
// only when the connection dies, the server closes, or the tailer hits
// truncated/corrupt history (the follower reconnects and re-syncs).
func (s *Server) handleReplicate(rw io.ReadWriter, w *bufio.Writer, args [][]byte) {
	rep, ok := s.idx.(Replicator)
	if !ok {
		fmt.Fprintln(w, "ERR store does not replicate")
		return
	}
	if len(args) != 2 {
		fmt.Fprintln(w, "ERR usage: REPLICATE <segment> <offset>")
		return
	}
	seg, err1 := strconv.ParseUint(string(args[0]), 10, 64)
	off, err2 := strconv.ParseInt(string(args[1]), 10, 64)
	if err1 != nil || err2 != nil || off < 0 {
		fmt.Fprintln(w, "ERR bad position")
		return
	}
	tl, err := rep.NewTailer(seg, off)
	if err != nil {
		if errors.Is(err, wal.ErrTruncated) {
			fmt.Fprintln(w, "TRUNCATED")
		} else {
			fmt.Fprintf(w, "ERR %v\n", err)
		}
		return
	}
	defer tl.Close()
	fmt.Fprintln(w, "STREAM")
	if w.Flush() != nil {
		return
	}

	addr := "?"
	if c, ok := rw.(net.Conn); ok {
		addr = c.RemoteAddr().String()
	}
	h := rep.RegisterFollower(addr, tl.Seg(), tl.Off())
	defer h.Unregister()

	// The follower sends nothing after REPLICATE, so a pending read
	// returns only when the connection dies — the signal that must end
	// a stream parked at the live tail waiting for the next commit.
	// Server.Close is the other such signal.
	stop := make(chan struct{})
	connDead := make(chan struct{})
	go func() {
		var buf [64]byte
		for {
			if _, err := rw.Read(buf[:]); err != nil {
				close(connDead)
				return
			}
		}
	}()
	go func() {
		select {
		case <-s.stop:
		case <-connDead:
		}
		close(stop)
	}()

	heartbeat := s.HeartbeatEvery
	if heartbeat == 0 {
		heartbeat = 2 * time.Second
	}
	writeTimeout := s.StreamWriteTimeout
	if writeTimeout <= 0 {
		writeTimeout = 30 * time.Second
	}
	conn, _ := rw.(net.Conn)
	// armWrite bounds the next write burst: a follower that stops
	// reading fails the flush at the deadline instead of pinning this
	// handler (and its tailer's file handle) forever.
	armWrite := func() {
		if conn != nil {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		}
	}

	var enc []byte
	for {
		rec, rseg, roff, err := tl.NextTimeout(stop, heartbeat)
		if errors.Is(err, wal.ErrIdle) {
			// Nothing to ship: prove liveness so the follower's idle
			// deadline only fires on a genuinely hung or dead primary.
			pseg, poff := rep.ReplicationPosition()
			armWrite()
			if _, err := w.Write(repl.AppendHeartbeat(enc[:0], pseg, poff)); err != nil {
				return
			}
			if w.Flush() != nil {
				return
			}
			continue
		}
		if err != nil {
			return
		}
		enc = repl.AppendFrameHeader(enc[:0], rseg, roff)
		if enc, err = wal.AppendRecord(enc, rec); err != nil {
			return
		}
		armWrite()
		if _, err := w.Write(enc); err != nil {
			return
		}
		h.Advance(rseg, roff)
		// Flush before a Next that would block, so the follower sees
		// the live tail without per-record flush syscalls mid-burst.
		if !tl.Pending() && w.Flush() != nil {
			return
		}
	}
}

// writeGuarded runs one mutating command body, converting the
// degradation panic of the Store's bool-returning mutators (an error
// wrapping alex.ErrDegraded) into an in-band "ERR degraded" reply.
// Anything else keeps panicking — only the defined degraded rejection
// is a protocol-level outcome.
func writeGuarded(w *bufio.Writer, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && errors.Is(e, alex.ErrDegraded) {
				w.WriteString("ERR degraded: " + e.Error() + "\n")
				return
			}
			panic(r)
		}
	}()
	fn()
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// asciiSpace marks the bytes that separate a command's arguments.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// appendFields appends the asciiSpace-separated tokens of line to dst.
// The tokens alias line.
func appendFields(dst [][]byte, line []byte) [][]byte {
	for i := 0; i < len(line); {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		start := i
		for i < len(line) && !asciiSpace[line[i]] {
			i++
		}
		if i > start {
			dst = append(dst, line[start:i])
		}
	}
	return dst
}

// upperASCII upper-cases the ASCII letters of b in place and returns b,
// so a verb matches its command name in any ASCII case.
func upperASCII(b []byte) []byte {
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
	return b
}

// appendValue appends the reply line of one point lookup.
func appendValue(b []byte, v uint64, ok bool) []byte {
	if !ok {
		return append(b, "NOTFOUND\n"...)
	}
	return append(strconv.AppendUint(append(b, "VALUE "...), v, 10), '\n')
}

// resize returns s with length n, reallocating only when it is too
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

var errArgCount = errors.New("wrong argument count")

func wantKey(args [][]byte, n int) (float64, error) {
	if len(args) != n {
		return 0, errArgCount
	}
	return parseKey(args[0])
}

// parseKey parses one key, rejecting the non-finite values the index
// panics on ("NaN", "Inf" and friends parse as valid floats).
func parseKey(arg []byte) (float64, error) {
	k, err := strconv.ParseFloat(string(arg), 64)
	if err != nil {
		return 0, fmt.Errorf("bad key: %v", err)
	}
	if math.IsNaN(k) || math.IsInf(k, 0) {
		return 0, fmt.Errorf("bad key: %q is not finite", arg)
	}
	return k, nil
}

// parseKeys appends the keys parsed from args, at least one, to keys.
func parseKeys(keys []float64, args [][]byte) ([]float64, error) {
	if len(args) == 0 {
		return keys, errArgCount
	}
	for _, a := range args {
		k, err := parseKey(a)
		if err != nil {
			return keys, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}
