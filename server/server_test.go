package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"

	alex "repro"
)

// client wraps one side of a connection with line-level send/expect.
type client struct {
	t  *testing.T
	c  net.Conn
	br *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &client{t: t, c: c, br: bufio.NewReader(c)}
}

func (cl *client) send(line string) {
	cl.t.Helper()
	if _, err := fmt.Fprintln(cl.c, line); err != nil {
		cl.t.Fatal(err)
	}
}

func (cl *client) recv() string {
	cl.t.Helper()
	line, err := cl.br.ReadString('\n')
	if err != nil {
		cl.t.Fatal(err)
	}
	return strings.TrimRight(line, "\n")
}

func (cl *client) roundTrip(cmd string) string {
	cl.send(cmd)
	return cl.recv()
}

func startServer(t *testing.T) (string, *Server) {
	t.Helper()
	idx := alex.NewSync(alex.WithSplitOnInsert())
	srv := New(idx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); srv.Close() })
	return ln.Addr().String(), srv
}

func TestProtocolBasics(t *testing.T) {
	addr, _ := startServer(t)
	cl := dial(t, addr)

	if got := cl.roundTrip("GET 1"); got != "NOTFOUND" {
		t.Fatalf("GET on empty = %q", got)
	}
	if got := cl.roundTrip("SET 1 100"); got != "OK inserted" {
		t.Fatalf("SET = %q", got)
	}
	if got := cl.roundTrip("SET 1 200"); got != "OK updated" {
		t.Fatalf("re-SET = %q", got)
	}
	if got := cl.roundTrip("GET 1"); got != "VALUE 200" {
		t.Fatalf("GET = %q", got)
	}
	if got := cl.roundTrip("LEN"); got != "LEN 1" {
		t.Fatalf("LEN = %q", got)
	}
	if got := cl.roundTrip("DEL 1"); got != "OK" {
		t.Fatalf("DEL = %q", got)
	}
	if got := cl.roundTrip("DEL 1"); got != "NOTFOUND" {
		t.Fatalf("re-DEL = %q", got)
	}
	if got := cl.roundTrip("QUIT"); got != "BYE" {
		t.Fatalf("QUIT = %q", got)
	}
}

func TestProtocolScan(t *testing.T) {
	addr, _ := startServer(t)
	cl := dial(t, addr)
	for i := 0; i < 20; i++ {
		if got := cl.roundTrip(fmt.Sprintf("SET %d %d", i*10, i)); !strings.HasPrefix(got, "OK") {
			t.Fatalf("SET = %q", got)
		}
	}
	cl.send("SCAN 45 3")
	want := []string{"KEY 50 5", "KEY 60 6", "KEY 70 7", "END"}
	for _, w := range want {
		if got := cl.recv(); got != w {
			t.Fatalf("scan line = %q, want %q", got, w)
		}
	}
	// Empty scan.
	cl.send("SCAN 1000 5")
	if got := cl.recv(); got != "END" {
		t.Fatalf("empty scan = %q", got)
	}
}

func TestProtocolErrors(t *testing.T) {
	addr, _ := startServer(t)
	cl := dial(t, addr)
	cases := []string{
		"BOGUS",
		"GET",
		"GET abc",
		"SET 1",
		"SET abc 1",
		"SET 1 notanumber",
		"DEL",
		"SCAN 1",
		"SCAN abc 5",
		"SCAN 1 -2",
	}
	for _, c := range cases {
		if got := cl.roundTrip(c); !strings.HasPrefix(got, "ERR") {
			t.Fatalf("%q -> %q, want ERR", c, got)
		}
	}
	// The connection stays usable after errors.
	if got := cl.roundTrip("SET 5 5"); got != "OK inserted" {
		t.Fatalf("after errors: %q", got)
	}
}

func TestProtocolStats(t *testing.T) {
	addr, _ := startServer(t)
	cl := dial(t, addr)
	cl.roundTrip("SET 1 1")
	got := cl.roundTrip("STATS")
	var leaves, height, idxB, dataB int
	if _, err := fmt.Sscanf(got, "STATS %d %d %d %d", &leaves, &height, &idxB, &dataB); err != nil {
		t.Fatalf("STATS = %q: %v", got, err)
	}
	if leaves < 1 || height < 1 || idxB <= 0 || dataB <= 0 {
		t.Fatalf("STATS values: %q", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := startServer(t)
	const clients = 8
	const perClient = 300
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			cl := dial(t, addr)
			for i := 0; i < perClient; i++ {
				key := base*perClient + i
				if got := cl.roundTrip(fmt.Sprintf("SET %d %d", key, key)); got != "OK inserted" {
					t.Errorf("SET %d = %q", key, got)
					return
				}
			}
			for i := 0; i < perClient; i++ {
				key := base*perClient + i
				if got := cl.roundTrip(fmt.Sprintf("GET %d", key)); got != fmt.Sprintf("VALUE %d", key) {
					t.Errorf("GET %d = %q", key, got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	cl := dial(t, addr)
	if got := cl.roundTrip("LEN"); got != fmt.Sprintf("LEN %d", clients*perClient) {
		t.Fatalf("final LEN = %q", got)
	}
}

func TestScanCapAndBlankLines(t *testing.T) {
	addr, _ := startServer(t)
	cl := dial(t, addr)
	cl.roundTrip("SET 1 1")
	// Blank lines are ignored, not errors.
	cl.send("")
	cl.send("LEN")
	if got := cl.recv(); got != "LEN 1" {
		t.Fatalf("after blank line: %q", got)
	}
	// Oversized scans are capped server-side, not rejected.
	cl.send("SCAN 0 999999")
	if got := cl.recv(); got != "KEY 1 1" {
		t.Fatalf("capped scan first line = %q", got)
	}
	if got := cl.recv(); got != "END" {
		t.Fatalf("capped scan end = %q", got)
	}
}

func TestProtocolBatch(t *testing.T) {
	addr, _ := startServer(t)
	cl := dial(t, addr)

	if got := cl.roundTrip("MSET 10 1 20 2 30 3"); got != "OK 3" {
		t.Fatalf("MSET = %q", got)
	}
	// Re-setting existing keys inserts nothing new.
	if got := cl.roundTrip("MSET 10 100 40 4"); got != "OK 1" {
		t.Fatalf("MSET overwrite = %q", got)
	}
	cl.send("MGET 10 20 25 40")
	want := []string{"VALUE 100", "VALUE 2", "NOTFOUND", "VALUE 4", "END"}
	for _, w := range want {
		if got := cl.recv(); got != w {
			t.Fatalf("MGET line = %q, want %q", got, w)
		}
	}
	if got := cl.roundTrip("MDEL 10 25 30"); got != "OK 2" {
		t.Fatalf("MDEL = %q", got)
	}
	if got := cl.roundTrip("LEN"); got != "LEN 2" {
		t.Fatalf("LEN after MDEL = %q", got)
	}
	// Unsorted batches remain correct (fallback path).
	if got := cl.roundTrip("MSET 9 9 5 5 7 7"); got != "OK 3" {
		t.Fatalf("unsorted MSET = %q", got)
	}
	cl.send("MGET 7 5 9")
	for _, w := range []string{"VALUE 7", "VALUE 5", "VALUE 9", "END"} {
		if got := cl.recv(); got != w {
			t.Fatalf("unsorted MGET line = %q, want %q", got, w)
		}
	}
}

func TestProtocolBatchErrors(t *testing.T) {
	addr, _ := startServer(t)
	cl := dial(t, addr)
	cases := []string{
		"MGET",
		"MGET abc",
		"MSET",
		"MSET 1",
		"MSET 1 2 3",
		"MSET abc 1",
		"MSET 1 notanumber",
		"MDEL",
		"MDEL abc",
	}
	for _, c := range cases {
		if got := cl.roundTrip(c); !strings.HasPrefix(got, "ERR") {
			t.Fatalf("%q -> %q, want ERR", c, got)
		}
	}
	if got := cl.roundTrip("MSET 1 1"); got != "OK 1" {
		t.Fatalf("after errors: %q", got)
	}
}

func TestProtocolRejectsNonFiniteKeys(t *testing.T) {
	addr, _ := startServer(t)
	cl := dial(t, addr)
	// "NaN"/"Inf" parse as floats but the index panics on them; the
	// server must reject them instead of dying (a crash here killed the
	// whole process, not just the connection).
	for _, c := range []string{
		"SET NaN 1", "SET Inf 1", "SET -Inf 1",
		"MSET NaN 1", "MSET 1 1 Inf 2",
		"MGET NaN", "MDEL Inf", "GET NaN", "DEL Inf", "SCAN NaN 5", "SCAN Inf 5",
	} {
		if got := cl.roundTrip(c); !strings.HasPrefix(got, "ERR") {
			t.Fatalf("%q -> %q, want ERR", c, got)
		}
	}
	if got := cl.roundTrip("LEN"); got != "LEN 0" {
		t.Fatalf("LEN after non-finite rejects = %q", got)
	}
}

func TestProtocolLargeBatchLine(t *testing.T) {
	addr, _ := startServer(t)
	cl := dial(t, addr)
	// A 10k-pair MSET (~200 KiB line) must fit in the scanner buffer.
	var sb strings.Builder
	sb.WriteString("MSET")
	for i := 0; i < 10000; i++ {
		fmt.Fprintf(&sb, " %d.5 %d", i, i)
	}
	if got := cl.roundTrip(sb.String()); got != "OK 10000" {
		t.Fatalf("large MSET = %q", got)
	}
	if got := cl.roundTrip("LEN"); got != "LEN 10000" {
		t.Fatalf("LEN = %q", got)
	}
	// Beyond the 1 MiB cap the client gets an ERR line, not a bare reset.
	sb.Reset()
	sb.WriteString("MGET")
	for i := 0; i < 300000; i++ {
		sb.WriteString(" 1.5")
	}
	if got := cl.roundTrip(sb.String()); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("over-limit line -> %q, want ERR", got)
	}
}

// TestShardedStoreConcurrentClients serves a ShardedIndex and hammers
// it from parallel connections writing disjoint key regions — the
// deployment shape cmd/alexkv now defaults to.
func TestShardedStoreConcurrentClients(t *testing.T) {
	idx := alex.NewSharded(4, alex.WithSplitOnInsert())
	srv := New(idx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); srv.Close() })
	addr := ln.Addr().String()

	const clients, perClient = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			base := c * 100000
			for i := 0; i < perClient; i++ {
				fmt.Fprintf(conn, "SET %d %d\n", base+i, base+i)
				if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "OK") {
					errs <- fmt.Errorf("SET -> %q %v", line, err)
					return
				}
			}
			for i := 0; i < perClient; i++ {
				fmt.Fprintf(conn, "GET %d\n", base+i)
				want := fmt.Sprintf("VALUE %d\n", base+i)
				if line, err := br.ReadString('\n'); err != nil || line != want {
					errs <- fmt.Errorf("GET -> %q %v, want %q", line, err, want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cl := dial(t, addr)
	if got := cl.roundTrip("LEN"); got != fmt.Sprintf("LEN %d", clients*perClient) {
		t.Fatalf("LEN = %q", got)
	}
	// Ordered SCAN stitches shard seams: keys arrive sorted.
	cl.send("SCAN -1e18 1000")
	prev := ""
	for {
		line := cl.recv()
		if line == "END" {
			break
		}
		if !strings.HasPrefix(line, "KEY ") {
			t.Fatalf("scan line %q", line)
		}
		if prev != "" && len(line) > 0 {
			// keys are emitted in ascending order; a lexical check on
			// the formatted float is not reliable, so parse.
			var k float64
			var v uint64
			if _, err := fmt.Sscanf(line, "KEY %g %d", &k, &v); err != nil {
				t.Fatalf("bad scan line %q: %v", line, err)
			}
			var pk float64
			fmt.Sscanf(prev, "KEY %g", &pk)
			if k <= pk {
				t.Fatalf("scan out of order: %q after %q", line, prev)
			}
		}
		prev = line
	}
}

// startDurableServer serves a DurableIndex from a temp dir.
func startDurableServer(t *testing.T, dir string) (string, *Server) {
	t.Helper()
	idx, err := alex.OpenDurable(dir, alex.WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	ln, lerr := net.Listen("tcp", "127.0.0.1:0")
	if lerr != nil {
		t.Fatal(lerr)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { ln.Close(); srv.Close(); idx.Close() })
	return ln.Addr().String(), srv
}

// TestDurabilityCommands exercises FLUSH/SAVE/BGSAVE/WALSTATS against a
// durable store and their ERR forms against an in-memory one.
func TestDurabilityCommands(t *testing.T) {
	addr, _ := startDurableServer(t, t.TempDir())
	cl := dial(t, addr)

	if got := cl.roundTrip("SET 1 100"); got != "OK inserted" {
		t.Fatalf("SET = %q", got)
	}
	if got := cl.roundTrip("FLUSH"); got != "OK" {
		t.Fatalf("FLUSH = %q", got)
	}
	if got := cl.roundTrip("SAVE"); got != "OK" {
		t.Fatalf("SAVE = %q", got)
	}
	if got := cl.roundTrip("BGSAVE"); got != "OK scheduled" {
		t.Fatalf("BGSAVE = %q", got)
	}
	line := cl.roundTrip("WALSTATS")
	var appends, syncs, bytes, ckpts uint64
	var replayed int
	if _, err := fmt.Sscanf(line, "WAL %d %d %d %d %d", &appends, &syncs, &bytes, &ckpts, &replayed); err != nil {
		t.Fatalf("WALSTATS line %q: %v", line, err)
	}
	if appends == 0 || ckpts == 0 {
		t.Fatalf("WALSTATS = %q: want appends > 0 and checkpoints > 0", line)
	}

	// In-memory stores refuse the checkpoint commands but accept FLUSH.
	memAddr, _ := startServer(t)
	mem := dial(t, memAddr)
	if got := mem.roundTrip("FLUSH"); got != "OK" {
		t.Fatalf("in-memory FLUSH = %q", got)
	}
	for _, cmd := range []string{"SAVE", "BGSAVE", "WALSTATS"} {
		if got := mem.roundTrip(cmd); got != "ERR store is not durable" {
			t.Fatalf("in-memory %s = %q", cmd, got)
		}
	}
}

// TestDurableServerRestart round-trips acked writes through a full
// server shutdown (drain handlers, close store) and a restart over the
// same data dir.
func TestDurableServerRestart(t *testing.T) {
	dir := t.TempDir()
	idx, err := alex.OpenDurable(dir, alex.WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	cl := dial(t, ln.Addr().String())
	if got := cl.roundTrip("MSET 1 10 2 20 3 30"); got != "OK 3" {
		t.Fatalf("MSET = %q", got)
	}
	if got := cl.roundTrip("DEL 2"); got != "OK" {
		t.Fatalf("DEL = %q", got)
	}
	// The graceful-shutdown sequence of cmd/alexkv.
	ln.Close()
	srv.Close()
	if err := idx.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := alex.OpenDurable(dir, alex.WithCheckpointEvery(0))
	if err != nil {
		t.Fatal(err)
	}
	srv2 := New(re)
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2)
	t.Cleanup(func() { ln2.Close(); srv2.Close(); re.Close() })
	cl2 := dial(t, ln2.Addr().String())
	if got := cl2.roundTrip("LEN"); got != "LEN 2" {
		t.Fatalf("restarted LEN = %q", got)
	}
	if got := cl2.roundTrip("GET 1"); got != "VALUE 10" {
		t.Fatalf("restarted GET 1 = %q", got)
	}
	if got := cl2.roundTrip("GET 2"); got != "NOTFOUND" {
		t.Fatalf("restarted GET 2 = %q", got)
	}
	if got := cl2.roundTrip("GET 3"); got != "VALUE 30" {
		t.Fatalf("restarted GET 3 = %q", got)
	}
	// A clean shutdown leaves everything in the snapshot: the reopened
	// log tail replays only the final checkpoint marker, if anything.
	line := cl2.roundTrip("WALSTATS")
	var appends, syncs, bytes, ckpts uint64
	var replayed int
	if _, err := fmt.Sscanf(line, "WAL %d %d %d %d %d", &appends, &syncs, &bytes, &ckpts, &replayed); err != nil {
		t.Fatalf("WALSTATS line %q: %v", line, err)
	}
	if replayed > 1 {
		t.Fatalf("replayed %d records after clean shutdown, want <= 1 (marker only)", replayed)
	}
}

// flakyListener fails its first Accept calls with errs, then accepts
// from the real listener.
type flakyListener struct {
	net.Listener
	errs []error
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		return nil, err
	}
	return l.Listener.Accept()
}

// acceptErr wraps errno the way the net package reports a failed
// accept(2).
func acceptErr(errno error) error {
	return &net.OpError{Op: "accept", Net: "tcp", Err: os.NewSyscallError("accept4", errno)}
}

// TestServeSurvivesAcceptErrors: running out of descriptors or a
// connection aborted in the accept queue must not stop the server; the
// next connection is served.
func TestServeSurvivesAcceptErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(alex.NewSync())
	fl := &flakyListener{Listener: ln, errs: []error{
		acceptErr(syscall.EMFILE), acceptErr(syscall.ENFILE), acceptErr(syscall.ECONNABORTED),
	}}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(fl) }()
	cl := dial(t, ln.Addr().String())
	if got := cl.roundTrip("LEN"); got != "LEN 0" {
		t.Fatalf("LEN after accept errors = %q", got)
	}
	ln.Close()
	srv.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve = %v, want nil after Close", err)
	}
}

// TestServeAcceptErrorExits: any other accept error ends Serve with
// that error, and Close ends a Serve that is backing off.
func TestServeAcceptErrorExits(t *testing.T) {
	boom := errors.New("boom")
	if err := New(alex.NewSync()).Serve(&flakyListener{errs: []error{boom}}); !errors.Is(err, boom) {
		t.Fatalf("Serve = %v, want %v", err, boom)
	}

	srv := New(alex.NewSync())
	fl := &flakyListener{errs: make([]error, 1000)}
	for i := range fl.errs {
		fl.errs[i] = acceptErr(syscall.EMFILE)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(fl) }()
	srv.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close = %v, want nil", err)
	}
}
