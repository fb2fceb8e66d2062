package alex_test

// Crash-recovery torture harness: build the real cmd/alexkv binary,
// kill it with SIGKILL in the middle of a concurrent write storm,
// restart it over the same data dir, and verify that every
// acknowledged write survived and that no unacknowledged batch is
// half-applied. A second test drives the graceful-shutdown path
// (SIGTERM -> drain -> final checkpoint) and checks the restart
// recovers from the snapshot alone.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildAlexkv compiles cmd/alexkv into dir and returns the binary path.
func buildAlexkv(t *testing.T) string {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("kill -9 harness is unix-only")
	}
	bin := filepath.Join(t.TempDir(), "alexkv")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/alexkv")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Skipf("cannot build alexkv (no go toolchain?): %v\n%s", err, out)
	}
	return bin
}

// startAlexkv launches a durable server on an ephemeral port and
// parses the bound address from its log output.
func startAlexkv(t *testing.T, bin, dataDir string, extra ...string) (*exec.Cmd, string) {
	t.Helper()
	return startAlexkvArgs(t, bin, append([]string{
		"-addr", "127.0.0.1:0",
		"-data-dir", dataDir,
		"-fsync", "always",
		"-checkpoint-every", "0",
	}, extra...)...)
}

// startAlexkvArgs launches the binary with exactly these flags and
// parses the bound address from its log output. Duplicate flags later
// in the list override earlier ones.
func startAlexkvArgs(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	dieWithParent(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stderr)
	addrCh := make(chan string, 1)
	go func() {
		const marker = "alexkv listening on "
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, marker); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len(marker):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr
	case <-time.After(30 * time.Second):
		t.Fatal("alexkv did not report a listen address")
		return nil, ""
	}
}

// kvConn is a minimal protocol client with I/O deadlines.
type kvConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialKV(addr string) (*kvConn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &kvConn{c: c, br: bufio.NewReader(c)}, nil
}

func (k *kvConn) roundTrip(cmd string) (string, error) {
	k.c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintln(k.c, cmd); err != nil {
		return "", err
	}
	line, err := k.br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\n"), nil
}

// writerLog is one storm writer's record of what the server
// acknowledged and what was in flight when the connection died.
type writerLog struct {
	acked   map[float64]uint64 // key -> value of every acked write
	pending []float64          // keys of the command that never got a reply
	pendVal uint64
}

// storm runs sequential SET/MSET traffic on one connection until stop
// closes or the connection dies, recording acks. Writer g owns the key
// range [g*1e6, g*1e6+...) so writers never overwrite each other.
func storm(g int, addr string, stop <-chan struct{}, lg *writerLog) {
	kv, err := dialKV(addr)
	if err != nil {
		return
	}
	defer kv.c.Close()
	lg.acked = make(map[float64]uint64)
	base := float64(g) * 1e6
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		val := uint64(g*1_000_000 + i)
		if i%5 == 4 {
			// A 4-key batch: one WAL record, atomic on recovery.
			keys := []float64{base + float64(i)*10, base + float64(i)*10 + 1,
				base + float64(i)*10 + 2, base + float64(i)*10 + 3}
			var sb strings.Builder
			sb.WriteString("MSET")
			for _, k := range keys {
				fmt.Fprintf(&sb, " %g %d", k, val)
			}
			lg.pending, lg.pendVal = keys, val
			if _, err := kv.roundTrip(sb.String()); err != nil {
				return
			}
			for _, k := range keys {
				lg.acked[k] = val
			}
		} else {
			k := base + float64(i)*10
			lg.pending, lg.pendVal = []float64{k}, val
			if _, err := kv.roundTrip(fmt.Sprintf("SET %g %d", k, val)); err != nil {
				return
			}
			lg.acked[k] = val
		}
		lg.pending = nil
	}
}

// TestKillNineRecovery is the acceptance bar: SIGKILL mid-write-storm,
// restart, and the reopened index holds exactly the acked writes (plus
// possibly whole — never partial — in-flight commands).
func TestKillNineRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	bin := buildAlexkv(t)
	dir := t.TempDir()
	cmd, addr := startAlexkv(t, bin, dir)

	const writers = 8
	logs := make([]writerLog, writers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			storm(g, addr, stop, &logs[g])
		}(g)
	}

	// Let the storm build up, then kill -9 mid-flight.
	time.Sleep(400 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	close(stop)
	wg.Wait()

	total := 0
	for g := range logs {
		total += len(logs[g].acked)
	}
	if total == 0 {
		t.Fatal("storm acked nothing before the kill; harness broken")
	}
	t.Logf("killed mid-storm after %d acked writes across %d writers", total, writers)

	// Restart over the same dir and verify.
	_, addr2 := startAlexkv(t, bin, dir)
	kv, err := dialKV(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.c.Close()

	pendingApplied := 0
	for g := range logs {
		lg := &logs[g]
		for k, v := range lg.acked {
			resp, err := kv.roundTrip(fmt.Sprintf("GET %g", k))
			if err != nil {
				t.Fatal(err)
			}
			if resp != fmt.Sprintf("VALUE %d", v) {
				t.Fatalf("writer %d: acked key %g lost or wrong: %q (want VALUE %d)", g, k, resp, v)
			}
		}
		// The in-flight command may have become durable before the kill
		// or not — but a batch must be all-or-nothing.
		if len(lg.pending) > 0 {
			present := 0
			for _, k := range lg.pending {
				if _, acked := lg.acked[k]; acked {
					continue // an earlier acked write owns this key
				}
				resp, err := kv.roundTrip(fmt.Sprintf("GET %g", k))
				if err != nil {
					t.Fatal(err)
				}
				if resp == fmt.Sprintf("VALUE %d", lg.pendVal) {
					present++
				}
			}
			if present != 0 && present != len(lg.pending) {
				t.Fatalf("writer %d: unacked batch half-applied: %d of %d keys present",
					g, present, len(lg.pending))
			}
			pendingApplied += present
		}
	}
	// Exact-set check: nothing beyond acked + whole pending survived.
	resp, err := kv.roundTrip("LEN")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := fmt.Sscanf(resp, "LEN %d", &n); err != nil {
		t.Fatalf("LEN reply %q: %v", resp, err)
	}
	if n != total+pendingApplied {
		t.Fatalf("recovered Len = %d, want %d acked + %d whole in-flight", n, total, pendingApplied)
	}
	t.Logf("recovered %d keys (%d acked + %d whole in-flight)", n, total, pendingApplied)
}

// TestGracefulShutdown: SIGTERM drains connections, flushes the WAL and
// writes a final checkpoint, so the restart recovers from the snapshot
// with an (essentially) empty log tail.
func TestGracefulShutdown(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	bin := buildAlexkv(t)
	dir := t.TempDir()
	cmd, addr := startAlexkv(t, bin, dir)

	kv, err := dialKV(addr)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := kv.roundTrip("MSET 1 10 2 20 3 30"); err != nil || resp != "OK 3" {
		t.Fatalf("MSET = %q, %v", resp, err)
	}
	kv.c.Close()

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("alexkv exited with %v after SIGTERM", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("alexkv did not exit after SIGTERM")
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.alex")); err != nil {
		t.Fatalf("graceful shutdown left no snapshot: %v", err)
	}

	_, addr2 := startAlexkv(t, bin, dir)
	kv2, err := dialKV(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.c.Close()
	if resp, _ := kv2.roundTrip("LEN"); resp != "LEN 3" {
		t.Fatalf("restarted LEN = %q", resp)
	}
	for k, v := range map[string]string{"1": "10", "2": "20", "3": "30"} {
		if resp, _ := kv2.roundTrip("GET " + k); resp != "VALUE "+v {
			t.Fatalf("restarted GET %s = %q", k, resp)
		}
	}
	resp, err := kv2.roundTrip("WALSTATS")
	if err != nil {
		t.Fatal(err)
	}
	var appends, syncs, bytes, ckpts uint64
	var replayed int
	if _, err := fmt.Sscanf(resp, "WAL %d %d %d %d %d", &appends, &syncs, &bytes, &ckpts, &replayed); err != nil {
		t.Fatalf("WALSTATS %q: %v", resp, err)
	}
	if replayed > 1 {
		t.Fatalf("replayed %d records after clean shutdown, want <= 1 (checkpoint marker only)", replayed)
	}
}

// reserveAddr grabs an ephemeral port and releases it, so a restarted
// primary can come back on the same address its replicas dial.
func reserveAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// replPosition polls REPLINFO on one connection and returns the node's
// position: POSITION for a primary, APPLIED for a replica.
func replPosition(kv *kvConn) (seg uint64, off int64, err error) {
	kv.c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := fmt.Fprintln(kv.c, "REPLINFO"); err != nil {
		return 0, 0, err
	}
	for {
		line, err := kv.br.ReadString('\n')
		if err != nil {
			return 0, 0, err
		}
		line = strings.TrimSpace(line)
		if line == "END" {
			return seg, off, nil
		}
		if n, _ := fmt.Sscanf(line, "POSITION %d %d", &seg, &off); n == 2 {
			continue
		}
		fmt.Sscanf(line, "APPLIED %d %d", &seg, &off)
	}
}

// dumpKV returns the full contents of a node as protocol lines. The
// server caps a SCAN at scanPage rows, so it pages: each page starts at
// the previous page's last key, which SCAN repeats as its first row.
func dumpKV(t *testing.T, kv *kvConn) []string {
	t.Helper()
	const scanPage = 10000
	resp, err := kv.roundTrip("LEN")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := fmt.Sscanf(resp, "LEN %d", &n); err != nil {
		t.Fatalf("LEN reply %q: %v", resp, err)
	}
	var lines []string
	start := "-1e18"
	for {
		kv.c.SetDeadline(time.Now().Add(60 * time.Second))
		if _, err := fmt.Fprintf(kv.c, "SCAN %s %d\n", start, scanPage); err != nil {
			t.Fatal(err)
		}
		var page []string
		for {
			line, err := kv.br.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			line = strings.TrimRight(line, "\n")
			if line == "END" {
				break
			}
			page = append(page, line)
		}
		full := len(page) == scanPage
		if len(lines) > 0 && len(page) > 0 {
			page = page[1:]
		}
		lines = append(lines, page...)
		if !full {
			break
		}
		start = strings.Fields(lines[len(lines)-1])[1]
	}
	if len(lines) != n {
		t.Fatalf("SCAN returned %d lines, LEN said %d", len(lines), n)
	}
	return lines
}

// TestReplicationKillNineConvergence is the replication acceptance
// bar: two replicas stream a concurrent write storm, the primary dies
// by SIGKILL mid-storm and restarts over the same data dir, and both
// replicas reconnect and converge byte-exact with the recovered state.
func TestReplicationKillNineConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	bin := buildAlexkv(t)
	dir := t.TempDir()
	primaryAddr := reserveAddr(t)
	cmd, _ := startAlexkvArgs(t, bin,
		"-addr", primaryAddr,
		"-data-dir", dir,
		"-fsync", "always",
		"-checkpoint-every", "0",
	)

	var replicas []string
	for i := 0; i < 2; i++ {
		_, raddr := startAlexkvArgs(t, bin, "-addr", "127.0.0.1:0", "-replica-of", primaryAddr)
		replicas = append(replicas, raddr)
	}

	const writers = 4
	logs := make([]writerLog, writers)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			storm(g, primaryAddr, stop, &logs[g])
		}(g)
	}

	time.Sleep(400 * time.Millisecond)
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()
	close(stop)
	wg.Wait()

	total := 0
	for g := range logs {
		total += len(logs[g].acked)
	}
	if total == 0 {
		t.Fatal("storm acked nothing before the kill; harness broken")
	}
	t.Logf("killed mid-storm after %d acked writes", total)

	// Restart over the same dir on the same address; replicas reconnect
	// on their own. Recovery opens a fresh WAL segment that stays empty
	// until the next write, and an empty segment emits no frames — so
	// write one sentinel to push the stream (and the replicas' applied
	// positions) into the new segment.
	startAlexkvArgs(t, bin,
		"-addr", primaryAddr,
		"-data-dir", dir,
		"-fsync", "always",
		"-checkpoint-every", "0",
	)
	kv, err := dialKV(primaryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.c.Close()
	if resp, err := kv.roundTrip("SET -5 99"); err != nil || !strings.HasPrefix(resp, "OK") {
		t.Fatalf("sentinel SET = %q, %v", resp, err)
	}
	pseg, poff, err := replPosition(kv)
	if err != nil {
		t.Fatal(err)
	}

	// Wait for both replicas to reach the primary's position (reconnect
	// backoff is up to 2s, then the backlog drains).
	for _, raddr := range replicas {
		rkv, err := dialKV(raddr)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			rseg, roff, err := replPosition(rkv)
			if err != nil {
				t.Fatal(err)
			}
			if rseg > pseg || (rseg == pseg && roff >= poff) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s stuck at %d/%d, primary at %d/%d", raddr, rseg, roff, pseg, poff)
			}
			time.Sleep(20 * time.Millisecond)
		}
		rkv.c.Close()
	}

	// Byte-exact: every replica's full dump equals the primary's.
	want := dumpKV(t, kv)
	for _, raddr := range replicas {
		rkv, err := dialKV(raddr)
		if err != nil {
			t.Fatal(err)
		}
		got := dumpKV(t, rkv)
		rkv.c.Close()
		if len(got) != len(want) {
			t.Fatalf("replica %s has %d keys, primary %d", raddr, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("replica %s diverges at line %d: %q vs primary %q", raddr, i, got[i], want[i])
			}
		}
		// Writes must bounce off a replica.
		if resp, err := rkv2Write(raddr); err != nil || !strings.HasPrefix(resp, "ERR read-only") {
			t.Fatalf("replica accepted a write: %q, %v", resp, err)
		}
	}
	t.Logf("both replicas converged byte-exact on %d keys", len(want))
}

// rkv2Write attempts one SET against a replica and returns the reply.
func rkv2Write(addr string) (string, error) {
	kv, err := dialKV(addr)
	if err != nil {
		return "", err
	}
	defer kv.c.Close()
	return kv.roundTrip("SET 1 1")
}
