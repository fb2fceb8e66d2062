package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	alex "repro"
	"repro/server"
)

// seedDataDir writes a data dir that holds exactly keys, bulk-loaded
// (one Merge, then a checkpoint that truncates the log), so the server
// started on it serves the dataset with a bulk-loaded shape.
func seedDataDir(dir string, keys []float64, vals []uint64, shards int) error {
	d, err := alex.OpenDurable(dir, alex.WithDurableShards(shards), alex.WithCheckpointEvery(0),
		alex.WithIndexOptions(alex.WithSplitOnInsert()))
	if err != nil {
		return err
	}
	if _, err := d.TryMerge(keys, vals); err != nil {
		d.Close()
		return err
	}
	if err := d.Checkpoint(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// backend is a running alexkv: the spawned child in real runs, an
// in-process listener in the smoke test.
type backend interface {
	addr() string
	// cpu returns the CPU time consumed so far.
	cpu() time.Duration
	// kill stops the server without letting it shut down cleanly, waits
	// until it is gone and returns its peak resident set in MB.
	kill() float64
}

// spawnFunc starts a backend over dataDir.
type spawnFunc func(dataDir string, checkpointEvery, shards int) (backend, error)

type child struct {
	cmd      *exec.Cmd
	listenAt string
	exited   chan struct{} // closed once cmd.Wait has returned
}

// addrWatcher is the child's stderr: it keeps the log for error reports
// and signals the listen address once the child prints it.
type addrWatcher struct {
	mu   sync.Mutex
	log  bytes.Buffer
	addr chan string
	seen bool
}

const listenMark = "alexkv listening on "

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log.Write(p)
	if !w.seen {
		if i := bytes.Index(w.log.Bytes(), []byte(listenMark)); i >= 0 {
			rest := w.log.Bytes()[i+len(listenMark):]
			if j := bytes.IndexByte(rest, '\n'); j >= 0 {
				w.seen = true
				w.addr <- string(rest[:j])
			}
		}
	}
	return len(p), nil
}

// spawnChild returns a spawnFunc that runs the alexkv binary at bin.
func spawnChild(bin string) spawnFunc {
	return func(dataDir string, checkpointEvery, shards int) (backend, error) {
		w := &addrWatcher{addr: make(chan string, 1)}
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-data-dir", dataDir, "-fsync", "always",
			"-checkpoint-every", strconv.Itoa(checkpointEvery), "-shards", strconv.Itoa(shards))
		cmd.Stderr = w
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		c := &child{cmd: cmd, exited: make(chan struct{})}
		go func() {
			cmd.Wait()
			close(c.exited)
		}()
		select {
		case c.listenAt = <-w.addr:
			return c, nil
		case <-c.exited:
			return nil, fmt.Errorf("alexkv exited before listening: %v\n%s", cmd.ProcessState, w.log.String())
		case <-time.After(60 * time.Second):
			c.kill()
			return nil, fmt.Errorf("alexkv did not listen within 60s\n%s", w.log.String())
		}
	}
}

func (c *child) addr() string { return c.listenAt }

// cpu reads utime+stime from /proc/<pid>/stat (clock ticks of 10 ms).
func (c *child) cpu() time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the whole line.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// kill reads the peak resident set from /proc/<pid>/status first:
// rusage's ru_maxrss starts from the parent's size at fork, so it would
// report the generator's memory, not the server's.
func (c *child) kill() (rssPeakMB float64) {
	if b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid)); err == nil {
		if _, rest, ok := strings.Cut(string(b), "VmHWM:"); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				rssPeakMB = kb / 1024
			}
		}
	}
	c.cmd.Process.Signal(syscall.SIGKILL)
	<-c.exited
	return rssPeakMB
}

// inProcess serves a DurableIndex from this process; the smoke test
// uses it so go test needs no built binary.
type inProcess struct {
	d   *alex.DurableIndex
	srv *server.Server
	ln  net.Listener
}

// spawnInProcess is the smoke test's spawnFunc. wrap, when non-nil,
// interposes on the store (to inject a wrong reply).
func spawnInProcess(wrap func(server.Store) server.Store) spawnFunc {
	return func(dataDir string, checkpointEvery, shards int) (backend, error) {
		d, err := alex.OpenDurable(dataDir, alex.WithDurableShards(shards),
			alex.WithCheckpointEvery(checkpointEvery), alex.WithIndexOptions(alex.WithSplitOnInsert()))
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			d.Close()
			return nil, err
		}
		var store server.Store = d
		if wrap != nil {
			store = wrap(d)
		}
		p := &inProcess{d: d, srv: server.New(store), ln: ln}
		go p.srv.Serve(ln)
		return p, nil
	}
}

func (p *inProcess) addr() string       { return p.ln.Addr().String() }
func (p *inProcess) cpu() time.Duration { return 0 }

func (p *inProcess) kill() float64 {
	p.ln.Close()
	p.srv.Close()
	p.d.Close()
	return 0
}

func snapshotBytes(dir string) int64 {
	fi, err := os.Stat(filepath.Join(dir, "snapshot.alex"))
	if err != nil {
		return 0
	}
	return fi.Size()
}
