// Command alexkv serves an ALEX index over TCP with a line-oriented
// text protocol. The index is sharded across key-space partitions
// (alex.ShardedIndex), so concurrent clients writing to different key
// regions run in parallel instead of serializing behind one lock. With
// -data-dir it becomes durable (alex.DurableIndex): every acknowledged
// write is logged to a write-ahead log before it is applied, snapshots
// checkpoint the log away, and a restart recovers exactly the
// acknowledged writes. When the storage stack fails underneath it (a
// failed fsync, a full disk) the store degrades to read-only instead of
// lying: mutations answer "ERR degraded", reads keep serving, and
// HEALTH / WALSTATS report the state (see docs/failure-model.md).
// One command per line; verbs are case-insensitive and any run of ASCII
// whitespace separates arguments:
//
//	GET <key>            -> VALUE <v> | NOTFOUND
//	SET <key> <value>    -> OK inserted|updated
//	DEL <key>            -> OK | NOTFOUND
//	MGET <k1> <k2> ...   -> one "VALUE <v>" or "NOTFOUND" line per key, then END
//	MSET <k1> <v1> <k2> <v2> ... -> OK <newly inserted count>
//	MDEL <k1> <k2> ...   -> OK <deleted count>
//	SCAN <start> <n>     -> n lines "KEY <k> <v>", then END
//	LEN                  -> LEN <n>
//	STATS                -> STATS <leaves> <height> <indexBytes> <dataBytes>
//	FLUSH                -> OK (acked writes fsynced to the WAL)
//	SAVE                 -> OK (synchronous checkpoint; durable mode only)
//	BGSAVE               -> OK scheduled (background checkpoint; durable mode only)
//	WALSTATS             -> WAL <appends> <fsyncs> <bytes> <checkpoints> <replayed> <followers> <maxLagBytes> <degraded>
//	HEALTH               -> OK | OK read-only | DEGRADED <cause>
//	REPLINFO             -> replication role/position/lag lines, then END
//	SNAPSHOT             -> SNAPSHOT <bytes> <startSeg> + raw snapshot (replica bootstrap)
//	REPLICATE <seg> <off> -> binary WAL record stream from that position (see internal/repl)
//	QUIT                 -> closes the connection
//
// Keys are decimal or hexadecimal floats (non-finite ones are
// rejected), values unsigned integers. SCAN prints each key with 17
// significant digits (%.17g), so every float64 round-trips. The M*
// commands are the pipelined batch forms: one protocol round-trip, one
// WAL record (atomic on recovery), and (for sorted key lists) one
// amortized tree descent per data node for the whole batch.
//
// Usage: alexkv [-addr host:port] [-load N] [-shards N] [-data-dir DIR]
// [-fsync always|interval|never] [-fsync-interval D] [-checkpoint-every N]
// [-replica-of host:port] [-pprof host:port]
//
// -replica-of PRIMARY starts the server as a read replica: it
// bootstraps from the primary's snapshot, tails the primary's
// write-ahead log (applying records through the same coalescing replay
// path crash recovery uses), serves reads lock-free from the applied
// state, and rejects writes. Replication is asynchronous; REPLINFO on
// either side reports positions and lag. A replica keeps nothing on
// disk — on restart, truncated history, or a diverging primary it
// re-bootstraps automatically, and it reconnects with jittered backoff
// when the primary goes away. -data-dir, -fsync and -load are
// meaningless (and rejected) in replica mode.
//
// -load N preloads N synthetic YCSB keys so GET/SCAN have data to hit
// (skipped when a data dir already holds recovered keys).
// -shards N partitions the key space across N shards (0 = one per
// CPU); -shards 1 degenerates to a single index behind one lock.
// -data-dir DIR persists the index in DIR. -fsync picks the WAL
// policy: "always" acknowledges a write only after it is on stable
// storage (concurrent writers share fsyncs via group commit),
// "interval" fsyncs every -fsync-interval, "never" leaves flushing to
// the OS. -checkpoint-every N snapshots the index and truncates the
// WAL every N logged records (0 disables automatic checkpoints).
//
// -pprof exposes the net/http/pprof handlers on the given address
// (e.g. -pprof 127.0.0.1:6060), so read-path profiles can be captured
// under live MGET load:
//
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
//
// On SIGINT/SIGTERM the server shuts down gracefully: it stops
// accepting connections, drains in-flight commands, flushes the WAL,
// writes a final checkpoint, and closes the store — so the next start
// recovers instantly from the snapshot with an empty log tail.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	alex "repro"
	"repro/internal/datasets"
	"repro/internal/repl"
	"repro/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	load := flag.Int("load", 0, "preload this many synthetic keys")
	shards := flag.Int("shards", 0, "key-space shards (0 = one per CPU)")
	dataDir := flag.String("data-dir", "", "durable storage directory (empty = in-memory only)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always|interval|never")
	fsyncInterval := flag.Duration("fsync-interval", 100*time.Millisecond, "fsync timer for -fsync interval")
	checkpointEvery := flag.Int("checkpoint-every", 1<<20, "records between automatic checkpoints (0 disables)")
	replicaOf := flag.String("replica-of", "", "run as a read replica of the primary at this address")
	pprofAddr := flag.String("pprof", "", "expose net/http/pprof on this address (empty = off)")
	flag.Parse()

	if *replicaOf != "" && (*dataDir != "" || *load != 0) {
		fmt.Fprintln(os.Stderr, "alexkv: -replica-of is incompatible with -data-dir and -load (replica state comes from the primary)")
		os.Exit(2)
	}

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank
			// import; profiling is best-effort and never takes the
			// server down.
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	var store server.Store
	var durable *alex.DurableIndex
	var follower *repl.Follower
	if *replicaOf != "" {
		follower = repl.NewFollower(*replicaOf, *shards)
		follower.Start()
		store = follower
		log.Printf("replica of %s (read-only)", *replicaOf)
	} else {
		var err error
		store, durable, err = buildStore(*dataDir, *fsync, *fsyncInterval, *checkpointEvery, *shards, *load)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	log.Printf("alexkv listening on %s", ln.Addr())

	// Graceful shutdown: closing the listener makes Serve return, then
	// the handler drain + final checkpoint below run before exit.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		log.Printf("received %v, shutting down", sig)
		ln.Close()
	}()

	srv := server.New(store)
	srv.ReadOnly = follower != nil
	serveErr := srv.Serve(ln)
	if serveErr != nil {
		// Even on an accept failure, run the full durability teardown
		// below so no acknowledged write is left in a WAL buffer.
		log.Printf("serve: %v", serveErr)
	}
	srv.Close() // drain in-flight handlers before touching the store
	if follower != nil {
		follower.Stop()
	}
	if durable != nil {
		if err := durable.Checkpoint(); err != nil {
			log.Printf("final checkpoint: %v", err)
		} else {
			log.Printf("final checkpoint written")
		}
	}
	if err := store.Close(); err != nil {
		log.Printf("close store: %v", err)
	}
	log.Printf("bye")
	if serveErr != nil {
		os.Exit(1)
	}
}

// buildStore assembles the configured index: durable (WAL +
// checkpoints) when dataDir is set, plain sharded otherwise. The
// returned DurableIndex is nil in the in-memory case.
func buildStore(dataDir, fsync string, interval time.Duration, ckptEvery, shards, load int) (server.Store, *alex.DurableIndex, error) {
	if dataDir == "" {
		idx := alex.NewSharded(shards, alex.WithSplitOnInsert())
		preload(idx, load)
		log.Printf("index sharded %d ways (in-memory)", idx.NumShards())
		return idx, nil, nil
	}
	policy, err := alex.ParseFsyncPolicy(fsync)
	if err != nil {
		return nil, nil, err
	}
	d, err := alex.OpenDurable(dataDir,
		alex.WithFsyncPolicy(policy),
		alex.WithFsyncInterval(interval),
		alex.WithCheckpointEvery(ckptEvery),
		alex.WithDurableShards(shards),
		alex.WithIndexOptions(alex.WithSplitOnInsert()),
	)
	if err != nil {
		return nil, nil, err
	}
	st := d.WALStats()
	log.Printf("durable index in %s: recovered %d keys (%d WAL records replayed), fsync=%s",
		dataDir, d.Len(), st.Replayed, fsync)
	if d.Len() == 0 {
		preload(d, load)
	}
	return d, d, nil
}

// preloadStore is the common preload surface of both index kinds.
type preloadStore interface {
	Merge(keys []float64, payloads []uint64) int
}

// preload merges n synthetic YCSB keys in chunks (each chunk is one WAL
// record in durable mode).
func preload(idx preloadStore, n int) {
	if n <= 0 {
		return
	}
	keys := datasets.GenYCSB(n, 1)
	payloads := make([]uint64, len(keys))
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	const chunk = 1 << 18
	for start := 0; start < len(keys); start += chunk {
		end := min(start+chunk, len(keys))
		idx.Merge(keys[start:end], payloads[start:end])
	}
	log.Printf("preloaded %d keys", n)
}
