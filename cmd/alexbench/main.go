// Command alexbench regenerates the tables and figures of the paper's
// evaluation (§5). Each experiment is a subcommand; `all` runs the full
// suite in the paper's order.
//
// Usage:
//
//	alexbench [flags] <experiment>
//
// Experiments: table1, fig4, fig4a, fig4b, fig4c, fig4d, fig5a, fig5b,
// fig5c, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13, all, plus
// extensions beyond the paper (ablation-leaf, ablation-split,
// ext-delete, ext-theory, ext-disk, ext-errbounds,
// ext-batch — the batched-workload mode comparing sorted batch calls
// against single-key loops — and ext-concurrent, mixed read/write
// workloads at 1/4/8 goroutines comparing the single-mutex SyncIndex
// against the key-space-sharded ShardedIndex).
//
// Flags scale the run; the defaults finish on a laptop in minutes while
// preserving the comparative shapes of the paper's results:
//
//	-keys N    bulk-load size for read-only experiments (default 400000)
//	-rwkeys N  bulk-load size for read-write experiments (default 100000)
//	-ops N     operations per run (default 200000)
//	-seed N    dataset/workload seed (default 1)
//	-tune      grid-search B+Tree page size and Learned Index model
//	           count as §5.1 does (slower)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	opts := bench.DefaultOptions()
	flag.IntVar(&opts.ReadOnlyInit, "keys", opts.ReadOnlyInit, "bulk-load size for read-only experiments")
	flag.IntVar(&opts.RWInit, "rwkeys", opts.RWInit, "bulk-load size for read-write experiments")
	flag.IntVar(&opts.Ops, "ops", opts.Ops, "operations per run")
	flag.Int64Var(&opts.Seed, "seed", opts.Seed, "dataset and workload seed")
	flag.BoolVar(&opts.TuneBaselines, "tune", false, "grid-search baseline parameters (slower)")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() != 1 {
		usage()
		os.Exit(2)
	}
	name := flag.Arg(0)
	start := time.Now()
	switch {
	case name == "all":
		bench.RunAll(os.Stdout, opts)
	case bench.Experiments[name] != nil:
		bench.Experiments[name](os.Stdout, opts)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", name)
		usage()
		os.Exit(2)
	}
	fmt.Printf("\ncompleted in %v\n", time.Since(start).Round(time.Millisecond))
}

func usage() {
	names := make([]string, 0, len(bench.Experiments)+1)
	for n := range bench.Experiments {
		names = append(names, n)
	}
	names = append(names, "all")
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "usage: alexbench [flags] <experiment>\n\nexperiments: %s\n\nflags:\n",
		strings.Join(names, ", "))
	flag.PrintDefaults()
}
