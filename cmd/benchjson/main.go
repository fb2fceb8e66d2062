// Command benchjson converts `go test -bench` text output (stdin) into
// a machine-readable JSON document (stdout), so CI can archive every
// run's numbers as an artifact (BENCH_ci.json) and the perf trajectory
// is tracked per PR instead of eyeballed from logs.
//
//	go test -run '^$' -bench Concurrent -benchtime=100x . | benchjson > BENCH_ci.json
//
// Lines that are not benchmark results (headers, PASS, ok) are folded
// into the environment block when recognized and skipped otherwise.
// Derived sharded/sync speedups are computed for benchmark pairs that
// differ only by the index name, e.g. ConcurrentShardedWriteHeavy8 vs
// ConcurrentSyncWriteHeavy8 — the ratio the ISSUE's acceptance bar
// reads. Read-path ratios are derived the same way from X/XLocked
// pairs (the optimistic read path vs the forced-RLock baseline), along
// with the allocs/op of the zero-allocation read benchmarks when the
// run used -benchmem.
//
// With -baseline FILE the document is additionally gated benchstat
// style against a committed baseline (BENCH_baseline.json): for every
// benchmark named in -gate (comma separated), the run fails (exit 1)
// if ns/op regressed more than -gate-pct percent over the baseline's
// number. Benchmarks missing from either side only warn, so seeding a
// fresh baseline never blocks.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Doc is the whole artifact.
type Doc struct {
	GOOS       string             `json:"goos,omitempty"`
	GOARCH     string             `json:"goarch,omitempty"`
	Pkg        string             `json:"pkg,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Benchmarks []Result           `json:"benchmarks"`
	Speedups   map[string]float64 `json:"sharded_over_sync_speedups,omitempty"`
	// DurabilityTax is ns/op of each DurableWrite* benchmark over the
	// DurableWriteBaseline (the same loop without the WAL) — the cost
	// of each fsync policy, tracked per CI run.
	DurabilityTax map[string]float64 `json:"durability_tax,omitempty"`
	// ReadPath tracks the optimistic read protocol: for every X/XLocked
	// benchmark pair, "X_locked_over_optimistic" is locked ns/op over
	// optimistic ns/op (>1 means the lock-free path wins), and
	// "X_allocs_per_op" echoes the allocs/op metric of the read
	// benchmarks so the zero-allocation contract is archived per run.
	ReadPath map[string]float64 `json:"read_path,omitempty"`
	// Replication archives the WAL-shipping pipeline from the
	// Replication benchmarks: write-to-replica-visible lag quantiles
	// (µs, min across repetitions) and the fan-out client's read
	// throughput (QPS, from the min ns/op) at each replica count.
	Replication map[string]float64 `json:"replication,omitempty"`
	// ErrorBounds archives the per-leaf prediction-error-bound state of
	// the GetBoundedVsExponential run: p50/p99 leaf error bound, the
	// share of probes served by the bounded fast path, and exponential
	// ns/op over bounded ns/op on the same drifted tree (>1 means the
	// error-bound strategy selection wins).
	ErrorBounds map[string]float64 `json:"error_bounds,omitempty"`
	// BulkLoad archives the cost-optimal bulk load from the
	// BulkLoadCostOptimal benchmark on the drifted longitudes dataset —
	// load ns/key, post-load p50/p99 per-leaf error bounds and
	// bounded-search share — and the recovery-rebuild open time from
	// the RecoveryRebuild benchmark.
	BulkLoad map[string]float64 `json:"bulk_load,omitempty"`
	// Snapshot archives the snapshot concurrency numbers: insert
	// p99 latency (µs) with a checkpoint loop running concurrently vs
	// the undisturbed baseline and their ratio (the checkpoint cuts a
	// snapshot and serializes outside the index locks, so the bar is
	// ~2x, not the order-of-magnitude a whole-serialization stall
	// costs), plus Stats / snapshot-cut / 100-element snapshot-scan
	// ns/op measured under a write storm.
	Snapshot map[string]float64 `json:"snapshot,omitempty"`
}

// benchLine matches "BenchmarkName-8   123   456.7 ns/op   8 B/op ...".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([0-9.eE+]+) ns/op(.*)$`)

func main() {
	baseline := flag.String("baseline", "", "baseline JSON (a prior benchjson document) to gate against")
	gate := flag.String("gate", "", "comma-separated benchmark names the regression gate checks")
	gatePct := flag.Float64("gate-pct", 15, "max allowed ns/op regression over the baseline, percent")
	flag.Parse()

	doc := Doc{Speedups: map[string]float64{}}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "pkg: "):
			doc.Pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := Result{Name: strings.TrimPrefix(m[1], "Benchmark")}
		if m[2] != "" {
			r.Procs, _ = strconv.Atoi(m[2])
		}
		r.Iterations, _ = strconv.ParseInt(m[3], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
		r.Metrics = parseMetrics(m[5])
		doc.Benchmarks = append(doc.Benchmarks, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	// byName holds each benchmark's best (minimum) ns/op: with
	// `-count=N` repetitions the min is the benchstat-style noise
	// filter — shared-runner interference only ever slows a run down —
	// so the derived ratios and the regression gate see the least-noisy
	// measurement.
	byName := map[string]float64{}
	for _, r := range doc.Benchmarks {
		if v, ok := byName[r.Name]; !ok || r.NsPerOp < v {
			byName[r.Name] = r.NsPerOp
		}
	}

	// Derived ratios: for every ConcurrentSharded* result with a
	// ConcurrentSync* sibling, speedup = sync ns/op / sharded ns/op.
	for name, ns := range byName {
		if !strings.Contains(name, "Sharded") || ns == 0 {
			continue
		}
		sibling := strings.Replace(name, "Sharded", "Sync", 1)
		if syncNs, ok := byName[sibling]; ok {
			doc.Speedups[name] = syncNs / ns
		}
	}
	if len(doc.Speedups) == 0 {
		doc.Speedups = nil
	}

	// Durability tax: each DurableWrite policy vs the WAL-less baseline.
	if base, ok := byName["DurableWriteBaseline"]; ok && base > 0 {
		doc.DurabilityTax = map[string]float64{}
		for name, ns := range byName {
			// Parallel variants are excluded: their wall-clock ns/op is
			// not comparable against the single-writer baseline.
			if strings.HasPrefix(name, "DurableWrite") && name != "DurableWriteBaseline" &&
				!strings.Contains(name, "Parallel") {
				doc.DurabilityTax[name] = ns / base
			}
		}
		if len(doc.DurabilityTax) == 0 {
			doc.DurabilityTax = nil
		}
	}

	// Read-path ratios: every X with an XLocked sibling (min ns/op on
	// both sides), plus the allocs/op of the read benchmarks when
	// -benchmem was used (the max across repetitions — an alloc
	// regression must not hide behind one clean run).
	doc.ReadPath = map[string]float64{}
	for name, ns := range byName {
		if strings.HasSuffix(name, "Locked") || ns == 0 {
			continue
		}
		if lockedNs, ok := byName[name+"Locked"]; ok {
			doc.ReadPath[name+"_locked_over_optimistic"] = lockedNs / ns
		}
	}
	for _, r := range doc.Benchmarks {
		if !isReadBench(r.Name) {
			continue
		}
		if a, ok := r.Metrics["allocs/op"]; ok {
			key := r.Name + "_allocs_per_op"
			if prev, seen := doc.ReadPath[key]; !seen || a > prev {
				doc.ReadPath[key] = a
			}
		}
	}
	if len(doc.ReadPath) == 0 {
		doc.ReadPath = nil
	}

	// Replication block: lag quantiles from the Lag run (min across
	// repetitions — interference only adds lag) and read QPS per
	// replica count from the fan-out client runs.
	doc.Replication = map[string]float64{}
	for _, r := range doc.Benchmarks {
		if r.Name != "Replication/Lag" {
			continue
		}
		for metric, key := range map[string]string{
			"lag-p50-us": "lag_p50_us",
			"lag-p99-us": "lag_p99_us",
		} {
			if v, ok := r.Metrics[metric]; ok {
				if prev, seen := doc.Replication[key]; !seen || v < prev {
					doc.Replication[key] = v
				}
			}
		}
	}
	for name, ns := range byName {
		if rest, ok := strings.CutPrefix(name, "Replication/ReadQPS/replicas="); ok && ns > 0 {
			doc.Replication["read_qps_"+rest+"_replicas"] = 1e9 / ns
		}
	}
	if len(doc.Replication) == 0 {
		doc.Replication = nil
	}

	// Error-bounds block: the leaf error distribution reported by the
	// Bounded run, plus the exponential/bounded ratio of the pair.
	if boundedNs, ok := byName["GetBoundedVsExponential/Bounded"]; ok {
		doc.ErrorBounds = map[string]float64{}
		if expNs, ok := byName["GetBoundedVsExponential/Exponential"]; ok && boundedNs > 0 {
			doc.ErrorBounds["exponential_over_bounded"] = expNs / boundedNs
		}
		for _, r := range doc.Benchmarks {
			if r.Name != "GetBoundedVsExponential/Bounded" {
				continue
			}
			for metric, key := range map[string]string{
				"p50-leaf-err":  "p50_leaf_err",
				"p99-leaf-err":  "p99_leaf_err",
				"bounded-share": "bounded_probe_share",
			} {
				if v, ok := r.Metrics[metric]; ok {
					doc.ErrorBounds[key] = v
				}
			}
		}
		if len(doc.ErrorBounds) == 0 {
			doc.ErrorBounds = nil
		}
	}

	// Bulk-load block: the cost-optimal load. Metrics come from the
	// benchmark's b.ReportMetric extras; ns/key and the error stats
	// take the min across repetitions (interference only slows a load
	// down; the error stats are deterministic per build).
	doc.BulkLoad = map[string]float64{}
	for _, r := range doc.Benchmarks {
		if r.Name != "BulkLoadCostOptimal" {
			continue
		}
		const prefix = "cost_"
		for metric, key := range map[string]string{
			"ns/key":        "load_ns_per_key",
			"p50-leaf-err":  "p50_leaf_err",
			"p99-leaf-err":  "p99_leaf_err",
			"bounded-share": "bounded_share",
		} {
			if v, ok := r.Metrics[metric]; ok {
				if prev, seen := doc.BulkLoad[prefix+key]; !seen || v < prev {
					doc.BulkLoad[prefix+key] = v
				}
			}
		}
	}
	if ns, ok := byName["RecoveryRebuild"]; ok {
		doc.BulkLoad["recovery_rebuild_ns"] = ns
	}
	if len(doc.BulkLoad) == 0 {
		doc.BulkLoad = nil
	}

	// Snapshot block: checkpoint-concurrent write p99 vs baseline (min
	// across repetitions on both sides) and the under-storm read/cut
	// latencies.
	doc.Snapshot = map[string]float64{}
	p99 := map[string]float64{}
	for _, r := range doc.Benchmarks {
		if v, ok := r.Metrics["write-p99-us"]; ok {
			if prev, seen := p99[r.Name]; !seen || v < prev {
				p99[r.Name] = v
			}
		}
	}
	if base, ok := p99["SnapshotWriteP99Baseline"]; ok {
		doc.Snapshot["write_p99_us_baseline"] = base
		if ck, ok := p99["SnapshotWriteP99Checkpointing"]; ok {
			doc.Snapshot["write_p99_us_checkpointing"] = ck
			if base > 0 {
				doc.Snapshot["checkpoint_p99_over_baseline"] = ck / base
			}
		}
	}
	for name, key := range map[string]string{
		"SnapshotStatsUnderWriteStorm":   "stats_under_storm_ns",
		"SnapshotCutUnderWriteStorm":     "cut_under_storm_ns",
		"SnapshotScan100UnderWriteStorm": "scan100_under_storm_ns",
	} {
		if ns, ok := byName[name]; ok {
			doc.Snapshot[key] = ns
		}
	}
	if len(doc.Snapshot) == 0 {
		doc.Snapshot = nil
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	if *baseline != "" {
		if err := gateAgainst(*baseline, strings.Split(*gate, ","), *gatePct, byName); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
}

// isReadBench selects the benchmarks whose allocs/op belong in the
// read_path block: the point and batch read paths of the wrappers.
func isReadBench(name string) bool {
	switch name {
	case "Get", "ShardedGet", "GetBatchInto", "ScanNInto":
		return true
	}
	return false
}

// gateAgainst fails (returns an error) when any gated benchmark's
// ns/op regressed more than pct percent over the committed baseline.
// Benchmarks absent on either side warn instead of failing, so a gate
// list can be committed before its baseline numbers exist.
func gateAgainst(path string, names []string, pct float64, byName map[string]float64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("gate: read baseline: %v", err)
	}
	var base Doc
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("gate: parse baseline: %v", err)
	}
	// Same min-across-repetitions rule as the current run, so a
	// baseline archived from a -count=N run gates apples to apples.
	baseNs := map[string]float64{}
	for _, r := range base.Benchmarks {
		if v, ok := baseNs[r.Name]; !ok || r.NsPerOp < v {
			baseNs[r.Name] = r.NsPerOp
		}
	}
	var failures []string
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		got, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchjson: gate: %s missing from this run, skipping\n", name)
			continue
		}
		want, ok := baseNs[name]
		if !ok || want == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: gate: %s missing from baseline, skipping\n", name)
			continue
		}
		limit := want * (1 + pct/100)
		if got > limit {
			failures = append(failures, fmt.Sprintf(
				"%s regressed: %.1f ns/op vs baseline %.1f (+%.1f%%, limit +%.0f%%)",
				name, got, want, (got/want-1)*100, pct))
		} else {
			fmt.Fprintf(os.Stderr, "benchjson: gate: %s ok: %.1f ns/op vs baseline %.1f (%+.1f%%)\n",
				name, got, want, (got/want-1)*100)
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// parseMetrics decodes the trailing "<value> <unit>" pairs of a
// benchmark line (B/op, allocs/op, and any b.ReportMetric extras).
func parseMetrics(rest string) map[string]float64 {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return nil
	}
	m := make(map[string]float64, len(fields)/2)
	for i := 0; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		m[fields[i+1]] = v
	}
	if len(m) == 0 {
		return nil
	}
	return m
}
