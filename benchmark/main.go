// Command benchmark is the repository's one performance instrument: it
// generates its inputs from a seed, drives five named workloads — three
// over loopback TCP against a spawned cmd/alexkv child, two in-process
// through the public alex API — checks every reply, and prints every
// metric by name with its unit. See README.md beside this file.
//
// Run it through benchmark/run.sh, which builds this program and the
// alexkv child inside the checkout:
//
//	bash benchmark/run.sh                                   # all workloads, end to end and traced
//	bash benchmark/run.sh -workload net_point_b -trace 0    # one run, as the driver makes it
//	bash benchmark/run.sh -compare a/result.json b/result.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// env is what two result documents must share to be comparable.
type env struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func currentEnv() env {
	e := env{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				e.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return e
}

// document is <out>/result.json.
type document struct {
	Env       env                     `json:"env"`
	Spec      string                  `json:"spec"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Runs      int                     `json:"runs"`
	Workloads map[string]*workloadDoc `json:"workloads"`
	// Claim is always null: this program measures, it claims no gain.
	Claim *string `json:"claim"`
}

type workloadDoc struct {
	EndToEnd  map[string]*metricDoc  `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	// OpenLoopUnresolved is set when the generator ran late or left a
	// backlog, so the open-loop latencies are not to be trusted.
	OpenLoopUnresolved bool             `json:"open_loop_unresolved"`
	Notes              []map[string]any `json:"notes,omitempty"`
}

// metricDoc is one end-to-end metric over the document's runs: Value is
// their median, Spread the distance between their quartiles (their
// range, below four runs) as a share of it.
type metricDoc struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Runs   []float64 `json:"runs"`
	Spread float64   `json:"spread"`
}

func (m *metricDoc) add(v float64) {
	m.Runs = append(m.Runs, v)
	m.Value = median(m.Runs)
	lo, hi := percentileF(m.Runs, 0), percentileF(m.Runs, 100)
	if len(m.Runs) >= 4 {
		lo, hi = percentileF(m.Runs, 25), percentileF(m.Runs, 75)
	}
	if m.Value != 0 {
		m.Spread = (hi - lo) / m.Value
	}
}

func (wd *workloadDoc) absorb(res *result, traced bool) {
	wd.Attempted += res.Attempted
	wd.Failed += res.Failed
	wd.Correct = wd.Failed == 0
	wd.Notes = append(wd.Notes, res.Notes)
	if u, _ := res.Notes["open_loop_unresolved"].(bool); u {
		wd.OpenLoopUnresolved = true
	}
	for name, v := range res.Metrics {
		if traced {
			wd.PerLayer[name] = v
			continue
		}
		if wd.EndToEnd[name] == nil {
			wd.EndToEnd[name] = &metricDoc{Unit: v.Unit}
		}
		wd.EndToEnd[name].add(v.Value)
	}
}

// printMetrics writes one "workload metric value unit" line per metric,
// in the spec table's order.
func printMetrics(workload string, defs []metricDef, res *result) {
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("%s %s %.6g %s\n", workload, d.Name, v.Value, v.Unit)
		}
	}
	if notes, err := json.Marshal(res.Notes); err == nil {
		fmt.Fprintf(os.Stderr, "%s notes %s\n", workload, notes)
	}
}

func main() {
	var (
		workloadF = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "seed of keys, op order and Zipfian draws")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured seconds per run")
		trace     = flag.String("trace", "both", "0: end-to-end metrics, 1: per-layer metrics (traced run), both")
		runs      = flag.Int("runs", 1, "untraced runs per workload; result.json keeps their median and spread")
		outDir    = flag.String("out", "benchmark/out", "directory for result.json and trace-<workload>.jsonl")
		alexkv    = flag.String("alexkv", "", "path of the built cmd/alexkv binary (run.sh passes it)")
		tmp       = flag.String("tmp", "", "scratch directory for data dirs (default: the system's)")
		compare   = flag.Bool("compare", false, "compare two result.json documents given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareDocs(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if err := run(*workloadF, *seed, *seconds, *trace, *runs, *outDir, *alexkv, *tmp); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workloadF string, seed int64, seconds float64, trace string, runs int, outDir, alexkv, tmp string) error {
	var todo []workload
	for _, w := range workloads {
		if workloadF == "all" || workloadF == w.Name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown workload %q", workloadF)
	}
	if trace != "0" && trace != "1" && trace != "both" {
		return fmt.Errorf("-trace must be 0, 1 or both, not %q", trace)
	}
	if alexkv == "" {
		return fmt.Errorf("-alexkv is required: run through benchmark/run.sh, which builds cmd/alexkv and passes it")
	}
	if tmp != "" {
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return err
		}
	}
	scratch, err := os.MkdirTemp(tmp, "benchmark-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	spawn := spawnChild(alexkv)

	doc := &document{Env: currentEnv(), Spec: specFingerprint(), Seed: seed, Seconds: seconds, Runs: runs, Workloads: map[string]*workloadDoc{}}
	var last *result
	for _, w := range todo {
		wd := &workloadDoc{EndToEnd: map[string]*metricDoc{}, PerLayer: map[string]metricValue{}}
		doc.Workloads[w.Name] = wd
		if trace != "1" {
			for i := 0; i < runs; i++ {
				res, err := runUntraced(w, seed, seconds, spawn, scratch)
				if err != nil {
					return err
				}
				printMetrics(w.Name, endToEnd, res)
				wd.absorb(res, false)
				last = res
			}
		}
		if trace != "0" {
			res, err := runTraced(w, seed, seconds, 1, spawn, scratch, outDir)
			if err != nil {
				return err
			}
			printMetrics(w.Name, perLayer, res)
			wd.absorb(res, true)
			last = res
		}
		if wd.Failed > 0 {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d checks failed\n", w.Name, wd.Failed, wd.Attempted)
		}
	}

	if len(todo) == 1 && trace != "both" && runs == 1 {
		// The driver's contract: the last line of standard output is
		// this run's result object and nothing else.
		line, err := json.Marshal(last)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "result.json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	correct := true
	for _, wd := range doc.Workloads {
		correct = correct && wd.Correct
	}
	fmt.Printf("{\"result\": %q, \"correct\": %v, \"claim\": null}\n", path, correct)
	return nil
}
