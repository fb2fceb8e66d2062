package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"repro/server"
)

// The smoke tests run every workload at 1/200 scale against an
// in-process listener instead of the alexkv child, so `go test` needs no
// built binary and keeps the harness compiling and its checks honest.

const (
	smokeScale   = 1.0 / 200
	smokeSeconds = 1
)

func TestEveryWorkloadEndToEnd(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runUntraced(w.scaled(smokeScale), 1, smokeSeconds, spawnInProcess(nil), t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Notes["first_failure"])
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.Name]; !ok || !(v.Value > 0) || v.Unit != d.Unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.Name, v, d.Unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want exactly the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
		})
	}
}

func TestEveryWorkloadTraced(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			out := t.TempDir()
			res, err := runTraced(w.scaled(smokeScale), 1, smokeSeconds, smokeScale, spawnInProcess(nil), t.TempDir(), out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Notes["first_failure"])
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics reported, want exactly the %d per-layer ones", len(res.Metrics), len(perLayer))
			}

			// The read chain's self times telescope to the top rung.
			v := func(name string) float64 { return res.Metrics[name].Value }
			sum := v("leaf.lookup_ns") + v("core.get_self_ns") + v("index.get_self_ns") + v("sync.get_self_ns") +
				v("shard.get_self_ns") + v("server.get_self_ns") + v("net.get_self_ns")
			if top := v("net.get_rtt_ns"); math.Abs(sum-top) > 1e-6*top {
				t.Errorf("self times sum to %v ns, the top rung is %v ns", sum, top)
			}

			// Every span names its layer and lies inside its parent.
			b, err := os.ReadFile(out + "/trace-" + w.Name + ".jsonl")
			if err != nil {
				t.Fatal(err)
			}
			byID := map[int]span{}
			var spans []span
			for _, line := range bytes.Split(bytes.TrimSpace(b), []byte{'\n'}) {
				var s span
				if err := json.Unmarshal(line, &s); err != nil {
					t.Fatalf("trace line %q: %v", line, err)
				}
				byID[s.ID] = s
				spans = append(spans, s)
			}
			for _, s := range spans {
				if s.Layer == "" || s.Workload != w.Name || s.EndNs < s.StartNs {
					t.Fatalf("malformed span %+v", s)
				}
				if p, ok := byID[s.Parent]; s.Parent != 0 && (!ok || s.StartNs < p.StartNs || s.EndNs > p.EndNs) {
					t.Fatalf("span %+v does not lie inside its parent %+v", s, p)
				}
			}
		})
	}
}

// wrongPayload answers one key's GET with a payload that is not the
// key's own.
type wrongPayload struct {
	server.Store
	key float64
}

func (s wrongPayload) Get(k float64) (uint64, bool) {
	v, ok := s.Store.Get(k)
	if k == s.key {
		v++
	}
	return v, ok
}

func TestWrongPayloadIsCounted(t *testing.T) {
	var w workload
	for _, x := range workloads {
		if x.Name == "net_point_b" {
			w = x.scaled(smokeScale)
		}
	}
	// The hottest key of client 0's stream is read many times a run.
	in := generate(w, 1, clientCount(), 2000, 0)
	counts := map[int]int{}
	hot := 0
	for _, o := range in.streams[0].ops {
		if o.kind() == opGet {
			if counts[o.idx()]++; counts[o.idx()] > counts[hot] {
				hot = o.idx()
			}
		}
	}
	wrap := func(s server.Store) server.Store { return wrongPayload{s, in.keys[hot]} }
	res, err := runUntraced(w, 1, smokeSeconds, spawnInProcess(wrap), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a wrong payload went unnoticed: correct=%v failed=%d of %d", res.Correct, res.Failed, res.Attempted)
	}
	if f, _ := res.Notes["first_failure"].(string); !strings.Contains(f, "VALUE") {
		t.Errorf("first failure %q does not name the wrong reply", f)
	}
}

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json, which the driver
// reads, in step with the tables this program runs from.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the constants are sized for %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, spec.go has %s: %s", i, doc.Workloads[i], w.Name, w.Why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go has %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestCompareVerdicts(t *testing.T) {
	doc := func(tput float64, spread float64) *document {
		return &document{Env: currentEnv(), Spec: specFingerprint(), Seconds: defaultSeconds, Workloads: map[string]*workloadDoc{
			"lib_hot_b": {Correct: true, Attempted: 1, EndToEnd: map[string]*metricDoc{
				"throughput_ops_s": {Value: tput, Unit: "ops/s", Spread: spread},
			}},
		}}
	}
	for _, c := range []struct {
		name    string
		a, b    *document
		code    int
		verdict string
	}{
		{"same", doc(100, 0.01), doc(101, 0.01), 0, "PASS"},
		{"slower", doc(100, 0.01), doc(70, 0.01), 1, "WORSE"},
		{"noisy", doc(100, 0.5), doc(99, 0.01), 0, "UNRESOLVED"},
	} {
		var out bytes.Buffer
		if code := compare(c.a, c.b, &out); code != c.code || !strings.Contains(out.String(), c.verdict) {
			t.Errorf("%s: exit %d, want %d with %s:\n%s", c.name, code, c.code, c.verdict, out.String())
		}
	}
	other := doc(100, 0.01)
	other.Env.NProc++
	var out bytes.Buffer
	if code := compare(doc(100, 0.01), other, &out); code != 1 || !strings.Contains(out.String(), "REFUSED") {
		t.Errorf("documents from different machines compared: exit %d\n%s", code, out.String())
	}
}
