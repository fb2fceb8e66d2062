package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadDoc(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// compareDocs prints, per workload and end-to-end metric, both values,
// the ratio b/a with its base, the metric's bound and a verdict: WORSE
// when b is worse than a by more than the bound, UNRESOLVED when either
// document's own run-to-run spread is wider than the bound (or the
// open-loop generator misbehaved, for the latencies), PASS otherwise.
// It returns the exit code: 1 on any WORSE, or when the documents were
// not produced on the same machine shape with the same constants.
func compareDocs(pathA, pathB string, out io.Writer) int {
	a, err := loadDoc(pathA)
	if err == nil {
		var b *document
		if b, err = loadDoc(pathB); err == nil {
			return compare(a, b, out)
		}
	}
	fmt.Fprintln(out, "benchmark -compare:", err)
	return 1
}

func compare(a, b *document, out io.Writer) int {
	if a.Env != b.Env {
		fmt.Fprintf(out, "REFUSED: the documents come from different environments:\n  a: %+v\n  b: %+v\n", a.Env, b.Env)
		return 1
	}
	if a.Spec != b.Spec || a.Seconds != b.Seconds {
		fmt.Fprintf(out, "REFUSED: the documents were produced with different benchmark constants (spec %s, %gs vs spec %s, %gs)\n",
			a.Spec, a.Seconds, b.Spec, b.Seconds)
		return 1
	}
	code := 0
	fmt.Fprintf(out, "%-12s %-18s %14s %14s %18s %6s  %s\n", "workload", "metric", "a", "b", "b/a (base a)", "bound", "verdict")
	for _, w := range workloads {
		wa, wb := a.Workloads[w.Name], b.Workloads[w.Name]
		if wa == nil || wb == nil {
			continue
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(out, "%-12s failed checks: a %d of %d, b %d of %d  WORSE\n", w.Name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			code = 1
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if ma == nil || mb == nil {
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			switch {
			case worse > d.Bound:
				verdict = "WORSE"
				code = 1
			case max(ma.Spread, mb.Spread) > d.Bound:
				verdict = fmt.Sprintf("UNRESOLVED (spread %.1f%%)", 100*max(ma.Spread, mb.Spread))
			}
			fmt.Fprintf(out, "%-12s %-18s %14.6g %14.6g %12.4f of %-5.4g %5.0f%%  %s\n",
				w.Name, d.Name, ma.Value, mb.Value, mb.Value/ma.Value, ma.Value, 100*d.Bound, verdict)
		}
	}
	return code
}
