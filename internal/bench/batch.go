package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/stats"
)

// ExtBatchRow is one row of the batch-API study: an operation applied
// as a loop of single-key calls versus one sorted batch call.
type ExtBatchRow struct {
	Op           string
	LoopOpsPerS  float64
	BatchOpsPerS float64
	Speedup      float64
}

// ExtBatch measures the batch-first API extension: the same multi-key
// workload executed as a loop of single-key operations and as sorted
// batch calls. The batch path pays one RMI descent per touched data
// node, amortized in-node searches, and at most one
// expand/retrain/split decision per node per batch — the set-at-a-time
// amortization the redesign exists for. Measured on GA-ARMI (the
// paper's read-write default) with longitudes keys.
func ExtBatch(w io.Writer, o Options) []ExtBatchRow {
	o = o.withFloors()
	initN := o.RWInit
	batchN := o.Ops
	all := datasets.GenLongitudes(initN+2*batchN, o.Seed)
	init := all[:initN]
	streams := [2][]float64{
		datasets.Sorted(all[initN : initN+batchN]),
		datasets.Sorted(all[initN+batchN:]),
	}
	payloads := make([]uint64, batchN)
	for i := range payloads {
		payloads[i] = uint64(i)
	}
	cfg := core.Config{RMI: core.AdaptiveRMI}

	var rows []ExtBatchRow
	add := func(op string, n int, loop, batch time.Duration) {
		r := ExtBatchRow{
			Op:           op,
			LoopOpsPerS:  float64(n) / loop.Seconds(),
			BatchOpsPerS: float64(n) / batch.Seconds(),
		}
		r.Speedup = r.BatchOpsPerS / r.LoopOpsPerS
		rows = append(rows, r)
	}

	// Inserts: the same sorted stream into two identically-loaded trees.
	loopT := buildALEX(init, cfg)
	batchT := buildALEX(init, cfg)
	start := time.Now()
	for i, k := range streams[0] {
		loopT.Insert(k, payloads[i])
	}
	loopD := time.Since(start)
	start = time.Now()
	batchT.InsertBatch(streams[0], payloads)
	add("insert", batchN, loopD, time.Since(start))

	// Merge: the second stream, against the loop of single inserts.
	start = time.Now()
	for i, k := range streams[1] {
		loopT.Insert(k, payloads[i])
	}
	loopD = time.Since(start)
	start = time.Now()
	batchT.Merge(streams[1], payloads)
	add("merge", batchN, loopD, time.Since(start))

	// Gets: both trees now hold identical contents; probe with a sorted
	// mix of present keys.
	probe := append([]float64(nil), streams[0]...)
	probe = append(probe, init...)
	probe = datasets.Sorted(probe)
	if len(probe) > batchN {
		probe = probe[:batchN]
	}
	start = time.Now()
	for _, k := range probe {
		loopT.Get(k)
	}
	loopD = time.Since(start)
	start = time.Now()
	batchT.GetBatch(probe)
	add("get", len(probe), loopD, time.Since(start))

	// Deletes: remove the first stream from both trees.
	start = time.Now()
	for _, k := range streams[0] {
		loopT.Delete(k)
	}
	loopD = time.Since(start)
	start = time.Now()
	batchT.DeleteBatch(streams[0])
	add("delete", batchN, loopD, time.Since(start))

	t := stats.NewTable("op", "loop Mops/s", "batch Mops/s", "speedup")
	for _, r := range rows {
		t.AddRow(r.Op,
			fmt.Sprintf("%.2f", r.LoopOpsPerS/1e6),
			fmt.Sprintf("%.2f", r.BatchOpsPerS/1e6),
			fmt.Sprintf("%.2fx", r.Speedup),
		)
	}
	section(w, fmt.Sprintf("Ext: batch API, one sorted %d-key batch vs single-key loop (GA-ARMI, longitudes)", batchN))
	io.WriteString(w, t.String())
	return rows
}
