package bench

import (
	"io"

	"repro/internal/workload"
)

// Experiments maps experiment names (the CLI's subcommands) to drivers.
// Drivers write their tables to w; return values are dropped here —
// callers needing structured results use the typed functions directly.
var Experiments = map[string]func(w io.Writer, o Options){
	"table1": func(w io.Writer, o Options) { Table1(w, o) },
	"fig4a":  func(w io.Writer, o Options) { Fig4(w, o, workload.ReadOnly) },
	"fig4b":  func(w io.Writer, o Options) { Fig4(w, o, workload.ReadHeavy) },
	"fig4c":  func(w io.Writer, o Options) { Fig4(w, o, workload.WriteHeavy) },
	"fig4d":  func(w io.Writer, o Options) { Fig4(w, o, workload.RangeScan) },
	"fig4":   func(w io.Writer, o Options) { Fig4All(w, o) },
	"fig5a":  func(w io.Writer, o Options) { Fig5a(w, o) },
	"fig5b":  func(w io.Writer, o Options) { Fig5b(w, o) },
	"fig5c":  func(w io.Writer, o Options) { Fig5c(w, o) },
	"fig6":   func(w io.Writer, o Options) { Fig6(w, o) },
	"fig7":   func(w io.Writer, o Options) { Fig7(w, o) },
	"fig8":   func(w io.Writer, o Options) { Fig8(w, o) },
	"fig9":   func(w io.Writer, o Options) { Fig9(w, o) },
	"fig10":  func(w io.Writer, o Options) { Fig10(w, o) },
	"fig11":  func(w io.Writer, o Options) { Fig11(w, o) },
	"fig12":  func(w io.Writer, o Options) { Fig12(w, o) },
	"fig13":  func(w io.Writer, o Options) { Fig13(w, o) },
	// Extensions beyond the paper's figures: parameter ablations for the
	// knobs §3.4 says are "tuned or learned", and delete churn (§3.2).
	"ablation-leaf":  func(w io.Writer, o Options) { AblationLeafBound(w, o) },
	"ablation-split": func(w io.Writer, o Options) { AblationSplitFanout(w, o) },
	"ext-delete":     func(w io.Writer, o Options) { ExtDeleteChurn(w, o) },
	"ext-theory":     func(w io.Writer, o Options) { ExtTheory(w, o) },
	"ext-disk":       func(w io.Writer, o Options) { ExtDisk(w, o) },
	"ext-batch":      func(w io.Writer, o Options) { ExtBatch(w, o) },
	"ext-concurrent": func(w io.Writer, o Options) { ExtConcurrent(w, o) },
	"ext-errbounds":  func(w io.Writer, o Options) { ExtErrorBounds(w, o) },
}

// Order is the canonical experiment ordering for `alexbench all`.
var Order = []string{
	"table1", "fig4a", "fig4b", "fig4c", "fig4d",
	"fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8",
	"fig9", "fig10", "fig11", "fig12", "fig13",
	"ablation-leaf", "ablation-split",
	"ext-delete", "ext-theory", "ext-disk", "ext-batch",
	"ext-concurrent", "ext-errbounds",
}

// RunAll executes every experiment in order.
func RunAll(w io.Writer, o Options) {
	for _, name := range Order {
		Experiments[name](w, o)
	}
}
