package lint

import (
	"go/ast"
	"go/types"
	"runtime"
	"sort"
	"strings"
)

// FieldAlign is the advisory struct-layout pass for the hot packages:
// it measures each struct's size under the gc layout rules and
// compares it against the best achievable permutation of its fields.
// Findings are advisory (printed, never blocking): field order in hot
// structs also encodes cache-line intent, so a human decides whether
// a suggested reorder is safe — but the wasted bytes are measured in
// every CI log instead of assumed away.
var FieldAlign = &Analyzer{
	Name: "fieldalign",
	Doc: "advisory: structs whose field order wastes padding bytes versus the " +
		"optimal permutation, with the suggested order",
	Scopes: []Scope{
		{Pkg: "internal/core"},
		{Pkg: "internal/gapped"},
	},
	Advisory: true,
	Run:      runFieldAlign,
}

func runFieldAlign(pass *Pass) error {
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, ok := pass.Info.Defs[ts.Name]
			if !ok {
				return true
			}
			tstruct, ok := obj.Type().Underlying().(*types.Struct)
			if !ok || tstruct.NumFields() < 2 {
				return true
			}
			cur := sizes.Sizeof(tstruct)
			best, order := bestLayout(sizes, tstruct)
			if best < cur {
				pass.Reportf(st.Pos(),
					"struct %s is %d bytes; reordering fields to (%s) makes it %d — %d bytes of padding per value",
					ts.Name.Name, cur, strings.Join(order, ", "), best, cur-best)
			}
			return true
		})
	}
	return nil
}

// bestLayout computes the smallest struct size achievable by
// reordering fields: the classic greedy order (descending alignment,
// then descending size) is optimal for gc's layout rules, with the
// zero-size-final-field caveat handled by measuring the real
// permutation through types.Sizes rather than summing by hand.
func bestLayout(sizes types.Sizes, st *types.Struct) (int64, []string) {
	n := st.NumFields()
	fields := make([]*types.Var, n)
	for i := 0; i < n; i++ {
		fields[i] = st.Field(i)
	}
	sort.SliceStable(fields, func(i, j int) bool {
		ai, aj := sizes.Alignof(fields[i].Type()), sizes.Alignof(fields[j].Type())
		if ai != aj {
			return ai > aj
		}
		si, sj := sizes.Sizeof(fields[i].Type()), sizes.Sizeof(fields[j].Type())
		return si > sj
	})
	// A zero-sized field must not end the struct (it would force a
	// full padding slot to give it a distinct address); the greedy
	// order puts them last, so bump one non-zero field behind them.
	if n > 1 && sizes.Sizeof(fields[n-1].Type()) == 0 {
		for i := n - 1; i >= 0; i-- {
			if sizes.Sizeof(fields[i].Type()) != 0 {
				f := fields[i]
				copy(fields[i:], fields[i+1:])
				fields[n-1] = f
				break
			}
		}
	}
	reordered := types.NewStruct(fields, nil)
	names := make([]string, n)
	for i, f := range fields {
		names[i] = f.Name()
	}
	return sizes.Sizeof(reordered), names
}
