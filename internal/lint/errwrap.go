package lint

import (
	"go/ast"
	"strconv"
	"strings"
)

// errwrapDiscardMethods are methods whose error return carries a
// durability fact: discarding one with `_ =` silently swallows an
// injected (or real) disk failure, leaving the degradation contract
// unexercised. Close is deliberately absent on read-only paths —
// idiomatic `defer f.Close()` drops the error in statement position,
// not via `_ =` — but an explicit `_ = f.Close()` on any seam type is
// still a conscious swallow and is flagged.
var errwrapDiscardMethods = map[string]bool{
	"Sync": true, "SyncDir": true, "Flush": true, "Close": true,
	"Write": true, "WriteAt": true, "Truncate": true,
	"Rename": true, "Remove": true, "MkdirAll": true, "Append": true,
}

// ErrWrap enforces the error contract of the durability write path
// (docs/failure-model.md): degradation errors must keep their
// errors.Is chain (an error formatted with %v instead of %w strips
// ErrDegraded and every errors.Is caller silently stops matching), a
// durability error must never be discarded with `_ =`, and the
// `if err != nil { return nil }` swallow pattern is forbidden.
var ErrWrap = &Analyzer{
	Name: "errwrap",
	Doc: "durability errors keep their errors.Is chain (%w, not %v), are never " +
		"blank-discarded, and never swallowed by `if err != nil { return nil }`",
	// internal/faultfs is deliberately out of scope: the injector's own
	// best-effort discards (truncating files during a simulated crash)
	// ARE the crash semantics, not the write path under contract.
	Scopes: []Scope{
		{Pkg: "internal/wal"},
		{Pkg: "internal/pagestore"},
		{Pkg: "", Files: []string{"durable.go", "snapshot.go", "replication.go"}},
	},
	Run: runErrWrap,
}

func runErrWrap(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				checkBlankDiscard(pass, x)
			case *ast.IfStmt:
				checkNilSwallow(pass, x)
			case *ast.CallExpr:
				checkErrorfWrap(pass, x)
			}
			return true
		})
	}
	return nil
}

// checkBlankDiscard flags `_ = x.Sync()`-shaped statements where the
// discarded call is a durability-surface method returning an error.
func checkBlankDiscard(pass *Pass, assign *ast.AssignStmt) {
	if len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return
	}
	id, ok := assign.Lhs[0].(*ast.Ident)
	if !ok || id.Name != "_" {
		return
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	if tv, ok := pass.Info.Types[call]; !ok || !isErrorType(tv.Type) {
		return
	}
	var name string
	if _, _, m := methodOn(pass.Info, call); m != "" {
		name = m
	} else if _, fn := usedPackageFunc(pass.Info, call); fn != "" {
		name = fn
	}
	if errwrapDiscardMethods[name] {
		pass.Reportf(assign.Pos(),
			"durability error from %s discarded with `_ =`; handle it (degrade, log, or return) — an injected fault here vanishes silently",
			exprString(pass.Fset, call.Fun))
	}
}

// checkNilSwallow flags `if err != nil { return nil }`: an error was
// observed and then deliberately replaced by success. Conversions that
// keep the error (return err, return wrapped) or return a sentinel
// are fine; only the all-nil-error return inside the error branch is
// the swallow. The classifier idiom
// `if err != nil { if !os.IsNotExist(err) { return nil, err }; ... }`
// is also fine: an earlier statement in the branch gives the error an
// escape path, so the later nil return is a classified benign case,
// not a swallow.
func checkNilSwallow(pass *Pass, ifstmt *ast.IfStmt) {
	bin, ok := ifstmt.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op.String() != "!=" || !isNilIdent(bin.Y) {
		return
	}
	if tv, ok := pass.Info.Types[bin.X]; !ok || !isErrorType(tv.Type) {
		return
	}
	// The enclosing function's error result positions.
	errSlots := errorResultSlots(pass, ifstmt)
	if len(errSlots) == 0 {
		return
	}
	for _, stmt := range ifstmt.Body.List {
		if containsErrorEscape(stmt, errSlots) {
			return // the error can still propagate; later nil returns classified it benign
		}
		ret, ok := stmt.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			continue
		}
		allNil := true
		for _, slot := range errSlots {
			if slot >= len(ret.Results) || !isNilIdent(ret.Results[slot]) {
				allNil = false
				break
			}
		}
		if allNil {
			pass.Reportf(ret.Pos(),
				"error checked non-nil but nil returned in its place; the failure is swallowed — return the error (or wrap it)")
		}
	}
}

// containsErrorEscape reports whether stmt contains a return that
// propagates a non-nil value in an error slot (function literals are
// skipped — their returns leave a different function).
func containsErrorEscape(stmt ast.Stmt, errSlots []int) bool {
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) == 0 {
			return true
		}
		for _, slot := range errSlots {
			if slot < len(ret.Results) && !isNilIdent(ret.Results[slot]) {
				found = true
			}
		}
		return true
	})
	return found
}

// within reports whether target lies inside node's source range.
func within(node ast.Node, target ast.Node) bool {
	return node.Pos() <= target.Pos() && target.End() <= node.End()
}

// errorResultSlots returns the result indices with error type for the
// function enclosing node (via the innermost FuncDecl/FuncLit whose
// range covers it).
func errorResultSlots(pass *Pass, node ast.Node) []int {
	var ftype *ast.FuncType
	for _, f := range pass.Files {
		if !within(f, node) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil && within(d.Body, node) {
					ftype = d.Type
				}
			case *ast.FuncLit:
				if within(d.Body, node) {
					ftype = d.Type
				}
			}
			return true
		})
	}
	if ftype == nil || ftype.Results == nil {
		return nil
	}
	var slots []int
	i := 0
	for _, field := range ftype.Results.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		tv, ok := pass.Info.Types[field.Type]
		for j := 0; j < n; j++ {
			if ok && isErrorType(tv.Type) {
				slots = append(slots, i)
			}
			i++
		}
	}
	return slots
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// checkErrorfWrap flags fmt.Errorf calls that format an error-typed
// argument without a single %w: the produced error loses its
// errors.Is chain, so ErrDegraded (and injected faultfs sentinels)
// stop matching downstream.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	if pkg, name := usedPackageFunc(pass.Info, call); pkg != "fmt" || name != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil {
		return
	}
	if strings.Contains(format, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		tv, ok := pass.Info.Types[arg]
		if ok && isErrorType(tv.Type) {
			pass.Reportf(call.Pos(),
				"fmt.Errorf formats an error without %%w; the errors.Is chain (ErrDegraded, injected fault sentinels) is stripped")
			return
		}
	}
}
