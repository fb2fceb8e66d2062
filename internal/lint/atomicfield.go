package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField enforces the structural-publication invariant of
// docs/concurrency.md ("structure is published atomically"): a struct
// field whose type comes from sync/atomic — or any field annotated
// `//alex:atomic` — may be used only as the receiver of its atomic
// methods (Load/Store/CompareAndSwap/Swap/Add). Copying the value,
// assigning over it, or taking its address for anything but an atomic
// op tears the publication protocol: the copy is a plain read racing
// writers, and an overwrite skips the single-store publication rule.
// Annotated plain-typed fields must be touched exclusively through
// sync/atomic package functions taking the field's address, in every
// package that reaches them — the annotation on an exported field
// (gapped.Array.Ver) binds the packages that import it too.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc: "fields of sync/atomic type or annotated //alex:atomic may only be " +
		"accessed via atomic operations; no copies, overwrites, or stray address-taking",
	Run: runAtomicField,
}

// atomicAnnotation marks a plain-typed field as atomic-access-only.
const atomicAnnotation = "//alex:atomic"

func runAtomicField(pass *Pass) error {
	annotated := annotatedFields(pass)
	imported := &importedAnnotations{fset: pass.Fset, files: map[string]map[int]bool{}}
	for _, f := range pass.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := pass.Info.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			field, ok := selection.Obj().(*types.Var)
			if !ok {
				return true
			}
			if field.Pkg() != pass.Pkg && !annotated[field] && imported.annotated(field) {
				annotated[field] = true
			}
			switch {
			case isAtomicType(field.Type()):
				checkAtomicTypedUse(pass, sel, stack)
			case annotated[field]:
				checkAnnotatedUse(pass, sel, field, stack)
			}
			return true
		})
	}
	return nil
}

// annotatedFields collects struct fields carrying the //alex:atomic
// line comment or doc comment.
func annotatedFields(pass *Pass) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, fld := range st.Fields.List {
				if !fieldAnnotated(fld) {
					continue
				}
				for _, name := range fld.Names {
					if v, ok := pass.Info.Defs[name].(*types.Var); ok {
						out[v] = true
					}
				}
			}
			return true
		})
	}
	return out
}

// importedAnnotations finds annotations on fields declared in other
// packages. The loader type-checks imports from source into the shared
// FileSet, so a field's position names its declaring file; each such
// file is re-parsed once with comments (imports are type-checked
// without them) and its annotated fields recorded by name offset.
type importedAnnotations struct {
	fset  *token.FileSet
	files map[string]map[int]bool // filename -> offsets of annotated field names
}

func (ia *importedAnnotations) annotated(field *types.Var) bool {
	pos := ia.fset.Position(field.Pos())
	if !pos.IsValid() || pos.Filename == "" {
		return false
	}
	offs, ok := ia.files[pos.Filename]
	if !ok {
		offs = map[int]bool{}
		fs := token.NewFileSet()
		if f, err := parser.ParseFile(fs, pos.Filename, nil, parser.ParseComments); err == nil {
			ast.Inspect(f, func(n ast.Node) bool {
				if fld, ok := n.(*ast.Field); ok && fieldAnnotated(fld) {
					for _, name := range fld.Names {
						offs[fs.Position(name.Pos()).Offset] = true
					}
				}
				return true
			})
		}
		ia.files[pos.Filename] = offs
	}
	return offs[pos.Offset]
}

func fieldAnnotated(fld *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, atomicAnnotation) {
				return true
			}
		}
	}
	return false
}

// isAtomicType reports whether t is a named type of package
// sync/atomic (Pointer[T], Uint64, Int64, Bool, Value, ...).
func isAtomicType(t types.Type) bool {
	named := namedOf(t)
	return named != nil && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync/atomic"
}

// checkAtomicTypedUse validates one use of an atomic-typed field: the
// only legal contexts are method-call receiver (directly or through
// &), since the sync/atomic types expose nothing unsafe.
func checkAtomicTypedUse(pass *Pass, sel *ast.SelectorExpr, stack []ast.Node) {
	parent := parentOf(stack, 1)
	// x.field.Load() — the selector is the X of a method selector.
	if ps, ok := parent.(*ast.SelectorExpr); ok && ps.X == sel {
		return
	}
	switch p := parent.(type) {
	case *ast.UnaryExpr:
		// &x.field is legal only to call a method through the pointer
		// or to hand the atomic itself (never its value) around; both
		// preserve the protocol, so allow address-taking.
		if p.Op == token.AND {
			return
		}
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == sel {
				pass.Reportf(sel.Pos(),
					"assignment overwrites atomic field %s; publish through .Store/.CompareAndSwap instead", sel.Sel.Name)
				return
			}
		}
	}
	pass.Reportf(sel.Pos(),
		"atomic field %s used as a value (copies tear the publication protocol); call .Load/.Store/.CompareAndSwap on it", sel.Sel.Name)
}

// checkAnnotatedUse validates one use of a plain-typed //alex:atomic
// field: it must appear exactly as &x.field passed to a sync/atomic
// package function (atomic.LoadUint64(&x.f), ...).
func checkAnnotatedUse(pass *Pass, sel *ast.SelectorExpr, field *types.Var, stack []ast.Node) {
	parent := parentOf(stack, 1)
	if u, ok := parent.(*ast.UnaryExpr); ok && u.Op == token.AND {
		if call, ok := parentOf(stack, 2).(*ast.CallExpr); ok {
			if pkg, _ := usedPackageFunc(pass.Info, call); pkg == "sync/atomic" {
				return
			}
		}
		pass.Reportf(sel.Pos(),
			"address of //alex:atomic field %s escapes outside a sync/atomic call", field.Name())
		return
	}
	pass.Reportf(sel.Pos(),
		"//alex:atomic field %s accessed non-atomically; use sync/atomic functions on &%s", field.Name(), exprString(pass.Fset, sel))
}

// parentOf returns the up'th ancestor from the walk stack (1 = the
// immediate parent). The stack holds ancestors outermost-first and
// does not include the node itself.
func parentOf(stack []ast.Node, up int) ast.Node {
	if len(stack) < up {
		return nil
	}
	return stack[len(stack)-up]
}
