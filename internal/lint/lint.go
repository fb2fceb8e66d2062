// Package lint is the project-specific static-analysis suite behind
// cmd/alexvet. Each analyzer mechanically enforces one invariant that
// the concurrency and failure-model documentation otherwise states
// only as prose: every file operation in the durability stack goes
// through the internal/faultfs seam (fsbypass), structural-reference
// fields are touched only through atomic operations (atomicfield), the
// race/!race build-tag file pairs declare identical surfaces
// (optparity), durability errors are never swallowed and always keep
// their errors.Is chain (errwrap), and no shard lock is acquired while
// another is held outside the whitelisted consistent-cut functions
// (locknest). See docs/static-analysis.md for the catalog.
//
// The suite is built on the same stdlib go/parser + go/types loader
// pattern cmd/doccheck established, because the build environment
// cannot fetch golang.org/x/tools: Analyzer/Pass/Diagnostic mirror the
// x/tools go/analysis shapes closely enough that a future migration is
// a mechanical port, and the fixture harness (internal/lint/linttest)
// mirrors analysistest's "// want" convention.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Scope names one place an analyzer applies: a package (by
// module-root-relative directory, "" = the root package) and,
// optionally, specific files within it. With Files set, the analyzer
// still inspects the whole package (cross-file type facts stay
// available) but only findings inside those files are reported.
type Scope struct {
	Pkg   string
	Files []string
}

// Analyzer is one named check. The driver (cmd/alexvet) applies each
// analyzer to the packages its Scopes select; the fixture harness runs
// analyzers directly on testdata packages, bypassing scoping.
type Analyzer struct {
	// Name identifies the analyzer in findings and documentation.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Scopes restricts where the analyzer runs. Nil means every
	// package.
	Scopes []Scope
	// Advisory findings are printed but do not fail the run: they feed
	// ratchets (struct layout) rather than gate invariants.
	Advisory bool
	// Run reports findings for one package.
	Run func(*Pass) error
}

// Pass carries one loaded package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's build-selected, non-test files.
	Files []*ast.File
	// Pkg and Info are the type-check results; analyzers must tolerate
	// incomplete info (missing map entries) so a partial type-check
	// degrades to fewer findings, never to a crash.
	Pkg  *types.Package
	Info *types.Info
	// Path is the package import path ("repro/internal/wal"); Dir is
	// its directory on disk (optparity re-reads the dir to see files
	// excluded by build tags).
	Path string
	Dir  string

	diags []Diagnostic
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
	Advisory bool
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Advisory: p.Analyzer.Advisory,
	})
}

// IgnoreDirective is the in-source suppression marker. A finding on
// the same line as, or the line directly below, a comment of the form
//
//	//alexvet:ignore <reason>
//
// is suppressed. The reason is mandatory: a bare directive is itself
// reported, so every suppression in the tree documents why the
// invariant does not apply at that site.
const IgnoreDirective = "//alexvet:ignore"

// Run executes a on the package unconditionally (no scope filtering —
// this is the fixture-harness entry point) and returns its findings
// with ignore directives applied, ordered by position.
func Run(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
		Path:     pkg.Path,
		Dir:      pkg.Dir,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	diags := applyIgnores(pkg, pass.diags)
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// RunScoped executes a on the package only if the package's
// module-root-relative directory rel ("" for the root package) is in
// the analyzer's scope, filtering findings to the scope's files. This
// is the driver and meta-test entry point.
func RunScoped(a *Analyzer, pkg *Package, rel string) ([]Diagnostic, error) {
	scope, ok := a.scopeFor(rel)
	if !ok {
		return nil, nil
	}
	diags, err := Run(a, pkg)
	if err != nil {
		return nil, err
	}
	if scope != nil && len(scope.Files) > 0 {
		kept := diags[:0]
		for _, d := range diags {
			base := baseName(pkg.Fset.Position(d.Pos).Filename)
			for _, f := range scope.Files {
				if base == f {
					kept = append(kept, d)
					break
				}
			}
		}
		diags = kept
	}
	return diags, nil
}

// scopeFor returns the matching scope for a package directory (nil
// scope = unrestricted analyzer) and whether the analyzer applies.
func (a *Analyzer) scopeFor(rel string) (*Scope, bool) {
	if len(a.Scopes) == 0 {
		return nil, true
	}
	rel = strings.TrimPrefix(rel, "./")
	if rel == "." {
		rel = ""
	}
	for i := range a.Scopes {
		if a.Scopes[i].Pkg == rel {
			return &a.Scopes[i], true
		}
	}
	return nil, false
}

func baseName(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// applyIgnores suppresses diagnostics covered by an ignore directive
// and reports reason-less directives as findings of their own.
func applyIgnores(pkg *Package, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
	}
	ignores := map[key]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, IgnoreDirective)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if strings.TrimSpace(rest) == "" {
					diags = append(diags, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "alexvet",
						Message:  "alexvet:ignore directive needs a reason: //alexvet:ignore <why the invariant does not apply here>",
					})
					continue
				}
				ignores[key{pos.Filename, pos.Line}] = true
			}
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if ignores[key{pos.Filename, pos.Line}] || ignores[key{pos.Filename, pos.Line - 1}] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// All returns the full analyzer suite in catalog order: the blocking
// invariant gates first, the advisory layout pass last.
func All() []*Analyzer {
	return []*Analyzer{
		FSBypass,
		AtomicField,
		OptParity,
		ErrWrap,
		LockNest,
		FieldAlign,
	}
}
