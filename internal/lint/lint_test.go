package lint_test

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// loadFixture loads and type-checks testdata/src/<name>. Fixtures must
// type-check cleanly: a broken fixture silently weakens its analyzer
// (go/types facts go missing and findings evaporate), so type errors
// fail the test instead of degrading it.
func loadFixture(t *testing.T, name string) *lint.Package {
	t.Helper()
	pkg, err := lint.NewLoader().Load(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", name, terr)
	}
	return pkg
}

// wantRe extracts the backtick- or double-quoted regexes of a
// `// want` comment (the analysistest convention).
var wantRe = regexp.MustCompile("`([^`]+)`|\"((?:[^\"\\\\]|\\\\.)+)\"")

type wantEntry struct {
	re      *regexp.Regexp
	matched bool
}

// collectWants gathers the expected-diagnostic markers of a fixture:
// each `// want "re"` (or backquoted) comment expects one diagnostic
// per pattern on the comment's own line.
func collectWants(t *testing.T, pkg *lint.Package) map[string][]*wantEntry {
	t.Helper()
	wants := map[string][]*wantEntry{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(c.Text[idx+len("// want "):], -1) {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", key, pat, err)
					}
					wants[key] = append(wants[key], &wantEntry{re: re})
				}
			}
		}
	}
	return wants
}

// runFixture runs one analyzer over one fixture package and asserts
// its diagnostics match the fixture's want markers exactly: every
// diagnostic needs a marker on its line, every marker needs a
// diagnostic.
func runFixture(t *testing.T, a *lint.Analyzer, fixture string) {
	t.Helper()
	pkg := loadFixture(t, fixture)
	diags, err := lint.Run(a, pkg)
	if err != nil {
		t.Fatalf("run %s on %s: %v", a.Name, fixture, err)
	}
	wants := collectWants(t, pkg)
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		key := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: unexpected diagnostic: [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	for key, entries := range wants {
		for _, w := range entries {
			if !w.matched {
				t.Errorf("%s: expected diagnostic matching %q was not reported", key, w.re)
			}
		}
	}
}

func TestLintFSBypassFixture(t *testing.T) { runFixture(t, lint.FSBypass, "fsbypass") }
func TestLintAtomicFieldFixture(t *testing.T) {
	runFixture(t, lint.AtomicField, "atomicfield")
}
func TestLintOptParityFixture(t *testing.T) { runFixture(t, lint.OptParity, "optparity") }
func TestLintOptParityConforming(t *testing.T) {
	runFixture(t, lint.OptParity, "optparityok")
}
func TestLintErrWrapFixture(t *testing.T)  { runFixture(t, lint.ErrWrap, "errwrap") }
func TestLintLockNestFixture(t *testing.T) { runFixture(t, lint.LockNest, "locknest") }
func TestLintFieldAlignFixture(t *testing.T) {
	runFixture(t, lint.FieldAlign, "fieldalign")
}

// TestLintIgnoreDirective checks the suppression machinery end to end:
// reasoned directives (same line and line above) suppress their
// findings, and the bare directive is reported as a finding itself.
func TestLintIgnoreDirective(t *testing.T) {
	pkg := loadFixture(t, "ignore")
	diags, err := lint.Run(lint.ErrWrap, pkg)
	if err != nil {
		t.Fatalf("run errwrap on ignore fixture: %v", err)
	}
	if len(diags) != 1 {
		for _, d := range diags {
			t.Logf("  %s: [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
		t.Fatalf("ignore fixture: got %d diagnostics, want exactly 1 (the bare directive)", len(diags))
	}
	if !strings.Contains(diags[0].Message, "needs a reason") {
		t.Errorf("ignore fixture: got %q, want the bare-directive finding", diags[0].Message)
	}
}

// TestLintRepoClean is the meta-test behind the CI gate: the full
// analyzer suite, scoped exactly as cmd/alexvet scopes it, must report
// zero blocking findings on the repository itself. A failure here is a
// real invariant violation (fix it) or a new false-positive class
// (refine the analyzer or add a reasoned //alexvet:ignore) — never a
// reason to delete the test.
func TestLintRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repository")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := lint.ExpandPatterns([]string{root + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	loader := lint.NewLoader()
	for _, dir := range dirs {
		pkg, err := loader.Load(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
		rel, err := filepath.Rel(root, pkg.Dir)
		if err != nil || rel == "." {
			rel = ""
		}
		for _, a := range lint.All() {
			diags, err := lint.RunScoped(a, pkg, filepath.ToSlash(rel))
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				if d.Advisory {
					continue // advisory findings do not gate; cmd/alexvet prints them
				}
				pos := pkg.Fset.Position(d.Pos)
				t.Errorf("%s: [%s] %s", pos, d.Analyzer, d.Message)
			}
		}
	}
}
