package main_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// run executes the alexvet CLI from the repository root via go run and
// returns its combined output and exit code.
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", append([]string{"run", "./cmd/alexvet"}, args...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	t.Fatalf("go run ./cmd/alexvet %v: %v\n%s", args, err, out)
	return "", 0
}

// TestAlexvetSeededViolationFailsBuild is the CI-gate demonstration:
// pointing alexvet at a fixture package seeded with violations must
// exit non-zero, so a real violation anywhere in ./... fails the lint
// job the same way.
func TestAlexvetSeededViolationFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	out, code := run(t, "./internal/lint/testdata/src/atomicfield")
	if code != 1 {
		t.Fatalf("seeded violation: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "[atomicfield]") {
		t.Errorf("seeded violation: findings missing the [atomicfield] tag:\n%s", out)
	}
}

// TestAlexvetCleanPackageExitsZero checks the other half of the gate
// contract on a small always-clean package.
func TestAlexvetCleanPackageExitsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	out, code := run(t, "./internal/bitmapx")
	if code != 0 {
		t.Fatalf("clean package: exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "0 blocking finding(s)") {
		t.Errorf("clean package: summary line missing:\n%s", out)
	}
}

// TestAlexvetListCatalog checks -list names every analyzer of the
// suite, which keeps docs/static-analysis.md honest about the catalog.
func TestAlexvetListCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the CLI")
	}
	out, code := run(t, "-list")
	if code != 0 {
		t.Fatalf("-list: exit %d\n%s", code, out)
	}
	for _, name := range []string{"fsbypass", "atomicfield", "optparity", "errwrap", "locknest", "fieldalign"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out)
		}
	}
}
