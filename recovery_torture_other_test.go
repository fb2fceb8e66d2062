//go:build !linux

package alex_test

import "os/exec"

// dieWithParent is a no-op off Linux, which has no parent-death signal;
// children there are killed only by t.Cleanup.
func dieWithParent(*exec.Cmd) {}
