package alex_test

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel SIGKILL cmd's process when the thread
// that started it exits — in practice, when the test binary exits, by
// any path. A -timeout panic or a SIGKILL of the test binary skips
// t.Cleanup, which would otherwise leave the child running. The Go
// runtime retires a thread only when a goroutine locked to it exits,
// and the tests start children from unlocked goroutines.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
