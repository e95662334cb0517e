package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent makes the workload process exit if agbench itself is
// killed, so an interrupted run leaves nothing running.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
