package tcp

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// Signal delivers sig to server ms's process — SIGSTOP stalls it without
// closing its sockets (the silent-death case heartbeats must catch),
// SIGCONT resumes it.
func (ls *LocalServers) Signal(ms int, sig os.Signal) error {
	if ms < 0 || ms >= len(ls.procs) || ls.procs[ms].Process == nil {
		return fmt.Errorf("tcp: no server process %d", ms)
	}
	return ls.procs[ms].Process.Signal(sig)
}

// Kill SIGKILLs server ms's process, taking effect mid-doorbell if one is
// in flight. It only ends the process: the deployment learns of the death
// through its fault injector (deploy.Faults.KillMS), which
// KillMemoryServer calls first, or else from a missed heartbeat or a
// verb's I/O error. The process is reaped so it does not linger as a
// zombie; Stop remains safe to call afterwards.
func (ls *LocalServers) Kill(ms int) error {
	if ms < 0 || ms >= len(ls.procs) || ls.procs[ms].Process == nil {
		return fmt.Errorf("tcp: no server process %d", ms)
	}
	if err := ls.procs[ms].Process.Kill(); err != nil {
		return err
	}
	waited := make(chan struct{})
	go func(c *exec.Cmd) { c.Wait(); close(waited) }(ls.procs[ms])
	select {
	case <-waited:
	case <-time.After(5 * time.Second):
		return fmt.Errorf("tcp: server %d did not exit after SIGKILL", ms)
	}
	return nil
}

// LocalServers is a set of shermand processes launched on loopback for a
// local cluster (the README's 2-process quickstart, the tcppipe and
// tcpfault experiments, and the tests that SIGKILL a real process).
type LocalServers struct {
	// Endpoints are the servers' listen addresses, index = memory server id.
	Endpoints []string

	procs []*exec.Cmd
	dir   string
}

// LaunchLocal builds cmd/shermand (with the module's own toolchain — no
// binaries are shipped) and spawns n memory-server processes on loopback
// ports. Each prints "LISTEN <addr>" once bound; LaunchLocal returns when
// all n are accepting. Call Stop to tear the processes down. Launching owns
// the processes, not their liveness: a server is dead to a cluster over
// them only once that cluster's fault injector says so.
func LaunchLocal(n int) (*LocalServers, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tcp: need at least one server")
	}
	dir, err := os.MkdirTemp("", "shermand")
	if err != nil {
		return nil, err
	}
	ls := &LocalServers{dir: dir}
	bin := filepath.Join(dir, "shermand")
	build := exec.Command("go", "build", "-o", bin, "sherman/cmd/shermand")
	if out, err := build.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("tcp: building shermand: %v\n%s", err, out)
	}
	for i := 0; i < n; i++ {
		cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			ls.Stop()
			return nil, err
		}
		if err := cmd.Start(); err != nil {
			ls.Stop()
			return nil, fmt.Errorf("tcp: starting shermand %d: %w", i, err)
		}
		ls.procs = append(ls.procs, cmd)
		line, err := bufio.NewReader(stdout).ReadString('\n')
		if err != nil {
			ls.Stop()
			return nil, fmt.Errorf("tcp: shermand %d died before binding: %w", i, err)
		}
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "LISTEN ")
		if !ok {
			ls.Stop()
			return nil, fmt.Errorf("tcp: unexpected shermand %d banner %q", i, line)
		}
		ls.Endpoints = append(ls.Endpoints, addr)
	}
	return ls, nil
}

// Stop kills every server process and removes the scratch directory. Safe
// to call more than once and on a partially-launched set.
func (ls *LocalServers) Stop() {
	for _, p := range ls.procs {
		if p.Process != nil {
			p.Process.Kill()
		}
	}
	for _, p := range ls.procs {
		if p.Process != nil {
			waited := make(chan struct{})
			go func(c *exec.Cmd) { c.Wait(); close(waited) }(p)
			select {
			case <-waited:
			case <-time.After(5 * time.Second):
			}
		}
	}
	ls.procs = nil
	if ls.dir != "" {
		os.RemoveAll(ls.dir)
		ls.dir = ""
	}
}
