package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// The benchmark launches shermand itself instead of through
// tcp.LaunchLocal, which runs `go build` inside set-up and hands the
// children the parent's stderr — so a dying parent leaves its caller's pipe
// open for as long as a server lives. Here the binary is built beforehand
// (run.sh), every server runs in its own process group with stderr on a file
// and a private stdout pipe for its banner, and the kernel kills it if this
// process dies first.

const (
	binDir = "bin"
	outDir = "out"
)

// servers is one launched set of shermand processes.
type servers struct {
	endpoints []string
	cmds      []*exec.Cmd
}

// live tracks every launched set so a signal or the watchdog can kill them.
var live struct {
	sync.Mutex
	sets []*servers
}

// launch starts n memory servers on loopback and returns once each has
// printed its LISTEN banner. Pdeathsig follows the OS thread that forked the
// child; the Go runtime retires a thread only when a goroutine locked to it
// exits, and nothing in this program locks one.
func launch(n int) (*servers, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(filepath.Join(binDir, "shermand"))
	if err != nil {
		return nil, err
	}
	s := &servers{}
	live.Lock()
	live.sets = append(live.sets, s)
	live.Unlock()
	for i := 0; i < n; i++ {
		logf, err := os.Create(filepath.Join(outDir, fmt.Sprintf("shermand-%d.log", i)))
		if err != nil {
			s.stop()
			return nil, err
		}
		cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
		cmd.Stderr = logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		banner, err := cmd.StdoutPipe() // private to this pair; closed by Wait
		if err == nil {
			err = cmd.Start()
		}
		logf.Close() // the child holds its own descriptor
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("starting shermand %d: %w", i, err)
		}
		live.Lock()
		s.cmds = append(s.cmds, cmd)
		live.Unlock()
		line, err := bufio.NewReader(banner).ReadString('\n')
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "LISTEN ")
		if err != nil || !ok {
			s.stop()
			return nil, fmt.Errorf("shermand %d: no LISTEN banner (%q, %v)", i, line, err)
		}
		s.endpoints = append(s.endpoints, addr)
	}
	return s, nil
}

// pids lists the server process ids, for /proc accounting.
func (s *servers) pids() []int {
	var out []int
	for _, c := range s.cmds {
		out = append(out, c.Process.Pid)
	}
	return out
}

// stop kills every server's process group and waits until each has ended.
// Safe to call twice and on a partially launched set.
func (s *servers) stop() {
	live.Lock()
	cmds := s.cmds
	s.cmds = nil
	live.Unlock()
	for _, c := range cmds {
		syscall.Kill(-c.Process.Pid, syscall.SIGKILL) // ESRCH when it already exited
	}
	for _, c := range cmds {
		c.Wait() // the exit status of a killed server carries no information
	}
}

// stopAll ends every launched server; the signal handler and the watchdog
// call it before exiting.
func stopAll() {
	live.Lock()
	sets := append([]*servers(nil), live.sets...)
	live.Unlock()
	for _, s := range sets {
		s.stop()
	}
}
