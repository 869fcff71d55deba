package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// Readers of /proc for the noise guard and for the memory and CPU metrics.
// A field that cannot be read is 0: the guard is advisory and the sandbox
// may hide parts of /proc.

// statusField returns the number in a "Key:  123 kB" line of
// /proc/<pid>/status.
func statusField(pid int, key string) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			v, _ := strconv.ParseInt(f[0], 10, 64)
			return v
		}
	}
	return 0
}

// cpuTicks returns utime+stime of pid in clock ticks (USER_HZ, 100/s).
func cpuTicks(pid int) int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name may hold spaces; fields are counted after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return ut + st
}

const tickUS = 1e6 / 100 // microseconds per clock tick

// selfUsage is this process's user+system CPU time in microseconds and its
// involuntary context switches, over all threads.
func selfUsage() (cpuUS, involCtx int64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, 0
	}
	return (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec+ru.Stime.Usec), ru.Nivcsw
}

// hostCPU returns the machine's steal and total jiffies from /proc/stat.
func hostCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, s := range f[1:] {
		v, _ := strconv.ParseInt(s, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64)
	return v
}
