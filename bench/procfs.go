package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// cpuTime reads how long a process's threads have run on a CPU, from the
// scheduler's own nanosecond count in /proc/<pid>/schedstat. (The utime and
// stime of /proc/<pid>/stat are sampled at the 10 ms tick, which for a
// process busy a fifth of the time is a quarter off over one second.)
func cpuTime(pid int) (time.Duration, error) {
	var total time.Duration
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread ended between the listing and the read
		}
		f := strings.Fields(string(data))
		if len(f) < 1 {
			return 0, fmt.Errorf("bench: unreadable schedstat of %d/%s", pid, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bench: unreadable schedstat of %d/%s: %w", pid, t.Name(), err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSSMB reads a process's VmHWM, in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("bench: unreadable VmHWM %q", rest)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM in /proc/%d/status", pid)
}
