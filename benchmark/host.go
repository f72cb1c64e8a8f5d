package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Host-noise accounting. Wall-clock numbers on a shared 2-core host
// move with the hypervisor's mood; these readings sit beside every
// record so a reader can tell a slow run from a slow host.

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat and /proc/stat
// count CPU time in these. It is 100 on every Linux the Go toolchain
// supports.
const clockTick = 10 * time.Millisecond

// cpuTimes is one reading of the aggregate "cpu" line of /proc/stat.
type cpuTimes struct{ steal, total uint64 }

func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat head %q", line)
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal (guest times are
	// already inside user).
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat field %d: %w", i, err)
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealPct is the share of CPU time the hypervisor withheld between two
// readings.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// procCPU reads utime+stime of a live process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after the last ')'.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected cpu fields in /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procPeakRSS reads VmHWM of a live process, in MiB.
func procPeakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is the harness's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrate spins a fixed integer hash on every core at once and
// returns the wall time in ms: the same work every call, so its drift
// is the host's, not the program's.
func calibrate(nproc int) float64 {
	const iters = 20_000_000
	var wg sync.WaitGroup
	sinks := make([]uint64, nproc)
	t0 := time.Now()
	for c := 0; c < nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := uint64(c) + 0x9e3779b97f4a7c15
			for i := 0; i < iters; i++ {
				x ^= x >> 30
				x *= 0xbf58476d1ce4e5b9
				x ^= x >> 27
			}
			sinks[c] = x
		}(c)
	}
	wg.Wait()
	return ms(time.Since(t0))
}

// dirBytes sums the sizes of the regular files directly inside dir
// whose name starts with prefix ("" matches all). A durable tenant
// directory is flat.
func dirBytes(dir, prefix string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if !e.Type().IsRegular() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			if os.IsNotExist(err) {
				continue // rotated away between ReadDir and stat
			}
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}
