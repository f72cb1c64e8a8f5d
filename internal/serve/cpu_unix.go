//go:build unix

package serve

import (
	"fmt"
	"io"
	"syscall"
	"time"
)

// writeProcessCPU emits process_cpu_seconds_total: the user plus system
// CPU time of the whole process, every thread that ever ran in it
// included (getrusage RUSAGE_SELF), so a scraper can difference two
// readings around a workload. A failed call emits nothing.
func writeProcessCPU(w io.Writer) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	fmt.Fprintf(w, "# HELP process_cpu_seconds_total User plus system CPU time the process has used.\n")
	fmt.Fprintf(w, "# TYPE process_cpu_seconds_total counter\n")
	fmt.Fprintf(w, "process_cpu_seconds_total %g\n", cpu.Seconds())
}
