//go:build !unix

package serve

import "io"

// writeProcessCPU emits no series where getrusage is not available.
func writeProcessCPU(io.Writer) {}
