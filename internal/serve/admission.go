package serve

import "sync/atomic"

// admission is the bounded in-flight query budget: a semaphore that
// fails fast instead of queuing, so an overloaded server spends its
// cycles finishing admitted work and answering 429s in microseconds
// rather than stacking goroutines behind queries it will only slow
// down.
type admission struct {
	slots     chan struct{}
	overloads atomic.Int64
}

func newAdmission(limit int) *admission {
	return &admission{slots: make(chan struct{}, limit)}
}

// tryAcquire claims a slot or reports overload immediately.
func (a *admission) tryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		a.overloads.Add(1)
		return false
	}
}

func (a *admission) release() { <-a.slots }

// inflight is the currently admitted query count.
func (a *admission) inflight() int { return len(a.slots) }

// limit is the admission capacity.
func (a *admission) limit() int { return cap(a.slots) }
